"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np

from heatline.channel import heat_series
from heatline.cli import main
from heatline.glsolve import construct_potential, make_uniform_grid, solve_psi_systems
from heatline.ritz import assemble_ritz_matrix, jacobi_eigen, verify_potential
from heatline.spectra import TargetSpectrum

from oracles import bisection_eigenvalues, fd_eigenvalues, nystrom_psi

PI = math.pi


def read_table(path):
    lines = path.read_text().strip().splitlines()
    return [line.split(",") for line in lines[1:]]


def test_criterion_1_uniform_table(tmp_path):
    """delta <= 1.5x the reference for M = 200, 250, 300 and strictly decreasing."""
    start = time.perf_counter()
    assert main(["table", "uniform", "--out-dir", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - start
    rows = read_table(tmp_path / "table_uniform.csv")
    deltas = {int(r[0]): float(r[1]) for r in rows}  # percent
    assert sorted(deltas) == [100, 150, 200, 250, 300]
    ceilings = {200: 1.5 * 1.65, 250: 1.5 * 0.67, 300: 1.5 * 0.32}
    for m, ceiling in ceilings.items():
        assert deltas[m] <= ceiling, f"M={m}: {deltas[m]}% > {ceiling}%"
    ordered = [deltas[m] for m in (100, 150, 200, 250, 300)]
    assert all(a > b for a, b in zip(ordered, ordered[1:])), ordered
    assert elapsed < 10.0, f"uniform table took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (uniform table): PASS "
          f"deltas={['%.4f%%' % d for d in ordered]} in {elapsed:.1f}s")


def test_criterion_2_two_zone_table(tmp_path):
    """delta <= 1.5x the reference for (50,75) and (50,100), decreasing in M2."""
    start = time.perf_counter()
    assert main(["table", "two_zone", "--out-dir", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - start
    rows = read_table(tmp_path / "table_two_zone.csv")
    deltas = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    assert deltas[(50, 75)] <= 1.5 * 0.94
    assert deltas[(50, 100)] <= 1.5 * 0.23
    ordered = [deltas[k] for k in ((50, 50), (50, 75), (50, 100))]
    assert all(a > b for a, b in zip(ordered, ordered[1:])), ordered
    assert elapsed < 5.0, f"two-zone table took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 (two-zone table): PASS "
          f"deltas={['%.4f%%' % d for d in ordered]} in {elapsed:.1f}s")


def test_criterion_3_target_spectrum_hit(report300):
    """First four eigenvalues at M = 300 match (0, 11, 14, 16)."""
    eigenvalues = report300.eigenvalues
    assert abs(eigenvalues[0]) <= 0.1
    for j, target in ((1, 11.0), (2, 14.0), (3, 16.0)):
        assert abs(eigenvalues[j] - target) / target <= 0.01
    print(f"\nACCEPTANCE 3 (target spectrum): PASS "
          f"nu_1..4 = {np.round(eigenvalues[:4], 6).tolist()}")


def test_criterion_4_zero_perturbation_identity():
    """Free spectral data give Q = 0 and the exact free Ritz spectrum."""
    spectrum = TargetSpectrum(perturbed=())
    samples = construct_potential(spectrum, make_uniform_grid(100))
    assert np.max(np.abs(samples.values)) <= 1e-10
    size = 20
    eigenvalues, _ = jacobi_eigen(assemble_ritz_matrix(samples, size))
    expected = np.arange(1.0, size + 1.0) ** 2
    assert np.max(np.abs(eigenvalues - expected)) <= 1e-10
    print(f"\nACCEPTANCE 4 (zero perturbation): PASS "
          f"max|Q|={np.max(np.abs(samples.values)):.2e}, "
          f"max|nu - n^2|={np.max(np.abs(eigenvalues - expected)):.2e}")


def test_criterion_5a_nystrom_equivalence(terms, grid300):
    """Richardson-extrapolated dense Nystrom solve matches the finite-rank reduction within 1e-3."""
    reduced = solve_psi_systems(terms, grid300).psi[::2]
    # the Nystrom error is O(h^2); (4 N_h - N_2h) / 3 removes that term
    coarse = nystrom_psi(terms, make_uniform_grid(150))
    reference = (4.0 * nystrom_psi(terms, grid300)[::2] - coarse) / 3.0
    rel = np.max(np.abs(reduced - reference)) / np.max(np.abs(reduced))
    assert rel <= 1e-3
    print(f"\nACCEPTANCE 5a (Nystrom oracle): PASS rel={rel:.2e}")


def test_criterion_5b_sturm_liouville_oracle(pot300, report300):
    """Finite-difference eigensolver agrees with the Ritz values within 2%."""
    fd = fd_eigenvalues(pot300, count=5)
    ritz = report300.eigenvalues[:5]
    rel = np.abs(fd - ritz) / np.maximum(np.abs(ritz), 1.0)
    assert np.all(rel <= 0.02)
    print(f"\nACCEPTANCE 5b (FD oracle): PASS max rel={np.max(rel):.2%}")


def test_criterion_5c_jacobi_oracle():
    """Jacobi matches inertia-bisection on random symmetric 10x10 matrices."""
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(5):
        a = rng.normal(size=(10, 10))
        a = a + a.T
        eigenvalues, _ = jacobi_eigen(a)
        worst = max(worst, float(np.max(np.abs(eigenvalues - bisection_eigenvalues(a)))))
    assert worst <= 1e-8
    print(f"\nACCEPTANCE 5c (Jacobi oracle): PASS max diff={worst:.2e}")


def test_criterion_6_heat_channel_claims(report300, modes300):
    """lambda_1 ~ 0, lambda_2 = 11 within 1%, residual decays at exp(-lambda_2 t)."""
    lam = modes300.combined
    assert abs(lam[0].value) <= 2.0 * report300.first_abs_error * (1.0 + 1e-12)
    assert abs(lam[1].value - 11.0) / 11.0 <= 0.01
    series = heat_series(
        modes300,
        axial_profile=lambda s: np.sin(s),
        radial_profile=lambda rho: np.exp(-2.0 * rho),
        truncation=25,
    )
    tail = series.tail_norm()
    for t in (0.5, 1.0, 2.0):
        bound = tail * math.exp(-lam[1].value * t) * (1.0 + 1e-9)
        assert series.residual_after_first(t) <= bound
    print(f"\nACCEPTANCE 6 (heat channel): PASS lambda_1={lam[0].value:.2e}, "
          f"lambda_2={lam[1].value:.6f}, residual(1.0)={series.residual_after_first(1.0):.3e}")


def test_criterion_7_linearized_negative_result(pot_two_zone_50_75):
    """Straight-line tail moments change the Ritz matrix by more than 10x somewhere."""
    from heatline.ritz import linearized_qtilde_diagnostic

    diag = linearized_qtilde_diagnostic(pot_two_zone_50_75, 20)
    assert diag.max_error > 10.0
    print(f"\nACCEPTANCE 7 (linearized moments): PASS "
          f"min(E)={diag.min_error:.4f}, max(E)={diag.max_error:.2f}")


def test_criterion_8_numerical_hygiene(terms, pot300, spectrum):
    """psi' converges at second order; Ritz eigenvalues nonincreasing in N."""
    errors = []
    for m in (100, 200, 400):
        grid = make_uniform_grid(m)
        sol = solve_psi_systems(terms, grid)
        h = PI / m
        fd = (sol.psi[2:] - sol.psi[:-2]) / (2.0 * h)
        errors.append(np.max(np.abs(sol.psi_prime[1:-1] - fd)))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(r >= 3.0 for r in ratios), ratios
    previous = None
    for size in (40, 70, 100):
        eigenvalues = verify_potential(
            pot300, spectrum, basis_size=size, compare_count=20
        ).eigenvalues[:20]
        if previous is not None:
            assert np.all(eigenvalues <= previous + 1e-9)
        previous = eigenvalues
    print(f"\nACCEPTANCE 8 (numerical hygiene): PASS "
          f"psi' ratios={['%.2f' % r for r in ratios]}, Ritz monotone in N")

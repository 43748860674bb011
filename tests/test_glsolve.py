import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, quad
from scipy.linalg import lu_factor, lu_solve

from heatline import glsolve
from heatline.glsolve import (
    Grid,
    PotentialSamples,
    SingularSystemError,
    construct_potential,
    exact_gram,
    make_two_zone_grid,
    make_uniform_grid,
    recover_potential,
    solve_psi_systems,
)
from heatline.ritz import JacobiConvergenceError, verify_potential
from heatline.spectra import KernelTermList, PerturbedLevel, TargetSpectrum, build_kernel_terms

from oracles import fd_eigenvalues, nystrom_psi
from strategies import admissible_spectra

PI = math.pi


class TestGrids:
    def test_uniform_minimal(self):
        grid = make_uniform_grid(2)
        assert np.allclose(grid.points, [0.0, PI / 2, PI])

    def test_uniform_spacing(self):
        grid = make_uniform_grid(100)
        assert len(grid) == 101
        assert np.allclose(np.diff(grid.points), PI / 100)

    def test_uniform_m4_spacing(self):
        grid = make_uniform_grid(4)
        assert np.allclose(np.diff(grid.points), PI / 4)

    def test_uniform_rejects_small(self):
        with pytest.raises(ValueError):
            make_uniform_grid(1)

    def test_two_zone_minimal(self):
        grid = make_two_zone_grid(1, 1)
        assert np.allclose(grid.points, [0.0, 0.9 * PI, PI])

    @pytest.mark.parametrize("m2, expected", [(75, 126), (100, 151)])
    def test_two_zone_point_counts(self, m2, expected):
        grid = make_two_zone_grid(50, m2)
        assert len(grid) == expected
        # the split point appears exactly once
        assert np.count_nonzero(np.isclose(grid.points, 0.9 * PI)) == 1

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.0, PI]))
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 2.0, 1.0, PI]))
        with pytest.raises(ValueError):
            Grid(np.array([0.1, 1.0, PI]))

    @pytest.mark.parametrize("points", [[0.0, math.nan, 1.0, PI], [0.0, 1.0, math.inf, PI]])
    def test_grid_rejects_points_that_are_not_finite(self, points):
        # a NaN compares False both ways, so "no step <= 0" alone would let it through
        with pytest.raises(ValueError, match="grid points must be finite"):
            Grid(np.array(points))


def cumulative_trapezoid_gram(terms, x):
    """int_0^{x_i} a_m(t) b_j(t) dt by the cumulative trapezoid rule on the points x."""
    integrand = terms.a_values(x)[:, None, :] * terms.b_values(x)[None, :, :]
    return np.moveaxis(cumulative_trapezoid(integrand, x, initial=0.0), 2, 0)


def gram_entry_by_quadrature(terms, m, j, s):
    """int_0^s a_m(t) b_j(t) dt by adaptive quadrature."""
    return quad(lambda t: terms.a_values(t)[m] * terms.b_values(t)[j], 0.0, s,
                epsabs=1e-13, epsrel=1e-13)[0]


class TestGramIntegrals:
    def test_zero_at_origin(self, terms):
        assert np.all(exact_gram(terms, make_uniform_grid(10).points)[0] == 0.0)
        assert np.all(exact_gram(terms, 0.0) == 0.0)

    def test_linear_pair_entry_is_one(self, terms):
        # closed form: int_0^pi (3 t / pi^3) * t dt = 1
        assert gram_entry_by_quadrature(terms, 0, 0, PI) == pytest.approx(1.0, abs=1e-12)

    def test_exact_gram_linear_entry(self, terms):
        assert exact_gram(terms, PI)[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_exact_matches_trapezoid_in_the_limit(self, terms):
        errs = []
        for m in (100, 200):
            x = make_uniform_grid(m).points
            trap = cumulative_trapezoid_gram(terms, x)
            errs.append(np.max(np.abs(trap - exact_gram(terms, x))))
        assert errs[0] / errs[1] >= 3.0

    @pytest.mark.parametrize("s", [0.7, 2.0, PI])
    def test_exact_matches_quadrature(self, terms, s):
        reference = np.array([[gram_entry_by_quadrature(terms, m, j, s)
                               for j in range(terms.rank)] for m in range(terms.rank)])
        assert np.allclose(exact_gram(terms, s), reference, rtol=1e-10, atol=1e-12)


def solves_to(matrix, solution, rhs, rhs_scale, tol):
    """||A x - b|| <= tol (||A|| ||x|| + rhs_scale) for every system of a stack.

    rhs_scale bounds the terms b is summed from, so a b that cancels to
    rounding noise is judged against the size of those terms.
    """
    residual = np.linalg.norm(np.einsum("ijk,ik->ij", matrix, solution) - rhs, axis=1)
    scale = np.linalg.norm(matrix, ord=2, axis=(1, 2)) * np.linalg.norm(solution, axis=1)
    return bool(np.all(residual <= tol * (scale + rhs_scale)))


class TestPivotedSolve:
    """The stacked LU solve with partial pivoting inside solve_psi_systems."""

    def test_singular_raises(self):
        # a(s) = -(2/pi) sin s, b(s) = sin s: G(pi) = -1, so I + G(pi) = 0
        terms = KernelTermList(weights=[-2.0 / PI], frequencies=[1.0])
        with pytest.raises(SingularSystemError, match=r"s = 3\.141593"):
            solve_psi_systems(terms, make_uniform_grid(10))

    def test_non_finite_system_raises(self):
        # the terms of level (2, nu = 5, alpha = 1e-320), whose weight 1/alpha
        # overflows; TargetSpectrum rejects that level, so build them directly
        terms = KernelTermList(weights=[1.0 / 1e-320, -2.0 / PI], frequencies=[math.sqrt(5.0), 2.0])
        with pytest.raises(SingularSystemError, match=r"s = 0\.000000"):
            solve_psi_systems(terms, make_uniform_grid(10))

    @given(spectrum=admissible_spectra())
    @settings(max_examples=25, deadline=None)
    def test_solves_both_systems(self, spectrum):
        terms = build_kernel_terms(spectrum)
        grid = make_uniform_grid(60)
        x = grid.points
        sol = solve_psi_systems(terms, grid)
        G = exact_gram(terms, x)
        matrix = np.eye(terms.rank) + G
        a, ap, b = terms.a_values(x).T, terms.a_prime_values(x).T, terms.b_values(x).T
        g_norm = np.linalg.norm(G, ord=2, axis=(1, 2))
        rhs = -np.einsum("ijk,ik->ij", G, a)
        a_norm = np.linalg.norm(a, axis=1)
        assert solves_to(matrix, sol.psi, rhs, g_norm * a_norm, 1e-10)
        sigma = np.sum((a + sol.psi) * b, axis=1)
        rhs_prime = -np.einsum("ijk,ik->ij", G, ap) - sigma[:, None] * a
        prime_scale = g_norm * np.linalg.norm(ap, axis=1) + np.abs(sigma) * a_norm
        assert solves_to(matrix, sol.psi_prime, rhs_prime, prime_scale, 1e-10)

    @given(spectrum=admissible_spectra())
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_solver(self, spectrum):
        # one partial-pivoting LU factorisation per grid point, as a reference
        terms = build_kernel_terms(spectrum)
        grid = make_uniform_grid(40)
        x = grid.points
        sol = solve_psi_systems(terms, grid)
        G = exact_gram(terms, x)
        a, ap, b = terms.a_values(x).T, terms.a_prime_values(x).T, terms.b_values(x).T
        for k in range(len(x)):
            lu = lu_factor(np.eye(terms.rank) + G[k])
            psi = lu_solve(lu, -G[k] @ a[k])
            sigma = np.dot(a[k] + psi, b[k])
            psi_prime = lu_solve(lu, -G[k] @ ap[k] - sigma * a[k])
            assert np.allclose(sol.psi[k], psi, rtol=1e-9, atol=1e-9)
            assert np.allclose(sol.psi_prime[k], psi_prime, rtol=1e-9, atol=1e-9)

    def test_matrix_rhs(self, terms, grid300):
        # both right-hand sides as the columns of one matrix right-hand side
        x = grid300.points
        sol = solve_psi_systems(terms, grid300)
        G = exact_gram(terms, x)
        a, ap, b = terms.a_values(x).T, terms.a_prime_values(x).T, terms.b_values(x).T
        sigma = np.sum((a + sol.psi) * b, axis=1)
        rhs = np.stack([-np.einsum("ijk,ik->ij", G, a),
                        -np.einsum("ijk,ik->ij", G, ap) - sigma[:, None] * a], axis=2)
        both = np.linalg.solve(np.eye(terms.rank) + G, rhs)
        assert np.allclose(sol.psi, both[..., 0], rtol=1e-10, atol=1e-10)
        assert np.allclose(sol.psi_prime, both[..., 1], rtol=1e-10, atol=1e-10)


class TestPsiSystems:
    def test_empty_terms(self):
        spec = TargetSpectrum(perturbed=())
        terms = build_kernel_terms(spec)
        grid = make_uniform_grid(10)
        psi = solve_psi_systems(terms, grid)
        assert psi.psi.shape == (11, 0)
        assert psi.psi_prime.shape == (11, 0)

    def test_psi_vanishes_at_origin(self, terms):
        psi = solve_psi_systems(terms, make_uniform_grid(50))
        assert np.allclose(psi.psi[0], 0.0, atol=1e-14)

    def test_trapezoid_reduction_matches_nystrom(self, terms, grid300, monkeypatch):
        # with the gram integrals taken by the trapezoid rule, the finite-rank
        # reduction and the Nystrom solve discretize the same integral equation
        monkeypatch.setattr(glsolve, "exact_gram", cumulative_trapezoid_gram)
        psi = solve_psi_systems(terms, grid300)
        reference = nystrom_psi(terms, grid300)
        scale = np.max(np.abs(psi.psi))
        assert np.max(np.abs(psi.psi - reference)) / scale <= 1e-3

    def test_exact_gram_is_the_trapezoid_limit(self, terms):
        # the trapezoid-rule Nystrom solve converges to the exact-gram psi at O(h^2)
        errs = {}
        for m in (100, 150, 200, 300):
            grid = make_uniform_grid(m)
            exact = solve_psi_systems(terms, grid)
            errs[m] = np.max(np.abs(exact.psi - nystrom_psi(terms, grid)))
        assert errs[100] / errs[200] >= 3.0
        assert errs[150] / errs[300] >= 3.0

    def test_psi_prime_matches_finite_difference_at_second_order(self, terms):
        errs = []
        for m in (100, 200, 400):
            grid = make_uniform_grid(m)
            sol = solve_psi_systems(terms, grid)
            h = PI / m
            fd = (sol.psi[2:] - sol.psi[:-2]) / (2.0 * h)
            errs.append(np.max(np.abs(sol.psi_prime[1:-1] - fd)))
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] / errs[2] >= 3.0


class TestRecoverPotential:
    def test_empty_terms_give_zero_potential(self):
        spec = TargetSpectrum(perturbed=())
        terms = build_kernel_terms(spec)
        grid = make_uniform_grid(20)
        samples = recover_potential(terms, solve_psi_systems(terms, grid))
        assert np.max(np.abs(samples.values)) <= 1e-10

    def test_constructed_shape(self, pot300):
        # interior maximum, deep interior minimum, finite boundary values
        values = pot300.values
        assert values[0] == pytest.approx(0.0, abs=1e-9)
        assert values.max() > 50.0
        assert values.min() < -200.0
        assert np.argmax(values) < np.argmin(values) < len(values) - 1

    def test_fd_oracle_sees_the_second_eigenvalue(self, pot300):
        eigs = fd_eigenvalues(pot300, count=2)
        assert eigs[1] == pytest.approx(11.0, rel=0.02)


class TestPotentialCsv:
    def test_round_trip_is_bit_exact(self, pot300, tmp_path):
        path = tmp_path / "potential.csv"
        pot300.to_csv(path)
        loaded = PotentialSamples.from_csv(path)
        assert np.array_equal(loaded.grid.points, pot300.grid.points)
        assert np.array_equal(loaded.values, pot300.values)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_random_values(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        grid = make_uniform_grid(8)
        values = rng.normal(scale=1e3, size=9)
        samples = PotentialSamples(grid=grid, values=values)
        path = tmp_path_factory.mktemp("csv") / "q.csv"
        samples.to_csv(path)
        assert np.array_equal(PotentialSamples.from_csv(path).values, values)

    def test_rejects_nonfinite(self):
        grid = make_uniform_grid(4)
        with pytest.raises(ValueError, match="finite"):
            PotentialSamples(grid=grid, values=np.array([0.0, 1.0, np.inf, 1.0, 0.0]))


class TestConstructPotential:
    def test_unperturbed_is_identically_zero(self):
        spec = TargetSpectrum(perturbed=())
        samples = construct_potential(spec, make_uniform_grid(40))
        assert np.max(np.abs(samples.values)) <= 1e-10

    def test_default_boundary_value(self, pot300):
        # Q(pi) = -44 for the designed spectrum; a sharp regression anchor
        assert pot300.values[-1] == pytest.approx(-44.0, abs=1e-6)

    @given(spectrum=admissible_spectra(), intervals=st.integers(60, 320))
    # a Ritz error of 1.0004 h^2 on nu_4, the draw that once failed the h^2 bound
    @example(
        spectrum=TargetSpectrum(perturbed=(
            PerturbedLevel(3, 11.0, PI / 2), PerturbedLevel(4, 13.0, 4.269867111336783),
            PerturbedLevel(5, 21.0, PI / 2),
        )),
        intervals=60,
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_verify_recovers_random_targets_or_names_the_failure(self, spectrum, intervals):
        # Both errors are second order, h^2 times the curvature of Q.  Most
        # draws give a Ritz error below h^2 and a finite-difference error below
        # 150 h^2 relative, but the extremes of the ranges build a well of
        # depth ~700 that no grid here resolves and 80 sines do not either.
        # The samples' largest second difference, ~h^2 max |Q''|, bounds that
        # part: over 7,200 constructions (1,200 spectra, M = 60 .. 320) the
        # excess over the h^2 terms stayed below 6.3e-4 and 1.1e-3 of it.
        h = PI / intervals
        try:
            samples = construct_potential(spectrum, make_uniform_grid(intervals))
            report = verify_potential(samples, spectrum, basis_size=80, compare_count=10)
        except (SingularSystemError, JacobiConvergenceError):
            return
        curvature = np.max(np.abs(np.diff(samples.values, 2)))
        # entry 0 is the absolute error of nu_1, the others are relative
        assert np.all(report.errors <= h**2 + 1e-3 * curvature)
        targets = spectrum.eigenvalues(10)
        fd = fd_eigenvalues(samples, count=10)
        assert np.all(np.abs(fd - targets) <= (150 * h**2 + 2e-3 * curvature) * np.maximum(1.0, targets))

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatline import ritz
from heatline.glsolve import Grid, PotentialSamples, construct_potential, make_two_zone_grid, make_uniform_grid
from heatline.ritz import (
    DegenerateShapeError,
    JacobiConvergenceError,
    RitzReport,
    _ppoly_cos_moments,
    _round_robin_pairings,
    _trapezoid_cos_moments,
    assemble_ritz_matrix,
    cosine_moments,
    jacobi_eigen,
    linearized_qtilde_diagnostic,
    quadratic_spline,
    relative_error,
    trapezoid_weights,
    verify_potential,
)
from heatline.spectra import TargetSpectrum, default_target_spectrum

from oracles import bisection_eigenvalues, fd_eigenvalues, scipy_cosine_moments, scipy_quadratic_spline

PI = math.pi
EPS = np.finfo(float).eps


def linear_moments(samples: PotentialSamples, kmax: int) -> np.ndarray:
    """Exact moments of the piecewise-linear interpolant, the chord path of the line diagnostic."""
    x, q = samples.grid.points, samples.values
    slopes = np.diff(q) / np.diff(x)
    return _ppoly_cos_moments(x, np.vstack([np.zeros_like(slopes), slopes, q[:-1]]), kmax)


# every moment path in ritz: the panel rule, piecewise-linear and quadratic-spline moments
MOMENT_RULES = {
    "trapezoid": lambda samples, kmax: _trapezoid_cos_moments(samples.grid.points, samples.values, kmax),
    "linear": linear_moments,
    "quadratic": cosine_moments,
}
ALL_RULES = tuple(MOMENT_RULES)

# odd sizes leave one index unpaired in each round-robin step
JACOBI_SIZES = st.sampled_from([1, 2, 3, 7, 10, 11])


def constant_samples(value: float, intervals: int = 40) -> PotentialSamples:
    grid = make_uniform_grid(intervals)
    return PotentialSamples(grid=grid, values=np.full(len(grid), value))


def chord_moments(x_lo: float, x_hi: float, y_lo: float, y_hi: float, kmax: int) -> np.ndarray:
    """int of the chord through (x_lo, y_lo), (x_hi, y_hi) times cos(kx), k = 0 .. kmax."""
    slope = (y_hi - y_lo) / (x_hi - x_lo)
    return PI * _ppoly_cos_moments(np.array([x_lo, x_hi]), np.array([[0.0], [slope], [y_lo]]), kmax)


def loop_linearized_error(samples: PotentialSamples, size: int) -> np.ndarray:
    """Entrywise E of the line diagnostic by a per-k, per-entry loop: the reference."""
    x, q = samples.grid.points, samples.values
    i_max, i_min = int(np.argmax(q)), int(np.argmin(q))

    def chord(x_lo, x_hi, y_lo, y_hi, k):
        if x_hi <= x_lo:
            return 0.0
        if k == 0:
            return 0.5 * (y_lo + y_hi) * (x_hi - x_lo)
        slope = (y_hi - y_lo) / (x_hi - x_lo)
        return ((y_hi * math.sin(k * x_hi) - y_lo * math.sin(k * x_lo)) / k
                + slope * (math.cos(k * x_hi) - math.cos(k * x_lo)) / k**2)

    def trapezoid(k):
        return float(np.cos(k * x) @ (trapezoid_weights(x) * q)) / PI

    def line(k):
        head = np.cos(k * x[: i_max + 1]) @ (trapezoid_weights(x[: i_max + 1]) * q[: i_max + 1])
        mid = chord(x[i_max], x[i_min], q[i_max], q[i_min], k)
        return (head + mid + chord(x[i_min], PI, q[i_min], q[-1], k)) / PI

    def ritz(qt):
        return np.array([[(n * n if n == m else 0.0) + qt(abs(n - m)) - qt(n + m)
                          for m in range(1, size + 1)] for n in range(1, size + 1)])

    p_trap, p_line = ritz(trapezoid), ritz(line)
    return np.abs(p_trap - p_line) / np.abs(p_trap)


def loop_ppoly_cos_moments(breakpoints: np.ndarray, coefficients: np.ndarray, kmax: int) -> np.ndarray:
    """Panel-end moments that evaluate sin and cos at both ends of every panel: the reference."""
    x0, x1 = breakpoints[:-1], breakpoints[1:]
    h = np.diff(breakpoints)
    c2, c1, c0 = coefficients
    out = np.empty(kmax + 1)
    out[0] = np.sum(c2 * h**3 / 3.0 + c1 * h**2 / 2.0 + c0 * h) / PI
    for k in range(1, kmax + 1):
        sin0, sin1 = np.sin(k * x0), np.sin(k * x1)
        cos0, cos1 = np.cos(k * x0), np.cos(k * x1)
        C0 = (sin1 - sin0) / k
        S0 = (cos0 - cos1) / k
        C1 = (h * sin1 - S0) / k
        S1 = (-h * cos1 + C0) / k
        C2 = (h**2 * sin1 - 2.0 * S1) / k
        out[k] = np.sum(c2 * C2 + c1 * C1 + c0 * C0) / PI
    return out


def reference_jacobi_eigen(matrix: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin Jacobi that applies a skipped rotation as the identity over all n/2 pairs.

    Every pairing runs the full array update; the sweep boundaries consult
    the same refinement gate and hand over to the same refinement, so pair
    compression must give the same eigenvalues and eigenvectors bit for bit.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    x = np.hstack([a, np.eye(n)])
    a = x[:, :n]
    skip = tol / (n * n)
    while True:
        diagonal = np.diag(a)
        off_diagonal = a - np.diag(diagonal)
        off = math.sqrt(np.sum(off_diagonal * off_diagonal))
        vectors_t = x[:, n:]
        if off < tol:
            values, vectors = diagonal, vectors_t.T
            break
        if ritz._refinement_ready(diagonal, off, np.eye(n) - vectors_t @ vectors_t.T):
            values, vectors = ritz._refine(matrix, vectors_t.T)
            break
        for p, q in zip(*_round_robin_pairings(n)):
            pq, qp = np.concatenate([p, q]), np.concatenate([q, p])
            apq = a[p, q]
            rotate = np.abs(apq) >= skip
            theta = (a[q, q] - a[p, p]) / (2.0 * np.where(rotate, apq, 1.0))
            t = np.where(theta >= 0.0, 1.0, -1.0) / (np.abs(theta) + np.hypot(theta, 1.0))
            t = np.where(rotate, t, 0.0)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            c2, s2 = np.concatenate([c, c]), np.concatenate([-s, s])
            x[pq] = c2[:, None] * x[pq] + s2[:, None] * x[qp]
            a[:, pq] = a[:, pq] * c2 + a[:, qp] * s2
            a[p, q] = a[q, p] = np.where(rotate, 0.0, apq)
    order = np.argsort(values, kind="stable")
    vectors = vectors[:, order]
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(n)]
    return values[order], vectors * np.where(lead < 0.0, -1.0, 1.0)


def gate_pair(ratio: float, gap: float) -> np.ndarray:
    """Diagonal 4 x 4 matrix with one coupled pair whose refinement gate reads tau = ratio * gap.

    Cold Jacobi starts from X = I, where R = 0 and tau = 2 off = 2 sqrt(2) a_01.
    """
    a = np.diag([1.0, 1.0 + gap, 2.0 + gap, 3.0 + gap])
    a[0, 1] = a[1, 0] = ratio * gap / (2.0 * math.sqrt(2.0))
    return a


class TestCosineMoments:
    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_zero_potential(self, rule):
        moments = MOMENT_RULES[rule](constant_samples(0.0), 10)
        assert np.allclose(moments, 0.0, atol=1e-15)

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_constant_k0(self, rule):
        moments = MOMENT_RULES[rule](constant_samples(1.0), 4)
        assert moments[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_constant_k1_vanishes(self, rule):
        # closed form: int_0^pi cos(kx) dx = 0 for k >= 1
        moments = MOMENT_RULES[rule](constant_samples(1.0), 4)
        assert abs(moments[1]) <= 1e-10

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_constant_on_two_zone_grid(self, rule):
        grid = make_two_zone_grid(13, 29)
        samples = PotentialSamples(grid=grid, values=np.full(len(grid), 2.5))
        moments = MOMENT_RULES[rule](samples, 6)
        assert moments[0] == pytest.approx(2.5, abs=1e-10)
        if rule != "trapezoid":
            # spline reconstructions of a constant integrate cos(kx) exactly;
            # the trapezoid rule picks up an O(h^2) error at the zone junction
            assert np.allclose(moments[1:], 0.0, atol=1e-9)

    def test_spline_rules_integrate_cosine_sharply(self):
        # Q = cos(3x) has qt(3) = 1/2 and all other moments 0
        grid = make_uniform_grid(200)
        samples = PotentialSamples(grid=grid, values=np.cos(3.0 * grid.points))
        moments = cosine_moments(samples, 8)
        expected = np.zeros(9)
        expected[3] = 0.5
        assert np.allclose(moments, expected, atol=1e-6)

    @pytest.mark.parametrize("grid", [make_uniform_grid(100), make_uniform_grid(300),
                                      make_uniform_grid(3000), make_two_zone_grid(50, 75)],
                             ids=["M100", "M300", "M3000", "two_zone_50_75"])
    def test_knot_values_match_panel_end_loop(self, grid, spectrum):
        samples = construct_potential(spectrum, grid)
        moments = cosine_moments(samples, 200)
        spline = quadratic_spline(grid.points, samples.values)
        assert np.array_equal(moments, loop_ppoly_cos_moments(*spline, 200))
        # scipy's spline differs by rounding in its pivoted solve and its
        # conversion: 3.6e-16 of max |qt| on these grids
        reference = scipy_cosine_moments(samples, 200)
        assert np.max(np.abs(moments - reference)) <= 16 * EPS * np.max(np.abs(reference))

    def test_rejects_negative_kmax(self):
        with pytest.raises(ValueError, match="kmax"):
            cosine_moments(constant_samples(1.0), -1)


@st.composite
def spline_grids(draw) -> Grid:
    """Uniform grids (M >= 2) and two-zone grids with random zone sizes and split."""
    if draw(st.booleans()):
        return make_uniform_grid(draw(st.integers(2, 400)))
    sizes = st.integers(1, 300)
    split = PI * draw(st.floats(0.01, 0.99))
    left = np.linspace(0.0, split, draw(sizes) + 1)
    return Grid(np.concatenate([left, np.linspace(split, PI, draw(sizes) + 1)[1:]]))


def evaluate_spline(breakpoints: np.ndarray, coefficients: np.ndarray, z: np.ndarray) -> np.ndarray:
    panel = np.clip(np.searchsorted(breakpoints, z, side="right") - 1, 0, len(breakpoints) - 2)
    u = z - breakpoints[panel]
    c2, c1, c0 = coefficients[:, panel]
    return (c2 * u + c1) * u + c0


class TestQuadraticSpline:
    @given(grid=spline_grids(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_interpolates_and_matches_scipy(self, grid, seed):
        rng = np.random.default_rng(seed)
        x = grid.points
        y = rng.normal(size=len(x))
        breakpoints, coefficients = quadratic_spline(x, y)
        reference = scipy_quadratic_spline(x, y)
        assert np.array_equal(breakpoints, np.unique(reference.x))
        size = np.max(np.abs(reference(np.linspace(0.0, PI, 20001))))
        # 5 eps of the spline's size at worst over 3,000 random grids and data
        assert np.max(np.abs(evaluate_spline(breakpoints, coefficients, x) - y)) <= 32 * EPS * size
        # the two splines drift apart in proportion to the ratio of largest to
        # smallest spacing (up to 3e4 here): 12 eps times it at worst
        ratio = np.max(np.diff(x)) / np.min(np.diff(x))
        z = rng.uniform(0.0, PI, 200)
        difference = np.max(np.abs(evaluate_spline(breakpoints, coefficients, z) - reference(z)))
        assert difference <= 64 * EPS * ratio * size


class TestRitzMatrix:
    def test_zero_potential_is_diagonal(self):
        matrix = assemble_ritz_matrix(constant_samples(0.0), 6)
        assert np.allclose(matrix, np.diag([1.0, 4.0, 9.0, 16.0, 25.0, 36.0]), atol=1e-14)

    def test_constant_shift(self):
        eigenvalues, _ = jacobi_eigen(assemble_ritz_matrix(constant_samples(2.0), 5))
        assert np.allclose(eigenvalues, np.arange(1, 6) ** 2 + 2.0, atol=1e-9)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_symmetry_is_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        grid = make_uniform_grid(30)
        samples = PotentialSamples(grid=grid, values=rng.normal(scale=40.0, size=31))
        matrix = assemble_ritz_matrix(samples, 12)
        assert np.array_equal(matrix, matrix.T)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            assemble_ritz_matrix(constant_samples(0.0), 0)


class TestJacobi:
    def test_diagonal_input(self):
        eigenvalues, vectors = jacobi_eigen(np.diag([1.0, 4.0, 9.0]))
        assert np.array_equal(eigenvalues, [1.0, 4.0, 9.0])
        assert np.array_equal(vectors, np.eye(3))

    def test_analytic_two_by_two(self):
        eigenvalues, vectors = jacobi_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eigenvalues, [1.0, 3.0], atol=1e-12)
        assert np.allclose(np.abs(vectors), np.full((2, 2), 1.0 / math.sqrt(2.0)), atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=JACOBI_SIZES)
    @settings(max_examples=15, deadline=None)
    def test_matches_bisection_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        a = a + a.T
        eigenvalues, _ = jacobi_eigen(a)
        assert np.max(np.abs(eigenvalues - bisection_eigenvalues(a))) <= 1e-8

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=JACOBI_SIZES)
    @settings(max_examples=15, deadline=None)
    def test_diagonalization_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        a = a + a.T
        eigenvalues, vectors = jacobi_eigen(a)
        assert np.allclose(vectors @ np.diag(eigenvalues) @ vectors.T, a, atol=1e-9)
        assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) <= 1e-8
        assert np.all(vectors[np.argmax(np.abs(vectors), axis=0), np.arange(n)] > 0.0)

    def test_eigenvector_sign_is_fixed(self):
        # the accumulated rotations leave the largest entries of columns 2
        # and 3 negative (-0.858 and -0.802); the sign rule flips both
        a = np.array([[1.0, -2.0, -1.0], [-2.0, 2.0, -1.0], [-1.0, -1.0, 1.0]])
        eigenvalues, vectors = jacobi_eigen(a)
        assert np.allclose(vectors @ np.diag(eigenvalues) @ vectors.T, a, atol=1e-12)
        assert np.allclose(vectors[:, 1], [-0.4518, -0.2453, 0.8577], atol=1e-4)
        assert np.allclose(vectors[:, 2], [-0.5912, 0.8024, -0.0820], atol=1e-4)
        assert np.all(vectors[np.argmax(np.abs(vectors), axis=0), np.arange(3)] > 0.0)

    def test_paper_ritz_matrix_matches_eigvalsh(self, pot300, report300):
        # N = 100 Ritz matrix of the paper potential at M = 300; the library
        # solver is a reference here only.  Relative to max(|nu|, 1), since
        # nu_1 is near 0.
        reference = np.linalg.eigvalsh(assemble_ritz_matrix(pot300, 100))
        error = np.abs(report300.eigenvalues - reference) / np.maximum(np.abs(reference), 1.0)
        assert np.max(error) <= 1e-11

    def test_ascending_order(self):
        a = np.diag([9.0, 1.0, 4.0])
        eigenvalues, vectors = jacobi_eigen(a)
        assert np.array_equal(eigenvalues, [1.0, 4.0, 9.0])
        # columns follow the sort
        assert vectors[1, 0] == 1.0 and vectors[2, 1] == 1.0 and vectors[0, 2] == 1.0

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(ritz, "MAX_SWEEPS", 0)
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        message = r"after 0 sweeps: off-diagonal norm 1\.414e\+00 is not below tol 1\.000e-10"
        with pytest.raises(JacobiConvergenceError, match=message):
            jacobi_eigen(a)

    @pytest.mark.parametrize("cap, message", [
        (0, r"after 0 steps: off-diagonal norm 2\.500e-04 is not below tol 1\.000e-10 "
            r"or at its rounding floor 3\.441e-15"),
        (1, r"after 1 steps: off-diagonal norm 7\.812e-06 is not below tol 1\.000e-10 "
            r"or at its rounding floor 3\.441e-15"),
    ])
    def test_refinement_cap_raises(self, monkeypatch, cap, message):
        monkeypatch.setattr(ritz, "MAX_REFINE_STEPS", cap)
        with pytest.raises(JacobiConvergenceError, match="refinement did not stop " + message):
            jacobi_eigen(gate_pair(0.5, 1e-3))

    @pytest.mark.parametrize("size, orthogonality", [(100, 2.5e-14), (200, 9.5e-14), (400, 9.5e-14)])
    def test_refinement_finishes_paper_matrix(self, monkeypatch, pot300, size, orthogonality):
        # three refinement steps reach the stop on the paper matrix at every
        # size up to MAX_RITZ_N, far inside the default cap
        monkeypatch.setattr(ritz, "MAX_REFINE_STEPS", 3)
        refined = []
        refine = ritz._refine
        monkeypatch.setattr(ritz, "_refine", lambda *args: refined.append(1) or refine(*args))
        matrix = assemble_ritz_matrix(pot300, size)
        eigenvalues, vectors = jacobi_eigen(matrix)
        assert refined
        reference = np.linalg.eigvalsh(matrix)
        assert np.max(np.abs(eigenvalues - reference) / np.maximum(np.abs(reference), 1.0)) <= 1e-11
        assert np.max(np.abs(vectors.T @ vectors - np.eye(size))) <= orthogonality

    @pytest.mark.parametrize("n, seed", [(6, 0), (40, 1)])
    @pytest.mark.filterwarnings("error")
    def test_repeated_eigenvalue_keeps_the_sweeps(self, monkeypatch, n, seed):
        # a triple eigenvalue never passes the gate, so a refinement call fails
        monkeypatch.setattr(ritz, "_refine", None)
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
        spectrum = np.arange(1.0, n + 1.0)
        spectrum[2] = spectrum[3] = spectrum[1]
        a = basis @ np.diag(spectrum) @ basis.T
        a = 0.5 * (a + a.T)
        eigenvalues, vectors = jacobi_eigen(a)
        assert np.max(np.abs(eigenvalues - np.sort(spectrum))) <= 1e-12 * n
        assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) <= 1e-13
        assert np.max(np.abs(vectors @ np.diag(eigenvalues) @ vectors.T - a)) <= 1e-12 * n

    @pytest.mark.parametrize("ratio", [0.5, 0.99, 1.0 - 1e-6])
    @pytest.mark.parametrize("gap", [1e-3, 1e-6])
    @pytest.mark.filterwarnings("error")
    def test_cluster_just_above_the_gate_converges(self, ratio, gap):
        a = gate_pair(ratio, gap)
        # the gate passes at the first boundary, where tau = ratio * gap, and
        # refuses the same pair with tau just above gap
        off = math.sqrt(2.0) * a[0, 1]
        assert ritz._refinement_ready(np.diag(a), off, np.zeros((4, 4)))
        assert not ritz._refinement_ready(np.diag(a), off / ratio * (1.0 + 1e-6), np.zeros((4, 4)))
        eigenvalues, vectors = jacobi_eigen(a)
        half = math.hypot(gap / 2.0, a[0, 1])
        exact = [1.0 + gap / 2.0 - half, 1.0 + gap / 2.0 + half, 2.0 + gap, 3.0 + gap]
        assert np.max(np.abs(eigenvalues - exact)) <= 4 * EPS
        assert np.max(np.abs(vectors.T @ vectors - np.eye(4))) <= 8 * EPS

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        a = np.array([[1.0, bad], [bad, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix must be finite"):
                jacobi_eigen(a)

    @pytest.mark.parametrize(
        "bad",
        [np.float64(3.0), np.ones(3), np.ones((2, 3)), np.zeros((0, 0))],
        ids=["0-d", "1-D", "2x3", "0x0"],
    )
    def test_rejects_non_square(self, bad):
        message = "matrix must be square and non-empty, got shape " + re.escape(str(np.shape(bad)))
        with pytest.raises(ValueError, match=message):
            jacobi_eigen(bad)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("size", [100, 200])
    def test_pair_compression_is_bit_identical_on_paper_matrix(self, pot300, size):
        matrix = assemble_ritz_matrix(pot300, size)
        eigenvalues, vectors = jacobi_eigen(matrix)
        ref_values, ref_vectors = reference_jacobi_eigen(matrix)
        assert np.array_equal(eigenvalues, ref_values)
        assert np.array_equal(vectors, ref_vectors)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.sampled_from([1, 2, 3, 7, 10, 11, 40]))
    @settings(max_examples=15, deadline=None)
    def test_pair_compression_is_bit_identical_on_random_matrices(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        a = a + a.T
        eigenvalues, vectors = jacobi_eigen(a)
        ref_values, ref_vectors = reference_jacobi_eigen(a)
        assert np.array_equal(eigenvalues, ref_values)
        assert np.array_equal(vectors, ref_vectors)

    @pytest.mark.parametrize("start", [np.eye(3), np.eye(4)[:, :3], np.full((4, 4), 0.5) + np.eye(4),
                                       np.diag([1.0, 1.0, 1.0, 1.0 + 1e-9]), np.full((4, 4), math.nan)],
                             ids=["3x3", "4x3", "dense", "near_orthogonal", "nan"])
    def test_rejects_bad_start_basis(self, start):
        message = "start basis must" + ("" if start.shape == (4, 4) else " have shape")
        with pytest.raises(ValueError, match=message):
            jacobi_eigen(np.diag([1.0, 2.0, 3.0, 4.0]), start=start)

    def test_warm_start_from_previous_row_matches_cold(self, spectrum):
        # Jacobi in floating point has a backward error of order n eps max|P|;
        # a warm chain compounds one such error per row, so allow 10 of them
        tol = 10 * 100 * np.finfo(float).eps
        start = None
        for m in (100, 150, 200, 250, 300):
            matrix = assemble_ritz_matrix(construct_potential(spectrum, make_uniform_grid(m)), 100)
            bound = tol * np.max(np.abs(matrix))
            warm, start = jacobi_eigen(matrix, start=start)
            cold, _ = jacobi_eigen(matrix)
            assert np.max(np.abs(warm - cold)) <= bound
            # the vectors diagonalize P itself, not the rotated V^T P V
            assert np.max(np.abs(start @ np.diag(warm) @ start.T - matrix)) <= bound


def scored_report(eigenvalues: np.ndarray, spec: TargetSpectrum, count: int) -> RitzReport:
    errors = relative_error(eigenvalues, spec, count)
    vectors = np.eye(len(eigenvalues))
    return RitzReport(eigenvalues=eigenvalues, eigenvectors=vectors, target=spec, errors=errors)


class TestRelativeError:
    def test_exact_match_gives_zero(self):
        spec = default_target_spectrum()
        report = scored_report(spec.eigenvalues(8), spec, 8)
        assert np.array_equal(report.errors, np.zeros(8))
        assert report.compare_count == 8
        assert report.delta == 0.0
        assert report.first_abs_error == 0.0

    def test_first_eigenvalue_reported_separately(self):
        # the target nu_1 = 0 admits no relative error: entry 0 is absolute
        # and stays out of delta
        spec = default_target_spectrum()
        eigenvalues = spec.eigenvalues(6)
        eigenvalues[0] = 0.05
        report = scored_report(eigenvalues, spec, 6)
        assert report.errors[0] == pytest.approx(0.05)
        assert report.delta == 0.0
        assert report.first_abs_error == pytest.approx(0.05)

    def test_delta_is_max_over_tail(self):
        spec = default_target_spectrum()
        eigenvalues = spec.eigenvalues(6)
        eigenvalues[2] *= 1.03
        eigenvalues[4] *= 1.01
        report = scored_report(eigenvalues, spec, 6)
        assert report.errors[2] == pytest.approx(0.03)
        assert report.errors[4] == pytest.approx(0.01)
        assert report.delta == pytest.approx(0.03)

    def test_rejects_zero_tail_target(self):
        bad = object.__new__(TargetSpectrum)
        object.__setattr__(bad, "perturbed", ())
        object.__setattr__(bad, "eigenvalues", lambda count: np.zeros(count))
        with pytest.raises(ValueError, match="nonzero"):
            relative_error(np.arange(4.0), bad, 4)

    def test_rejects_bad_compare_count(self):
        spec = default_target_spectrum()
        with pytest.raises(ValueError):
            relative_error(spec.eigenvalues(4), spec, 1)
        with pytest.raises(ValueError):
            relative_error(spec.eigenvalues(4), spec, 5)


class TestVerifyPotential:
    def test_report_metrics(self, report300):
        assert report300.delta <= 5e-5
        assert report300.first_abs_error <= 1e-5
        assert report300.eigenvalues[1] == pytest.approx(11.0, rel=1e-4)

    def test_eigenvector_orthonormality(self, report300):
        vectors = report300.eigenvectors
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-8

    def test_eigenvalues_nonincreasing_in_basis_size(self, pot300, spectrum):
        previous = None
        for size in (40, 60, 80, 100):
            report = verify_potential(pot300, spectrum, basis_size=size, compare_count=20)
            current = report.eigenvalues[:20]
            if previous is not None:
                assert np.all(current <= previous + 1e-9)
            previous = current

    def test_fd_oracle_agrees(self, pot300, report300):
        fd = fd_eigenvalues(pot300, count=5)
        ritz = report300.eigenvalues[:5]
        assert np.all(np.abs(fd - ritz) / np.maximum(np.abs(ritz), 1.0) <= 0.02)

    def test_basis_must_cover_compare_count(self, pot300, spectrum):
        with pytest.raises(ValueError):
            verify_potential(pot300, spectrum, basis_size=10, compare_count=20)

    def test_report_csv(self, report300, tmp_path):
        path = tmp_path / "report.csv"
        report300.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "j,nu_target,nu_computed,rel_error"
        assert len(lines) == 2 + report300.compare_count
        assert lines[-1].startswith("delta,")
        assert float(lines[-1].split(",")[-1]) == report300.delta

    def test_eigenvector_csv(self, report300, tmp_path):
        path = tmp_path / "vectors.csv"
        report300.eigenvectors_to_csv(path)
        lines = path.read_text().strip().splitlines()
        basis = report300.eigenvectors.shape[0]
        assert lines[0].split(",")[:2] == ["j", "c_1"]
        assert len(lines[0].split(",")) == basis + 1
        assert len(lines) == 1 + report300.compare_count


class TestLinearizedDiagnostic:
    def test_piecewise_linear_tail_matches_trapezoid_at_k0(self):
        # trapezoid is exact for linear integrands, so the k = 0 moments of the
        # chord representation and of the panel rule coincide
        grid = make_uniform_grid(60)
        x = grid.points
        x_max, x_min = x[20], x[40]
        values = np.interp(x, [0.0, x_max, x_min, PI], [0.0, 30.0, -50.0, -10.0])
        samples = PotentialSamples(grid=grid, values=values)
        diag = linearized_qtilde_diagnostic(samples, 8)
        assert diag.x_max == pytest.approx(x_max)
        assert diag.x_min == pytest.approx(x_min)
        # chord moments reproduce the exact areas of the two tail chords
        area_mid = 0.5 * (30.0 - 50.0) * (x_min - x_max)
        area_tail = 0.5 * (-50.0 - 10.0) * (PI - x_min)
        assert chord_moments(x_max, x_min, 30.0, -50.0, 0)[0] == pytest.approx(area_mid, abs=1e-10)
        assert chord_moments(x_min, PI, -50.0, -10.0, 0)[0] == pytest.approx(area_tail, abs=1e-10)

    def test_line_integral_against_quadrature(self):
        x = np.linspace(0.8, 2.1, 20001)
        line = -3.0 + 2.5 * x
        moments = chord_moments(0.8, 2.1, line[0], line[-1], 9)
        for k in (1, 4, 9):
            reference = np.trapezoid(line * np.cos(k * x), x)
            assert moments[k] == pytest.approx(reference, abs=1e-7)

    @pytest.mark.parametrize("shape", ["two_zone_50_75", "minimum_at_pi"])
    def test_matches_loop_reference(self, shape, pot_two_zone_50_75):
        if shape == "two_zone_50_75":
            samples, size = pot_two_zone_50_75, 20
        else:
            # the minimum is the last sample, so the tail chord has zero width
            grid = make_uniform_grid(60)
            values = np.interp(grid.points, [0.0, grid.points[20], PI], [0.0, 30.0, -50.0])
            samples, size = PotentialSamples(grid=grid, values=values), 8
        diag = linearized_qtilde_diagnostic(samples, size)
        assert np.all(np.isfinite(diag.entrywise_error))
        # atol covers entries whose exact E is 0, where both sides are rounding noise
        reference = loop_linearized_error(samples, size)
        assert np.allclose(diag.entrywise_error, reference, rtol=1e-11, atol=1e-14)

    def test_entrywise_errors_nonnegative(self, pot_two_zone_50_75):
        diag = linearized_qtilde_diagnostic(pot_two_zone_50_75, 20)
        assert diag.min_error >= 0.0

    def test_straight_line_tail_is_invalid_for_constructed_potential(self, pot_two_zone_50_75):
        diag = linearized_qtilde_diagnostic(pot_two_zone_50_75, 20)
        assert diag.max_error > 10.0

    def test_degenerate_shape_rejected(self):
        grid = make_uniform_grid(20)
        samples = PotentialSamples(grid=grid, values=grid.points.copy())
        with pytest.raises(DegenerateShapeError):
            linearized_qtilde_diagnostic(samples, 5)

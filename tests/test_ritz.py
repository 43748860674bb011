import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatline.glsolve import PotentialSamples, make_two_zone_grid, make_uniform_grid
from heatline.ritz import (
    DegenerateShapeError,
    JacobiConvergenceError,
    assemble_ritz_matrix,
    cosine_moments,
    jacobi_eigen,
    linearized_qtilde_diagnostic,
    relative_error,
    verify_potential,
)
from heatline.spectra import TargetSpectrum, default_target_spectrum

from oracles import bisection_eigenvalues, fd_eigenvalues

PI = math.pi

ALL_RULES = ("trapezoid", "linear", "quadratic", "cubic")


def constant_samples(value: float, intervals: int = 40) -> PotentialSamples:
    grid = make_uniform_grid(intervals)
    return PotentialSamples(grid=grid, values=np.full(len(grid), value))


class TestCosineMoments:
    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_zero_potential(self, rule):
        moments = cosine_moments(constant_samples(0.0), 10, rule=rule)
        assert np.allclose(moments, 0.0, atol=1e-15)

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_constant_k0(self, rule):
        moments = cosine_moments(constant_samples(1.0), 4, rule=rule)
        assert moments[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_constant_k1_vanishes(self, rule):
        # closed form: int_0^pi cos(kx) dx = 0 for k >= 1
        moments = cosine_moments(constant_samples(1.0), 4, rule=rule)
        assert abs(moments[1]) <= 1e-10

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_constant_on_two_zone_grid(self, rule):
        grid = make_two_zone_grid(13, 29)
        samples = PotentialSamples(grid=grid, values=np.full(len(grid), 2.5))
        moments = cosine_moments(samples, 6, rule=rule)
        assert moments[0] == pytest.approx(2.5, abs=1e-10)
        if rule != "trapezoid":
            # spline reconstructions of a constant integrate cos(kx) exactly;
            # the trapezoid rule picks up an O(h^2) error at the zone junction
            assert np.allclose(moments[1:], 0.0, atol=1e-9)

    def test_spline_rules_integrate_cosine_sharply(self):
        # Q = cos(3x) has qt(3) = 1/2 and all other moments 0
        grid = make_uniform_grid(200)
        samples = PotentialSamples(grid=grid, values=np.cos(3.0 * grid.points))
        moments = cosine_moments(samples, 8, rule="quadratic")
        expected = np.zeros(9)
        expected[3] = 0.5
        assert np.allclose(moments, expected, atol=1e-6)

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError, match="rule"):
            cosine_moments(constant_samples(1.0), 3, rule="simpson")

    def test_rejects_negative_kmax(self):
        with pytest.raises(ValueError, match="kmax"):
            cosine_moments(constant_samples(1.0), -1)


class TestRitzMatrix:
    def test_zero_potential_is_diagonal(self):
        ritz = assemble_ritz_matrix(constant_samples(0.0), 6)
        assert np.allclose(ritz.matrix, np.diag([1.0, 4.0, 9.0, 16.0, 25.0, 36.0]), atol=1e-14)

    def test_constant_shift(self):
        ritz = assemble_ritz_matrix(constant_samples(2.0), 5)
        eigenvalues, _ = jacobi_eigen(ritz)
        assert np.allclose(eigenvalues, np.arange(1, 6) ** 2 + 2.0, atol=1e-9)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_symmetry_is_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        grid = make_uniform_grid(30)
        samples = PotentialSamples(grid=grid, values=rng.normal(scale=40.0, size=31))
        matrix = assemble_ritz_matrix(samples, 12).matrix
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

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_matches_bisection_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(10, 10))
        a = a + a.T
        eigenvalues, _ = jacobi_eigen(a)
        assert np.max(np.abs(eigenvalues - bisection_eigenvalues(a))) <= 1e-8

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_diagonalization_identity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(8, 8))
        a = a + a.T
        eigenvalues, vectors = jacobi_eigen(a)
        assert np.allclose(vectors @ np.diag(eigenvalues) @ vectors.T, a, atol=1e-9)
        assert np.max(np.abs(vectors.T @ vectors - np.eye(8))) <= 1e-8

    def test_ascending_order(self):
        a = np.diag([9.0, 1.0, 4.0])
        eigenvalues, vectors = jacobi_eigen(a)
        assert np.array_equal(eigenvalues, [1.0, 4.0, 9.0])
        # columns follow the sort
        assert vectors[1, 0] == 1.0 and vectors[2, 1] == 1.0 and vectors[0, 2] == 1.0

    def test_sweep_cap_raises(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(JacobiConvergenceError):
            jacobi_eigen(a, max_sweeps=0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError, match="tol"):
            jacobi_eigen(np.eye(2), tol=0.0)


class TestRelativeError:
    def test_exact_match_gives_zero(self):
        spec = default_target_spectrum()
        errors = relative_error(spec.eigenvalues(8), spec, 8)
        assert errors.delta == 0.0
        assert errors.first_abs_error == 0.0

    def test_first_eigenvalue_reported_separately(self):
        spec = default_target_spectrum()
        eigenvalues = spec.eigenvalues(6)
        eigenvalues[0] = 0.05
        errors = relative_error(eigenvalues, spec, 6)
        assert errors.delta == 0.0
        assert errors.first_abs_error == pytest.approx(0.05)

    def test_delta_is_max_over_tail(self):
        spec = default_target_spectrum()
        eigenvalues = spec.eigenvalues(6)
        eigenvalues[2] *= 1.03
        errors = relative_error(eigenvalues, spec, 6)
        assert errors.delta == pytest.approx(0.03)
        assert errors.per_eigenvalue[2] == pytest.approx(0.03)

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
        from heatline.ritz import _line_cos_integral

        grid = make_uniform_grid(60)
        x = grid.points
        x_max, x_min = x[20], x[40]
        values = np.interp(x, [0.0, x_max, x_min, PI], [0.0, 30.0, -50.0, -10.0])
        samples = PotentialSamples(grid=grid, values=values)
        diag = linearized_qtilde_diagnostic(samples, 8)
        assert diag.x_max == pytest.approx(x_max)
        assert diag.x_min == pytest.approx(x_min)
        # line integrals reproduce the exact areas of the two tail chords
        area_mid = 0.5 * (30.0 - 50.0) * (x_min - x_max)
        area_tail = 0.5 * (-50.0 - 10.0) * (PI - x_min)
        assert _line_cos_integral(x_max, x_min, 30.0, -50.0, 0) == pytest.approx(area_mid, abs=1e-10)
        assert _line_cos_integral(x_min, PI, -50.0, -10.0, 0) == pytest.approx(area_tail, abs=1e-10)

    def test_line_integral_against_quadrature(self):
        from heatline.ritz import _line_cos_integral

        x = np.linspace(0.8, 2.1, 20001)
        line = -3.0 + 2.5 * x
        for k in (1, 4, 9):
            reference = np.trapezoid(line * np.cos(k * x), x)
            assert _line_cos_integral(0.8, 2.1, line[0], line[-1], k) == pytest.approx(
                reference, abs=1e-7
            )

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

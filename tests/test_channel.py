import contextlib
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatline.channel import (
    CORE_RADIUS,
    NEAR_AXIS_RADIUS,
    ModeSet,
    combine_spectra,
    concentration_metric,
    first_mode,
    heat_series,
)
from heatline.cli import EXIT_OK, main
from heatline.ritz import verify_potential

PI = math.pi


def synthetic_modes(coeffs: np.ndarray) -> ModeSet:
    """ModeSet with one hand-built sine coefficient vector as its only mode."""
    return ModeSet(
        eigenvalues=np.array([0.0]),
        coefficients=np.reshape(coeffs, (-1, 1)),
        combined=combine_spectra([0.0], [0.0]),
    )


def reference_field(series, s, rho, t):
    """u(s, rho, t) as a per-level sum, each mode's sine series written out."""
    coeffs = series.modes.coefficients
    n = np.arange(1, coeffs.shape[0] + 1)
    scale = math.sqrt(2.0 / PI)
    u = np.zeros(np.broadcast(s, rho).shape)
    for level, a in zip(series.levels, series.coefficients):
        w = scale * np.tensordot(coeffs[:, level.axial_index - 1], np.sin(np.multiply.outer(n, s)), 1)
        psi = scale * np.tensordot(coeffs[:, level.radial_index - 1], np.sin(np.multiply.outer(n, rho)), 1)
        u += math.exp(-level.value * t) * a * w * psi / np.sqrt(rho)
    return u


def per_point_series(modes, index, x):
    """Each indexed mode's sine series summed at every entry of x, repeats included."""
    index = np.asarray(index)
    coeffs = modes.coefficients[:, index - 1]
    n = np.arange(1, len(coeffs) + 1)
    table = math.sqrt(2.0 / PI) * np.sin(np.outer(n, x.ravel()))
    return (coeffs.T @ table).reshape(index.shape + x.shape)


def per_point_axial(modes, l, s):
    """w_l(s), synthesized point by point; stands in for ModeSet.axial_mode."""
    return per_point_series(modes, l, np.atleast_1d(np.asarray(s, dtype=float)))


def per_point_radial(modes, m, rho):
    """v_m(rho) with its near-axis slope limit, point by point; stands in for ModeSet.radial_mode."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    m = np.asarray(m)
    psi = per_point_series(modes, m, rho)
    n = np.arange(1, modes.coefficients.shape[0] + 1)
    slope = np.reshape(math.sqrt(2.0 / PI) * (n @ modes.coefficients)[m - 1], m.shape + (1,) * rho.ndim)
    return np.where(rho < NEAR_AXIS_RADIUS, np.sqrt(rho) * slope, psi / np.sqrt(rho))


def use_per_point_synthesis(monkeypatch):
    monkeypatch.setattr(ModeSet, "axial_mode", per_point_axial)
    monkeypatch.setattr(ModeSet, "radial_mode", per_point_radial)


class TestCombineSpectra:
    def test_default_sums(self):
        levels = combine_spectra([0.0, 11.0, 14.0], [0.0, 11.0, 14.0])
        values = [lv.value for lv in levels]
        assert values == [0.0, 11.0, 11.0, 14.0, 14.0, 22.0, 25.0, 25.0, 28.0]

    def test_lambda_two_is_eleven(self):
        levels = combine_spectra([0.0, 11.0, 14.0], [0.0, 11.0, 14.0])
        assert levels[0].value == 0.0
        assert levels[1].value == 11.0

    def test_short_inputs(self):
        levels = combine_spectra([0.0, 11.0], [0.0])
        assert [lv.value for lv in levels] == [0.0, 11.0]

    def test_tie_breaking_is_stable(self):
        levels = combine_spectra([0.0, 1.0], [0.0, 1.0])
        assert [(lv.radial_index, lv.axial_index) for lv in levels] == [
            (1, 1), (1, 2), (2, 1), (2, 2),
        ]

    def test_rejects_descending(self):
        with pytest.raises(ValueError, match="ascending"):
            combine_spectra([1.0, 0.0], [0.0])

    @given(
        axial=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
        radial=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, axial, radial):
        # small integer levels force repeated values and tied sums
        axial, radial = sorted(axial), sorted(radial)
        levels = combine_spectra(axial, radial)
        brute = sorted(
            (float(mu + nu), m, l)
            for m, mu in enumerate(radial, start=1)
            for l, nu in enumerate(axial, start=1)
        )
        assert [(lv.value, lv.radial_index, lv.axial_index) for lv in levels] == brute


class TestModeSet:
    def test_radial_defaults_to_axial(self, modes300):
        # one 1-D family: v_m(rho) sqrt(rho) is the axial mode w_m(rho)
        rho = np.linspace(0.1, PI, 7)
        index = np.arange(1, 6)
        lhs = modes300.radial_mode(index, rho) * np.sqrt(rho)
        assert np.allclose(lhs, modes300.axial_mode(index, rho), rtol=0.0, atol=1e-13)

    def test_mode_count_defaults_to_compared_levels(self, report300):
        modes = ModeSet.from_reports(report300)
        k = report300.compare_count
        assert np.array_equal(modes.eigenvalues, report300.eigenvalues[:k])
        assert modes.coefficients.shape == (len(report300.eigenvalues), k)
        assert len(modes.combined) == k * k

    @pytest.mark.parametrize("mode_count", [0, -3, 60])
    def test_rejects_bad_mode_count(self, pot300, spectrum, mode_count):
        report = verify_potential(pot300, spectrum, basis_size=40, compare_count=10)
        with pytest.raises(ValueError, match="mode_count"):
            ModeSet.from_reports(report, mode_count=mode_count)

    def test_array_index_matches_single_modes(self, modes300):
        s = np.array([[0.0, 0.7], [2.0, PI]])
        rho = np.array([[1e-9, 0.7], [2.0, PI]])
        index = np.array([3, 1, 2])
        axial, radial = modes300.axial_mode(index, s), modes300.radial_mode(index, rho)
        assert axial.shape == radial.shape == (3, 2, 2)
        for row, k in enumerate(index):
            assert np.allclose(axial[row], modes300.axial_mode(int(k), s), rtol=0.0, atol=1e-13)
            assert np.allclose(radial[row], modes300.radial_mode(int(k), rho), rtol=0.0, atol=1e-13)

    def test_combined_head(self, modes300):
        lam = modes300.combined
        assert abs(lam[0].value) < 1e-5
        assert lam[1].value == pytest.approx(11.0, rel=1e-3)


#: synthesis at distinct coordinates may only reorder rounding: the BLAS sums
#: the same products in a table of another width
SYNTHESIS_TOL = 1e-13

_MESH_S, _MESH_RHO = np.meshgrid(np.linspace(0.0, PI, 31), np.linspace(PI / 31, PI, 31))
SYNTHESIS_POINTS = {
    "meshgrid with repeats": (_MESH_S, _MESH_RHO),
    "below the near-axis radius": (
        np.array([0.3, 0.3, 1.7, 2.9, 0.3, PI]),
        np.array([1e-12, 0.1 * NEAR_AXIS_RADIUS, 1e-12, 0.5, 0.1 * NEAR_AXIS_RADIUS, NEAR_AXIS_RADIUS]),
    ),
    "0-d": (1.1, 0.7),
    "2-d": (
        np.array([[0.0, 0.7, 0.7, 2.0], [PI, 2.0, 0.7, 1.3], [1.3, 1.3, 0.0, 2.5]]),
        np.array([[2.0, 1e-10, 0.7, PI], [0.7, 0.7, 1e-10, 3.0], [3.0, 1.5, 2.0, 2.0]]),
    ),
}


class TestSynthesisAtDistinctCoordinates:
    """axial_mode, radial_mode and evaluate against per-point synthesis."""

    @pytest.mark.parametrize("case", list(SYNTHESIS_POINTS))
    @pytest.mark.parametrize("index", [2, np.array([3, 1, 2, 1]), np.array([[1, 4], [4, 2]])])
    def test_modes_match_per_point(self, modes300, case, index):
        s, rho = SYNTHESIS_POINTS[case]
        expected_shape = np.shape(index) + np.shape(np.atleast_1d(s))
        for got, want in (
            (modes300.axial_mode(index, s), per_point_axial(modes300, index, s)),
            (modes300.radial_mode(index, rho), per_point_radial(modes300, index, rho)),
        ):
            assert got.shape == want.shape == expected_shape
            assert np.max(np.abs(got - want)) <= SYNTHESIS_TOL * np.max(np.abs(want))

    @pytest.mark.parametrize("case", list(SYNTHESIS_POINTS))
    def test_field_matches_per_point(self, modes300, monkeypatch, case):
        s, rho = SYNTHESIS_POINTS[case]
        series = heat_series(modes300, np.sin, lambda r: np.exp(-2.0 * r), truncation=25)
        got = series.evaluate(s, rho, 0.3)
        with monkeypatch.context() as patch:
            use_per_point_synthesis(patch)
            want = series.evaluate(s, rho, 0.3)
        assert np.shape(got) == np.shape(want) == np.shape(s)
        assert type(got) is type(want)
        assert np.max(np.abs(np.subtract(got, want))) <= SYNTHESIS_TOL * np.max(np.abs(want))


class TestFirstMode:
    def test_vanishes_on_axial_boundary(self, modes300):
        for rho in (0.3, 1.2, 3.0):
            assert first_mode(modes300, 0.0, rho) == pytest.approx(0.0, abs=1e-12)

    def test_vanishes_at_outer_radius(self, modes300):
        scale = abs(first_mode(modes300, PI / 2, 1.0))
        for s in (0.5, 1.5, 2.5):
            assert abs(first_mode(modes300, s, PI)) <= 1e-10 * scale

    def test_small_radius_square_root_behavior(self, modes300):
        # psi_1 ~ c rho near 0, so v_1 = psi_1 / sqrt(rho) ~ c sqrt(rho)
        coeffs = modes300.coefficients[:, 0]
        n = np.arange(1, len(coeffs) + 1)
        slope = math.sqrt(2.0 / PI) * float(coeffs @ n)
        rho = 1e-6
        v = modes300.radial_mode(1, rho)[0]
        assert v == pytest.approx(slope * math.sqrt(rho), rel=1e-4)

    def test_near_axis_branch_is_consistent(self, modes300):
        # the slope limit and the direct series evaluation agree at the switch radius
        rho = 1.0e-8
        coeffs = modes300.coefficients[:, 0]
        n = np.arange(1, len(coeffs) + 1)
        series = math.sqrt(2.0 / PI) * float(coeffs @ np.sin(n * rho)) / math.sqrt(rho)
        limit = math.sqrt(rho) * math.sqrt(2.0 / PI) * float(coeffs @ n)
        assert series == pytest.approx(limit, rel=1e-9)

    def test_rejects_bad_coordinates(self, modes300):
        with pytest.raises(ValueError):
            first_mode(modes300, 1.0, 0.0)
        with pytest.raises(ValueError):
            first_mode(modes300, -0.1, 1.0)
        with pytest.raises(ValueError):
            first_mode(modes300, 1.0, 3.5)


class TestConcentration:
    def test_sine_mode_is_balanced(self):
        # psi = sin(rho): int_0^{pi/2} sin^2 = int_{pi/2}^pi sin^2 = pi/4
        coeffs = np.zeros(8)
        coeffs[0] = 1.0
        modes = synthetic_modes(coeffs)
        assert concentration_metric(modes) == pytest.approx(0.5, abs=1e-9)

    def test_left_heavy_mode(self):
        # psi = (sin(rho) + sin(2 rho)) / sqrt(2) leans into [0, pi/2]:
        # inside = (pi/4 + 2/3), total = pi/2, fraction = 1/2 + 4/(3 pi)
        coeffs = np.zeros(8)
        coeffs[0] = coeffs[1] = 1.0 / math.sqrt(2.0)
        modes = synthetic_modes(coeffs)
        assert concentration_metric(modes) == pytest.approx(0.5 + 4.0 / (3.0 * PI), abs=1e-12)

    def test_closed_form_matches_trapezoid_reference(self, modes300):
        coeffs = modes300.coefficients[:, 0]
        n = np.arange(1, len(coeffs) + 1)
        energies = []
        for lo, hi in ((0.0, CORE_RADIUS), (CORE_RADIUS, PI)):
            x = np.linspace(lo, hi, 20001)
            psi = math.sqrt(2.0 / PI) * coeffs @ np.sin(np.outer(n, x))
            energies.append(np.trapezoid(psi**2, x))
        reference = energies[0] / sum(energies)
        assert concentration_metric(modes300) == pytest.approx(reference, abs=1e-8)

    def test_constructed_mode_concentrates_in_core(self, modes300):
        assert concentration_metric(modes300) > 0.5


class TestHeatSeries:
    def test_first_mode_initial_data_is_invariant(self, modes300):
        series = heat_series(
            modes300,
            axial_profile=lambda s: modes300.axial_mode(1, s),
            radial_profile=lambda rho: np.where(
                rho > 0.0, modes300.radial_mode(1, np.maximum(rho, 1e-12)), 0.0
            ),
            truncation=16,
        )
        assert series.coefficients[0] == pytest.approx(1.0, abs=1e-4)
        assert np.max(np.abs(series.coefficients[1:])) <= 1e-5
        s, rho = 1.1, 0.8
        u0 = series.evaluate(s, rho, 0.0)
        u2 = series.evaluate(s, rho, 2.0)
        assert u2 == pytest.approx(u0, abs=1e-5 * abs(u0) + 1e-8)

    def test_residual_decay_bound(self, modes300):
        series = heat_series(
            modes300,
            axial_profile=lambda s: np.sin(s),
            radial_profile=lambda rho: np.exp(-2.0 * rho),
            truncation=25,
        )
        lam2 = series.levels[1].value
        tail = series.tail_norm()
        for t in (0.5, 1.0, 2.0):
            bound = tail * math.exp(-lam2 * t) * (1.0 + 1e-9)
            assert series.residual_after_first(t) <= bound

    def test_truncation_refines_initial_field(self, modes300):
        s = np.linspace(0.0, PI, 101)
        rho = np.linspace(1e-6, PI, 101)
        ss, rr = np.meshgrid(s, rho, indexing="ij")
        f = np.sin(ss) * np.exp(-2.0 * rr)
        weights = np.full(101, PI / 100)
        weights[0] = weights[-1] = PI / 200
        w2 = np.outer(weights, weights * rho)
        residuals = []
        for truncation in (1, 4, 9, 16, 25):
            series = heat_series(
                modes300,
                axial_profile=lambda x: np.sin(x),
                radial_profile=lambda r: np.exp(-2.0 * r),
                truncation=truncation,
            )
            u0 = series.evaluate(ss, rr, 0.0)
            residuals.append(math.sqrt(float(np.sum((u0 - f) ** 2 * w2))))
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] < residuals[0]

    def test_rejects_bad_truncation(self, modes300):
        with pytest.raises(ValueError):
            heat_series(modes300, np.sin, np.cos, truncation=0)

    def test_rejects_negative_time(self, modes300):
        # NaN and inf times are refused too: they would return NaN and 0 silently
        series = heat_series(modes300, np.sin, np.cos, truncation=2)
        for t in (-0.1, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="time must be finite and >= 0"):
                series.evaluate(1.0, 1.0, t)
            with pytest.raises(ValueError, match="time must be finite and >= 0"):
                series.residual_after_first(t)

    @pytest.mark.parametrize("s, rho", [(-0.1, 1.0), (1.0, 3.5), (1.0, 0.0)])
    def test_rejects_points_outside_the_channel(self, modes300, s, rho):
        series = heat_series(modes300, np.sin, np.cos, truncation=2)
        with pytest.raises(ValueError):
            series.evaluate(s, rho, 0.5)

    @given(
        s=st.lists(st.floats(min_value=0.0, max_value=PI), min_size=1, max_size=8),
        rho=st.lists(st.floats(min_value=1e-12, max_value=PI), min_size=1, max_size=8),
        near_axis=st.floats(min_value=1e-12, max_value=NEAR_AXIS_RADIUS, exclude_max=True),
        t=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_evaluate_matches_per_level_sum(self, modes300, s, rho, near_axis, t):
        series = heat_series(modes300, np.sin, lambda r: np.exp(-2.0 * r), truncation=25)
        s_grid, rho_grid = np.meshgrid(np.linspace(0.0, PI, 21), np.linspace(0.1, PI, 21))
        scale = np.max(np.abs(reference_field(series, s_grid, rho_grid, t)))
        s_pts = np.resize(s, len(rho) + 1)
        rho_pts = np.append(rho, near_axis)
        u = series.evaluate(s_pts, rho_pts, t)
        assert np.max(np.abs(u - reference_field(series, s_pts, rho_pts, t))) <= 1e-12 * scale


class TestChannelOutputs:
    """`heatline channel` with distinct-coordinate synthesis against per-point synthesis."""

    #: heat.csv and mode1.csv may differ by rounding only (observed: 2.2e-16 and 1.2e-32)
    CSV_TOL = 1e-14

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        outputs = {}
        for name in ("distinct", "per_point"):
            with pytest.MonkeyPatch.context() as patch:
                if name == "per_point":
                    use_per_point_synthesis(patch)
                patch.chdir(tmp_path_factory.mktemp(name))
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    rc = main(["channel", "--grid-m", "60", "--ritz-n", "24", "--out-dir", "out"])
                assert rc == EXIT_OK
                files = {f: (Path("out") / f).read_bytes() for f in ("lambda.csv", "heat.csv", "mode1.csv")}
            outputs[name] = stdout.getvalue(), files
        return outputs

    def test_lambda_csv_and_stdout_are_byte_identical(self, runs):
        (out_a, files_a), (out_b, files_b) = runs["distinct"], runs["per_point"]
        assert out_a == out_b
        assert files_a["lambda.csv"] == files_b["lambda.csv"]

    @pytest.mark.parametrize("name, rows", [("heat.csv", 4 * 21 * 21), ("mode1.csv", 41 * 41)])
    def test_field_csvs_agree_within_rounding(self, runs, name, rows):
        tables = []
        for run in ("distinct", "per_point"):
            header, *lines = runs[run][1][name].decode().splitlines()
            tables.append(np.array([line.split(",") for line in lines], dtype=float))
        got, want = tables
        assert got.shape == want.shape and len(got) == rows
        # the coordinate columns are written from the same points
        assert np.array_equal(got[:, :-1], want[:, :-1])
        assert np.max(np.abs(got[:, -1] - want[:, -1])) <= self.CSV_TOL

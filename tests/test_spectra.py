import json
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatline.spectra import (
    FREE_NORMALIZER,
    ZERO_LEVEL_NORMALIZER,
    PerturbedLevel,
    TargetSpectrum,
    build_kernel_terms,
    default_target_spectrum,
    eval_L,
    load_target_spectrum,
)

PI = math.pi

# eval_L at (pi/2, pi/2) and (pi/2, pi/3), frozen from a 50-digit evaluation
# of the default six-term kernel with mpmath
L_HALF_HALF = -0.4435915847071675615467503
L_HALF_THIRD = -0.03390031083000963635678237


class TestTargetSpectrum:
    def test_default_eigenvalues(self):
        spec = default_target_spectrum()
        assert np.allclose(spec.eigenvalues(6), [0.0, 11.0, 14.0, 16.0, 25.0, 36.0])

    def test_free_entries_beyond_perturbed(self):
        spec = default_target_spectrum()
        assert spec.eigenvalue(4) == 16.0
        assert all(level.index != 5 for level in spec.perturbed)

    def test_default_normalizers(self):
        spec = default_target_spectrum()
        assert spec.perturbed[0].alpha == pytest.approx(PI**3 / 3.0)
        assert spec.perturbed[1].alpha == pytest.approx(PI / 2.0)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            TargetSpectrum(perturbed=(PerturbedLevel(1, -1.0, 1.0),))

    def test_rejects_nonpositive_normalizer(self):
        with pytest.raises(ValueError, match="positive"):
            TargetSpectrum(perturbed=(PerturbedLevel(1, 0.0, 0.0),))

    def test_rejects_unordered_indices(self):
        with pytest.raises(ValueError, match="increasing"):
            TargetSpectrum(
                perturbed=(PerturbedLevel(2, 5.0, 1.0), PerturbedLevel(1, 0.0, 1.0))
            )

    def test_rejects_merged_ordering_violation(self):
        # nu_2 = 0.5 collides with the free nu_1 = 1
        with pytest.raises(ValueError, match="strictly increasing"):
            TargetSpectrum(perturbed=(PerturbedLevel(2, 0.5, 1.0),))

    def test_huge_index_validates_without_walking_the_free_levels(self):
        # the order check looks only at a perturbed level's neighbours; walking
        # every free level up to 10^12 would take hours
        start = time.perf_counter()
        spec = TargetSpectrum(perturbed=(PerturbedLevel(10**12, 1e24 + 1e6, 1.0),))
        assert time.perf_counter() - start < 0.1
        assert spec.eigenvalue(10**12) == 1e24 + 1e6
        with pytest.raises(ValueError, match="strictly increasing"):
            TargetSpectrum(perturbed=(PerturbedLevel(10**12, 2e24, 1.0),))

    @given(st.dictionaries(st.integers(1, 8), st.floats(0.0, 80.0), min_size=1, max_size=5))
    def test_order_check_matches_the_whole_merged_sequence(self, prescribed):
        levels = tuple(PerturbedLevel(j, nu, 1.0) for j, nu in sorted(prescribed.items()))
        merged = [prescribed.get(j, float(j * j)) for j in range(1, max(prescribed) + 2)]
        if np.all(np.diff(merged) > 0.0):
            TargetSpectrum(perturbed=levels)
        else:
            with pytest.raises(ValueError, match="merged spectrum is not strictly increasing"):
                TargetSpectrum(perturbed=levels)


class TestSpectrumFile:
    def test_load_with_defaults(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "perturbed": [
                {"index": 1, "nu": 0.0},
                {"index": 2, "nu": 11.0},
                {"index": 3, "nu": 14.0, "alpha": 2.0},
            ]
        }))
        spec = load_target_spectrum(path)
        assert spec.perturbed[0].alpha == pytest.approx(ZERO_LEVEL_NORMALIZER)
        assert spec.perturbed[1].alpha == pytest.approx(FREE_NORMALIZER)
        assert spec.perturbed[2].alpha == 2.0
        assert spec.eigenvalue(2) == 11.0

    def test_load_bare_list(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([{"index": 2, "nu": 5.0}]))
        spec = load_target_spectrum(path)
        assert spec.eigenvalues(3).tolist() == [1.0, 5.0, 9.0]

    def test_interval_length_must_be_pi(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"perturbed": [{"index": 2, "nu": 5.0}], "interval_length": 7}))
        with pytest.raises(ValueError, match="interval_length must be pi"):
            load_target_spectrum(path)
        path.write_text(json.dumps({"perturbed": [{"index": 2, "nu": 5.0}], "interval_length": PI}))
        assert load_target_spectrum(path).eigenvalue(2) == 5.0

    def test_empty_list_is_free_spectrum(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[]")
        spec = load_target_spectrum(path)
        assert spec.perturbed == ()
        assert spec.eigenvalue(3) == 9.0


class TestKernelTerms:
    def test_default_term_structure(self, terms):
        assert terms.rank == 6
        weights = terms.weights
        freqs = terms.frequencies
        assert weights[0] == pytest.approx(3.0 / PI**3)
        assert freqs[0] == 0.0
        assert weights[1] == pytest.approx(2.0 / PI)
        assert freqs[1] == pytest.approx(math.sqrt(11.0))
        assert weights[2] == pytest.approx(2.0 / PI)
        assert freqs[2] == pytest.approx(math.sqrt(14.0))
        assert weights[3:] == pytest.approx([-2.0 / PI] * 3)
        assert freqs[3:].tolist() == [1.0, 2.0, 3.0]

    def test_rank_is_twice_perturbed_count(self):
        spec = TargetSpectrum(perturbed=(PerturbedLevel(2, 5.0, PI / 2),))
        assert build_kernel_terms(spec).rank == 2

    def test_empty_spectrum_gives_zero_kernel(self):
        spec = TargetSpectrum(perturbed=())
        terms = build_kernel_terms(spec)
        assert terms.rank == 0
        assert eval_L(terms, 1.0, 2.0) == 0.0


class TestEvalL:
    def test_vanishes_on_axes(self, terms):
        for x in np.linspace(0.0, PI, 7):
            assert eval_L(terms, x, 0.0) == pytest.approx(0.0, abs=1e-15)
            assert eval_L(terms, 0.0, x) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_values(self, terms):
        assert eval_L(terms, PI / 2, PI / 2) == pytest.approx(L_HALF_HALF, rel=1e-14)
        assert eval_L(terms, PI / 2, PI / 3) == pytest.approx(L_HALF_THIRD, rel=1e-13)

    @given(
        x=st.floats(min_value=0.0, max_value=PI),
        y=st.floats(min_value=0.0, max_value=PI),
    )
    def test_symmetry(self, terms, x, y):
        assert abs(eval_L(terms, x, y) - eval_L(terms, y, x)) <= 1e-12

    def test_broadcasting(self, terms):
        xs = np.linspace(0.1, 3.0, 5)
        grid_vals = eval_L(terms, xs[:, None], xs[None, :])
        assert grid_vals.shape == (5, 5)
        assert grid_vals[1, 3] == pytest.approx(eval_L(terms, xs[1], xs[3]))


class TestDerivatives:
    @given(x=st.floats(min_value=0.01, max_value=PI - 0.01))
    def test_a_prime_matches_finite_difference(self, terms, x):
        h = 1e-6
        fd = (terms.a_values(x + h) - terms.a_values(x - h)) / (2.0 * h)
        exact = terms.a_prime_values(x)
        assert exact.shape == (terms.rank,)
        assert np.all(np.abs(exact - fd) <= 1e-6 * (1.0 + np.abs(exact)))

    @given(x=st.floats(min_value=0.01, max_value=PI - 0.01))
    def test_b_prime_matches_finite_difference(self, terms, x):
        h = 1e-6
        fd = (terms.b_values(x + h) - terms.b_values(x - h)) / (2.0 * h)
        exact = terms.b_prime_values(x)
        assert exact.shape == (terms.rank,)
        assert np.all(np.abs(exact - fd) <= 1e-6 * (1.0 + np.abs(exact)))

    def test_a_is_multiple_of_b(self, terms):
        xs = np.linspace(0.1, PI - 0.1, 9)
        ratio = terms.a_values(xs) / terms.b_values(xs)
        assert np.allclose(ratio, terms.weights[:, None], rtol=1e-12)

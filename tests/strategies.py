"""Hypothesis strategies shared by the test modules."""

import math

from hypothesis import strategies as st

from heatline.spectra import FREE_NORMALIZER, ZERO_LEVEL_NORMALIZER, PerturbedLevel, TargetSpectrum


@st.composite
def admissible_spectra(draw):
    """1-4 perturbed levels among the first 6, merged values strictly increasing.

    Each nu_j stays within 0.45 of the gaps around j^2, so neighbours never
    cross.  nu_1 is either 0, the degenerate level, or at least 0.25: a
    tiny positive nu_1 with an O(1) alpha shrinks its kernel term to ~nu_1,
    and I + G(pi) is then singular to working precision.  Each alpha_j is
    its free normalizer times a factor within e^(+-1).
    """
    indices = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
    levels = []
    for j in sorted(indices):
        highest = j * j + 0.45 * (2 * j + 1)
        if j == 1:
            nu = draw(st.just(0.0) | st.floats(0.25, highest))
        else:
            nu = draw(st.floats(j * j - 0.45 * (2 * j - 1), highest))
        normalizer = ZERO_LEVEL_NORMALIZER if nu == 0.0 else FREE_NORMALIZER
        alpha = normalizer * math.exp(draw(st.floats(-1.0, 1.0)))
        levels.append(PerturbedLevel(j, nu, alpha))
    return TargetSpectrum(perturbed=tuple(levels))

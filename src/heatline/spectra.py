"""Target spectral data and the finite-rank Gel'fand-Levitan kernel.

The design goal is a potential Q on [0, pi] whose Dirichlet eigenvalues are a
prescribed sequence nu_1 < nu_2 < ... that differs from the free sequence
j^2 at finitely many indices.  Each spectral level carries a normalizing
constant alpha_j (the squared norm of the model eigenfunction); the free
levels use sin(j x) with ||sin(j x)||^2 = pi/2.

The difference between the prescribed and the free spectral function is a
finite sum of jumps, so the Gel'fand-Levitan input kernel is finite rank:

    L(x, y) = sum_j a_j(x) b_j(y)

with one added term per prescribed level (weight 1/alpha_j) and one
subtracted term per replaced free level (weight 2/pi).  A level at nu = 0
degenerates to the pair (x/alpha, y), the nu -> 0 limit of the sine pair.
All component functions have closed-form first derivatives, which the
recovery of Q from the transformation kernel requires exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PI = math.pi

#: squared L2 norm of sin(j x) on [0, pi], the free-level normalizer
FREE_NORMALIZER = PI / 2.0

#: squared L2 norm of x on [0, pi], the normalizer of the nu = 0 level
ZERO_LEVEL_NORMALIZER = PI**3 / 3.0

#: largest finite float; a Python int above it has no float value
FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class PerturbedLevel:
    """One prescribed spectral level replacing the free level at the same index."""

    index: int
    nu: float
    alpha: float


@dataclass(frozen=True)
class TargetSpectrum:
    """Prescribed Dirichlet eigenvalues nu_j and normalizers alpha_j.

    Indices absent from `perturbed` keep the free values nu_j = j^2,
    alpha_j = pi/2.  The merged sequence must be strictly increasing.
    """

    perturbed: tuple[PerturbedLevel, ...]

    def __post_init__(self) -> None:
        last_index = 0
        for level in self.perturbed:
            if level.index < 1:
                raise ValueError(f"perturbed index must be at least 1, got {level.index}")
            # the order check below squares the free neighbour index + 1
            if (level.index + 1) ** 2 > FLOAT_MAX:
                raise ValueError(f"perturbed index {level.index} is too large: "
                                 f"the square of index + 1 overflows a float")
            if level.index <= last_index:
                raise ValueError(
                    f"perturbed indices must be strictly increasing, got {level.index}"
                )
            if level.nu < 0.0:
                raise ValueError(f"eigenvalue nu_{level.index} = {level.nu} is negative")
            if level.alpha <= 0.0:
                raise ValueError(f"normalizer alpha_{level.index} = {level.alpha} must be positive")
            if not math.isfinite(1.0 / level.alpha):
                raise ValueError(f"normalizer alpha_{level.index} = {level.alpha} makes the "
                                 f"kernel weight 1/alpha_{level.index} overflow")
            last_index = level.index
        # the free values j^2 increase, so order can only break next to a
        # perturbed level: compare only the pairs (j - 1, j) and (j, j + 1)
        prescribed = {level.index: level.nu for level in self.perturbed}

        def nu(j: int) -> float:
            return prescribed.get(j, float(j * j))

        for i in sorted({k for j in prescribed for k in (j - 1, j) if k >= 1}):
            if not nu(i) < nu(i + 1):
                raise ValueError(f"merged spectrum is not strictly increasing: "
                                 f"nu_{i} = {nu(i)}, nu_{i + 1} = {nu(i + 1)}")

    def eigenvalue(self, j: int) -> float:
        """nu_j of the merged spectrum (1-based)."""
        if j < 1:
            raise ValueError("spectral index must be >= 1")
        for level in self.perturbed:
            if level.index == j:
                return level.nu
        return float(j * j)

    def eigenvalues(self, count: int) -> np.ndarray:
        """First `count` merged eigenvalues, ascending in index."""
        return np.array([self.eigenvalue(j) for j in range(1, count + 1)])


def default_target_spectrum() -> TargetSpectrum:
    """The designed heat-channel spectrum: nu = (0, 11, 14, 16, 25, 36, ...)."""
    return TargetSpectrum(
        perturbed=(
            PerturbedLevel(1, 0.0, ZERO_LEVEL_NORMALIZER),
            PerturbedLevel(2, 11.0, FREE_NORMALIZER),
            PerturbedLevel(3, 14.0, FREE_NORMALIZER),
        )
    )


def check_type(name: str, value, kinds: tuple) -> None:
    """Reject a config or spectrum-file value that is not of its declared type.

    A float field takes any int or float of finite float value; an int
    field takes no bool; None passes only where the field allows it.
    """
    if value is None and type(None) in kinds:
        return
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if float in kinds:
        # ints compare exactly, so one beyond float range fails here too
        valid = number and abs(value) <= FLOAT_MAX
        wanted = "a finite number"
    elif int in kinds:
        valid = number and isinstance(value, int)
        wanted = "an integer"
    else:
        valid = isinstance(value, str)
        wanted = "a string"
    if not valid:
        raise ValueError(f"{name} must be {wanted}, got {value!r}")


def load_target_spectrum(path: str | Path) -> TargetSpectrum:
    """Read a spectrum from a JSON file.

    Accepted forms: a list of records, or an object with a "perturbed" list
    and an optional "interval_length", which must be pi: the construction
    is fixed to [0, pi].  Each record is an object holding an integer
    "index" and a finite "nu"; a missing "alpha" defaults to pi/2, or
    pi^3/3 when nu = 0.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"spectrum file {path} nests too deeply") from None
    if isinstance(data, dict):
        records = data.get("perturbed", [])
        interval_length = data.get("interval_length", PI)
        check_type("interval_length", interval_length, (float,))
        if interval_length != PI:
            raise ValueError(f"interval_length must be pi, got {interval_length!r}")
    else:
        records = data
    if not isinstance(records, list):
        raise ValueError(f"perturbed levels must be a list, got {records!r}")
    levels = []
    for number, rec in enumerate(records, start=1):
        if not isinstance(rec, dict):
            raise ValueError(f"spectrum record {number} must be an object, got {rec!r}")
        for key in ("index", "nu"):
            if key not in rec:
                raise ValueError(f"spectrum record {number} is missing {key!r}")
        nu = rec["nu"]
        check_type(f"nu of spectrum record {number}", nu, (float,))
        alpha = rec.get("alpha", ZERO_LEVEL_NORMALIZER if nu == 0.0 else FREE_NORMALIZER)
        check_type(f"alpha of spectrum record {number}", alpha, (float,))
        check_type(f"index of spectrum record {number}", rec["index"], (int,))
        levels.append(PerturbedLevel(rec["index"], float(nu), float(alpha)))
    return TargetSpectrum(perturbed=tuple(levels))


@dataclass(frozen=True)
class KernelTermList:
    """Finite-rank factorization L(x, y) = sum_j a_j(x) b_j(y).

    Term j is a_j(x) = weights[j] * sin(frequencies[j] x), b_j(y) =
    sin(frequencies[j] y); frequency 0 encodes the degenerate nu = 0 pair
    a_j(x) = weights[j] * x, b_j(y) = y.  `values(x)` returns a, a', b and
    b' at once, each with the terms stacked along a leading axis, shape
    (rank,) + shape(x).
    """

    weights: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        frequencies = np.asarray(self.frequencies, dtype=float)
        if weights.ndim != 1 or weights.shape != frequencies.shape:
            raise ValueError("weights and frequencies must be 1-D arrays of equal length")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "frequencies", frequencies)

    @property
    def rank(self) -> int:
        return len(self.weights)

    def values(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(a, a', b, b') at x from one sine and one cosine array."""
        x = np.asarray(x, dtype=float)
        shape = (-1,) + (1,) * x.ndim
        w, f = self.weights.reshape(shape), self.frequencies.reshape(shape)
        degenerate, fx = f == 0.0, f * x
        b, cos = np.where(degenerate, x, np.sin(fx)), np.cos(fx)
        # a' is (w f) cos, not w b': the two products round differently
        return w * b, np.where(degenerate, w, w * f * cos), b, np.where(degenerate, 1.0, f * cos)


def build_kernel_terms(spectrum: TargetSpectrum) -> KernelTermList:
    """Assemble the kernel terms for a target spectrum.

    For every perturbed index j: one added term for the prescribed level,
    a(x) = sin(sqrt(nu_j) x) / alpha_j (or x / alpha_j when nu_j = 0), paired
    with b(y) = sin(sqrt(nu_j) y) (or y); and one subtracted free term
    a(x) = -(2/pi) sin(j x), b(y) = sin(j y).  Rank = 2 * len(perturbed).
    """
    levels = spectrum.perturbed
    return KernelTermList(
        weights=[1.0 / lv.alpha for lv in levels] + [-1.0 / FREE_NORMALIZER] * len(levels),
        frequencies=[math.sqrt(lv.nu) for lv in levels] + [float(lv.index) for lv in levels],
    )


def eval_L(terms: KernelTermList, x, y):
    """Evaluate L(x, y) = sum_j a_j(x) b_j(y); broadcasts over array arguments."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.sum(terms.values(x)[0] * terms.values(y)[2], axis=0)
    if out.ndim == 0:
        return float(out)
    return out

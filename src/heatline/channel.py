"""Separable 3-D heat-channel potential and its eigenmode machinery.

In cylindrical coordinates (s, rho, theta) the channel potential is

    q(s, rho) = Q(s) + 1/(4 rho^2) + Q(rho),

with the same constructed 1-D potential Q on the axis and in the radius.
The substitution v = psi / sqrt(rho) turns the radial operator
-v'' - v'/rho + (1/(4 rho^2) + Q) v into the standard Dirichlet problem
-psi'' + Q psi = mu psi on [0, pi], so radial and axial modes solve the
identical 1-D problem and the 3-D eigenvalues are the pairwise sums
lambda = mu_m + nu_l.  With the designed spectrum, lambda_1 = 0 and
lambda_2 = 11, so the heat semigroup collapses onto the first mode at
rate exp(-11 t) and that mode stays concentrated near the axis.

Modes are synthesized from the verifier's sine-basis coefficient vectors:
w(s) = sum_n c_n sqrt(2/pi) sin(n s) and v(rho) = psi(rho) / sqrt(rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .csvio import write_csv
from .glsolve import PotentialSamples
from .ritz import RitzReport
from .spectra import PI

#: below this radius v = psi / sqrt(rho) switches to its series slope limit
NEAR_AXIS_RADIUS = 1e-8

#: points per axis for the fixed quadrature grids of inner products and norms
QUADRATURE_POINTS = 2001


@dataclass(frozen=True)
class ChannelPotential:
    """Evaluates q(s, rho) = Q_axial(s) + 1/(4 rho^2) + Q_radial(rho)."""

    axial: PotentialSamples
    radial: PotentialSamples

    def evaluate(self, s, rho):
        s = np.asarray(s, dtype=float)
        rho = np.asarray(rho, dtype=float)
        if np.any(rho <= 0.0):
            raise ValueError("the channel potential requires rho > 0")
        q_s = np.interp(s, self.axial.grid.points, self.axial.values)
        q_r = np.interp(rho, self.radial.grid.points, self.radial.values)
        out = q_s + 0.25 / rho**2 + q_r
        return float(out) if out.ndim == 0 else out


def assemble_channel(samples: PotentialSamples) -> ChannelPotential:
    """Channel potential sharing one constructed Q axially and radially."""
    return ChannelPotential(axial=samples, radial=samples)


@dataclass(frozen=True)
class CombinedLevel:
    """One 3-D eigenvalue lambda = mu_m + nu_l with its 1-based index pair."""

    value: float
    radial_index: int
    axial_index: int


def combine_spectra(
    axial: Sequence[float], radial: Sequence[float], count: int
) -> tuple[CombinedLevel, ...]:
    """The `count` smallest pairwise sums, ascending, ties by (m, l)."""
    axial = np.asarray(axial, dtype=float)
    radial = np.asarray(radial, dtype=float)
    if np.any(np.diff(axial) < 0.0) or np.any(np.diff(radial) < 0.0):
        raise ValueError("input spectra must be ascending")
    levels = [
        CombinedLevel(value=float(mu + nu), radial_index=m, axial_index=l)
        for m, mu in enumerate(radial, start=1)
        for l, nu in enumerate(axial, start=1)
    ]
    levels.sort(key=lambda lv: (lv.value, lv.radial_index, lv.axial_index))
    return tuple(levels[:count])


def _sine_matrix(coords: np.ndarray, n_max: int) -> np.ndarray:
    """Rows phi_n(x) = sqrt(2/pi) sin(n x) for n = 1 .. n_max."""
    n = np.arange(1, n_max + 1)
    return math.sqrt(2.0 / PI) * np.sin(np.outer(n, coords))


@dataclass(frozen=True)
class ModeSet:
    """Axial and radial 1-D modes plus the combined 3-D spectrum.

    Coefficient matrices hold one sine-basis eigenvector per column.  The
    radial problem is the same Dirichlet operator, so by default the radial
    data is the axial data reused.
    """

    axial_eigenvalues: np.ndarray
    axial_coefficients: np.ndarray
    radial_eigenvalues: np.ndarray
    radial_coefficients: np.ndarray
    combined: tuple[CombinedLevel, ...]

    @classmethod
    def from_reports(
        cls,
        axial: RitzReport,
        radial: RitzReport | None = None,
        mode_count: int | None = None,
        combined_count: int | None = None,
    ) -> "ModeSet":
        radial = axial if radial is None else radial
        k = mode_count or axial.compare_count
        nu = axial.eigenvalues[:k]
        mu = radial.eigenvalues[:k]
        combined = combine_spectra(nu, mu, combined_count or k * k)
        return cls(
            axial_eigenvalues=nu,
            axial_coefficients=axial.eigenvectors[:, :k],
            radial_eigenvalues=mu,
            radial_coefficients=radial.eigenvectors[:, :k],
            combined=combined,
        )

    def axial_mode(self, l: int, s) -> np.ndarray:
        """w_l(s) from its sine series (1-based l)."""
        s = np.asarray(s, dtype=float)
        coeffs = self.axial_coefficients[:, l - 1]
        return coeffs @ _sine_matrix(np.atleast_1d(s), len(coeffs))

    def radial_mode(self, m: int, rho) -> np.ndarray:
        """v_m(rho) = psi_m(rho) / sqrt(rho), finite through rho -> 0."""
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        if np.any(rho <= 0.0):
            raise ValueError("radial modes require rho > 0")
        coeffs = self.radial_coefficients[:, m - 1]
        n = np.arange(1, len(coeffs) + 1)
        out = np.empty_like(rho)
        near = rho < NEAR_AXIS_RADIUS
        if np.any(near):
            slope = math.sqrt(2.0 / PI) * float(coeffs @ n)
            out[near] = np.sqrt(rho[near]) * slope
        far = ~near
        psi = coeffs @ _sine_matrix(rho[far], len(coeffs))
        out[far] = psi / np.sqrt(rho[far])
        return out


def first_mode(modes: ModeSet, s, rho):
    """phi_1(s, rho) = v_1(rho) w_1(s); Dirichlet-zero on every boundary."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0) or np.any(s > PI):
        raise ValueError("axial coordinate must lie in [0, pi]")
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho_arr > PI):
        raise ValueError("radius must lie in (0, pi]")
    w = modes.axial_mode(1, s)
    v = modes.radial_mode(1, rho)
    out = v * w
    if np.ndim(s) == 0 and np.ndim(rho) == 0:
        return float(out[0])
    return out


def concentration_metric(modes: ModeSet, split: float = PI / 2.0) -> float:
    """Fraction of the first radial mode's cylindrical energy inside rho < split.

    Computes int_0^split |v_1|^2 rho d rho / int_0^pi |v_1|^2 rho d rho by
    trapezoid quadrature; the integrand |v_1|^2 rho equals |psi_1|^2.
    """
    if not 0.0 < split < PI:
        raise ValueError("split radius must lie inside (0, pi)")
    coeffs = modes.radial_coefficients[:, 0]
    core = np.linspace(0.0, split, QUADRATURE_POINTS)
    outer = np.linspace(split, PI, QUADRATURE_POINTS)
    psi_core = coeffs @ _sine_matrix(core, len(coeffs))
    psi_outer = coeffs @ _sine_matrix(outer, len(coeffs))
    inside = np.trapezoid(psi_core**2, core)
    total = inside + np.trapezoid(psi_outer**2, outer)
    return float(inside / total)


@dataclass(frozen=True)
class HeatSeries:
    """Truncated eigenfunction expansion of the heat evolution.

    u(s, rho, t) = sum_n exp(-lambda_n t) (f, phi_n) phi_n(s, rho) for the
    separable initial field f = g(s) r(rho), with inner products taken
    against the cylindrical measure rho d rho d s.
    """

    modes: ModeSet
    levels: tuple[CombinedLevel, ...]
    coefficients: np.ndarray

    def evaluate(self, s, rho, t: float):
        """Field sample u(s, rho, t); s and rho broadcast elementwise."""
        if t < 0.0:
            raise ValueError("time must be >= 0")
        s_arr, rho_arr = np.broadcast_arrays(
            np.asarray(s, dtype=float), np.asarray(rho, dtype=float)
        )
        shape = s_arr.shape
        s_flat, rho_flat = s_arr.ravel(), rho_arr.ravel()
        out = np.zeros(s_flat.shape)
        for level, coef in zip(self.levels, self.coefficients):
            w = self.modes.axial_mode(level.axial_index, s_flat)
            v = self.modes.radial_mode(level.radial_index, rho_flat)
            out += math.exp(-level.value * t) * coef * v * w
        if np.ndim(s) == 0 and np.ndim(rho) == 0:
            return float(out[0])
        return out.reshape(shape)

    def tail_norm(self) -> float:
        """sqrt(sum_{n>=2} coefficient^2), the first-mode remainder at t = 0."""
        return float(np.sqrt(np.sum(self.coefficients[1:] ** 2)))

    def residual_after_first(self, t: float) -> float:
        """Norm of u(t) - (f, phi_1) phi_1 over the truncated expansion."""
        lam = np.array([lv.value for lv in self.levels[1:]])
        return float(np.sqrt(np.sum(np.exp(-2.0 * lam * t) * self.coefficients[1:] ** 2)))


def heat_series(
    modes: ModeSet,
    axial_profile: Callable[[np.ndarray], np.ndarray],
    radial_profile: Callable[[np.ndarray], np.ndarray],
    truncation: int,
) -> HeatSeries:
    """Expand the separable field g(s) r(rho) over the first `truncation` modes."""
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if truncation > len(modes.combined):
        raise ValueError("not enough combined modes for the requested truncation")
    coords = np.linspace(0.0, PI, QUADRATURE_POINTS)
    g = np.asarray(axial_profile(coords), dtype=float)
    r = np.asarray(radial_profile(coords), dtype=float)
    sine_ax = _sine_matrix(coords, modes.axial_coefficients.shape[0])
    sine_rad = _sine_matrix(coords, modes.radial_coefficients.shape[0])
    weights = np.full_like(coords, coords[1] - coords[0])
    weights[0] = weights[-1] = 0.5 * (coords[1] - coords[0])
    # (g, w_l) in plain measure ds; (r, v_m) in rho d rho, i.e. r psi sqrt(rho)
    axial_products = np.array(
        [
            np.dot(weights, g * (modes.axial_coefficients[:, l] @ sine_ax))
            for l in range(modes.axial_coefficients.shape[1])
        ]
    )
    radial_products = np.array(
        [
            np.dot(weights, r * (modes.radial_coefficients[:, m] @ sine_rad) * np.sqrt(coords))
            for m in range(modes.radial_coefficients.shape[1])
        ]
    )
    levels = modes.combined[:truncation]
    coefficients = np.array(
        [
            radial_products[lv.radial_index - 1] * axial_products[lv.axial_index - 1]
            for lv in levels
        ]
    )
    return HeatSeries(modes=modes, levels=levels, coefficients=coefficients)


def write_lambda_csv(modes: ModeSet, path) -> None:
    rows = [
        (n, lv.radial_index, lv.axial_index, lv.value)
        for n, lv in enumerate(modes.combined, start=1)
    ]
    write_csv(path, ["n", "m", "l", "lambda_n"], rows)


def write_first_mode_csv(modes: ModeSet, path, resolution: int = 41) -> None:
    s = np.linspace(0.0, PI, resolution)
    rho = np.linspace(PI / resolution, PI, resolution)
    rows = []
    for rv in rho:
        values = first_mode(modes, s, rv)
        rows.extend((sv, rv, val) for sv, val in zip(s, values))
    write_csv(path, ["s", "rho", "phi_1"], rows)


def write_heat_csv(series: HeatSeries, path, times: Sequence[float], resolution: int = 21) -> None:
    s = np.linspace(0.0, PI, resolution)
    rho = np.linspace(PI / resolution, PI, resolution)
    rows = []
    for t in times:
        for rv in rho:
            values = series.evaluate(s, np.full_like(s, rv), t)
            rows.extend((sv, rv, t, val) for sv, val in zip(s, values))
    write_csv(path, ["s", "rho", "t", "u"], rows)

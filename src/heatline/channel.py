"""Eigenmodes and heat series of the separable 3-D heat channel.

In cylindrical coordinates (s, rho, theta) the channel is modelled by the
potential

    q(s, rho) = Q(s) + 1/(4 rho^2) + Q(rho),

with the same constructed 1-D potential Q on the axis and in the radius.
This module never evaluates q itself; it computes the modes.  The
substitution v = psi / sqrt(rho) turns the radial operator
-v'' - v'/rho + (1/(4 rho^2) + Q) v into the standard Dirichlet problem
-psi'' + Q psi = mu psi on [0, pi], so radial and axial modes solve the
identical 1-D problem and the 3-D eigenvalues are the pairwise sums
lambda = mu_m + nu_l.  With the designed spectrum, lambda_1 = 0 and
lambda_2 = 11, so the heat semigroup collapses onto the first mode at
rate exp(-11 t) and that mode stays concentrated near the axis.

Modes are synthesized from the verifier's sine-basis coefficient vectors:
w(s) = sum_n c_n sqrt(2/pi) sin(n s) and v(rho) = psi(rho) / sqrt(rho),
where psi is the same sine series as w, each summed once per distinct
coordinate.  The first mode's core share integrates that series exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .csvio import write_csv
from .ritz import RitzReport
from .spectra import PI

#: below this radius v = psi / sqrt(rho) switches to its series slope limit
NEAR_AXIS_RADIUS = 1e-8

#: points of the trapezoid grid on [0, pi] for heat_series' inner products
QUADRATURE_POINTS = 2001

#: radius of the core whose share of the first mode's energy is reported
CORE_RADIUS = PI / 2.0

#: times at which heat.csv samples the field
HEAT_CSV_TIMES = (0.0, 0.5, 1.0, 2.0)


class CombinedLevel(NamedTuple):
    """One 3-D eigenvalue lambda = mu_m + nu_l with its 1-based index pair."""

    value: float
    radial_index: int
    axial_index: int


def _level_arrays(levels: Sequence[CombinedLevel]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lambda values and the 1-based radial and axial indices of `levels`."""
    table = np.array(levels, dtype=float).reshape(-1, 3)
    return table[:, 0], table[:, 1].astype(int), table[:, 2].astype(int)


def combine_spectra(axial: Sequence[float], radial: Sequence[float]) -> tuple[CombinedLevel, ...]:
    """Every pairwise sum mu_m + nu_l, ascending, ties by (m, l)."""
    axial = np.asarray(axial, dtype=float)
    radial = np.asarray(radial, dtype=float)
    if np.any(np.diff(axial) < 0.0) or np.any(np.diff(radial) < 0.0):
        raise ValueError("input spectra must be ascending")
    sums = np.add.outer(radial, axial).ravel()
    m, l = np.divmod(np.arange(sums.size), len(axial))
    order = np.lexsort((l, m, sums))
    columns = (sums[order].tolist(), (m[order] + 1).tolist(), (l[order] + 1).tolist())
    return tuple(map(CombinedLevel, *columns))


def _sine_matrix(coords: np.ndarray, n_max: int) -> np.ndarray:
    """Rows phi_n(x) = sqrt(2/pi) sin(n x) for n = 1 .. n_max."""
    n = np.arange(1, n_max + 1)
    return math.sqrt(2.0 / PI) * np.sin(np.outer(n, coords))


@dataclass(frozen=True)
class ModeSet:
    """The 1-D Dirichlet modes, shared by the axial and radial problems, and
    the combined 3-D spectrum.

    `coefficients` holds one sine-basis eigenvector per column; mode k has
    eigenvalue `eigenvalues[k - 1]`.
    """

    eigenvalues: np.ndarray
    coefficients: np.ndarray
    combined: tuple[CombinedLevel, ...]

    @classmethod
    def from_reports(cls, report: RitzReport, mode_count: int | None = None) -> "ModeSet":
        """The first `mode_count` verified modes (default: the compared ones)."""
        k = report.compare_count if mode_count is None else mode_count
        if not 1 <= k <= len(report.eigenvalues):
            raise ValueError(f"mode_count must lie in [1, {len(report.eigenvalues)}], got {k}")
        nu = report.eigenvalues[:k]
        coefficients = report.eigenvectors[:, :k]
        return cls(eigenvalues=nu, coefficients=coefficients, combined=combine_spectra(nu, nu))

    def _series(self, index, x: np.ndarray) -> np.ndarray:
        """psi_k(x) = w_k(x) for each 1-based k in `index`, shape shape(index) + shape(x)."""
        index = np.asarray(index)
        if np.any(index < 1) or np.any(index > self.coefficients.shape[1]):
            raise ValueError(f"mode indices must lie in [1, {self.coefficients.shape[1]}]")
        coeffs = self.coefficients[:, index - 1]
        return (coeffs.T @ _sine_matrix(x.ravel(), len(coeffs))).reshape(index.shape + x.shape)

    def axial_mode(self, l, s) -> np.ndarray:
        """w_l(s) from its sine series.

        `l` is a 1-based index or an array of them; the result has shape
        shape(l) + shape(s), with a scalar s taken as one point.
        """
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if not np.all((s >= 0.0) & (s <= PI)):
            raise ValueError("axial coordinate must lie in [0, pi]")
        distinct, inverse = np.unique(s, return_inverse=True)
        return self._series(l, distinct)[..., inverse.ravel()].reshape(np.shape(l) + s.shape)

    def radial_mode(self, m, rho) -> np.ndarray:
        """v_m(rho) = psi_m(rho) / sqrt(rho), finite through rho -> 0; shapes as axial_mode."""
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        if not np.all((rho > 0.0) & (rho <= PI)):
            raise ValueError("radius must lie in (0, pi]")
        m = np.asarray(m)
        distinct, inverse = np.unique(rho, return_inverse=True)
        psi = self._series(m, distinct)
        n = np.arange(1, self.coefficients.shape[0] + 1)
        slope = math.sqrt(2.0 / PI) * np.reshape((n @ self.coefficients)[m - 1], m.shape + (1,))
        v = np.where(distinct < NEAR_AXIS_RADIUS, np.sqrt(distinct) * slope, psi / np.sqrt(distinct))
        return v[..., inverse.ravel()].reshape(m.shape + rho.shape)


def first_mode(modes: ModeSet, s, rho):
    """phi_1(s, rho) = v_1(rho) w_1(s); Dirichlet-zero on every boundary."""
    out = modes.radial_mode(1, rho) * modes.axial_mode(1, s)
    if np.ndim(s) == 0 and np.ndim(rho) == 0:
        return float(out[0])
    return out


def concentration_metric(modes: ModeSet) -> float:
    """Fraction of the first radial mode's cylindrical energy inside rho < CORE_RADIUS.

    |v_1|^2 rho = |psi_1|^2, so with c the sine coefficients of psi_1 the
    fraction is exactly c^T M c / c^T c, where R = CORE_RADIUS and
    M_nm = (2/pi) int_0^R sin(n x) sin(m x) dx = (R/pi) [sinc((n-m) R/pi) - sinc((n+m) R/pi)].
    """
    c = modes.coefficients[:, 0]
    n = np.arange(1, len(c) + 1)
    scaled = CORE_RADIUS / PI
    core = scaled * (np.sinc(np.subtract.outer(n, n) * scaled) - np.sinc(np.add.outer(n, n) * scaled))
    return float(c @ core @ c / (c @ c))


def _check_time(t: float) -> None:
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {t}")


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
        _check_time(t)
        s_arr, rho_arr = np.broadcast_arrays(
            np.asarray(s, dtype=float), np.asarray(rho, dtype=float)
        )
        lam, m, l = _level_arrays(self.levels)
        # each mode family is synthesized once per distinct s or rho, then gathered
        w = self.modes.axial_mode(l, s_arr.ravel())
        v = self.modes.radial_mode(m, rho_arr.ravel())
        out = (np.exp(-lam * t) * self.coefficients) @ (v * w)
        if np.ndim(s) == 0 and np.ndim(rho) == 0:
            return float(out[0])
        return out.reshape(s_arr.shape)

    def tail_norm(self) -> float:
        """sqrt(sum_{n>=2} coefficient^2), the first-mode remainder at t = 0."""
        return float(np.sqrt(np.sum(self.coefficients[1:] ** 2)))

    def residual_after_first(self, t: float) -> float:
        """Norm of u(t) - (f, phi_1) phi_1 over the truncated expansion."""
        _check_time(t)
        lam = _level_arrays(self.levels)[0][1:]
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
    weights = np.full_like(coords, coords[1] - coords[0])
    weights[0] = weights[-1] = 0.5 * (coords[1] - coords[0])
    psi = modes._series(np.arange(1, modes.coefficients.shape[1] + 1), coords)
    # (g, w_l) in plain measure ds; (r, v_m) in rho d rho, i.e. r psi sqrt(rho)
    axial_products = psi @ (weights * g)
    radial_products = psi @ (weights * r * np.sqrt(coords))
    levels = modes.combined[:truncation]
    _, m, l = _level_arrays(levels)
    coefficients = radial_products[m - 1] * axial_products[l - 1]
    return HeatSeries(modes=modes, levels=levels, coefficients=coefficients)


def write_lambda_csv(modes: ModeSet, path) -> None:
    rows = [
        (n, lv.radial_index, lv.axial_index, lv.value)
        for n, lv in enumerate(modes.combined, start=1)
    ]
    write_csv(path, ["n", "m", "l", "lambda_n"], rows)


def _csv_points(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Flattened (s, rho) sample points in rho-major order, rho in (0, pi]."""
    s = np.linspace(0.0, PI, resolution)
    rho = np.linspace(PI / resolution, PI, resolution)
    s_grid, rho_grid = np.meshgrid(s, rho)
    return s_grid.ravel(), rho_grid.ravel()


def write_first_mode_csv(modes: ModeSet, path) -> None:
    s, rho = _csv_points(41)
    write_csv(path, ["s", "rho", "phi_1"], np.column_stack([s, rho, first_mode(modes, s, rho)]))


def write_heat_csv(series: HeatSeries, path) -> None:
    s, rho = _csv_points(21)
    blocks = [np.column_stack([s, rho, np.full_like(s, t), series.evaluate(s, rho, t)]) for t in HEAT_CSV_TIMES]
    write_csv(path, ["s", "rho", "t", "u"], np.concatenate(blocks))

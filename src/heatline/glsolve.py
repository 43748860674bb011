"""Finite-rank Gel'fand-Levitan solver: from kernel terms to potential samples.

Writing psi_j(s) = int_0^s K(s, t) a_j(t) dt reduces the integral equation

    K(s, t) + int_0^s K(s, t') L(t', t) dt' = -L(s, t),   0 <= t <= s,

with the finite-rank kernel L to a rank x rank linear system at each s:

    (I + G(s)) psi(s) = -G(s) a(s),     G_mj(s) = int_0^s b_j a_m dt.

Differentiating in s gives a second system with the same matrix for psi'(s):

    (I + G(s)) psi'(s) = -G(s) a'(s) - sigma(s) a(s),
    sigma(s) = sum_j (a_j(s) + psi_j(s)) b_j(s).

The potential follows from the diagonal of the transformation kernel,
Q(s) = 2 dK(s,s)/ds, assembled from psi, psi' and the analytic derivatives
of the component functions:

    Q(s) = -2 sum_j [ (a_j'(s) + psi_j'(s)) b_j(s) + (a_j(s) + psi_j(s)) b_j'(s) ].

All grid points are solved at once: one stacked LU solve with partial
pivoting (LAPACK gesv) for psi and one for psi'.  Before it, the condition
number of I + G(s) is checked at every s, and a near-singular system is
reported with the s where it occurs.

The gram matrix G(s) is computed in closed form: every integrand is a
product of sines or a linear function, and the exact primitives keep the
solve free of quadrature error even on coarse grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import read_float_columns, write_csv
from .spectra import PI, KernelTermList, TargetSpectrum, build_kernel_terms

#: largest 2-norm condition number of I + G(s) that is solved; the designed
#: spectrum peaks at 6.8e3 (at s = pi) and an exactly singular matrix gives inf
COND_CEILING = 1e10

_ENDPOINT_TOL = 1e-12

#: largest gram, grid points x rank^2 entries, that is allocated; construction
#: peaks at 3.3-3.9 times the gram's bytes, so this keeps it near 1 GB.  The
#: paper spectrum (rank 6) at 100,001 points needs 3.6e6
MAX_GRAM_ENTRIES = 30_000_000

#: largest total number of grid intervals, built or read; M = 1e5 constructs in
#: 0.57-0.65 s on 2 vCPUs (1.1-1.2 s for the whole command, writing the CSV included)
MAX_GRID_INTERVALS = 100_000

#: where a two-zone grid switches from its coarse to its fine zone, as in the paper
TWO_ZONE_SPLIT = 0.9 * PI


class SingularSystemError(Exception):
    """I + G(s) is too ill-conditioned to solve at some s (invalid spectral data)."""


@dataclass(frozen=True)
class Grid:
    """Strictly increasing sample points x_1 = 0 < ... < x_{M+1} = pi."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 3:
            raise ValueError("grid needs at least 3 points")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid points must be finite and strictly increasing")
        if abs(pts[0]) > _ENDPOINT_TOL or abs(pts[-1] - PI) > _ENDPOINT_TOL:
            raise ValueError("grid must span [0, pi]")

    def __len__(self) -> int:
        return len(self.points)


def make_uniform_grid(intervals: int) -> Grid:
    """M equal intervals on [0, pi], M >= 2."""
    if intervals < 2:
        raise ValueError("uniform grid needs at least 2 intervals")
    return Grid(np.linspace(0.0, PI, intervals + 1))


def make_two_zone_grid(left_intervals: int, right_intervals: int) -> Grid:
    """M1 equal intervals left of TWO_ZONE_SPLIT and M2 right of it; the split appears once."""
    if left_intervals < 1 or right_intervals < 1:
        raise ValueError("each zone needs at least 1 interval")
    left = np.linspace(0.0, TWO_ZONE_SPLIT, left_intervals + 1)
    right = np.linspace(TWO_ZONE_SPLIT, PI, right_intervals + 1)
    return Grid(np.concatenate([left, right[1:]]))


@dataclass(frozen=True)
class PsiSolution:
    """psi_j and psi_j' at every grid point; shape (npoints, rank)."""

    grid: Grid
    psi: np.ndarray
    psi_prime: np.ndarray


@dataclass(frozen=True)
class PotentialSamples:
    """Constructed potential Q at the grid points."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.points.shape:
            raise ValueError("one potential value per grid point required")
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential values must be finite")

    def to_csv(self, path) -> None:
        write_csv(path, ["s", "Q"], zip(self.grid.points, self.values))

    @classmethod
    def from_csv(cls, path) -> "PotentialSamples":
        """Samples from an s,Q file; past MAX_GRID_INTERVALS + 1 rows it stops, unparsed."""
        s, q = read_float_columns(path, ["s", "Q"], max_rows=MAX_GRID_INTERVALS + 1)
        return cls(grid=Grid(s), values=q)


def _pair_primitive(freq_a: float, freq_b: float, s: np.ndarray) -> np.ndarray:
    """int_0^s f(t) g(t) dt where f, g are t (freq 0) or sin(freq t), unit weight."""
    if freq_a == 0.0 and freq_b == 0.0:
        return s**3 / 3.0
    if freq_a == 0.0 or freq_b == 0.0:
        f = freq_a if freq_a != 0.0 else freq_b
        return (np.sin(f * s) - f * s * np.cos(f * s)) / f**2
    if freq_a == freq_b:
        return s / 2.0 - np.sin(2.0 * freq_a * s) / (4.0 * freq_a)
    dm, dp = freq_a - freq_b, freq_a + freq_b
    return np.sin(dm * s) / (2.0 * dm) - np.sin(dp * s) / (2.0 * dp)


def exact_gram(terms: KernelTermList, s) -> np.ndarray:
    """Closed-form G(s) with G_mj = int_0^s b_j a_m dt; shape (..., rank, rank)."""
    s = np.asarray(s, dtype=float)
    w, f = terms.weights, terms.frequencies
    out = np.empty(s.shape + (terms.rank, terms.rank))
    for m in range(terms.rank):
        for j in range(terms.rank):
            out[..., m, j] = w[m] * _pair_primitive(f[m], f[j], s)
    return out


def solve_psi_systems(terms: KernelTermList, grid: Grid) -> PsiSolution:
    """Solve the reduced system and its differentiated companion at every grid point."""
    x = grid.points
    npts = len(x)
    r = terms.rank
    if r == 0:
        zeros = np.zeros((npts, 0))
        return PsiSolution(grid=grid, psi=zeros, psi_prime=zeros.copy())
    if npts * r * r > MAX_GRAM_ENTRIES:
        raise ValueError(f"refusing to allocate a gram of {npts * r * r} entries, {npts} points "
                         f"x rank {r} squared (limit {MAX_GRAM_ENTRIES})")
    # an overflowing kernel weight makes G non-finite; _check_condition names
    # that failure, so numpy's warnings about it would only repeat it
    with np.errstate(invalid="ignore", over="ignore"):
        G = exact_gram(terms, x)
        a, ap, b = (v.T[..., None] for v in terms.values(x)[:3])   # each (points, rank, 1)
    system = np.eye(r) + G
    _check_condition(system, x)
    psi = np.linalg.solve(system, -G @ a)
    sigma = np.sum((a + psi) * b, axis=1, keepdims=True)
    psi_prime = np.linalg.solve(system, -G @ ap - sigma * a)
    return PsiSolution(grid=grid, psi=psi[..., 0], psi_prime=psi_prime[..., 0])


def _check_condition(system: np.ndarray, x: np.ndarray) -> None:
    """Raise SingularSystemError naming the worst s if any cond(I + G(s)) is too large."""
    finite = np.all(np.isfinite(system), axis=(1, 2))
    cond = np.full(len(x), np.inf)
    cond[finite] = np.linalg.cond(system[finite])
    worst = int(np.argmax(cond))
    if cond[worst] > COND_CEILING:
        raise SingularSystemError(
            f"at grid point s = {x[worst]:.6f}: cond(I + G) = {cond[worst]:.3e} "
            f"above {COND_CEILING:.0e}"
        )


def recover_potential(terms: KernelTermList, psi: PsiSolution) -> PotentialSamples:
    """Q(x_i) = 2 [K_s(x_i, x_i) + K_t(x_i, x_i)] from psi, psi' and derivatives on psi's grid."""
    grid = psi.grid
    x = grid.points
    if terms.rank == 0:
        return PotentialSamples(grid=grid, values=np.zeros_like(x))
    a, ap, b, bp = terms.values(x)
    k_s = -np.sum((ap + psi.psi_prime.T) * b, axis=0)
    k_t = -np.sum((a + psi.psi.T) * bp, axis=0)
    return PotentialSamples(grid=grid, values=2.0 * (k_s + k_t))


def construct_potential(spectrum: TargetSpectrum, grid: Grid) -> PotentialSamples:
    """Full construction pipeline: kernel terms, psi systems, potential recovery."""
    terms = build_kernel_terms(spectrum)
    psi = solve_psi_systems(terms, grid)
    return recover_potential(terms, psi)

"""Variational (Rayleigh-Ritz) verification of a sampled potential.

In the Dirichlet sine basis phi_n = sqrt(2/pi) sin(n x) the eigenvalue
problem -u'' + Q u = nu u becomes P C = nu C with

    P_nm = n^2 delta_nm + q_nm,
    q_nm = (2/pi) int_0^pi Q sin(n x) sin(m x) dx = qt(|n-m|) - qt(n+m),
    qt(k) = (1/pi) int_0^pi Q(x) cos(k x) dx.

Only the cosine moments qt(0 .. 2N) touch the data.  They are evaluated by
reconstructing the samples with a quadratic spline and integrating
spline * cos(kx) in closed form per panel.  Plain trapezoid moments lose all
accuracy at high k on coarse panels (k h per panel exceeds the cosine
period); the piecewise-line diagnostic at the bottom of this module uses
them as its reference.

P is diagonalized with a self-contained Jacobi rotation sweep in the
round-robin ordering of Brent and Luk (SIAM J. Sci. Stat. Comput. 6(1),
1985): each step rotates n/2 disjoint index pairs as one array update.  No
library eigensolver sits on this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PPoly, make_interp_spline

from .csvio import write_csv
from .glsolve import PotentialSamples
from .spectra import PI, TargetSpectrum

DEFAULT_BASIS_SIZE = 100
DEFAULT_COMPARE_COUNT = 20
DEFAULT_JACOBI_TOL = 1e-10
#: largest max |V^T V - I| a Jacobi start basis may have; Jacobi's own
#: eigenvectors of the paper matrix reach 2.5e-14 at N = 100 and 9.5e-14
#: at N = 400, warm-started or not
START_ORTHOGONALITY_TOL = 1e-12


class JacobiConvergenceError(Exception):
    """Off-diagonal norm failed to reach the tolerance within the sweep cap."""


class DegenerateShapeError(Exception):
    """Sampled potential lacks the max-then-min tail the line diagnostic needs."""


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def _ppoly_cos_moments(pp: PPoly, kmax: int) -> np.ndarray:
    """Exact integrals (1/pi) int p(x) cos(kx) dx of a piecewise quadratic-or-lower p."""
    h = np.diff(pp.x)
    c = pp.c
    if c.shape[0] < 3:
        c = np.vstack([np.zeros((3 - c.shape[0], c.shape[1])), c])
    c2, c1, c0 = c
    out = np.empty(kmax + 1)
    out[0] = np.sum(c2 * h**3 / 3.0 + c1 * h**2 / 2.0 + c0 * h) / PI
    for k in range(1, kmax + 1):
        # sin and cos once per knot; panel ends are slices of the knot values
        sin_k, cos_k = np.sin(k * pp.x), np.cos(k * pp.x)
        sin0, sin1 = sin_k[:-1], sin_k[1:]
        cos0, cos1 = cos_k[:-1], cos_k[1:]
        # C_m = int_0^h u^m cos(k x_i + k u) du on panel [x_i, x_i + h], S_m the sine analogue
        C0 = (sin1 - sin0) / k
        S0 = (cos0 - cos1) / k
        C1 = (h * sin1 - S0) / k
        S1 = (-h * cos1 + C0) / k
        C2 = (h**2 * sin1 - 2.0 * S1) / k
        out[k] = np.sum(c2 * C2 + c1 * C1 + c0 * C0) / PI
    return out


def _trapezoid_cos_moments(x: np.ndarray, q: np.ndarray, kmax: int) -> np.ndarray:
    """Panel-rule moments (1/pi) sum_i w_i q_i cos(k x_i), k = 0 .. kmax, over the points x."""
    k = np.arange(kmax + 1)
    return (np.cos(np.outer(k, x)) @ (trapezoid_weights(x) * q)) / PI


def cosine_moments(samples: PotentialSamples, kmax: int) -> np.ndarray:
    """Moments qt(0 .. kmax) of the sampled potential.

    The quadratic spline through the samples is integrated against cos(kx)
    exactly, panel by panel, on uniform and non-uniform grids alike.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    spline = make_interp_spline(samples.grid.points, samples.values, k=2)
    return _ppoly_cos_moments(PPoly.from_spline(spline), kmax)


def _ritz_from_moments(qt: np.ndarray, size: int) -> np.ndarray:
    """Symmetric Galerkin matrix P_nm = n^2 delta_nm + qt(|n-m|) - qt(n+m) from qt(0 .. 2 size)."""
    n = np.arange(1, size + 1)
    matrix = np.diag(n.astype(float) ** 2)
    matrix += qt[np.abs(n[:, None] - n[None, :])] - qt[n[:, None] + n[None, :]]
    return matrix


def assemble_ritz_matrix(samples: PotentialSamples, size: int) -> np.ndarray:
    """Ritz matrix P of the sampled potential in the first `size` sine modes."""
    if size < 1:
        raise ValueError("basis size must be >= 1")
    return _ritz_from_moments(cosine_moments(samples, 2 * size), size)


def _round_robin_pairings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Brent-Luk round-robin ordering of the n(n-1)/2 index pairs.

    n is padded to an even m; returns p, q of shape (m - 1, n // 2) with
    p < q, where row r is the r-th pairing: disjoint pairs, every pair in
    exactly one row.  The circle method keeps index m - 1 fixed and pairs
    r with m - 1 and r + k with r - k (mod m - 1); for odd n the pair with
    the padding index m - 1 = n, which is column 0, is dropped.
    """
    m = n + n % 2
    r = np.arange(m - 1)[:, None]
    k = np.arange(1, m // 2)
    left = np.hstack([r, (r + k) % (m - 1)])
    right = np.hstack([np.full_like(r, m - 1), (r - k) % (m - 1)])
    p, q = np.minimum(left, right), np.maximum(left, right)
    return p[:, m - n:], q[:, m - n:]


def jacobi_eigen(
    matrix: np.ndarray,
    tol: float = DEFAULT_JACOBI_TOL,
    max_sweeps: int = 100,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin (Brent-Luk) Jacobi diagonalization of a symmetric matrix.

    A sweep runs through the n - 1 (n even) or n (n odd) pairings of
    `_round_robin_pairings`; the rotations of one pairing act on disjoint
    index pairs, so they commute and are applied as one array update.
    Sweeps run until the off-diagonal Frobenius norm drops below tol.
    Each pairing is cut down to the pairs whose entry is at least tol / n^2
    (the threshold strategy of Rutishauser, Numer. Math. 9, 1966), and a
    pairing with none left is skipped, so an update touches only the rows
    and columns it rotates.

    An orthogonal (n, n) `start` basis V warm-starts the sweep: Jacobi then
    diagonalizes V^T A V with V^T as the initial vector block, which takes
    few rotations when V nearly diagonalizes A.

    Returns eigenvalues ascending (stable ties by original index) and the
    accumulated rotations as eigenvector columns, each signed so that its
    largest-magnitude entry is positive.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"matrix must be square and non-empty, got shape {a.shape}")
    n = a.shape[0]
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite")
    scale = float(np.max(np.abs(a)))
    if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, scale):
        raise ValueError("matrix must be symmetric")
    if start is None:
        basis_t = np.eye(n)
    else:
        basis = np.asarray(start, dtype=float)
        if basis.shape != (n, n):
            raise ValueError(f"start basis must have shape {(n, n)}, got {basis.shape}")
        # not (<=) so that a NaN defect fails too
        if not np.max(np.abs(basis.T @ basis - np.eye(n))) <= START_ORTHOGONALITY_TOL:
            raise ValueError("start basis must be orthogonal")
        a = basis.T @ a @ basis
        a = 0.5 * (a + a.T)
        basis_t = basis.T
    # rows 0..n-1 of x are [a | vectors^T]: a rotation of rows p, q of a is
    # the same rotation of columns p, q of the vectors, so one row update
    # serves both; the column update touches the a half only
    x = np.hstack([a, basis_t])
    a = x[:, :n]
    skip = tol / (n * n)
    pairings = _round_robin_pairings(n)
    for sweep in range(max_sweeps + 1):
        off_diagonal = a - np.diag(np.diag(a))
        off = math.sqrt(np.sum(off_diagonal * off_diagonal))
        if off < tol:
            order = np.argsort(np.diag(a), kind="stable")
            vectors = x[order, n:].T
            lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(n)]
            return np.diag(a)[order].copy(), vectors * np.where(lead < 0.0, -1.0, 1.0)
        if sweep == max_sweeps:
            break
        for p, q in zip(*pairings):
            apq = a[p, q]
            live = np.abs(apq) >= skip
            if not live.all():
                if not live.any():
                    continue
                p, q, apq = p[live], q[live], apq[live]
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            # sign(theta) / (|theta| + hypot(theta, 1)), with t = 1 at theta = 0
            t = np.where(theta >= 0.0, 1.0, -1.0) / (np.abs(theta) + np.hypot(theta, 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            # new row p = c row_p - s row_q, new row q = c row_q + s row_p
            pq, qp = np.concatenate([p, q]), np.concatenate([q, p])
            c2, s2 = np.concatenate([c, c]), np.concatenate([-s, s])
            x[pq] = c2[:, None] * x[pq] + s2[:, None] * x[qp]
            a[:, pq] = a[:, pq] * c2 + a[:, qp] * s2
            a[p, q] = a[q, p] = 0.0
    raise JacobiConvergenceError(
        f"no convergence after {max_sweeps} sweeps: off-diagonal norm {off:.3e} "
        f"is not below tol {tol:.3e}"
    )


def relative_error(
    eigenvalues: np.ndarray, target: TargetSpectrum, compare_count: int
) -> np.ndarray:
    """Errors of nu_1 .. nu_J (J = compare_count) against the target spectrum.

    Entry j - 1 is |nu_j_computed - nu_j| / nu_j for j >= 2.  The first
    eigenvalue's target may be 0, so entry 0 is its absolute error instead.
    """
    if compare_count < 2:
        raise ValueError("compare_count must be >= 2")
    if compare_count > len(eigenvalues):
        raise ValueError("compare_count exceeds the number of computed eigenvalues")
    targets = target.eigenvalues(compare_count)
    if np.any(targets[1:] == 0.0):
        raise ValueError("target eigenvalues for j >= 2 must be nonzero")
    errors = np.empty(compare_count)
    errors[0] = abs(eigenvalues[0] - targets[0])
    errors[1:] = np.abs(eigenvalues[1:compare_count] - targets[1:]) / targets[1:]
    return errors


@dataclass(frozen=True)
class RitzReport:
    """Verified spectrum of a sampled potential with the errors of `relative_error`."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    target: TargetSpectrum
    errors: np.ndarray

    @property
    def compare_count(self) -> int:
        return len(self.errors)

    @property
    def delta(self) -> float:
        """max |nu_j_computed - nu_j| / nu_j over j = 2 .. compare_count."""
        return float(np.max(self.errors[1:]))

    @property
    def first_abs_error(self) -> float:
        return float(self.errors[0])

    def to_csv(self, path) -> None:
        """Rows j, nu_target, nu_computed, rel_error; trailing summary row with delta.

        The j = 1 row carries the absolute error (its target may be 0).
        """
        rows = []
        targets = self.target.eigenvalues(self.compare_count)
        for j in range(self.compare_count):
            rows.append((j + 1, targets[j], self.eigenvalues[j], self.errors[j]))
        rows.append(("delta", "", "", self.delta))
        write_csv(path, ["j", "nu_target", "nu_computed", "rel_error"], rows)

    def eigenvectors_to_csv(self, path, count: int | None = None) -> None:
        """Rows j, c_1 .. c_N of sine-basis coefficients."""
        n = self.eigenvectors.shape[0]
        count = self.compare_count if count is None else count
        header = ["j"] + [f"c_{i}" for i in range(1, n + 1)]
        rows = [(j + 1, *self.eigenvectors[:, j]) for j in range(count)]
        write_csv(path, header, rows)


def verify_potential(
    samples: PotentialSamples,
    target: TargetSpectrum,
    basis_size: int = DEFAULT_BASIS_SIZE,
    compare_count: int = DEFAULT_COMPARE_COUNT,
    jacobi_tol: float = DEFAULT_JACOBI_TOL,
    start: np.ndarray | None = None,
) -> RitzReport:
    """Assemble P, diagonalize, and score the result against the target.

    `start` is an optional orthogonal basis that warm-starts `jacobi_eigen`,
    such as the eigenvectors of a nearby potential in the same basis size.
    """
    if basis_size < compare_count:
        raise ValueError("basis_size must be >= compare_count")
    matrix = assemble_ritz_matrix(samples, basis_size)
    eigenvalues, eigenvectors = jacobi_eigen(matrix, tol=jacobi_tol, start=start)
    return RitzReport(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        target=target,
        errors=relative_error(eigenvalues, target, compare_count),
    )


@dataclass(frozen=True)
class LinearizedMomentsDiagnostic:
    """Outcome of replacing the sampled tail of Q by two straight lines."""

    entrywise_error: np.ndarray
    min_error: float
    max_error: float
    x_max: float
    x_min: float


def linearized_qtilde_diagnostic(samples: PotentialSamples, size: int) -> LinearizedMomentsDiagnostic:
    """Compare the trapezoid Ritz matrix with one whose tail moments use chords.

    Splits [0, pi] at the sample argmax and argmin of Q.  Moments keep the
    trapezoid rule up to x_max, then integrate straight lines from
    (x_max, Q_max) to (x_min, Q_min) and on to the last sample (pi, Q(pi))
    in closed form, as a linear piecewise polynomial.  Both matrices come
    from the moments by the map that `assemble_ritz_matrix` uses.  The
    entrywise relative difference E against the all-trapezoid matrix shows
    whether the tail of Q may be treated as straight lines.
    """
    x = samples.grid.points
    q = samples.values
    i_max = int(np.argmax(q))
    i_min = int(np.argmin(q))
    if i_max >= i_min:
        raise DegenerateShapeError(
            "potential needs an interior maximum followed by a minimum"
        )
    kmax = 2 * size
    # a minimum at the last sample leaves the tail chord zero width: slope 0
    # there keeps it finite, and a zero-width panel integrates to 0
    knots, ends = x[[i_max, i_min, -1]], q[[i_max, i_min, -1]]
    widths = np.diff(knots)
    slopes = np.divide(np.diff(ends), widths, out=np.zeros(2), where=widths > 0.0)
    chords = PPoly(np.vstack([slopes, ends[:-1]]), knots)
    qt_line = _trapezoid_cos_moments(x[: i_max + 1], q[: i_max + 1], kmax)
    qt_line += _ppoly_cos_moments(chords, kmax)
    p_trap = _ritz_from_moments(_trapezoid_cos_moments(x, q, kmax), size)
    p_line = _ritz_from_moments(qt_line, size)
    entrywise = np.abs(p_trap - p_line) / np.abs(p_trap)
    return LinearizedMomentsDiagnostic(
        entrywise_error=entrywise,
        min_error=float(np.min(entrywise)),
        max_error=float(np.max(entrywise)),
        x_max=float(x[i_max]),
        x_min=float(x[i_min]),
    )

"""Variational (Rayleigh-Ritz) verification of a sampled potential.

In the Dirichlet sine basis phi_n = sqrt(2/pi) sin(n x) the eigenvalue
problem -u'' + Q u = nu u becomes P C = nu C with

    P_nm = n^2 delta_nm + q_nm,
    q_nm = (2/pi) int_0^pi Q sin(n x) sin(m x) dx = qt(|n-m|) - qt(n+m),
    qt(k) = (1/pi) int_0^pi Q(x) cos(k x) dx.

Only the cosine moments qt(0 .. 2N) touch the data.  They are evaluated by
reconstructing the samples with a spline (quadratic by default) and
integrating spline * cos(kx) in closed form per panel; the classical
trapezoid rule and lower/higher reconstruction orders are available for
comparison studies.  Plain trapezoid moments lose all accuracy at high k on
coarse panels (k h per panel exceeds the cosine period), which is what the
piecewise-line diagnostic at the bottom of this module quantifies.

P is diagonalized with a self-contained cyclic Jacobi rotation sweep; no
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

_SPLINE_DEGREE = {"linear": 1, "quadratic": 2, "cubic": 3}

DEFAULT_MOMENT_RULE = "quadratic"
DEFAULT_BASIS_SIZE = 100
DEFAULT_COMPARE_COUNT = 20
DEFAULT_JACOBI_TOL = 1e-10


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
    """Exact integrals (1/pi) int p(x) cos(kx) dx of a piecewise cubic-or-lower p."""
    x0, x1 = pp.x[:-1], pp.x[1:]
    h = np.diff(pp.x)
    c = pp.c
    if c.shape[0] < 4:
        c = np.vstack([np.zeros((4 - c.shape[0], c.shape[1])), c])
    c3, c2, c1, c0 = c
    out = np.empty(kmax + 1)
    out[0] = np.sum(c3 * h**4 / 4.0 + c2 * h**3 / 3.0 + c1 * h**2 / 2.0 + c0 * h) / PI
    for k in range(1, kmax + 1):
        sin0, sin1 = np.sin(k * x0), np.sin(k * x1)
        cos0, cos1 = np.cos(k * x0), np.cos(k * x1)
        # C_m = int_0^h u^m cos(k x0 + k u) du, S_m the sine analogue
        C0 = (sin1 - sin0) / k
        S0 = (cos0 - cos1) / k
        C1 = (h * sin1 - S0) / k
        S1 = (-h * cos1 + C0) / k
        C2 = (h**2 * sin1 - 2.0 * S1) / k
        S2 = (-(h**2) * cos1 + 2.0 * C1) / k
        C3 = (h**3 * sin1 - 3.0 * S2) / k
        out[k] = np.sum(c3 * C3 + c2 * C2 + c1 * C1 + c0 * C0) / PI
    return out


def cosine_moments(samples: PotentialSamples, kmax: int, rule: str = DEFAULT_MOMENT_RULE) -> np.ndarray:
    """Moments qt(0 .. kmax) of the sampled potential.

    rule "trapezoid" applies the panel rule directly to Q(x_i) cos(k x_i);
    "linear" / "quadratic" / "cubic" integrate a spline reconstruction of
    that order against cos(kx) exactly.  All rules handle non-uniform grids.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    x = samples.grid.points
    q = samples.values
    if rule == "trapezoid":
        w = trapezoid_weights(x) * q
        k = np.arange(kmax + 1)
        return (np.cos(np.outer(k, x)) @ w) / PI
    try:
        degree = _SPLINE_DEGREE[rule]
    except KeyError:
        raise ValueError(f"unknown moment rule {rule!r}") from None
    spline = make_interp_spline(x, q, k=degree)
    return _ppoly_cos_moments(PPoly.from_spline(spline), kmax)


@dataclass(frozen=True)
class RitzMatrix:
    """Symmetric Galerkin matrix P_nm = n^2 delta_nm + qt(|n-m|) - qt(n+m)."""

    size: int
    matrix: np.ndarray


def assemble_ritz_matrix(
    samples: PotentialSamples, size: int, rule: str = DEFAULT_MOMENT_RULE
) -> RitzMatrix:
    if size < 1:
        raise ValueError("basis size must be >= 1")
    qt = cosine_moments(samples, 2 * size, rule=rule)
    n = np.arange(1, size + 1)
    matrix = np.diag(n.astype(float) ** 2)
    matrix += qt[np.abs(n[:, None] - n[None, :])] - qt[n[:, None] + n[None, :]]
    return RitzMatrix(size=size, matrix=matrix)


def jacobi_eigen(
    matrix: np.ndarray | RitzMatrix,
    tol: float = DEFAULT_JACOBI_TOL,
    max_sweeps: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic-by-rows Jacobi diagonalization of a symmetric matrix.

    Sweeps run until the off-diagonal Frobenius norm drops below tol.
    Rotations are skipped for entries already below tol / n^2.  Returns
    eigenvalues ascending (stable ties by original index) and the
    accumulated rotations as eigenvector columns.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a = matrix.matrix if isinstance(matrix, RitzMatrix) else matrix
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, scale):
        raise ValueError("matrix must be symmetric")
    vectors = np.eye(n)
    skip = tol / (n * n)
    for _ in range(max_sweeps):
        off = a - np.diag(np.diag(a))
        if math.sqrt(np.sum(off * off)) < tol:
            order = np.argsort(np.diag(a), kind="stable")
            return np.diag(a)[order].copy(), vectors[:, order].copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < skip:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, q] = a[q, p] = 0.0
                vec_p, vec_q = vectors[:, p].copy(), vectors[:, q].copy()
                vectors[:, p] = c * vec_p - s * vec_q
                vectors[:, q] = s * vec_p + c * vec_q
    raise JacobiConvergenceError(f"no convergence after {max_sweeps} sweeps")


@dataclass(frozen=True)
class SpectrumErrors:
    """Relative-error metric against the target spectrum.

    delta is the maximum of |nu_j_computed - nu_j| / nu_j over j = 2 .. J.
    The first eigenvalue is excluded (its target may be 0) and reported as
    an absolute error instead.
    """

    delta: float
    first_abs_error: float
    per_eigenvalue: np.ndarray


def relative_error(
    eigenvalues: np.ndarray, target: TargetSpectrum, compare_count: int
) -> SpectrumErrors:
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
    return SpectrumErrors(
        delta=float(np.max(errors[1:])),
        first_abs_error=float(errors[0]),
        per_eigenvalue=errors,
    )


@dataclass(frozen=True)
class RitzReport:
    """Verified spectrum of a sampled potential with error metrics."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    target: TargetSpectrum
    delta: float
    first_abs_error: float
    per_eigenvalue_errors: np.ndarray
    compare_count: int

    def to_csv(self, path) -> None:
        """Rows j, nu_target, nu_computed, rel_error; trailing summary row with delta.

        The j = 1 row carries the absolute error (its target may be 0).
        """
        rows = []
        targets = self.target.eigenvalues(self.compare_count)
        for j in range(self.compare_count):
            rows.append((j + 1, targets[j], self.eigenvalues[j], self.per_eigenvalue_errors[j]))
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
    rule: str = DEFAULT_MOMENT_RULE,
) -> RitzReport:
    """Assemble P, diagonalize, and score the result against the target."""
    if basis_size < compare_count:
        raise ValueError("basis_size must be >= compare_count")
    ritz = assemble_ritz_matrix(samples, basis_size, rule=rule)
    eigenvalues, eigenvectors = jacobi_eigen(ritz, tol=jacobi_tol)
    errors = relative_error(eigenvalues, target, compare_count)
    return RitzReport(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        target=target,
        delta=errors.delta,
        first_abs_error=errors.first_abs_error,
        per_eigenvalue_errors=errors.per_eigenvalue,
        compare_count=compare_count,
    )


@dataclass(frozen=True)
class LinearizedMomentsDiagnostic:
    """Outcome of replacing the sampled tail of Q by two straight lines."""

    entrywise_error: np.ndarray
    min_error: float
    max_error: float
    x_max: float
    x_min: float


def _line_cos_integral(x_lo: float, x_hi: float, y_lo: float, y_hi: float, k: int) -> float:
    """Exact int of the chord through (x_lo, y_lo), (x_hi, y_hi) times cos(kx)."""
    if x_hi <= x_lo:
        return 0.0
    slope = (y_hi - y_lo) / (x_hi - x_lo)
    if k == 0:
        return 0.5 * (y_lo + y_hi) * (x_hi - x_lo)
    val = (y_hi * math.sin(k * x_hi) - y_lo * math.sin(k * x_lo)) / k
    val += slope * (math.cos(k * x_hi) - math.cos(k * x_lo)) / k**2
    return val


def linearized_qtilde_diagnostic(samples: PotentialSamples, size: int) -> LinearizedMomentsDiagnostic:
    """Compare the trapezoid Ritz matrix with one whose tail moments use chords.

    Splits [0, pi] at the sample argmax and argmin of Q.  Moments keep the
    trapezoid rule up to x_max, then integrate straight lines from
    (x_max, Q_max) to (x_min, Q_min) and on to (pi, Q(pi)) in closed form.
    The entrywise relative difference E against the all-trapezoid matrix
    shows whether the tail of Q may be treated as straight lines.
    """
    x = samples.grid.points
    q = samples.values
    i_max = int(np.argmax(q))
    i_min = int(np.argmin(q))
    if i_max >= i_min:
        raise DegenerateShapeError(
            "potential needs an interior maximum followed by a minimum"
        )
    qt_line = np.empty(2 * size + 1)
    head_w = trapezoid_weights(x[: i_max + 1]) * q[: i_max + 1]
    for k in range(2 * size + 1):
        head = float(np.cos(k * x[: i_max + 1]) @ head_w)
        mid = _line_cos_integral(x[i_max], x[i_min], q[i_max], q[i_min], k)
        tail = _line_cos_integral(x[i_min], PI, q[i_min], q[-1], k)
        qt_line[k] = (head + mid + tail) / PI
    n = np.arange(1, size + 1)
    diag = np.diag(n.astype(float) ** 2)
    qt_trap = cosine_moments(samples, 2 * size, rule="trapezoid")
    p_trap = diag + qt_trap[np.abs(n[:, None] - n[None, :])] - qt_trap[n[:, None] + n[None, :]]
    p_line = diag + qt_line[np.abs(n[:, None] - n[None, :])] - qt_line[n[:, None] + n[None, :]]
    entrywise = np.abs(p_trap - p_line) / np.abs(p_trap)
    return LinearizedMomentsDiagnostic(
        entrywise_error=entrywise,
        min_error=float(np.min(entrywise)),
        max_error=float(np.max(entrywise)),
        x_max=float(x[i_max]),
        x_min=float(x[i_min]),
    )

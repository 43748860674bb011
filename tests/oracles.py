"""Independent reference computations used only by the test suite.

Each oracle solves the same problem as a library routine through a different
route: the integral equation by dense quadrature instead of the finite-rank
reduction, the sampled eigenproblem by finite differences instead of the
sine-basis Galerkin matrix, small symmetric eigenproblems by inertia
bisection instead of Jacobi rotations, the quadratic spline of the
cosine moments by scipy's general B-spline interpolation instead of the
tridiagonal solve in `ritz`, and the moments of a piecewise quadratic by a
per-k loop over sin and cos at the panel ends, or in 40-digit arithmetic,
instead of the run transforms in `ritz`.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.interpolate import PPoly, make_interp_spline
from scipy.linalg import eigh_tridiagonal

from heatline.glsolve import Grid, PotentialSamples
from heatline.ritz import trapezoid_weights
from heatline.spectra import KernelTermList, eval_L

PI = math.pi


def nystrom_psi(terms: KernelTermList, grid: Grid) -> np.ndarray:
    """psi_j(s_i) from a dense Nystrom solve of the integral equation.

    For each grid point s_i the kernel row K(s_i, .) is found from the
    trapezoid-discretized equation on [0, s_i], then integrated against a_j.
    """
    x = grid.points
    npts = len(x)
    a = terms.values(x)[0]                             # (rank, npts)
    L = eval_L(terms, x[:, None], x[None, :])          # L(x_r, x_c)
    psi = np.zeros((npts, terms.rank))
    for i in range(npts):
        m = i + 1
        w = trapezoid_weights(x[:m]) if m > 1 else np.zeros(1)
        # unknown k_r = K(s_i, x_r): k_r + sum_r' w_r' L(x_r', x_r) k_r' = -L(s_i, x_r)
        system = np.eye(m) + w[None, :] * L[:m, :m].T
        k = np.linalg.solve(system, -L[i, :m])
        psi[i] = (w * k) @ a[:, :m].T
    return psi


def fd_eigenvalues(samples: PotentialSamples, count: int, refine: int = 16) -> np.ndarray:
    """Low eigenvalues of -w'' + Q w = nu w, w(0) = w(pi) = 0 by finite differences.

    The samples are read as a piecewise-linear potential and re-sampled on a
    uniform grid `refine` times finer than the original spacing, so the
    three-point stencil resolves sharp features of the sampled function.
    """
    nfine = refine * (len(samples.grid) - 1) + 1
    xf = np.linspace(0.0, PI, nfine)
    qf = np.interp(xf, samples.grid.points, samples.values)
    h = xf[1] - xf[0]
    main = 2.0 / h**2 + qf[1:-1]
    off = np.full(len(main) - 1, -1.0 / h**2)
    return eigh_tridiagonal(main, off, select="i", select_range=(0, count - 1),
                            eigvals_only=True)


def _count_below(matrix: np.ndarray, shift: float) -> int:
    """Number of eigenvalues of a symmetric matrix below `shift` (Sylvester inertia).

    Plain LDL^T elimination without pivoting; a vanishing pivot is dodged by
    nudging the shift, which cannot change the count for shifts off the
    spectrum by more than the nudge.
    """
    n = matrix.shape[0]
    a = matrix - shift * np.eye(n)
    negatives = 0
    for k in range(n):
        pivot = a[k, k]
        if abs(pivot) < 1e-300:
            return _count_below(matrix, shift + 1e-12 * (1.0 + abs(shift)))
        if pivot < 0.0:
            negatives += 1
        rows = a[k + 1:, k] / pivot
        a[k + 1:, k + 1:] -= rows[:, None] * a[k, k + 1:]
        a[k + 1:, k] = 0.0
    return negatives


def bisection_eigenvalues(matrix: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by inertia-count bisection."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    radius = np.sum(np.abs(matrix), axis=1)
    lo = float(np.min(np.diag(matrix) - radius)) - 1.0
    hi = float(np.max(np.diag(matrix) + radius)) + 1.0
    eigenvalues = np.empty(n)
    for k in range(1, n + 1):
        a, b = lo, hi
        while b - a > tol * max(1.0, abs(a), abs(b)):
            mid = 0.5 * (a + b)
            if _count_below(matrix, mid) >= k:
                b = mid
            else:
                a = mid
        eigenvalues[k - 1] = 0.5 * (a + b)
    return eigenvalues


def scipy_quadratic_spline(x: np.ndarray, y: np.ndarray) -> PPoly:
    """scipy's quadratic interpolating spline through (x_i, y_i) as a piecewise polynomial.

    scipy picks the same knots as `ritz.quadratic_spline`, solves the banded
    collocation system by LU with partial pivoting and converts by evaluating
    derivatives at the knots.  Its breakpoints repeat each end knot three
    times, which adds zero-width panels.
    """
    return PPoly.from_spline(make_interp_spline(x, y, k=2))


def loop_ppoly_cos_moments(breakpoints: np.ndarray, coefficients: np.ndarray, kmax: int) -> np.ndarray:
    """(1/pi) int p(x) cos(kx) dx, k = 0 .. kmax, of a piecewise quadratic, one k at a time.

    Panel i is [x_i, x_i + h] with p = c2 u^2 + c1 u + c0, u = x - x_i.  Each
    k evaluates sin and cos at both ends of every panel and integrates by
    parts.  The differences of those values cancel where k h is small: on the
    paper potential at M = 100 the result is 2.5e-13 of max |qt| from a
    40-digit evaluation at k = 3.
    """
    x0, x1 = breakpoints[:-1], breakpoints[1:]
    h = np.diff(breakpoints)
    c2, c1, c0 = coefficients
    out = np.empty(kmax + 1)
    out[0] = np.sum(c2 * h**3 / 3.0 + c1 * h**2 / 2.0 + c0 * h) / PI
    for k in range(1, kmax + 1):
        sin0, sin1 = np.sin(k * x0), np.sin(k * x1)
        cos0, cos1 = np.cos(k * x0), np.cos(k * x1)
        # C_m = int_0^h u^m cos(k x_i + k u) du, S_m the sine analogue
        C0 = (sin1 - sin0) / k
        S0 = (cos0 - cos1) / k
        C1 = (h * sin1 - S0) / k
        S1 = (-h * cos1 + C0) / k
        C2 = (h**2 * sin1 - 2.0 * S1) / k
        out[k] = np.sum(c2 * C2 + c1 * C1 + c0 * C0) / PI
    return out


def mpmath_ppoly_cos_moments(breakpoints: np.ndarray, coefficients: np.ndarray, ks) -> np.ndarray:
    """(1/pi) int p(x) cos(kx) dx at the given k, in 40-digit arithmetic, rounded to floats.

    The piecewise quadratic is the one `loop_ppoly_cos_moments` reads, with
    its float breakpoints and coefficients taken as exact.  Each panel is
    integrated by its antiderivative p sin/k + p' cos/k^2 - p'' sin/k^3.
    """
    with mpmath.workdps(40):
        t = [mpmath.mpf(float(v)) for v in breakpoints]
        c2, c1, c0 = ([mpmath.mpf(float(v)) for v in row] for row in coefficients)
        out = []
        for k in ks:
            total = mpmath.mpf(0)
            for i in range(len(t) - 1):
                h = t[i + 1] - t[i]
                if k == 0:
                    total += c2[i] * h**3 / 3 + c1[i] * h**2 / 2 + c0[i] * h
                    continue
                for u, sign in ((h, 1), (mpmath.mpf(0), -1)):
                    s, c = mpmath.sin(k * (t[i] + u)), mpmath.cos(k * (t[i] + u))
                    p, dp = (c2[i] * u + c1[i]) * u + c0[i], 2 * c2[i] * u + c1[i]
                    total += sign * (p * s / k + dp * c / k**2 - 2 * c2[i] * s / k**3)
            out.append(float(total / mpmath.pi))
    return np.array(out)


def scipy_cosine_moments(samples: PotentialSamples, kmax: int) -> np.ndarray:
    """Moments qt(0 .. kmax) of scipy's quadratic spline through the samples, by the per-k loop."""
    spline = scipy_quadratic_spline(samples.grid.points, samples.values)
    return loop_ppoly_cos_moments(spline.x, spline.c, kmax)

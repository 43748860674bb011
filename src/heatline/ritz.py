"""Variational (Rayleigh-Ritz) verification of a sampled potential.

In the Dirichlet sine basis phi_n = sqrt(2/pi) sin(n x) the eigenvalue
problem -u'' + Q u = nu u becomes P C = nu C with

    P_nm = n^2 delta_nm + q_nm,
    q_nm = (2/pi) int_0^pi Q sin(n x) sin(m x) dx = qt(|n-m|) - qt(n+m),
    qt(k) = (1/pi) int_0^pi Q(x) cos(k x) dx.

Only the cosine moments qt(0 .. 2N) touch the data.  They integrate a
quadratic interpolating spline through the samples against cos(kx) exactly.
On a run of equal panels the k-sums take one chirp-z transform: the
attenuation-factor form of a spline's Fourier integral (Gautschi, Numer.
Math. 18, 1972) with Bluestein's transform (Rabiner, Schafer and Rader,
IEEE Trans. Audio Electroacoust. 17, 1969).  On the paper potential at
M = 100 they lie within 2.1e-15 max |qt| of a 40-digit evaluation, where the
per-k sin/cos loop they replace read 2.5e-13.  Plain trapezoid moments lose
all accuracy at high k on coarse panels; the piecewise-line diagnostic at
the bottom of this module uses them as its reference.

The spline is built with numpy alone.  Its knots are the data midpoints
without the first and last, plus each end point as a triple knot, the usual
default knots of a quadratic interpolating spline.  Sample x_i then lies
between the two interior knots around it, where only B_{i-1}, B_i and
B_{i+1} are nonzero, so the collocation system is tridiagonal.  It is
solved by elimination without pivoting, which is stable because B-spline
collocation matrices are totally positive (de Boor and Pinkus, Numer. Math.
27, 1977).  The B-spline coefficients give each panel's quadratic in closed
form.

P is diagonalized with a self-contained Jacobi rotation sweep in the
round-robin ordering of Brent and Luk (SIAM J. Sci. Stat. Comput. 6(1),
1985): each step rotates n/2 disjoint index pairs as one array update.
Once the diagonal separates the eigenvalues, the iterative refinement of
Ogita and Aishima (Japan J. Indust. Appl. Math. 35, 2018) finishes the
job in a few steps of matrix products, where the sweeps would spend two
or three more sweeps polishing.  No library eigensolver sits on this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .glsolve import PotentialSamples
from .spectra import PI, TargetSpectrum

DEFAULT_BASIS_SIZE = 100
DEFAULT_COMPARE_COUNT = 20
#: Jacobi stops once the off-diagonal Frobenius norm is below this
JACOBI_TOL = 1e-10
#: Jacobi raises JacobiConvergenceError after this many sweeps
MAX_SWEEPS = 100
#: refinement raises JacobiConvergenceError after this many steps
MAX_REFINE_STEPS = 10
#: largest max |V^T V - I| a Jacobi start basis may have; the sweeps' own
#: eigenvectors of the paper matrix reach 2.5e-14 at N = 100 and 9.5e-14
#: at N = 400, warm-started or not, and refined ones 5.6e-16 and 4.4e-16
START_ORTHOGONALITY_TOL = 1e-12
#: a trapezoid Ritz entry within this many eps * max |P_trap| of zero is zero
#: to rounding; the paper potential's entries that alias to zero reach at most
#: 0.016 (M = 3, 8, 20), its smallest real ones 2.6e10 (M = 40) and 2.0e12
#: (two-zone 50 + 75)
ZERO_ENTRY_EPS = 1e3
#: a run of this many equal panels or more takes the chirp-z transform
MIN_TRANSFORM_RUN = 8


class JacobiConvergenceError(Exception):
    """Off-diagonal norm failed to reach the tolerance within the sweep cap."""


class DegenerateShapeError(Exception):
    """Sampled potential cannot carry the line diagnostic: it lacks the
    max-then-min tail, or its trapezoid Ritz matrix has an entry that is zero
    to rounding or non-finite, where the relative error is undefined."""


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def quadratic_spline(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic interpolating spline through (x_i, y_i), n >= 3 increasing points.

    With knots t_0 = t_1 = t_2 = x_0, t_{i+2} = (x_i + x_{i+1}) / 2 for
    i = 1 .. n - 3 and t_n = t_{n+1} = t_{n+2} = x_{n-1}, the spline is
    sum_j a_j B_j over n quadratic B-splines, and a_0 = y_0, a_{n-1} = y_{n-1}.
    Interior row i of the collocation system holds B_{i-1}, B_i, B_{i+1} at
    x_i, which lies in the knot interval [t_{i+1}, t_{i+2}].

    Returns the breakpoints t_2 .. t_n and the (3, n - 2) coefficients
    (c2, c1, c0) with s(x) = c2 u^2 + c1 u + c0, u = x - t_j, on the panel
    [t_j, t_{j+1}].
    """
    n = len(x)
    t = np.concatenate([np.full(3, x[0]), 0.5 * (x[2:-1] + x[1:-2]), np.full(3, x[-1])])
    i = np.arange(1, n - 1)
    h = t[i + 2] - t[i + 1]
    # B_{i-1}(x_i) and B_{i+1}(x_i); B_i(x_i) is the rest of the partition of unity
    lower = (t[i + 2] - x[i]) ** 2 / ((t[i + 2] - t[i]) * h)
    upper = (x[i] - t[i + 1]) ** 2 / ((t[i + 3] - t[i + 1]) * h)
    diag = 1.0 - lower - upper
    rhs = y[1:-1].copy()
    rhs[0] -= lower[0] * y[0]
    rhs[-1] -= upper[-1] * y[-1]
    lower, diag, upper, rhs = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    # elimination without pivoting, then back substitution in place: rhs
    # becomes the interior coefficients a_1 .. a_{n-2}
    for k in range(1, n - 2):
        w = lower[k] / diag[k - 1]
        diag[k] -= w * upper[k - 1]
        rhs[k] -= w * rhs[k - 1]
    rhs[-1] /= diag[-1]
    for k in range(n - 4, -1, -1):
        rhs[k] = (rhs[k] - upper[k] * rhs[k + 1]) / diag[k]
    a = np.array([y[0], *rhs, y[-1]])
    # on the panel [t_j, t_{j+1}], j = 2 .. n - 1, s = sum of a_m B_m over
    # m = j - 2 .. j, so s'(t_j) = 2 (a_{j-1} - a_{j-2}) / (t_{j+1} - t_{j-1}),
    # likewise s'(t_{j+1}) with j + 1, and s(t_j) = a_{j-1} - s'(t_j) width / 2
    j = np.arange(2, n)
    width = t[j + 1] - t[j]
    slope0 = 2.0 * (a[j - 1] - a[j - 2]) / (t[j + 1] - t[j - 1])
    slope1 = 2.0 * (a[j] - a[j - 1]) / (t[j + 2] - t[j])
    coefficients = np.vstack([(slope1 - slope0) / (2.0 * width), slope0, a[j - 1] - 0.5 * slope0 * width])
    return t[2 : n + 1], coefficients


def _closed_integrals(k: np.ndarray, h) -> np.ndarray:
    """I_p(k, h) = int_0^h u^p e^{iku} du, p = 0, 1, 2 on a new first axis, k > 0, by I_0 =
    (e^{ikh} - 1) / (ik) and I_p = (h^p e^{ikh} - p I_{p-1}) / (ik), which cancel where kh < 1."""
    e, ik = np.exp(1j * k * h), 1j * k
    i0 = (e - 1.0) / ik
    i1 = (h * e - i0) / ik
    return np.stack([i0, i1, (h * h * e - 2.0 * i1) / ik])


def _chirp_z(c: np.ndarray, width: float, kmax: int) -> np.ndarray:
    """F(k) = sum_j c[..., j] e^{ikj width}, k = 0 .. kmax, by Bluestein's chirp-z transform.

    kj = (k^2 + j^2 - (k - j)^2) / 2 makes F a convolution with the chirp e^{2 pi i f m^2},
    f = width / (4 pi).  Split into 26-bit halves (Dekker), f and m^2 < 2^52 give four exact
    products, each reduced modulo 1, so the chirp's phase error does not grow with the run.
    """
    n = c.shape[-1]
    f = width / (4.0 * PI)
    f_hi = 134217729.0 * f - (134217729.0 * f - f)
    q = np.arange(max(n, kmax + 1), dtype=float) ** 2
    parts = np.multiply.outer([f_hi, f - f_hi], [q - q % 2.0**26, q % 2.0**26])
    w = np.exp(2j * PI * np.sum(parts - np.rint(parts), axis=(0, 1)))
    size = 1 << (n + kmax).bit_length()
    kernel = np.conj(np.r_[w[: kmax + 1], np.zeros(size - n - kmax), w[n - 1 : 0 : -1]])
    return np.fft.ifft(np.fft.fft(c * w[:n], size) * np.fft.fft(kernel))[..., : kmax + 1] * w[: kmax + 1]


def _ppoly_cos_moments(breakpoints: np.ndarray, coefficients: np.ndarray, kmax: int) -> np.ndarray:
    """Exact integrals (1/pi) int p(x) cos(kx) dx, k = 0 .. kmax, of a piecewise quadratic p.

    Panel i is [t_i, t_i + h_i] with t = breakpoints, on which p = c2 u^2 + c1 u + c0,
    u = x - t_i and (c2, c1, c0) = coefficients[:, i]; it adds (1/pi) Re e^{ikt_i}
    sum_p c_p I_p(k, h_i).  A run of MIN_TRANSFORM_RUN or more panels whose knots
    lie within 4 eps max |t| of t_a + jh, t_a its first knot, adds e^{ikt_a} sum_p
    I_p(k, h) F_p(k) with F_p(k) = sum_j c_{p,a+j} e^{ikjh} from `_chirp_z`.  The
    other panels go 2^14 (k, panel) pairs at a time.  Where kh_i < 1 their Taylor
    series, summed over the panels first, is one matrix product, and e^{ikt} =
    e^{iast} e^{ibt}, k = as + b, takes 2 sqrt(kmax) exponentials per panel.
    """
    t, c, h = breakpoints, coefficients[::-1], np.diff(breakpoints)
    k, s = np.arange(kmax + 1), math.isqrt(kmax) + 1
    # I_p(k, h) = sum_m terms_{k,m} h^{p+m+1} / mp1_{m,p} with terms_{k,m} = (ik)^m / m!, m < 18:
    # where kh < 1 the first term left out is below 1e-17 of the sum
    terms = np.cumprod(np.c_[np.ones(kmax + 1), 1j * k[:, None] / np.arange(1, 18)], axis=1)
    mp1 = np.arange(18)[:, None] + np.arange(1, 4)
    tol = 4.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]))
    edges = np.flatnonzero(np.r_[True, np.abs(np.diff(h)) > 2.0 * tol, True])
    long = np.diff(edges) >= MIN_TRANSFORM_RUN
    total = np.zeros(kmax + 1, dtype=complex)
    direct = np.ones(len(h), dtype=bool)
    for a, b in zip(edges[:-1][long], edges[1:][long]):
        width = (t[b] - t[a]) / (b - a)
        if np.max(np.abs(t[a : b + 1] - t[a] - width * np.arange(b - a + 1))) <= tol:
            direct[a:b] = False
            cut = np.count_nonzero(k * width < 1.0)
            integrals = np.hstack([(terms[:cut] @ (width**mp1 / mp1)).T, _closed_integrals(k[cut:], width)])
            total += np.exp(1j * k * t[a]) * np.sum(integrals * _chirp_z(c[:, a:b], width, kmax), axis=0)
    panels, block = np.flatnonzero(direct), max(1, 2**14 // (kmax + 1))
    for i in (panels[j : j + block] for j in range(0, len(panels), block)):
        phase = np.exp(1j * np.outer(k[::s], t[i]))[:, None] * np.exp(1j * np.outer(k[:s], t[i]))
        phase = phase.reshape(-1, len(i))[: kmax + 1]
        rows, cols = np.nonzero(np.outer(k, h[i]) >= 1.0)
        closed = np.sum(c[:, i[cols]] * _closed_integrals(rows, h[i[cols]]), axis=0)
        total += np.bincount(rows, (phase[rows, cols] * closed).real, kmax + 1)
        phase[rows, cols] = 0.0
        weights = np.einsum("pi,mpi->mi", c[:, i], h[i] ** mp1[..., None] / mp1[..., None])
        total += np.sum((phase @ weights.T) * terms, axis=1)
    return total.real / PI


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
    return _ppoly_cos_moments(*quadratic_spline(samples.grid.points, samples.values), kmax)


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


def _refinement_ready(diagonal: np.ndarray, off: float, r: np.ndarray) -> bool:
    """Whether refinement may take over from the sweeps.

    With S the rotated matrix, D = diag(S) = `diagonal`, `off` its
    off-diagonal Frobenius norm and R = I - X^T X for the accumulated
    vectors X, the bound of Ogita and Aishima (Japan J. Indust. Appl. Math.
    35, 2018) is tau = 2 (||S - D||_2 + ||A||_2 ||R||_2).  Here off bounds
    ||S - D||_2, max |d| + off bounds ||A||_2 to first order in R and ||R||_F
    bounds ||R||_2.  Refinement takes over once tau is below the smallest
    gap of the sorted diagonal.  The diagonal entries of a repeated
    eigenvalue differ by far less than off, so they never hand over.
    """
    tau = 2.0 * (off + (float(np.max(np.abs(diagonal))) + off) * math.sqrt(np.sum(r * r)))
    return tau < float(np.min(np.diff(np.sort(diagonal)), initial=math.inf))


def _refine(matrix: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ogita-Aishima iterative refinement of approximate eigenvectors X of A.

    Each step takes R = I - X^T X and S = X^T A X, the Rayleigh quotients
    lambda_i = s_ii / (1 - r_ii), and X <- X + X E with
    E_ij = (s_ij + lambda_j r_ij) / (lambda_j - lambda_i) and E_ii = r_ii / 2,
    which roughly squares the error of X.  S is symmetrized first: then
    E + E^T = R up to rounding, so a small gap amplifies no asymmetric
    rounding of S into X^T X.

    Returns the unsorted lambda and X once max |R| <= 2 n eps and either
    off(S) < JACOBI_TOL, or a step failed to halve off(S) and it lies within
    the rounding floor n eps ||A||_F.  The R bound: a computed entry of
    X^T X carries up to n eps of rounding over unit columns, and X carries
    up to n eps more from the R that corrected it.  The floor: each product
    in S rounds by up to n eps of its terms, whose size S's Frobenius norm
    bounds by ||A||_F for orthogonal X.  Converged vectors read 1e-4 to 0.05
    of the floor on the paper matrix (N = 100 .. 400) and on random
    matrices (n = 10 .. 400), so it marks rounding with room.  The floor
    rule stops a matrix of large norm, whose rounding in S lies above the
    absolute JACOBI_TOL.
    """
    n = len(matrix)
    eps = np.finfo(float).eps
    floor = n * eps * math.sqrt(np.sum(matrix * matrix))
    previous = math.inf
    for step in range(MAX_REFINE_STEPS + 1):
        r = np.eye(n) - vectors.T @ vectors
        s = vectors.T @ (matrix @ vectors)
        s = 0.5 * (s + s.T)
        values = np.diag(s) / (1.0 - np.diag(r))
        off_diagonal = s - np.diag(np.diag(s))
        off = math.sqrt(np.sum(off_diagonal * off_diagonal))
        if np.max(np.abs(r)) <= 2 * n * eps and (off < JACOBI_TOL or previous / 2.0 < off <= floor):
            return values, vectors
        if step == MAX_REFINE_STEPS:
            break
        previous = off
        gaps = values - values[:, None]
        np.fill_diagonal(gaps, 1.0)
        e = (s + values * r) / gaps
        np.fill_diagonal(e, 0.5 * np.diag(r))
        vectors = vectors + vectors @ e
    raise JacobiConvergenceError(
        f"refinement did not stop after {MAX_REFINE_STEPS} steps: off-diagonal norm {off:.3e} "
        f"is not below tol {JACOBI_TOL:.3e} or at its rounding floor {floor:.3e}"
    )


def jacobi_eigen(matrix: np.ndarray, start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin (Brent-Luk) Jacobi diagonalization of a symmetric matrix.

    A sweep runs through the n - 1 (n even) or n (n odd) pairings of
    `_round_robin_pairings`; the rotations of one pairing act on disjoint
    index pairs, so they commute and are applied as one array update.
    Each pairing is cut down to the pairs whose entry is at least
    JACOBI_TOL / n^2 (the threshold strategy of Rutishauser, Numer. Math. 9,
    1966), and a pairing with none left is skipped, so an update touches
    only the rows and columns it rotates.

    At each sweep boundary the sweeps end when the off-diagonal Frobenius
    norm is below JACOBI_TOL, or hand the accumulated vectors to `_refine`
    once `_refinement_ready` finds the eigenvalues separated; refinement
    then polishes them against the original matrix.  Repeated or clustered
    eigenvalues keep the sweeps to JACOBI_TOL.  At most MAX_SWEEPS sweeps
    and MAX_REFINE_STEPS refinement steps run before JacobiConvergenceError.

    An orthogonal (n, n) `start` basis V warm-starts the sweep: Jacobi then
    diagonalizes V^T A V with V^T as the initial vector block, which takes
    few rotations when V nearly diagonalizes A.

    Returns eigenvalues ascending (stable ties by original index) and the
    eigenvector columns, each signed so that its largest-magnitude entry is
    positive.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"matrix must be square and non-empty, got shape {a.shape}")
    n = a.shape[0]
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite")
    scale = float(np.max(np.abs(a)))
    if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, scale):
        raise ValueError("matrix must be symmetric")
    original = a
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
    skip = JACOBI_TOL / (n * n)
    pairings = _round_robin_pairings(n)
    for sweep in range(MAX_SWEEPS + 1):
        diagonal = np.diag(a)
        off_diagonal = a - np.diag(diagonal)
        off = math.sqrt(np.sum(off_diagonal * off_diagonal))
        vectors_t = x[:, n:]
        if off < JACOBI_TOL:
            values, vectors = diagonal, vectors_t.T
            break
        if _refinement_ready(diagonal, off, np.eye(n) - vectors_t @ vectors_t.T):
            values, vectors = _refine(original, vectors_t.T)
            break
        if sweep == MAX_SWEEPS:
            raise JacobiConvergenceError(
                f"no convergence after {MAX_SWEEPS} sweeps: off-diagonal norm {off:.3e} "
                f"is not below tol {JACOBI_TOL:.3e}"
            )
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
    order = np.argsort(values, kind="stable")
    vectors = vectors[:, order]
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(n)]
    return values[order], vectors * np.where(lead < 0.0, -1.0, 1.0)


def relative_error(
    eigenvalues: np.ndarray, target: TargetSpectrum, compare_count: int
) -> np.ndarray:
    """Errors of nu_1 .. nu_J (J = compare_count) against the target spectrum.

    Entry j - 1 is |nu_j_computed - nu_j| / nu_j for j >= 2, where a target
    spectrum (non-negative, strictly increasing) has nu_j > 0.  The first
    eigenvalue's target may be 0, so entry 0 is its absolute error instead.
    """
    if compare_count < 2:
        raise ValueError("compare_count must be >= 2")
    if compare_count > len(eigenvalues):
        raise ValueError("compare_count exceeds the number of computed eigenvalues")
    targets = target.eigenvalues(compare_count)
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

    def eigenvectors_to_csv(self, path) -> None:
        """Rows j = 1 .. compare_count, c_1 .. c_N of sine-basis coefficients."""
        n = self.eigenvectors.shape[0]
        header = ["j"] + [f"c_{i}" for i in range(1, n + 1)]
        rows = [(j + 1, *self.eigenvectors[:, j]) for j in range(self.compare_count)]
        write_csv(path, header, rows)


def verify_potential(
    samples: PotentialSamples,
    target: TargetSpectrum,
    basis_size: int = DEFAULT_BASIS_SIZE,
    compare_count: int = DEFAULT_COMPARE_COUNT,
    start: np.ndarray | None = None,
) -> RitzReport:
    """Assemble P, diagonalize, and score the result against the target.

    `start` is an optional orthogonal basis that warm-starts `jacobi_eigen`,
    such as the eigenvectors of a nearby potential in the same basis size.
    """
    if basis_size < compare_count:
        raise ValueError("basis_size must be >= compare_count")
    matrix = assemble_ritz_matrix(samples, basis_size)
    eigenvalues, eigenvectors = jacobi_eigen(matrix, start=start)
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
    chords = np.vstack([np.zeros(2), slopes, ends[:-1]])
    qt_line = _trapezoid_cos_moments(x[: i_max + 1], q[: i_max + 1], kmax)
    qt_line += _ppoly_cos_moments(knots, chords, kmax)
    p_trap = _ritz_from_moments(_trapezoid_cos_moments(x, q, kmax), size)
    p_line = _ritz_from_moments(qt_line, size)
    defined = np.isfinite(p_trap) & np.isfinite(p_line)
    floor = ZERO_ENTRY_EPS * np.finfo(float).eps * np.max(np.abs(p_trap), where=defined, initial=0.0)
    undefined = np.count_nonzero(~(defined & (np.abs(p_trap) > floor)))
    if undefined:
        raise DegenerateShapeError(
            f"the {size} x {size} trapezoid Ritz matrix on {len(x)} grid points has "
            f"{undefined} zero or non-finite entries (zero: within {ZERO_ENTRY_EPS:g} eps "
            f"max |P_trap|), so the relative error E is undefined"
        )
    entrywise = np.abs(p_trap - p_line) / np.abs(p_trap)
    return LinearizedMomentsDiagnostic(
        entrywise_error=entrywise,
        min_error=float(np.min(entrywise)),
        max_error=float(np.max(entrywise)),
        x_max=float(x[i_max]),
        x_min=float(x[i_min]),
    )

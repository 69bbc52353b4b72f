"""Adaptive data-accuracy model: steepest descent on the quadratic MMSE
objective J(w) = sigma_d^2 - 2 rdu.w + w.Ruu.w, which needs no a priori
knowledge, and node-subset selection by sink distance with the per-size
optimal accuracy curve: the package's only two accuracy computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch, NoConvergence, NotPositiveDefinite, StepSizeOutOfRange, TargetUnreachable
)
from .fieldgen import CovariancePair, NodeLayout
from .numerics import cholesky_factor, forward_substitute, max_eigenvalue

__all__ = [
    "CovariancePair",
    "DescentTrace",
    "NodeSelection",
    "select_nodes",
    "steepest_descent",
    "step_size_bound",
]


@dataclass(frozen=True)
class DescentTrace:
    """One converged steepest-descent run: the error J(w) of every iterate
    (``iterations + 1`` entries, the start included) and the last iterate.
    An iterate's accuracy is ``1 - mmse / sigma_d**2``."""

    final_weight: np.ndarray
    mmse: np.ndarray
    mu: float
    iterations: int


@dataclass(frozen=True)
class NodeSelection:
    """Sink-distance node ranking with its per-prefix accuracy curve:
    ``accuracy[k - 1]`` is the optimal accuracy of the first k nodes of
    ``order``, and ``selected`` is the chosen prefix."""

    order: tuple[int, ...]
    accuracy: np.ndarray
    selected: tuple[int, ...]


def step_size_bound(ruu) -> float:
    """Largest stable step size 2 / lambda_max(ruu)."""
    lam = max_eigenvalue(ruu)
    if lam <= 0:
        raise ValueError("covariance has a non-positive dominant eigenvalue")
    return 2.0 / lam


def steepest_descent(
    cov: CovariancePair,
    mu: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 50_000,
) -> DescentTrace:
    """Iterate w <- w + mu (rdu - Ruu w) from w = 0 until the relative
    residual ||rdu - Ruu w|| / ||rdu|| drops to ``tol`` or ``max_iter`` is hit.

    ``mmse[k]`` is J of iterate k, so the accuracy trace
    ``1 - mmse / sigma_d**2`` starts at 0.  ``mu`` defaults to half the
    stability ceiling (1 / lambda_max).  A mu outside (0, 2/lambda_max]
    raises StepSizeOutOfRange; running out of iterations raises
    NoConvergence naming the relative residual and the iteration count.
    """
    bound = step_size_bound(cov.ruu)
    if mu is None:
        mu = bound / 2.0
    if not 0.0 < mu <= bound:
        raise StepSizeOutOfRange(f"mu={mu:.6g} outside (0, {bound:.6g}]")
    w = np.zeros(cov.order)

    # One Ruu @ w per iterate serves both J(w) and the residual of the next step.
    errs = []
    rdu_norm = float(np.linalg.norm(cov.rdu))
    iterations = 0
    while True:
        ruu_w = cov.ruu @ w
        errs.append(float(cov.sigma_d_sq - 2.0 * (cov.rdu @ w) + w @ ruu_w))
        residual = cov.rdu - ruu_w
        norm = float(np.linalg.norm(residual))
        if norm <= tol * rdu_norm:
            return DescentTrace(final_weight=w, mmse=np.array(errs), mu=mu, iterations=iterations)
        if iterations >= max_iter:
            raise NoConvergence(
                f"accuracy descent did not converge: relative residual {norm / rdu_norm:.3g} "
                f"after {iterations} iterations"
            )
        w = w + mu * residual
        iterations += 1


def select_nodes(
    layout: NodeLayout,
    cov: CovariancePair,
    target: float | None = None,
    count: int | None = None,
) -> NodeSelection:
    """Rank nodes by ascending sink distance (id breaks ties) and evaluate
    the optimal-weight accuracy of every prefix.

    ``cov`` is the layout's spatial covariance in layout order (as
    ``build_spatial_covariance`` returns it); it is restricted to the
    ranked order here.

    One factorization gives the whole curve.  With Ruu = L L^T in ranked
    order, the leading k x k block of L is the factor of the first k
    nodes' Ruu, so y = L^-1 rdu restricted to its first k entries solves
    that prefix's triangular system, and the prefix's optimal accuracy is
    rdu_k . Ruu_k^-1 rdu_k / sigma_d^2 = sum(y[:k]**2) / sigma_d^2: the
    curve is ``cumsum(y**2) / sigma_d**2``.  A degenerate ranked
    covariance raises NotPositiveDefinite from that one factorization,
    naming the first ranked node that adds no independent signal.

    With ``target`` returns the smallest prefix reaching it (raising
    TargetUnreachable if even the full set misses); with ``count`` returns
    that prefix directly.  Exactly one of the two must be given.
    """
    if (target is None) == (count is None):
        raise ValueError("provide exactly one of target or count")
    m = layout.size
    if cov.order != m:
        raise DimensionMismatch(f"covariance of order {cov.order} for {m} nodes")
    dist = layout.sink_distances()
    ranked = sorted(range(m), key=lambda k: (dist[k], layout.node_ids[k]))
    order = tuple(layout.node_ids[k] for k in ranked)

    cov = cov.restrict(ranked)
    try:
        low = cholesky_factor(cov.ruu)
    except NotPositiveDefinite as exc:
        raise exc.naming(order) from None
    y = forward_substitute(low, cov.rdu)
    acc = np.cumsum(y * y) / cov.sigma_d_sq

    if count is not None:
        if not 1 <= count <= m:
            raise ValueError(f"count must be in [1, {m}], got {count}")
    elif not 0.0 < target <= 1.0:
        raise ValueError(f"target must be in (0, 1], got {target}")
    else:
        reached = np.flatnonzero(acc >= target)
        if not reached.size:
            raise TargetUnreachable(
                f"target {target} unreachable; all {m} nodes achieve {acc[-1]:.6g}"
            )
        count = int(reached[0]) + 1
    return NodeSelection(order=order, accuracy=acc, selected=order[:count])

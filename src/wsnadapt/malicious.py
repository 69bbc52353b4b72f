"""Malicious-node tracing from the spread of tracked client weights.

A corrupted node's filter weights wander far more than its peers', so the
pooled variance of its weight snapshots stands out.  Classification is a
median-multiple rule: a node is flagged when its variance exceeds kappa
times the median variance across nodes.
"""

from __future__ import annotations

from enum import Enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, InsufficientHistory, InvalidArgument


class Label(str, Enum):
    NORMAL = "Normal"
    MALICIOUS = "Malicious"


@dataclass(frozen=True)
class WeightHistory:
    """Snapshots of one node's adaptive weight, one per update round: a
    ``(k, n)`` array, given as one or as k equal-length vectors."""

    node_id: int
    snapshots: np.ndarray

    def __post_init__(self):
        try:
            snaps = np.asarray(self.snapshots, dtype=float)
        except ValueError as exc:
            raise DimensionMismatch("all snapshots must have the same length") from exc
        k = len(snaps)
        object.__setattr__(self, "snapshots", snaps.reshape(k, -1 if k else 0))


@dataclass(frozen=True)
class DetectionReport:
    labels: dict[int, Label]
    threshold: float
    kappa: float


def weight_variance(history: WeightHistory) -> float:
    """Population variance pooled over every scalar entry of every snapshot.

    The n-denominator estimator is used (not n-1); at least two snapshots
    are required.
    """
    if len(history.snapshots) < 2:
        raise InsufficientHistory(
            f"node {history.node_id} has {len(history.snapshots)} snapshots, need >= 2"
        )
    return float(np.var(history.snapshots, ddof=0))


def classify(variances: Mapping[int, float], kappa: float = 5.0) -> DetectionReport:
    """Label each node by comparing its variance to kappa * median(variances)."""
    if len(variances) < 2:
        raise InsufficientHistory("need at least 2 nodes to classify")
    if not kappa > 1:  # NaN too
        raise InvalidArgument(f"kappa must exceed 1, got {kappa}")
    threshold = kappa * float(np.median(list(variances.values())))
    labels = {
        i: Label.MALICIOUS if v > threshold else Label.NORMAL
        for i, v in variances.items()
    }
    return DetectionReport(labels=labels, threshold=threshold, kappa=kappa)


def histories_from_snapshots(
    snapshots: Mapping[int, np.ndarray | Sequence[np.ndarray]]
) -> dict[int, WeightHistory]:
    """Wrap raw per-node snapshots (e.g. a protocol run's weight log), each
    node's a ``(k, n)`` array or a list of k vectors."""
    return {i: WeightHistory(node_id=i, snapshots=snaps) for i, snaps in snapshots.items()}

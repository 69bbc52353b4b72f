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

from .errors import DimensionMismatch, InsufficientHistory


class Label(str, Enum):
    NORMAL = "Normal"
    MALICIOUS = "Malicious"


@dataclass(frozen=True)
class WeightHistory:
    """Snapshots of one node's adaptive weight, one per update round."""

    node_id: int
    snapshots: tuple[np.ndarray, ...]

    def __post_init__(self):
        snaps = tuple(np.asarray(s, dtype=float).ravel() for s in self.snapshots)
        if snaps and any(s.size != snaps[0].size for s in snaps):
            raise DimensionMismatch("all snapshots must have the same length")
        object.__setattr__(self, "snapshots", snaps)


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
    pooled = np.concatenate(history.snapshots)
    return float(np.var(pooled, ddof=0))


def classify(variances: Mapping[int, float], kappa: float = 5.0) -> DetectionReport:
    """Label each node by comparing its variance to kappa * median(variances)."""
    if len(variances) < 2:
        raise ValueError("need at least 2 nodes to classify")
    if kappa <= 1:
        raise ValueError(f"kappa must exceed 1, got {kappa}")
    threshold = kappa * float(np.median(list(variances.values())))
    labels = {
        i: Label.MALICIOUS if v > threshold else Label.NORMAL
        for i, v in variances.items()
    }
    return DetectionReport(labels=labels, threshold=threshold, kappa=kappa)


def histories_from_snapshots(
    snapshots: Mapping[int, Sequence[np.ndarray]]
) -> dict[int, WeightHistory]:
    """Wrap raw per-node snapshot lists (e.g. a protocol run's weight log)."""
    return {
        i: WeightHistory(node_id=i, snapshots=tuple(snaps))
        for i, snaps in snapshots.items()
    }

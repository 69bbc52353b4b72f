"""Adaptive strategies for spatially correlated sensor fields.

Library layout:

- ``numerics``: Cholesky factor, forward substitution, dominant eigenvalue
- ``fieldgen``: spatial covariance construction and seeded stream synthesis
- ``ada``: steepest-descent accuracy estimation and node selection
- ``stdp``: the dual-prediction transmission-suppression protocol
- ``malicious``: weight-variance anomaly tracing
- ``sim``: experiment orchestration and CSV-ready reports
- ``cli``: the ``wsnadapt`` command-line tool; importing the package does
  not import it, so ``python -m wsnadapt.cli`` runs it without a warning
"""

from . import ada, errors, fieldgen, malicious, numerics, sim, stdp
from .fieldgen import CovariancePair, FieldParams, NodeLayout, Stream
from .sim import RunReport, Scenario, default_scenario
from .stdp import Thresholds

__version__ = "0.1.0"

__all__ = [
    "CovariancePair",
    "FieldParams",
    "NodeLayout",
    "RunReport",
    "Scenario",
    "Stream",
    "Thresholds",
    "ada",
    "cli",
    "default_scenario",
    "errors",
    "fieldgen",
    "malicious",
    "numerics",
    "sim",
    "stdp",
]

"""Scenario orchestration: binds the field generator, the accuracy model,
the dual-prediction protocol and the detector into reproducible experiment
runs, and lays their results out as named CSV-ready series.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import ada, malicious, stdp
from .fieldgen import (
    ROLE_PROTOCOL,
    FieldParams,
    NodeLayout,
    Stream,
    awgn_channel,
    build_spatial_covariance,
    generate_stream,
    inject_malicious,
    substream,
)
from .stdp import Thresholds

DEFAULT_SEED = 12

# Fixed jittered-grid coordinates (meters) in the 4 x 4 sensing region,
# sink at the center.  The six nodes nearest the sink are ids
# 2, 5, 4, 10, 7, 9 in that order.
DEFAULT_POSITIONS = {
    1: (0.31, 0.18),
    2: (1.42, 2.37),
    3: (3.78, 0.42),
    4: (2.64, 1.56),
    5: (1.71, 1.29),
    6: (0.24, 3.69),
    7: (2.95, 2.58),
    8: (3.82, 3.77),
    9: (1.18, 2.94),
    10: (2.39, 2.81),
}
DEFAULT_SINK = (2.0, 2.0)


@dataclass(frozen=True)
class MaliciousSpec:
    node_ids: tuple[int, ...]
    scale: float


@dataclass(frozen=True)
class Scenario:
    """Full experiment configuration; every run is a pure function of it."""

    layout: NodeLayout
    field: FieldParams = FieldParams()
    n_block: int = 5
    num_blocks: int = 200
    thresholds: Thresholds = Thresholds(alpha=0.5, beta=0.05)
    mu_mode: float | str = "auto"
    malicious: MaliciousSpec | None = None
    channel: float | None = None
    seed: int = DEFAULT_SEED
    select_first: bool = False
    select_count: int = 6

    def __post_init__(self):
        if self.n_block < 1:
            raise ValueError("n_block must be >= 1")
        if self.num_blocks < 2:
            raise ValueError("num_blocks must be >= 2")
        if isinstance(self.mu_mode, str):
            if self.mu_mode != "auto":
                raise ValueError(f"mu_mode must be 'auto' or a positive number")
        elif not self.mu_mode > 0:
            raise ValueError("explicit mu must be positive")
        if self.malicious is not None:
            unknown = set(self.malicious.node_ids) - set(self.layout.node_ids)
            if unknown:
                raise ValueError(f"malicious nodes {sorted(unknown)} not in layout")
            if self.malicious.scale <= 1:
                raise ValueError("malicious scale must exceed 1")
        if not 1 <= self.select_count <= self.layout.size:
            raise ValueError("select_count must be within the node count")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    @property
    def explicit_mu(self) -> float | None:
        return None if self.mu_mode == "auto" else float(self.mu_mode)


def default_layout() -> NodeLayout:
    ids = tuple(sorted(DEFAULT_POSITIONS))
    return NodeLayout(
        positions=tuple(DEFAULT_POSITIONS[i] for i in ids),
        sink=DEFAULT_SINK,
        node_ids=ids,
    )


def default_scenario(**overrides) -> Scenario:
    return replace(Scenario(layout=default_layout()), **overrides)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain JSON-able echo of a scenario (the config-file shape)."""
    sig = scenario.field.sigma_u
    return {
        "layout": {
            "positions": [list(p) for p in scenario.layout.positions],
            "sink": list(scenario.layout.sink),
            "node_ids": list(scenario.layout.node_ids),
        },
        "field": {
            "theta": scenario.field.theta,
            "sigma_u": list(sig) if isinstance(sig, tuple) else sig,
            "sigma_d": scenario.field.sigma_d,
            "noise_var": scenario.field.noise_var,
            "temporal_phi": scenario.field.temporal_phi,
        },
        "n_block": scenario.n_block,
        "num_blocks": scenario.num_blocks,
        "thresholds": {
            "alpha": scenario.thresholds.alpha,
            "beta": scenario.thresholds.beta,
        },
        "mu_mode": scenario.mu_mode,
        "malicious": None
        if scenario.malicious is None
        else {
            "node_ids": list(scenario.malicious.node_ids),
            "scale": scenario.malicious.scale,
        },
        "channel": scenario.channel,
        "seed": scenario.seed,
        "select_first": scenario.select_first,
        "select_count": scenario.select_count,
    }


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canonical.encode()).hexdigest()


@dataclass(frozen=True, eq=False)
class Table:
    """One result series as equal-length columns.

    A column is a numpy array (floats print with 9 significant digits,
    integers as they are) or a list of strings.  ``absent`` maps a column
    index to a boolean mask of the cells that hold no value: they print
    empty and read back as None.  Iterating a table yields its rows.
    """

    columns: tuple
    absent: dict[int, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        cells = []
        for c, column in enumerate(self.columns):
            values = column.tolist() if isinstance(column, np.ndarray) else list(column)
            for k in np.flatnonzero(self.absent.get(c, ())):
                values[k] = None
            cells.append(values)
        return zip(*cells)

    def __getitem__(self, index: int) -> tuple:
        """Row ``index``, read from each column directly."""
        return tuple(
            None if c in self.absent and self.absent[c][index]
            else column[index].item() if isinstance(column, np.ndarray)
            else column[index]
            for c, column in enumerate(self.columns)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Table) and list(self) == list(other)


@dataclass(frozen=True)
class RunReport:
    """Named result tables plus a scenario echo and its hash."""

    kind: str
    series: dict[str, Table]
    metadata: dict

    def __post_init__(self):
        for name, table in self.series.items():
            if not len(table):
                raise ValueError(f"series {name} is empty")
            for column in table.columns:
                if isinstance(column, np.ndarray) and column.dtype.kind == "f":
                    bad = np.flatnonzero(~np.isfinite(column))
                    if bad.size:
                        row = bad[0]
                        raise ValueError(
                            f"non-finite value in series {name}, row {row}: {table[row]}"
                        )


def _base_metadata(kind: str, scenario: Scenario) -> dict:
    echo = scenario_to_dict(scenario)
    return {"kind": kind, "scenario": echo, "config_sha1": config_hash(echo)}


def run_ada(scenario: Scenario) -> RunReport:
    """Descent accuracy trace plus the per-node-count accuracy curve."""
    cov = build_spatial_covariance(scenario.layout, scenario.field)
    trace = ada.steepest_descent(cov, mu=scenario.explicit_mu)
    selection = ada.select_nodes(
        scenario.layout, scenario.field, count=scenario.select_count
    )
    sizes = [size for size, _ in selection.curve]
    ids = [str(i) for i in selection.order]
    series = {
        "accuracy_vs_iteration": Table(
            (np.arange(len(trace.accuracy)), np.array(trace.accuracy))
        ),
        "accuracy_vs_nodes": Table(
            (
                np.array(sizes),
                np.array([acc for _, acc in selection.curve]),
                [";".join(ids[:size]) for size in sizes],
            )
        ),
    }
    metadata = _base_metadata("ADA", scenario)
    metadata.update(
        {
            "mu": trace.mu,
            "converged": trace.converged,
            "iterations": trace.iterations,
            "final_accuracy": trace.accuracy[-1],
            "selected": list(selection.selected),
        }
    )
    return RunReport(kind="ADA", series=series, metadata=metadata)


@dataclass(frozen=True)
class ProtocolRun:
    """One protocol run; ``percentages[k]`` belongs to node ``state.node_ids[k]``."""

    stream: Stream
    state: stdp.ProtocolState
    trace: stdp.Trace
    percentages: np.ndarray

    @property
    def total_percentage(self) -> float:
        sensed = self.state.round_index * len(self.state.node_ids)
        return 100.0 * int(self.state.sent.sum()) / sensed

    def weight_snapshots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every client-filter update as (round, node row, weight), grouped by
        node in ascending id order and chronological within a node."""
        rows, rounds = np.nonzero(self.trace.phase.T == stdp.CLIENT_ADAPTIVE)
        return rounds, rows, self.trace.client_weight[rounds, rows]


def active_node_ids(scenario: Scenario) -> tuple[int, ...]:
    """Participating nodes: everyone, or the selected nearest subset."""
    if not scenario.select_first:
        return scenario.layout.node_ids
    chosen = ada.select_nodes(
        scenario.layout, scenario.field, count=scenario.select_count
    ).selected
    return tuple(sorted(chosen))


def simulate_protocol(scenario: Scenario, stream: Stream | None = None) -> ProtocolRun:
    """Generate (or take) a stream and run the full protocol over it."""
    if stream is None:
        stream = generate_stream(
            scenario.layout,
            scenario.field,
            scenario.n_block,
            scenario.num_blocks,
            scenario.seed,
        )
        if scenario.malicious is not None:
            stream = inject_malicious(
                stream,
                scenario.malicious.node_ids,
                scenario.malicious.scale,
                scenario.seed,
            )
    present = set(stream.node_ids)
    active = sorted(i for i in active_node_ids(scenario) if i in present)
    stream = stream.restrict(active)

    # A corrupted node's own measurements are degraded too: its client-side
    # noise draws scale with the corruption factor.  Without this the
    # auto step size (normalized by the corruption-inflated eigenvalue)
    # turns corrupted clients into the best-behaved filters and the
    # weight-variance detector has nothing to see.
    noise_std = float(np.sqrt(scenario.field.noise_var))
    corrupted = set(scenario.malicious.node_ids) if scenario.malicious else set()
    scale = scenario.malicious.scale if scenario.malicious else 1.0
    draws = np.array(
        [
            substream(scenario.seed, ROLE_PROTOCOL, i).normal(
                0.0, noise_std * (scale if i in corrupted else 1.0), stream.num_blocks
            )
            for i in active
        ]
    ).reshape(len(active), stream.num_blocks)
    channel = None
    if scenario.channel is not None:
        snr = scenario.channel

        def channel(samples, desired, node_ids, block_index, _snr=snr, _seed=scenario.seed):
            return awgn_channel(samples, desired, node_ids, block_index, _snr, _seed)

    state = stdp.new_protocol_state(active, scenario.n_block)
    trace = stdp.Trace.empty(stream.num_blocks, len(active), scenario.n_block)
    for r in range(stream.num_blocks):
        trace.record(
            stdp.step_round(
                state,
                stream.blocks[:, r],
                stream.desired[:, r],
                scenario.thresholds,
                mu=scenario.explicit_mu,
                client_noise=draws[:, r],
                channel=channel,
            )
        )
    return ProtocolRun(
        stream=stream,
        state=state,
        trace=trace,
        percentages=stdp.transmission_percentage(state),
    )


_PHASE_NAMES = np.array([p.value for p in stdp.PHASES], dtype=object)
_KIND_NAMES = np.array(
    [
        ";".join(k.value for k in stdp.kinds_of(mask))
        for mask in range(sum(stdp.KIND_BITS.values()) + 1)
    ],
    dtype=object,
)


def _protocol_series(run: ProtocolRun, beta: float) -> dict[str, Table]:
    trace = run.trace
    ids = np.array(run.state.node_ids)
    rounds, m = trace.phase.shape
    phase = trace.phase.ravel()
    transmitted = trace.transmitted.ravel()
    series = {
        "transmission": Table(
            (
                np.full(m, beta),
                ids,
                run.percentages,
            )
        ),
        "trace": Table(
            (
                np.repeat(np.arange(rounds), m),
                np.tile(ids, rounds),
                _PHASE_NAMES[phase].tolist(),
                _KIND_NAMES[trace.kinds.ravel()].tolist(),
                trace.error_glob.ravel(),
                trace.error_new.ravel(),
                transmitted.astype(np.int8),
            ),
            absent={4: ~transmitted, 5: phase < stdp.CLIENT_ADAPTIVE},
        ),
    }
    update_rounds, rows, weights = run.weight_snapshots()
    if update_rounds.size:
        n = weights.shape[1]
        series["weights"] = Table(
            (
                np.repeat(update_rounds, n),
                np.repeat(ids[rows], n),
                np.tile(np.arange(n), update_rounds.size),
                weights.ravel(),
            )
        )
    return series


def run_stdp(scenario: Scenario, stream: Stream | None = None) -> RunReport:
    """Protocol run reporting per-node transmission percentages and traces."""
    run = simulate_protocol(scenario, stream)
    series = _protocol_series(run, scenario.thresholds.beta)
    metadata = _base_metadata("STDP", scenario)
    metadata.update(
        {
            "active_nodes": list(run.stream.node_ids),
            "total_percentage": run.total_percentage,
            "mu": run.state.mu,
        }
    )
    return RunReport(kind="STDP", series=series, metadata=metadata)


def run_detect(scenario: Scenario, stream: Stream | None = None) -> RunReport:
    """Protocol run followed by weight-variance classification."""
    if scenario.malicious is None and stream is None:
        raise ValueError("detect experiment requires a malicious configuration")
    run = simulate_protocol(scenario, stream)
    _, rows, weights = run.weight_snapshots()
    histories = malicious.histories_from_snapshots(
        {run.state.node_ids[k]: weights[rows == k] for k in np.unique(rows)}
    )
    variances = {i: malicious.weight_variance(h) for i, h in sorted(histories.items())}
    report = malicious.classify(variances)
    series = _protocol_series(run, scenario.thresholds.beta)
    detected = sorted(variances)
    series["detection"] = Table(
        (
            np.array(detected),
            np.array([variances[i] for i in detected]),
            np.full(len(detected), report.threshold),
            [report.labels[i].value for i in detected],
        )
    )
    metadata = _base_metadata("DETECT", scenario)
    metadata.update(
        {
            "active_nodes": list(run.stream.node_ids),
            "kappa": report.kappa,
            "threshold": report.threshold,
            "flagged": sorted(
                i for i, lab in report.labels.items() if lab is malicious.Label.MALICIOUS
            ),
        }
    )
    return RunReport(kind="DETECT", series=series, metadata=metadata)


SWEEP_AXES = ("beta", "n_block", "node_count")


def scenario_for_point(scenario: Scenario, axis: str, value) -> Scenario:
    """The single-run scenario corresponding to one sweep point."""
    if axis == "beta":
        return replace(
            scenario, thresholds=Thresholds(scenario.thresholds.alpha, float(value))
        )
    if axis == "n_block":
        return replace(scenario, n_block=int(value))
    if axis == "node_count":
        return replace(scenario, select_first=True, select_count=int(value))
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def _sweep_point(args) -> tuple:
    scenario, axis, value = args
    report = run_stdp(scenario_for_point(scenario, axis, value))
    return value, report


def sweep(
    scenario: Scenario, axis: str, values: Sequence, jobs: int = 1
) -> RunReport:
    """One protocol run per axis value, merged into a single report.

    Every point reuses the scenario's base seed, so points differ only in
    the swept parameter and each sub-run can be reproduced by running the
    corresponding single scenario directly.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    tasks = [(scenario, axis, value) for value in values]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            points = list(pool.map(_sweep_point, tasks))
    else:
        points = [_sweep_point(t) for t in tasks]

    tables = [report.series["transmission"] for _, report in points]
    series = {
        "transmission": Table(
            (
                np.concatenate([np.full(len(t), value) for (value, _), t in zip(points, tables)]),
                np.concatenate([t.columns[1] for t in tables]),
                np.concatenate([t.columns[2] for t in tables]),
            )
        ),
        "transmission_total": Table(
            (
                np.array(values),
                np.array([report.metadata["total_percentage"] for _, report in points]),
            )
        ),
    }
    sub_meta = []
    for value, report in points:
        sub_meta.append(
            {
                "value": value,
                "config_sha1": report.metadata["config_sha1"],
                "seed": report.metadata["scenario"]["seed"],
                "total_percentage": report.metadata["total_percentage"],
            }
        )
    metadata = _base_metadata("SWEEP", scenario)
    metadata.update({"axis": axis, "values": values, "points": sub_meta})
    return RunReport(kind="SWEEP", series=series, metadata=metadata)


def _column_text(column, absent: np.ndarray | None) -> list[str]:
    """One column as CSV cells: floats with 9 significant digits, integers
    as they are, absent cells empty."""
    if not isinstance(column, np.ndarray):
        return list(column)
    present = column if absent is None else column[~absent]
    if present.dtype.kind == "f":
        cells = list(map("{:.9g}".format, present.tolist()))
    else:
        # Format each distinct integer once and share the strings between
        # its cells (round, node, tap and flag columns repeat few values).
        values, index = np.unique(present, return_inverse=True)
        cells = np.array(list(map(str, values.tolist())), dtype=object)[index].tolist()
    if absent is None:
        return cells
    text = np.full(column.size, "", dtype=object)
    text[~absent] = cells
    return text.tolist()


def report_files(report: RunReport) -> dict[str, tuple[tuple[str, ...], list[tuple[str, ...]]]]:
    """Map a report to its CSV files: name -> (header, formatted rows).

    Floats are rendered with 9 significant digits, one column at a time;
    every run kind maps to a fixed file set so repeated runs are
    byte-comparable.
    """
    out: dict[str, tuple[tuple[str, ...], list[tuple[str, ...]]]] = {}

    def emit(name: str, header: tuple[str, ...], table: Table):
        columns = [
            _column_text(column, table.absent.get(c))
            for c, column in enumerate(table.columns)
        ]
        out[name] = (header, list(zip(*columns)))

    if report.kind == "ADA":
        emit(
            "ada_iterations.csv",
            ("iter", "accuracy"),
            report.series["accuracy_vs_iteration"],
        )
        emit(
            "ada_nodes.csv",
            ("k", "accuracy", "node_ids"),
            report.series["accuracy_vs_nodes"],
        )
        return out

    if report.kind == "SWEEP":
        axis = report.metadata["axis"]
        name = "stdp_transmission.csv" if axis == "beta" else "sweep_transmission.csv"
        emit(name, (axis, "node_id", "pct"), report.series["transmission"])
        emit(
            "sweep_totals.csv",
            (axis, "total_pct"),
            report.series["transmission_total"],
        )
        return out

    emit(
        "stdp_transmission.csv",
        ("beta", "node_id", "pct"),
        report.series["transmission"],
    )
    emit(
        "message_trace.csv",
        ("round", "node_id", "phase", "kind", "error_glob", "error_new", "transmitted"),
        report.series["trace"],
    )
    if "weights" in report.series:
        emit(
            "weights.csv",
            ("round", "node_id", "tap_index", "value"),
            report.series["weights"],
        )
    if report.kind == "DETECT":
        emit(
            "detection.csv",
            ("node_id", "variance", "threshold", "label"),
            report.series["detection"],
        )
    return out

"""Scenario orchestration: binds the field generator, the accuracy model,
the dual-prediction protocol and the detector into reproducible experiment
runs, and lays their results out as the CSV files each run writes.  What a
run will do, and whether it can go ahead, is decided once, by ``plan``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from . import ada, fieldgen, malicious, stdp
from .errors import (
    DimensionMismatch, Diverged, InsufficientHistory, InvalidParameter, NonFinite, UnknownNode
)
from .fieldgen import (
    ROLE_CHANNEL,
    ROLE_PROTOCOL,
    FieldParams,
    NodeLayout,
    Stream,
    build_spatial_covariance,
    generate_stream,
    ingest_csv,
    inject_malicious,
    node_draws,
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
    thresholds: Thresholds = Thresholds()
    mu_mode: float | str = "auto"
    malicious: MaliciousSpec | None = None
    channel: float | None = None
    seed: int = DEFAULT_SEED
    select_first: bool = False
    select_count: int = 6

    def __post_init__(self):
        if not self.n_block >= 1:
            raise InvalidParameter("n_block", f"must be >= 1, got {self.n_block}")
        if not self.num_blocks >= 2:
            raise InvalidParameter("num_blocks", f"must be >= 2, got {self.num_blocks}")
        mu = self.mu_mode
        if mu != "auto" and (isinstance(mu, str) or not 0 < mu < math.inf):
            raise InvalidParameter("mu_mode", f"must be 'auto' or > 0, got {mu!r}")
        if self.channel is not None:
            try:
                noise = 10.0 ** (-self.channel / 10.0)
            except OverflowError:
                noise = math.inf
            if not noise < math.inf:  # NaN too; an infinite channel means no noise
                raise InvalidParameter(
                    "channel", f"must keep 10**(-channel/10) finite, got {self.channel}"
                )
        m = self.layout.size
        sigma = self.field.sigma_u
        if isinstance(sigma, tuple) and len(sigma) != m:
            raise InvalidParameter("field/sigma_u", f"expected {m} entries, got {len(sigma)}")
        if self.malicious is not None:
            ids = self.malicious.node_ids
            unknown = set(ids) - set(self.layout.node_ids)
            if unknown:
                raise InvalidParameter("malicious/node_ids", f"unknown nodes {sorted(unknown)}")
            if len(set(ids)) != len(ids):
                repeated = sorted({i for i in ids if ids.count(i) > 1})
                raise InvalidParameter("malicious/node_ids", f"ids {repeated} occur more than once")
            if not self.malicious.scale > 1:
                raise InvalidParameter(
                    "malicious/scale", f"must be > 1, got {self.malicious.scale}"
                )
        if not 1 <= self.select_count <= m:
            raise InvalidParameter("select_count", f"must lie in [1, {m}], got {self.select_count}")
        if not self.seed >= 0:
            raise InvalidParameter("seed", f"must be >= 0, got {self.seed}")

    @property
    def mu(self) -> float | None:
        return None if self.mu_mode == "auto" else float(self.mu_mode)


def default_layout() -> NodeLayout:
    ids = tuple(sorted(DEFAULT_POSITIONS))
    return NodeLayout(
        positions=tuple(DEFAULT_POSITIONS[i] for i in ids),
        sink=DEFAULT_SINK,
        node_ids=ids,
    )


def default_scenario(**overrides) -> Scenario:
    """The default scenario but for ``overrides``; ``select_count`` fits a small layout."""
    overrides.setdefault("layout", default_layout())
    overrides.setdefault("select_count", min(Scenario.select_count, overrides["layout"].size))
    return Scenario(**overrides)


def scenario_to_dict(scenario) -> dict:
    """Plain JSON-able echo of a scenario (the config-file shape): each
    value type becomes a dict keyed by its field names, which are the
    config keys; tuples stay tuples, which JSON writes as arrays."""
    # Not dataclasses.asdict: it deep-copies every leaf, which on a 400-node
    # layout costs two orders of magnitude more than this walk.
    values = {f.name: getattr(scenario, f.name) for f in fields(scenario)}
    return {key: scenario_to_dict(v) if is_dataclass(v) else v for key, v in values.items()}


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canonical.encode()).hexdigest()


@dataclass(frozen=True, eq=False)
class Table:
    """One CSV file: its header and its columns, all of one shape.
    Iterating it encodes its rows a chunk at a time and yields each chunk's
    CSV bytes.

    Every column is a numpy array of floats (printed as ``format(v,
    ".9g")``), integers (printed as their digits) or fixed-width byte
    strings (printed as they are).  A column is 1-D, a CSV row per entry,
    or a 2-D ``(groups, width)`` grid, a CSV row per cell in row-major
    order, so a grid may be a strided view of the array that holds the
    values or an ``np.broadcast_to`` of a row or column of them: the table
    reads its columns where they lie.  ``absent`` maps a column index to a
    boolean mask of the cells that hold no value: they print empty.
    ``labels`` maps a column index to the byte-string names of its integer
    codes: a coded cell prints as ``labels[c][code]``.  Every column and
    mask has the table's shape; ``DimensionMismatch`` refuses any other.
    A chunk is a run of whole grid rows (entries of a 1-D table) of about
    ``CHUNK_ROWS`` cells, at least one grid row.
    """

    header: tuple[str, ...]
    columns: tuple
    absent: dict[int, np.ndarray] = field(default_factory=dict)
    labels: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        shapes = [np.shape(a) for a in (*self.columns, *self.absent.values())]
        if len(shapes[0]) not in (1, 2) or len(set(shapes)) > 1:
            raise DimensionMismatch(
                f"a table's columns and absent masks need one 1-D or 2-D shape, got {shapes}"
            )

    def __len__(self) -> int:
        return math.prod(self.columns[0].shape)

    def __iter__(self) -> Iterator[bytes]:
        groups, *width = self.columns[0].shape
        step = max(1, CHUNK_ROWS // (math.prod(width) or 1))
        for start in range(0, groups, step):
            yield _chunk_bytes(self, slice(start, start + step))


@dataclass(frozen=True)
class RunReport:
    """Result tables by the name of the CSV file each one is written to,
    plus a scenario echo and its hash."""

    files: dict[str, Table]
    metadata: dict

    def __post_init__(self):
        for name, table in self.files.items():
            if not len(table):
                raise DimensionMismatch(f"series {name} is empty")
            for heading, column in zip(table.header, table.columns):
                if column.dtype.kind == "f":
                    # The flat index of a cell is its CSV row.
                    bad = np.flatnonzero(~np.isfinite(column))
                    if bad.size:
                        row = bad[0]
                        value = column[np.unravel_index(row, column.shape)]
                        raise NonFinite(
                            f"non-finite value in series {name}, row {row}, "
                            f"column {heading}: {value}"
                        )


def _base_metadata(kind: str, scenario: Scenario) -> dict:
    echo = scenario_to_dict(scenario)
    return {"kind": kind, "scenario": echo, "config_sha1": config_hash(echo)}


def run_ada(plan: RunPlan) -> RunReport:
    """Descent accuracy trace plus the per-node-count accuracy curve of the
    plan's scenario; a descent that does not converge raises NoConvergence."""
    scenario = plan.scenario
    cov = build_spatial_covariance(scenario.layout, scenario.field)
    trace = ada.steepest_descent(cov, mu=scenario.mu)
    accuracy = 1.0 - trace.mmse / cov.sigma_d_sq
    selection = ada.select_nodes(scenario.layout, cov, count=scenario.select_count)
    sizes = np.arange(1, len(selection.accuracy) + 1)
    ids = [str(i) for i in selection.order]
    files = {
        "ada_iterations.csv": Table(("iter", "accuracy"), (np.arange(len(accuracy)), accuracy)),
        "ada_nodes.csv": Table(
            ("k", "accuracy", "node_ids"),
            (
                sizes,
                selection.accuracy,
                np.array([";".join(ids[:size]) for size in sizes], dtype=np.bytes_),
            )
        ),
    }
    metadata = _base_metadata("ADA", scenario)
    metadata.update(
        {
            "mu": trace.mu,
            "iterations": trace.iterations,
            "final_accuracy": float(accuracy[-1]),
            "selected": list(selection.selected),
        }
    )
    return RunReport(files=files, metadata=metadata)


def _scenario_stream(scenario: Scenario) -> Stream:
    """The stream a scenario senses: every layout node, corrupted ones injected."""
    stream = generate_stream(
        scenario.layout, scenario.field, scenario.n_block, scenario.num_blocks, scenario.seed
    )
    spec = scenario.malicious
    if spec is not None:
        stream = inject_malicious(
            stream, scenario.layout, scenario.field, spec.node_ids, spec.scale, scenario.seed
        )
    return stream


def sensed_nodes(
    points: Sequence[Scenario], stream: Stream | None = None, detect: bool = False
) -> list[tuple[int, ...]]:
    """Each point's nodes, ids ascending: the layout's, or with ``select_first``
    the ``select_count`` first of ``layout.sink_ranking()`` (one ranking for
    all points, which share a layout), that a given ``stream`` holds.
    UnknownNode refuses a stream holding id 0, no layout node, none of a
    point's nodes or, for ``detect``, fewer than 2; InvalidParameter an
    unsensed corrupted node."""
    layout = points[0].layout
    order = [layout.node_ids[k] for k in layout.sink_ranking()]
    ids = list(layout.node_ids if stream is None else stream.node_ids)
    present = set(ids)
    if 0 in present:
        raise UnknownNode("node id 0 is the sink's id, not a sensor's")
    if present.isdisjoint(layout.node_ids):
        raise UnknownNode(f"node ids {ids} all lie outside the layout")
    sensed = []
    for point in points:
        chosen = sorted(order[: point.select_count] if point.select_first else order)
        own = [i for i in chosen if i in present]
        if not own:
            raise UnknownNode(f"node ids {ids} include none of the run's active nodes {chosen}")
        if detect and len(own) < 2:
            use = f"the run would use only {own} of node ids {ids}"
            raise UnknownNode(f"detect needs at least 2 nodes to classify; {use}")
        missing = sorted(set(point.malicious.node_ids) - set(own)) if point.malicious else []
        if detect and missing:
            message = f"corrupted nodes {missing} are not among the sensed nodes {own}"
            raise InvalidParameter("malicious/node_ids", message)
        sensed.append(tuple(own))
    return sensed


EXPERIMENTS = ("ada", "stdp", "detect", "sweep")
SWEEP_AXES = ("beta", "n_block", "node_count")


@dataclass(frozen=True, eq=False)
class RunPlan:
    """What a run will do, decided by ``plan`` before any stream is made: its
    points, their sensed ids (none for ada) and the given stream, if any."""

    experiment: str
    scenario: Scenario
    points: tuple[Scenario, ...]
    groups: tuple[tuple[int, ...], ...]
    stream: Stream | None
    axis: str | None
    values: tuple


def plan(scenario: Scenario, experiment: str = "stdp", stream=None, axis=None, values=()) -> RunPlan:
    """The plan of an ``experiment`` run on ``scenario``, made with every check
    that needs no generated stream.  ``stream`` is a ``Stream`` or a CSV path
    for ``fieldgen.ingest_csv``; a sweep alone has a point per value of
    ``values`` along ``axis``, a float on ``beta`` and an int otherwise.
    InvalidParameter refuses an unknown experiment or sweep axis, a sweep
    section or stream the experiment takes none of, ``malicious`` beside a
    stream, a detect run with nothing to detect or under 2 nodes, and a bad
    sweep value (``point`` is its index) before the file is read and
    ``sensed_nodes`` runs.  A plan builds no covariance and factors
    nothing, so a degenerate layout is refused by the run itself."""
    values = tuple(values)
    if experiment not in EXPERIMENTS:
        raise InvalidParameter("experiment", f"{experiment!r} is not one of {list(EXPERIMENTS)!r}")
    if experiment == "sweep" and axis is None:
        raise InvalidParameter("sweep", "sweep experiment requires the sweep section")
    if experiment != "sweep" and (axis is not None or values):
        raise InvalidParameter("sweep", "only valid when experiment is 'sweep'")
    if stream is not None and experiment not in ("stdp", "detect"):
        raise InvalidParameter("ingest_csv", f"not applicable to the {experiment} experiment")
    # Corruption is injected into generated streams only; on a given one it
    # would scale the listed nodes' client noise and nothing else.
    if stream is not None and scenario.malicious is not None:
        raise InvalidParameter("malicious", "corrupts generated streams only, not an ingest_csv")
    detect = experiment == "detect"
    if detect and scenario.malicious is None and stream is None:
        raise InvalidParameter(
            "malicious", "detect needs a malicious configuration or an ingest_csv to run on"
        )
    if detect and scenario.layout.size < 2:
        raise InvalidParameter("layout/node_ids", "detect needs at least 2 nodes to classify")
    if detect and scenario.select_first and scenario.select_count < 2:
        raise InvalidParameter("select_count", "detect needs at least 2 selected nodes to classify")
    points = [scenario]
    if experiment == "sweep":
        if axis not in SWEEP_AXES:
            raise InvalidParameter("sweep", f"axis {axis!r} is not one of {list(SWEEP_AXES)!r}")
        if not values:
            raise InvalidParameter("sweep", "needs at least one axis value")
        points = []
        for k, value in enumerate(values):
            try:
                points.append(scenario_for_point(scenario, axis, value))
            except InvalidParameter as exc:
                exc.point = k
                raise
        values = tuple(float(v) if axis == "beta" else int(v) for v in values)
    if stream is not None and not isinstance(stream, Stream):
        stream = ingest_csv(stream, scenario.n_block, scenario.field, scenario.seed)
    groups = [] if experiment == "ada" else sensed_nodes(points, stream, detect)
    return RunPlan(experiment, scenario, tuple(points), tuple(groups), stream, axis, values)


def execute(plan: RunPlan) -> RunReport:
    """Run a plan's experiment; returns its report."""
    runners = {"ada": run_ada, "stdp": run_stdp, "detect": run_detect, "sweep": sweep}
    return runners[plan.experiment](plan)


def simulate_protocol(plan: RunPlan) -> stdp.ProtocolState:
    """Run the full protocol over a plan's points, side by side as the
    points of one engine, each round given its slice of the run's inputs;
    returns the run, whose ``trace`` holds every round.  The inputs die
    when this returns: the reports read only the trace, its update log,
    ``mu``, the ids and the bounds.  The client
    noise, the channel and the step-size mode come from the first point;
    each point brings its thresholds, its sensed group and its stream (the
    plan's, if it has one, serves every point), so a point may differ from
    the first only in ``thresholds``, ``select_first`` and
    ``select_count``.  Every point gets the bits of its own run."""
    points, groups, scenario = plan.points, plan.groups, plan.points[0]
    own = dict(thresholds=scenario.thresholds, select_first=scenario.select_first)
    if any(replace(p, select_count=scenario.select_count, **own) != scenario for p in points):
        raise DimensionMismatch("engine points may differ only in thresholds and node selection")
    blocks, desired = _sensed_inputs(plan)
    num_blocks, n = blocks.shape[1:]
    # Engine row k is node ``active[node_row[k]]``: the row of its noise
    # draws, of which a batch keeps only its rows' copy.  A stream's rows
    # ascend by id, so the engine's rows are the groups' ids in order.
    active = sorted(set().union(*groups))
    ids = [i for group in groups for i in group]
    node_row = slice(None) if len(points) == 1 else np.searchsorted(active, ids)

    # A corrupted node's own measurements are degraded too: its client-side
    # noise draws scale with the corruption factor.  Without this the
    # auto step size (normalized by the corruption-inflated eigenvalue)
    # turns corrupted clients into the best-behaved filters and the
    # weight-variance detector has nothing to see.
    noise_std = float(np.sqrt(scenario.field.noise_var))
    corrupted = set(scenario.malicious.node_ids) if scenario.malicious else set()
    scale = scenario.malicious.scale if scenario.malicious else 1.0
    stds = np.array([noise_std * (scale if i in corrupted else 1.0) for i in active])
    noise = node_draws(scenario.seed, ROLE_PROTOCOL, active, num_blocks)[node_row]
    noise *= stds[node_row, None]
    noise += 0.0
    sink_blocks, sink_desired = blocks, desired
    if scenario.channel is not None:
        # Every block crosses the channel before round 0, and a round
        # reads what the sinks receive of the blocks its rows send: a
        # (node, block) gets the same noise in every point, whatever the
        # node sent before.
        draws = node_draws(scenario.seed, ROLE_CHANNEL, active, num_blocks, n + 1)[node_row]
        sink_blocks, sink_desired = fieldgen.awgn_channel(blocks, desired, draws, scenario.channel)
    thresholds = [point.thresholds for point in points]
    sizes = [len(group) for group in groups]
    state = stdp.new_protocol_state(ids, num_blocks, n, thresholds, sizes, scenario.mu)
    for r in range(num_blocks):
        stdp.step_round(state, blocks[:, r], noise[:, r], sink_blocks[:, r], sink_desired[:, r])
    return state


def _sensed_inputs(plan: RunPlan) -> tuple[np.ndarray, np.ndarray]:
    """The engine's ``(rows, rounds, n)`` blocks and ``(rows, rounds)``
    desired values: each point's stream, restricted to its group, in its
    rows.  One point's arrays are read as they are, with no copy.  A batch
    allocates its arrays first, then makes one point's stream at a time,
    copies it into the point's rows and drops it before the next is made.

    Each point generates the stream of its own scenario, as its single run
    does.  Thresholds and node selection, the only ways points may differ,
    do not enter the stream, so these streams are equal.  perfbench's
    traced sweep test counts one covariance factorization per point; once
    it counts one per engine, one shared stream saves the other P - 1."""
    def stream_of(point: Scenario, group: tuple[int, ...]) -> Stream:
        return (_scenario_stream(point) if plan.stream is None else plan.stream).restrict(group)

    if len(plan.points) == 1:
        stream = stream_of(plan.points[0], plan.groups[0])
        return stream.blocks, stream.desired
    given, first = plan.stream, plan.points[0]
    rounds, n = (first.num_blocks, first.n_block) if given is None else (given.num_blocks, given.n)
    bounds = np.cumsum([0, *map(len, plan.groups)]).tolist()
    blocks, desired = np.empty((bounds[-1], rounds, n)), np.empty((bounds[-1], rounds))
    for p, (point, group) in enumerate(zip(plan.points, plan.groups)):
        stream = stream_of(point, group)
        blocks[bounds[p] : bounds[p + 1]] = stream.blocks
        desired[bounds[p] : bounds[p + 1]] = stream.desired
        del stream  # before the next point's is made
    return blocks, desired


_PHASE_NAMES = np.array([p.value for p in stdp.PHASES], dtype=np.bytes_)
_KIND_NAMES = np.array(
    [
        ";".join(k.value for k in stdp.kinds_of(mask))
        for mask in range(sum(stdp.KIND_BITS.values()) + 1)
    ],
    dtype=np.bytes_,
)
_DATA = stdp.KIND_BITS[stdp.MessageKind.DATA_BLOCK]
# The transmitted column prints the DATA_BLOCK bit of a kind mask.
_SENT_NAMES = np.array([b"1" if mask & _DATA else b"0" for mask in range(len(_KIND_NAMES))])


def run_stdp(
    plan: RunPlan,
    state: stdp.ProtocolState | None = None,
    point: int = 0,
    updates: tuple | None = None,
) -> RunReport:
    """Protocol run reporting per-node transmission percentages and traces
    of the plan's point ``point``; ``state`` is the plan's engine run, and
    ``updates`` its ``trace.client_updates()``, when the caller holds them
    already (see ``sweep`` and ``run_detect``).  It is the one builder of a
    protocol point's files and metadata.  ``message_trace.csv`` and
    ``weights.csv`` are grids that read the trace and the update log where
    they lie: only their absent masks are made cell by cell."""
    if state is None:
        state = simulate_protocol(plan)
    if updates is None:
        updates = state.trace.client_updates()
    scenario = plan.points[point]
    rows = state.rows(point)
    trace = state.trace
    ids = np.array(state.node_ids[rows])
    # The trace's columns are read in place, as (rounds, nodes) grids.
    phase, kinds = trace.phase[:, rows], trace.kinds[:, rows]
    grid = phase.shape
    pct, total = stdp.transmission_percentages(state, point)
    files = {
        "stdp_transmission.csv": Table(
            ("beta", "node_id", "pct"),
            (np.full(len(ids), scenario.thresholds.beta), ids, pct),
        ),
        "message_trace.csv": Table(
            ("round", "node_id", "phase", "kind", "error_glob", "error_new", "transmitted"),
            (
                np.broadcast_to(np.arange(grid[0])[:, None], grid),
                np.broadcast_to(ids, grid),
                phase,
                kinds,
                trace.error_glob[:, rows],
                trace.error_new[:, rows],
                kinds,
            ),
            absent={4: (kinds & _DATA) == 0, 5: phase < stdp.CLIENT_ADAPTIVE},
            labels={2: _PHASE_NAMES, 3: _KIND_NAMES, 6: _SENT_NAMES},
        ),
    }
    # The log is grouped by ascending row, so the point's rows are one run
    # of it: a (k, n) grid of weights, a CSV row per tap.
    update_rounds, updated, weights = updates
    first, stop = np.searchsorted(updated, (rows.start, rows.stop))
    if first < stop:
        weights = weights[first:stop]
        grid = weights.shape
        files["weights.csv"] = Table(
            ("round", "node_id", "tap_index", "value"),
            (
                np.broadcast_to(update_rounds[first:stop, None], grid),
                np.broadcast_to(ids[updated[first:stop] - rows.start, None], grid),
                np.broadcast_to(np.arange(grid[1]), grid),
                weights,
            ),
        )
    metadata = _base_metadata("STDP", scenario)
    metadata.update(
        {
            "active_nodes": list(state.node_ids[rows]),
            "total_percentage": total,
            "mu": float(state.mu[point]),
        }
    )
    return RunReport(files=files, metadata=metadata)


def run_detect(plan: RunPlan) -> RunReport:
    """Weight-variance classification of a detect plan's protocol run: the
    ``run_stdp`` report of that same run, extended by ``detection.csv`` and
    the ``kappa``, ``threshold`` and ``flagged`` of its metadata, whose
    ``kind`` is DETECT."""
    if plan.experiment != "detect":
        raise InvalidParameter(
            "experiment", f"run_detect needs a detect plan, got a {plan.experiment} plan"
        )
    state = simulate_protocol(plan)
    updates = state.trace.client_updates()
    # client_updates groups the log by row: one (k, n) block per node.
    _, rows, weights = updates
    updated, starts = np.unique(rows, return_index=True)
    blocks = np.split(weights, starts[1:])
    snapshots = {state.node_ids[k]: block for k, block in zip(updated.tolist(), blocks)}
    if len(snapshots) < 2:
        never = [i for i in state.node_ids if i not in snapshots]
        raise InsufficientHistory(
            f"detect needs at least 2 nodes with weight snapshots to classify, got "
            f"{list(snapshots)}; nodes {never} never adapted a client filter"
        )
    histories = malicious.histories_from_snapshots(snapshots)
    variances = {i: malicious.weight_variance(h) for i, h in sorted(histories.items())}
    report = malicious.classify(variances)
    protocol = run_stdp(plan, state, 0, updates)
    detected = sorted(variances)
    detection = Table(
        ("node_id", "variance", "threshold", "label"),
        (
            np.array(detected),
            np.array([variances[i] for i in detected]),
            np.full(len(detected), report.threshold),
            np.array([report.labels[i].value for i in detected], dtype=np.bytes_),
        ),
    )
    flagged = sorted(i for i, lab in report.labels.items() if lab is malicious.Label.MALICIOUS)
    metadata = {
        **protocol.metadata,
        "kind": "DETECT",
        "kappa": report.kappa,
        "threshold": report.threshold,
        "flagged": flagged,
    }
    return RunReport(files={**protocol.files, "detection.csv": detection}, metadata=metadata)


# Every CSV file name a report can hold.
OUTPUT_FILES = frozenset(
    {
        "ada_iterations.csv",
        "ada_nodes.csv",
        "stdp_transmission.csv",
        "message_trace.csv",
        "weights.csv",
        "detection.csv",
        "sweep_transmission.csv",
        "sweep_totals.csv",
    }
)


def scenario_for_point(scenario: Scenario, axis: str, value) -> Scenario:
    """The single-run scenario corresponding to one sweep point; a value
    that is not an integer on an integral axis raises InvalidParameter."""
    if axis == "beta":
        return replace(scenario, thresholds=Thresholds(scenario.thresholds.alpha, float(value)))
    integral = float(value).is_integer()
    if axis == "n_block":
        if not integral:
            raise InvalidParameter("n_block", f"must be an integer, got {value}")
        return replace(scenario, n_block=int(value))
    if axis == "node_count":
        if not integral:
            raise InvalidParameter("select_count", f"must be an integer, got {value}")
        return replace(scenario, select_first=True, select_count=int(value))
    raise InvalidParameter("sweep", f"axis {axis!r} is not one of {list(SWEEP_AXES)!r}")


def sweep(plan: RunPlan) -> RunReport:
    """One protocol run per point of a sweep plan, merged into a single report.

    Every point reuses the scenario's base seed, so points differ only in
    the swept parameter and each point can be reproduced by running the
    corresponding single scenario directly.  ``beta`` and ``node_count``
    points run as the points of one engine; ``n_block`` points differ in
    their block length and run one after another.  Each point's rows, total
    and ``config_sha1`` are those of its own ``run_stdp`` report.  A point
    that diverges raises ``Diverged`` naming it, e.g. ``at beta=0.4``: of
    one engine's points, the lowest (in ``values`` order) of those whose
    runs alone stop in the earliest round, with its own message; of
    ``n_block`` points, the first to diverge.
    """
    scenario, axis, values, points = plan.scenario, plan.axis, list(plan.values), plan.points
    batches = [plan]
    if axis == "n_block":
        batches = [replace(plan, points=(p,), groups=(g,)) for p, g in zip(points, plan.groups)]

    ids, pct, own = [], [], []
    for batch in batches:
        try:
            state = simulate_protocol(batch)
        except Diverged as exc:
            point = len(own) + exc.point
            raise Diverged(f"{exc} at {axis}={values[point]}", point) from None
        updates = state.trace.client_updates()
        for k in range(len(batch.points)):
            report = run_stdp(batch, state=state, point=k, updates=updates)
            _, node_ids, percentages = report.files["stdp_transmission.csv"].columns
            ids.append(node_ids)
            pct.append(percentages)
            own.append(report.metadata)
    totals = [meta["total_percentage"] for meta in own]

    name = "stdp_transmission.csv" if axis == "beta" else "sweep_transmission.csv"
    files = {
        name: Table(
            (axis, "node_id", "pct"),
            (
                np.repeat(np.array(values), [len(i) for i in ids]),
                np.concatenate(ids),
                np.concatenate(pct),
            ),
        ),
        "sweep_totals.csv": Table((axis, "total_pct"), (np.array(values), np.array(totals))),
    }
    metadata = _base_metadata("SWEEP", scenario)
    metadata.update(
        {
            "axis": axis,
            "values": values,
            "points": [
                {
                    "value": value,
                    "config_sha1": meta["config_sha1"],
                    "seed": point.seed,
                    "total_percentage": meta["total_percentage"],
                }
                for value, point, meta in zip(values, points, own)
            ],
        }
    )
    return RunReport(files=files, metadata=metadata)


# A CSV file's data rows are built as bytes, one chunk of whole grid rows
# (about CHUNK_ROWS cells) at a time, each chunk only when the writer asks
# for it.  A column's cells in a chunk are raveled from where the column
# lies, a view of the trace or the log or a broadcast grid, so a chunk's
# copies are one chunk's working set and no table copies its columns.
# A chunk is one uint8 matrix, a row per CSV row: each column owns a run
# of byte slots in it and a separator slot after them, and the matrix
# starts NUL but for the separators.  A column encodes only its present
# cells, as a matrix of their slots in which a slot the cell does not use
# holds NUL, and copies them into its run of each present row, after
# which they are dropped; an absent cell keeps its NULs.  Deleting every
# NUL from the matrix's bytes leaves the chunk's CSV text, and the matrix
# is dropped before that.  A cell's slots are gathered whole from small
# tables: an integer in [0, 10**4) from the digit strings of its column's
# width, a name from its label's bytes, a float's layout from its sign and
# exponent, and its digits from a table of four-digit groups.  Any other
# integer takes numpy's cast to bytes, which prints the digits of ``str``:
# no output has one, so the exact path is also the simplest.  Writing one
# slot column of a row-major matrix at a time costs a pass over the matrix
# per slot.  A chunk of 8192 cells keeps its working arrays in cache: it
# encodes no slower than larger chunks and holds less while its file is
# written.
CHUNK_ROWS = 8192


def _digit_groups() -> np.ndarray:
    """The ASCII digits "0000" .. "9999" as little-endian uint32 words."""
    k = np.arange(10_000)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    return (digits + ord("0")).astype(np.uint8).view("<u4").ravel()


_GROUP_WORDS = _digit_groups()
_GROUPS = _GROUP_WORDS.view("S4")
# Each group's count of trailing zeros ("0000" has four).
_GROUP_TRAILING = 4 - np.strings.str_len(np.strings.rstrip(_GROUPS, b"0"))
# For each width w = 1 .. 4, 0 .. 10**w - 1 in w slots, NUL after the digits.
_DIGITS = np.strings.lstrip(_GROUPS, b"0")
_DIGITS[0] = b"0"
_SMALL_INTS = [_DIGITS[: 10**w].astype(f"S{w}") for w in range(1, 5)]
# Every power of ten up to 10**22 is an exact double, so scaling by one
# rounds only once.
_POW10 = np.array([float(10**k) for k in range(23)])
# Decimal exponents of a float cell on the exact path, a carry included.
_E_MIN, _E_MAX = -14, 31
# The byte slots of a float cell: its sign, the "0.000" that leads a
# fixed-notation value below 1, nine mantissa digits (the first at _LEAD,
# the others at the odd slots of _REST) with a point slot before each of
# the last eight, and the exponent "e+00".
_FLOAT_SLOTS = np.frombuffer(b"-0.000" + b"0" + b".0" * 8 + b"e+00", np.uint8)
_LEAD, _REST = 6, slice(7, 23)


def _float_layouts() -> np.ndarray:
    """A float cell's slot bytes by (sign, exponent, significant digits),
    NUL in the digit slots: the ``.9g`` rules, fixed notation for exponents
    -4 .. 8 and scientific otherwise, trailing zeros of the mantissa
    dropped."""
    neg, e, used = (
        g.ravel()[:, None]
        for g in np.meshgrid(
            [False, True], np.arange(_E_MIN, _E_MAX + 1), np.arange(1, 10), indexing="ij"
        )
    )
    fixed = (e >= -4) & (e < 9)
    j = np.arange(8)
    keep = np.zeros((neg.size, len(_FLOAT_SLOTS)), bool)
    keep[:, :1] = neg
    keep[:, 1:3] = fixed & (e < 0)
    keep[:, 3:6] = fixed & (e <= -2 - j[:3])  # the zeros of 0.0ddd .. 0.000ddd
    keep[:, 7:22:2] = (j == np.where(fixed, e, 0)) & (j + 1 < used)
    keep[:, 23:] = ~fixed
    slots = np.tile(_FLOAT_SLOTS, (neg.size, 1))
    slots[:, 24:25] = np.where(e < 0, ord("-"), ord("+"))
    slots[:, 25:26] = np.abs(e) // 10 + ord("0")
    slots[:, 26:27] = np.abs(e) % 10 + ord("0")
    return np.where(keep, slots, 0)


_FLOAT_BYTES = _float_layouts()
# _REST read as two little-endian words of four point-and-digit pairs: a
# four-digit group with its digits at the odd bytes (the point comes from
# the layout), and by count of digits shown after the leading one, the
# masks of the two words that keep just those digits.
_GROUP_PAIRS = np.zeros((10_000, 8), np.uint8)
_GROUP_PAIRS[:, 1::2] = _GROUP_WORDS.view(np.uint8).reshape(-1, 4)
_GROUP_PAIRS = _GROUP_PAIRS.view("<u8").ravel()
_SHOWN_PAIRS = np.array(
    [[(1 << 16 * min(max(k - h, 0), 4)) - 1 for h in (0, 4)] for k in range(9)], np.uint64
)


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``a * 10**(8 - e)`` with one rounding where |8 - e| <= 22."""
    k = 8 - e
    p = _POW10[np.minimum(np.abs(k), 22)]
    with np.errstate(over="ignore"):
        return np.where(k >= 0, a * p, a / p)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """Finite floats as the bytes of ``format(v, ".9g")``."""
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        e = np.clip(np.floor(np.log10(a)), _E_MIN - 1, _E_MAX).astype(np.int64)
    s = _scaled(a, e)
    # s is within 1.2e-7 of the exact scaled value, so rint(s) is the
    # correctly rounded 9-digit mantissa unless s lies near a tie.  Zero,
    # subnormals, exponents outside the exact range and the rare value
    # whose log10 rounds across a power of ten fall back.
    fallback = (
        (e < _E_MIN) | (e >= _E_MAX) | (s < 1e8) | (s >= 1e9)
        | (np.abs(s - np.floor(s) - 0.5) < 1e-6)
    )
    # Digits come from float arithmetic, exact on integers below 2**53.
    m = np.where(fallback, 1e8, np.rint(s))
    carry = m == 1e9
    m[carry] = 1e8
    e += carry
    np.clip(e, _E_MIN, _E_MAX, out=e)
    high = np.floor(m / 1e4)
    low = (m - high * 1e4).astype(np.intp)
    lead = np.floor(high / 1e4)
    mid = (high - lead * 1e4).astype(np.intp)
    used = 9 - _GROUP_TRAILING[low] - (low == 0) * _GROUP_TRAILING[mid]
    # Fixed notation keeps the zeros before its point.
    shown = np.where((e >= 0) & (e < 9), np.maximum(used, e + 1), used)
    layout = (np.signbit(x) * (_E_MAX - _E_MIN + 1) + e - _E_MIN) * 9 + used - 1
    cells = _FLOAT_BYTES.take(layout, axis=0)
    cells[:, _LEAD] = lead + ord("0")
    rest = cells[:, _REST].view("<u8")
    keep = _SHOWN_PAIRS.take(shown - 1, axis=0)
    rest[:, 0] |= _GROUP_PAIRS[mid] & keep[:, 0]
    rest[:, 1] |= _GROUP_PAIRS[low] & keep[:, 1]

    rows = np.flatnonzero(fallback)
    if rows.size:
        text = np.array([format(v, ".9g") for v in x[rows].tolist()], dtype=f"S{len(_FLOAT_SLOTS)}")
        cells[rows] = text.view(np.uint8).reshape(rows.size, -1)
    return cells


def _int_cells(v: np.ndarray) -> np.ndarray:
    """Integers as their decimal digits, a minus sign first if negative:
    those in [0, 10**4) from the digit table, the rest by numpy's exact
    cast to bytes."""
    low, high = int(v.min()), int(v.max())
    if low >= 0 and high < 10_000:
        width = len(str(high))
        return _SMALL_INTS[width - 1].take(v).view(np.uint8).reshape(len(v), width)
    return _text_cells(v.astype(np.bytes_))


def _text_cells(v: np.ndarray) -> np.ndarray:
    """Fixed-width byte strings, NUL-padded as numpy stores them."""
    return np.ascontiguousarray(v).view(np.uint8).reshape(len(v), v.dtype.itemsize)


def _label_cells(codes: np.ndarray, names: np.ndarray) -> np.ndarray:
    """Coded cells as their names' bytes, gathered from one slot row per
    name, the slots cut to the longest name the codes use."""
    used = np.zeros(len(names), dtype=bool)
    used[codes] = True
    width = max(1, int(np.char.str_len(names[used]).max(initial=0)))
    return _text_cells(names.astype(f"S{width}")).take(codes, axis=0)


def _cells(values: np.ndarray, names: np.ndarray | None) -> np.ndarray:
    """A column's cells as a C-contiguous ``(len(values), slots)`` uint8
    matrix; no values, no slots."""
    if not values.size:
        return np.zeros((0, 0), np.uint8)
    if names is not None:
        return _label_cells(values, names)
    kind = values.dtype.kind
    encode = _float_cells if kind == "f" else _text_cells if kind == "S" else _int_cells
    return encode(values)


def _column_cells(table: Table, c: int, groups: slice) -> tuple[np.ndarray, np.ndarray | None]:
    """Column ``c``'s present cells in a run of grid rows, and the indices
    of the rows that hold them (None: every row)."""
    values, present = table.columns[c][groups].ravel(), None
    if c in table.absent:
        present = np.flatnonzero(~table.absent[c][groups].ravel())
        values = values[present]
    return _cells(values, table.labels.get(c)), present


def _place(matrix: np.ndarray, cells: np.ndarray, present: np.ndarray | None, end: int) -> None:
    """Copy a column's cells into their run of slots, which ends at the
    separator in slot ``end - 1`` of each of the ``present`` rows."""
    slots = cells.shape[1]
    if slots:
        # Each row's run of this column's slots, as one item.
        run = np.ndarray(len(matrix), f"V{slots}", matrix, end - 1 - slots, (matrix.shape[1],))
        run[slice(None) if present is None else present] = cells.view(f"V{slots}").ravel()


def _chunk_bytes(table: Table, groups: slice) -> bytes:
    """CSV bytes of a run of the table's grid rows (rows of a 1-D table)."""
    columns = [_column_cells(table, c, groups) for c in range(len(table.columns))]
    # One row of separators, NUL elsewhere, repeated for every row.
    ends = np.cumsum([cells.shape[1] + 1 for cells, _ in columns])
    blank = np.zeros(ends[-1], np.uint8)
    blank[ends - 1] = ord(",")
    blank[-1] = ord("\n")
    matrix = np.tile(blank, (math.prod(table.columns[0][groups].shape), 1))
    for end in ends.tolist():
        _place(matrix, *columns.pop(0), end)  # a column's cells die once placed
    text = matrix.tobytes()
    del matrix  # before the NULs are deleted
    return text.translate(None, b"\0")


def report_files(report: RunReport) -> dict[str, tuple[tuple[str, ...], Table]]:
    """Map a report to its CSV files: name -> (header, table).

    No row is encoded here: each table encodes its rows as it is iterated.
    A float cell is exactly ``format(v, ".9g")``, an integer its plain
    digits, a string its bytes, and an absent cell is empty, so repeated
    runs are byte-comparable.
    """
    return {name: (table.header, table) for name, table in report.files.items()}

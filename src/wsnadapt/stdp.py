"""Dual-prediction protocol: one global LMS filter at the sink, one local
LMS filter per client, and threshold-driven switching between them.

Per-node life cycle (one protocol round = one sensed block per node):

    RAW_TRANSMIT      block goes to the sink, both filters idle (start,
                      and re-entry after a failed prediction)
    SINK_ADAPTIVE     block goes to the sink, sink filter active; when the
                      sink's prediction error for the node drops to the
                      alpha threshold it ships its global weight down
    CLIENT_ADAPTIVE   node runs its own filter seeded from the received
                      global weight; while its error exceeds beta it keeps
                      transmitting, once at or below beta it answers with
                      its own weight and falls silent
    CLIENT_PREDICTING no blocks on the wire; the node keeps monitoring its
                      frozen filter and re-enters RAW_TRANSMIT when the
                      error climbs back above beta

A round's data blocks reach the sink within the round, and its weight
messages take effect at its end: a node handed off in round r starts round
r + 1 adapting from the global weight it was sent, and one silenced in
round r starts round r + 1 predicting.

The array round.  The engine runs one or more *points*, independent
protocol runs over the same rounds (a sweep's points, or one scenario),
side by side.  Its rows are (point, node) pairs: point p's nodes are
consecutive rows, ids ascending, and ``point[k]`` names row k's point.
Inside the engine a row is the only address: the trace names rows, and
node ids appear only in error messages.
``phase[k]`` is the row's phase code (an index into ``PHASES``; which
filter is active is a function of the phase alone), ``client_weight[k]``
its client filter Wc and ``received_global[k]`` the global weight Wr that
seeded it; each point has its own sink, with its own global weight and
auto step size.

A run is one ``ProtocolState``, set up once and then stepped round by
round.  ``new_protocol_state`` takes the run's inputs and checks them: the
``(rows, rounds, n)`` sensed blocks, the desired values and client noise
draws, what the sinks receive of each block, and the alpha and beta of
every row.  It allocates the run's ``Trace``, the only record of the run:
sent-block counts are read off its ``transmitted`` column and each round's
messages off its ``kinds``.  Round
r, ``step_round(state)``, takes the ``(rows, n)`` matrix U of the round's
blocks and the desired vector d, works on masks over the phase codes,
writes its columns into trace row r in place and appends its
client-filter updates to the trace's log; it copies no per-round state:

1. client side, rows in a client phase: d' = U.Wr + noise; adapting rows
   step Wc += mu U (d' - U.Wc); the error e' = d' - U.Wc is held against
   beta (adapting rows fall silent at or below it, predicting rows
   restart above it).  This arithmetic is row-wise, so it runs over every
   row and keeps the client rows' results;
2. wire: the transmitting rows' blocks, as the sinks receive them;
3. sink side, per point: one global sweep w += mu sum_i u_i (d_i - u_i.w)
   over the point's received rows, then their errors d - U w are held
   against alpha;
4. transitions: a sink-side row at or below alpha is handed off, entering
   CLIENT_ADAPTIVE with Wc = Wr = its point's new global weight.

Row dot products use ``np.vecdot``, which sums each row in the order of a
1-D ``u @ w``, and the sweep adds its terms row by row in ascending id
order, so the array round reproduces the per-node arithmetic bit for bit.
Row-wise operations give every point the bits it would get alone.  The
sink side does not batch across points: the bits of a 2-D ``U @ w`` and of
the sweep's column sums depend on how many rows they are given, so each
point's step-size estimate, sweep and errors run over exactly its own
received rows, one point after another.  A full run is a deterministic
function of (inputs, thresholds), and each point of a batch equals its run
alone.  The first non-finite error stops the run with ``Diverged``;
overflow on the way there is expected, so rounds run inside
``errstate()``, entered once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, Diverged, InvalidParameter, NonFinite, UnknownNode
from .numerics import max_eigenvalue

SINK_ID = 0


class Phase(str, Enum):
    RAW_TRANSMIT = "RAW_TRANSMIT"
    SINK_ADAPTIVE = "SINK_ADAPTIVE"
    CLIENT_ADAPTIVE = "CLIENT_ADAPTIVE"
    CLIENT_PREDICTING = "CLIENT_PREDICTING"


# Phase codes, as stored in the engine's phase arrays: PHASES[code] is the phase.
PHASES = tuple(Phase)
RAW_TRANSMIT, SINK_ADAPTIVE, CLIENT_ADAPTIVE, CLIENT_PREDICTING = range(len(PHASES))


class MessageKind(str, Enum):
    QUERY = "QUERY"
    DATA_BLOCK = "DATA_BLOCK"
    GLOBAL_WEIGHT = "GLOBAL_WEIGHT"
    NODE_WEIGHT = "NODE_WEIGHT"


# Bits of a node's per-round message-kind mask, in the order a round sends
# them (a node's kinds are always listed in this order).
KIND_BITS = {
    MessageKind.QUERY: 1,
    MessageKind.NODE_WEIGHT: 2,
    MessageKind.DATA_BLOCK: 4,
    MessageKind.GLOBAL_WEIGHT: 8,
}


_QUERY = KIND_BITS[MessageKind.QUERY]
_NODE_WEIGHT = KIND_BITS[MessageKind.NODE_WEIGHT]
_DATA_BLOCK = np.uint8(KIND_BITS[MessageKind.DATA_BLOCK])
# A handed-off row sends its data block and is sent the global weight.
_HANDED = KIND_BITS[MessageKind.DATA_BLOCK] | KIND_BITS[MessageKind.GLOBAL_WEIGHT]


def kinds_of(mask: int) -> tuple[MessageKind, ...]:
    """The message kinds set in a kind mask, in sending order."""
    return tuple(kind for kind, bit in KIND_BITS.items() if mask & bit)


@dataclass(frozen=True)
class Thresholds:
    """User-defined error thresholds: alpha at the sink, beta at the client."""

    alpha: float = 0.5
    beta: float = 0.05

    def __post_init__(self):
        if not self.alpha > 0:
            raise InvalidParameter("thresholds/alpha", f"must be > 0, got {self.alpha}")
        # beta == 0 silences a client only at an error of exactly 0.0: with
        # client noise every block is sent, without it a handed-off client
        # matches the global weight it was sent and falls silent at once.
        if not self.beta >= 0:
            raise InvalidParameter("thresholds/beta", f"must be >= 0, got {self.beta}")


@dataclass(frozen=True, eq=False)
class Trace:
    """A whole run as preallocated ``(rounds, m)`` columns, row r written by
    round r in place, plus the log of client-filter updates.  It is the
    run's only record: a row's sent blocks are the count of its
    ``transmitted`` cells.

    ``phase`` holds each round's start-of-round phase codes and ``kinds``
    the ``KIND_BITS`` mask of each node's messages.  ``error_glob`` (the
    sink's error) has a value where ``transmitted``, ``error_new`` (the
    client's) where the node started in a client phase; every other cell
    is 0.0.  ``updates`` is append-only: one ``(round, rows, weights)``
    entry for each round in which CLIENT_ADAPTIVE rows stepped their
    filters, ``weights[j]`` being row ``rows[j]``'s filter after the step.
    """

    phase: np.ndarray
    kinds: np.ndarray
    transmitted: np.ndarray
    error_glob: np.ndarray
    error_new: np.ndarray
    updates: list[tuple[int, np.ndarray, np.ndarray]] = field(default_factory=list)

    @classmethod
    def empty(cls, rounds: int, m: int) -> "Trace":
        shape = (rounds, m)
        return cls(
            phase=np.zeros(shape, dtype=np.uint8),
            kinds=np.zeros(shape, dtype=np.uint8),
            transmitted=np.zeros(shape, dtype=bool),
            error_glob=np.zeros(shape),
            error_new=np.zeros(shape),
        )

    def client_updates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The logged updates of every row as (round, row, weight) columns,
        grouped by ascending row and in time order within each row."""
        if not self.updates:
            return np.zeros(0, np.int64), np.zeros(0, np.intp), np.zeros((0, 0))
        rounds, updated, weights = zip(*self.updates)
        rounds = np.repeat(rounds, [k.size for k in updated])
        updated = np.concatenate(updated)
        # The log runs by round; a stable sort by row keeps each row's
        # updates in time order.
        order = np.argsort(updated, kind="stable")
        return rounds[order], updated[order], np.concatenate(weights)[order]


@dataclass
class ProtocolState:
    """One protocol run: its inputs, its engine state and its trace.  Row k
    is node ``node_ids[k]`` of point ``point[k]``, rows ordered by point and
    then by ascending id.

    Inputs, checked when the state is made: row k of ``blocks``
    ``(rows, rounds, n)`` and ``noise`` ``(rows, rounds)`` is what row k
    senses and draws, and ``alpha[k]`` and ``beta[k]`` are the thresholds
    of its point.  ``sink_blocks`` (shaped as ``blocks``) and
    ``sink_desired`` ``(rows, rounds)`` are what the sinks receive of each
    block a row sends and of its desired value (without a channel, the
    sensed arrays themselves).
    ``auto_mu`` says whether the step sizes follow the automatic rule.

    Engine state: ``client_weight`` and ``received_global`` rows are
    meaningful only while the row is in a client phase; the round that
    hands a row off sets both to its point's global weight.  Point p's
    rows are ``bounds[p]:bounds[p + 1]``; ``global_weight[p]`` is its sink
    filter and ``mu[p]`` the step size of its sink and client filters.  An
    explicit step size is set once; with ``auto_mu`` it is NaN until first
    estimated and refreshed by every round in which one of the point's
    rows is raw.  ``trace`` is the run's trace, whose row r round r writes;
    ``round_index`` rounds have run.
    """

    node_ids: tuple[int, ...]
    point: np.ndarray
    bounds: tuple[int, ...]
    blocks: np.ndarray
    noise: np.ndarray
    sink_blocks: np.ndarray
    sink_desired: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    auto_mu: bool
    global_weight: np.ndarray
    mu: np.ndarray
    phase: np.ndarray
    client_weight: np.ndarray
    received_global: np.ndarray
    trace: Trace
    round_index: int = 0

    def rows(self, point: int) -> slice:
        """The engine rows of one point."""
        return slice(*self.bounds[point:point + 2])


def _sent(state: ProtocolState) -> np.ndarray:
    """Blocks each row transmitted in the rounds run so far."""
    return state.trace.transmitted[: state.round_index].sum(axis=0)


def transmission_percentage(state: ProtocolState) -> np.ndarray:
    """Percentage of sensed blocks each row actually transmitted."""
    if state.round_index == 0 or not state.node_ids:
        raise ValueError(
            f"no transmission percentage: {state.round_index} rounds over "
            f"{len(state.node_ids)} nodes"
        )
    return 100.0 * _sent(state) / state.round_index


def total_percentages(state: ProtocolState) -> list[float]:
    """Percentage of all its sensed blocks each point transmitted."""
    sent = _sent(state)
    bounds = state.bounds
    return [
        100.0 * int(sent[a:b].sum()) / (state.round_index * (b - a))
        for a, b in zip(bounds, bounds[1:])
    ]


class TraceRow(NamedTuple):
    """One node's view of one round, read off the round's columns."""

    round_index: int
    node_id: int
    phase: Phase
    kinds: tuple[MessageKind, ...]
    error_glob: float | None
    error_new: float | None
    transmitted: bool


class RoundResult(NamedTuple):
    """One round of a run, as ``step_round`` returns it: a view of trace row
    ``round_index``.

    The engine keeps nothing here that the trace does not hold; the view
    stays because the benchmark's traced runs count every round's phases
    and messages from its ``rows``.
    """

    trace: Trace
    round_index: int
    node_ids: tuple[int, ...]

    @property
    def rows(self) -> tuple[TraceRow, ...]:
        """The round node by node, built on request from the trace row."""
        r, trace = self.round_index, self.trace
        phase = trace.phase[r].tolist()
        kinds = trace.kinds[r].tolist()
        transmitted = trace.transmitted[r].tolist()
        error_glob = trace.error_glob[r].tolist()
        error_new = trace.error_new[r].tolist()
        return tuple(
            TraceRow(
                r,
                node_id,
                PHASES[phase[k]],
                kinds_of(kinds[k]),
                error_glob[k] if transmitted[k] else None,
                error_new[k] if phase[k] >= CLIENT_ADAPTIVE else None,
                transmitted[k],
            )
            for k, node_id in enumerate(self.node_ids)
        )


def initial_weight(n: int) -> np.ndarray:
    """Unit-norm all-ones start vector (every tap 1/sqrt(n))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.full(n, 1.0 / np.sqrt(n))


def errstate() -> np.errstate:
    """The floating-point error state rounds run in: a diverging filter
    overflows on its way to the non-finite error that ``step_round``
    reports as ``Diverged``."""
    return np.errstate(over="ignore", invalid="ignore")


# The arithmetic kernels of a round.  They check nothing: the engine checks
# its inputs once per run, in ``new_protocol_state``.


def _sweep(w: np.ndarray, u: np.ndarray, d: np.ndarray, mu) -> np.ndarray:
    """w + mu * sum_i u_i (d_i - u_i.w), the terms added in row order."""
    residual = d - np.vecdot(u, w)
    return w + mu * np.add.reduce(u * residual[:, None], axis=0, initial=0.0)


def _desired(u: np.ndarray, w: np.ndarray, noise) -> np.ndarray:
    """u.w + noise, row by row."""
    return np.vecdot(u, w) + noise


def _client_step(w: np.ndarray, u: np.ndarray, d_new, mu) -> np.ndarray:
    """w + (mu u) (d_new - u.w), row by row; ``mu`` is a scalar or a
    column of one step size per row."""
    return w + (mu * u) * (d_new - np.vecdot(u, w))[..., None]


def new_protocol_state(
    node_ids: Sequence[int],
    blocks: np.ndarray,
    desired: np.ndarray,
    thresholds: Thresholds | Sequence[Thresholds],
    sizes: Sequence[int] | None = None,
    mu: float | None = None,
    client_noise: np.ndarray | None = None,
    received: tuple[np.ndarray, np.ndarray] | None = None,
) -> ProtocolState:
    """A fresh run over the given inputs, checked against its rows.

    ``sizes[p]`` consecutive entries of ``node_ids`` are point p's nodes
    (default: one point holding them all) and its rows, in the given
    order; ids must strictly ascend within a point.  Row k of ``blocks``
    ``(rows, rounds, n)``, ``desired`` and ``client_noise`` ``(rows,
    rounds)`` (default zeros) is what row k's node senses and draws in
    each round; the run has ``rounds`` rounds of ``n``-sample blocks.  A
    ``Stream`` over the same nodes holds its rows in that (ascending id)
    order, so for one point ``stream.blocks`` and ``stream.desired`` fit.  ``thresholds`` is one
    ``Thresholds`` for every point or one per point.  ``mu`` is every
    point's step size; without it the state's ``auto_mu`` is set and each
    point follows the automatic rule, 0.5 / (M * lambda_max) of the point's
    empirical block covariance, refreshed whenever one of its nodes is in a
    raw round.  ``received``, a ``(blocks, desired)`` pair shaped as
    those inputs, is what the sinks receive of each block a row sends
    (default: the sensed arrays themselves, not copied); a round reads it
    for its transmitting rows only.
    """
    ids = tuple(int(i) for i in node_ids)
    sizes = [len(ids)] if sizes is None else [int(size) for size in sizes]
    if not sizes or sum(sizes) != len(ids) or min(sizes) < 0:
        raise DimensionMismatch(f"point sizes {sizes} do not split {len(ids)} node ids")
    bounds = tuple(np.cumsum([0, *sizes]).tolist())
    for p in range(len(sizes)):
        group = ids[bounds[p] : bounds[p + 1]]
        if any(a >= b for a, b in zip(group, group[1:])):
            raise DimensionMismatch(f"point {p}: node ids {list(group)} do not strictly ascend")
    if SINK_ID in ids:
        raise UnknownNode("node ids must be non-zero (0 is the sink)")
    m, points = len(ids), len(sizes)
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim != 3 or len(blocks) != m:
        raise DimensionMismatch(f"{m} nodes need ({m}, rounds, n) blocks, got {blocks.shape}")
    _, rounds, n = blocks.shape
    desired = np.asarray(desired, dtype=float)
    noise = (
        np.zeros((m, rounds)) if client_noise is None else np.asarray(client_noise, dtype=float)
    )
    if desired.shape != (m, rounds) or noise.shape != (m, rounds):
        raise DimensionMismatch(
            f"{rounds} rounds of {m} nodes need ({m}, {rounds}) desired values and noise "
            f"draws, got {desired.shape} and {noise.shape}"
        )
    sink_blocks, sink_desired = (
        (blocks, desired) if received is None else (np.asarray(a, dtype=float) for a in received)
    )
    if sink_blocks.shape != blocks.shape or sink_desired.shape != desired.shape:
        raise DimensionMismatch(
            f"the sinks receive {sink_blocks.shape} blocks and {sink_desired.shape} desired "
            f"values of the sensed {blocks.shape} and {desired.shape}"
        )
    if isinstance(thresholds, Thresholds):
        thresholds = [thresholds] * points
    if len(thresholds) != points:
        raise DimensionMismatch(f"{len(thresholds)} thresholds for {points} points")
    point = np.repeat(np.arange(points), sizes)
    alpha, beta = np.array([(t.alpha, t.beta) for t in thresholds]).T[:, point]
    return ProtocolState(
        node_ids=ids,
        point=point,
        bounds=bounds,
        blocks=blocks,
        noise=noise,
        sink_blocks=sink_blocks,
        sink_desired=sink_desired,
        alpha=alpha,
        beta=beta,
        auto_mu=mu is None,
        global_weight=np.tile(initial_weight(n), (points, 1)),
        mu=np.full(points, np.nan if mu is None else float(mu)),
        phase=np.full(m, RAW_TRANSMIT, dtype=np.uint8),
        client_weight=np.zeros((m, n)),
        received_global=np.zeros((m, n)),
        trace=Trace.empty(rounds, m),
    )


def _diverged(state: ProtocolState, row: int, side: str) -> Diverged:
    return Diverged(
        f"diverged in round {state.round_index}: non-finite {side} error "
        f"for node {state.node_ids[row]}",
        point=int(state.point[row]),
    )


def step_round(state: ProtocolState) -> RoundResult:
    """Advance every point by one synchronous round, round
    ``state.round_index`` of its inputs, and write it into that row of
    ``state.trace``; returns the round's view.

    Which blocks reach the sink, and which weight messages are exchanged,
    follows the phase table in the module docstring.  Run it inside
    ``errstate()``.

    Raises ``Diverged`` at the first round with a non-finite error, naming
    the round, the node and (as ``point``) the lowest point that has one.
    Within a point, client errors are checked before sink errors.  A
    point's step-size estimate over a non-finite block covariance raises
    ``Diverged`` at once, naming the round and (as ``point``) that point.
    """
    r = state.round_index
    trace = state.trace
    phase = trace.phase[r]
    phase[:] = state.phase
    samples = state.blocks[:, r]

    # Client side: local filters and the beta decision, computed for every
    # row (the arithmetic is row-wise) and kept for the client rows: masks
    # cost less than gathering each input.
    adapting_rows = phase == CLIENT_ADAPTIVE
    client = adapting_rows | (phase == CLIENT_PREDICTING)
    d_new = _desired(samples, state.received_global, state.noise[:, r])
    adapting = adapting_rows.nonzero()[0]
    if adapting.size:
        # fmax maps a never-estimated (NaN) step size to 0.0.
        mu = np.fmax(state.mu, 0.0)[state.point, None]
        weights = _client_step(state.client_weight, samples, d_new, mu)[adapting]
        state.client_weight[adapting] = weights
        trace.updates.append((r, adapting, weights))
    errors = d_new - np.vecdot(samples, state.client_weight)
    error_new = trace.error_new[r]
    np.copyto(error_new, errors, where=client)
    loud = np.abs(errors) > state.beta
    # Rows whose sink filter is (or is becoming) active always transmit.
    sink_side = phase <= SINK_ADAPTIVE
    transmit = trace.transmitted[r]
    np.bitwise_or(sink_side, adapting_rows & loud, out=transmit)
    silenced = (adapting_rows > loud).nonzero()[0]
    restarted = (client > adapting_rows) & loud
    client_bad = adapting[:0]
    if not np.isfinite(error_new).all():
        client_bad = (~np.isfinite(error_new)).nonzero()[0]
    # Points from ``stop`` on have a non-finite client error: the sink side
    # runs only for the points before it, to find a lower point's sink error.
    points = len(state.bounds) - 1
    stop = state.point[client_bad[0]] if client_bad.size else points

    # Wire: data blocks of transmitting nodes, as the sinks receive them.
    sent = transmit.nonzero()[0]
    handed = to_sink_adaptive = sent[:0]
    if sent.size and stop > 0:
        u_sent, d_sent = state.sink_blocks[sent, r], state.sink_desired[sent, r]

        # Sink side: per point, the step-size estimate when one of its rows
        # is raw (or none was made yet), one global sweep over this round's
        # arrivals, then the alpha decision for rows whose sink filter is
        # (or is becoming) active.  Point p's arrivals are rows
        # cut[p]:cut[p + 1] of u_sent; raw rows always transmit, so they are
        # among them.
        cut = sent.searchsorted(state.bounds).tolist()
        live = [p for p in range(stop) if cut[p] < cut[p + 1]]
        raw_rows = phase == RAW_TRANSMIT
        raw = raw_rows.nonzero()[0].searchsorted(state.bounds).tolist()
        error_glob = trace.error_glob[r]
        for p in live:
            a, b = cut[p], cut[p + 1]
            u, d = u_sent[a:b], d_sent[a:b]
            if state.auto_mu and (raw[p] < raw[p + 1] or math.isnan(state.mu[p])):
                try:
                    lam = max_eigenvalue((u.T @ u) / u.shape[0])
                except NonFinite:
                    raise Diverged(
                        f"diverged in round {r}: non-finite block covariance at the sink", point=p
                    ) from None
                nodes = state.bounds[p + 1] - state.bounds[p]
                state.mu[p] = 0.5 / (nodes * lam) if lam > 0 else 0.0
            weight = _sweep(state.global_weight[p], u, d, state.mu[p])
            state.global_weight[p] = weight
            error_glob[sent[a:b]] = d - u @ weight
        # Rows that sent nothing hold 0.0, and none of them is on the sink side.
        finite = np.isfinite(error_glob)
        if not finite.all():
            raise _diverged(state, np.argmin(finite), "sink")
        if not client_bad.size:
            near = np.abs(error_glob) <= state.alpha
            handed = (sink_side & near).nonzero()[0]
            to_sink_adaptive = raw_rows > near
    if client_bad.size:
        raise _diverged(state, client_bad[0], "client")

    # The round's messages, in sending order: see KIND_BITS.
    kinds = trace.kinds[r]
    np.multiply(transmit, _DATA_BLOCK, out=kinds)
    kinds[silenced] = _NODE_WEIGHT
    kinds[handed] = _HANDED
    if r == 0:
        kinds |= _QUERY

    # End-of-round transitions: a handed-off row starts the next round
    # adapting from the global weight it was sent.
    state.phase[to_sink_adaptive] = SINK_ADAPTIVE
    state.phase[silenced] = CLIENT_PREDICTING
    state.phase[restarted] = RAW_TRANSMIT
    state.phase[handed] = CLIENT_ADAPTIVE
    payload = state.global_weight[state.point[handed]]
    state.client_weight[handed] = state.received_global[handed] = payload
    state.round_index = r + 1
    return RoundResult(trace, r, state.node_ids)

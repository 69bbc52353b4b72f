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
each round's messages, sent blocks among them, are read off its ``kinds``.
Round r, ``step_round(state)``, takes the ``(rows, n)`` matrix U of the
round's blocks and the desired vector d, reads what each row does off one
table of cases, writes its columns into trace row r in place and appends
its client-filter updates to the trace's log; it copies no per-round state:

1. client side, rows in a client phase: d' = U.Wr + noise; adapting rows
   step Wc += mu U (d' - U.Wc); the error e' = d' - U.Wc is held against
   beta (adapting rows fall silent at or below it, predicting rows
   restart above it).  This arithmetic is row-wise, so it runs over every
   row and keeps the client rows' results;
2. wire: the transmitting rows' blocks, as the sinks receive them;
3. sink side, one pass over every point's received rows: the points with
   a raw row estimate their step sizes by one eigen solve over the stack
   of their covariances, each point with arrivals runs one global sweep
   w += mu sum_i u_i (d_i - u_i.w) over them, and their errors d - U w are
   held against alpha; the client and sink errors are checked finite;
4. messages and next phases, looked up per row by its case: its phase,
   whether its client error is above beta and whether its sink error is
   at or below alpha.  A sink-side row at or below alpha is handed off,
   entering CLIENT_ADAPTIVE with Wc = Wr = its point's new global weight.

Row dot products use ``np.vecdot``, which sums each row in the order of a
1-D ``u @ w``, so the client side and the sweep's residuals reproduce the
per-node arithmetic bit for bit.  So does the sweep's sum, which adds its
terms row by row in ascending id order, except with one-sample blocks
(n = 1): numpy then sums the single column pairwise, which differs from
row order once a point has 8 or more arrivals.  The sink errors are one
2-D ``d - U @ w`` per point, whose rows may differ from a per-node
``u @ w`` in the last bit.  Row-wise operations give a row the same bits
wherever it sits, so the residuals and terms run once over every point's
rows.  The bits of ``U.T @ U``, of a column sum and of a 2-D ``U @ w``
depend on how many rows they are given, so each point's covariance, sum
and errors run over exactly its own received rows; ``eigvalsh`` solves
each matrix of a stack as it would alone.  A full run is a deterministic
function of (inputs, thresholds), and each point of a batch equals its run
alone.  The first non-finite value stops the run with ``Diverged``.  A
round checks its client errors and its sink errors once each, and only
when a check fails does it look for the lowest point that fails, in the
order its run alone checks, so a batch stops where its first point to
diverge alone stops, with that point's message.  A diverging filter
overflows on its way there, and ``step_round`` ignores overflow and
invalid operations itself, so a caller holds no error state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np
from numpy.linalg import eigvalsh

from .errors import DimensionMismatch, Diverged, InvalidParameter, UnknownNode

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
_QUERY, _NODE, _DATA, _GLOBAL = KIND_BITS.values()

# The phase table of the module docstring, as a round reads it.  Row k's
# case is 4 * phase + 2 * loud + near, where loud is its client error
# |e'| > beta and near its sink error |e| <= alpha.  Per case: its round's
# KIND_BITS mask (but QUERY), whose DATA_BLOCK bit says whether the row
# sends its block, and its phase in the next round.  Whether a row sends
# does not depend on near, which the sink side decides after the wire.
_KINDS, _NEXT = np.array(
    [
        # (quiet, far), (quiet, near), (loud, far), (loud, near)
        [(_DATA, SINK_ADAPTIVE), (_DATA | _GLOBAL, CLIENT_ADAPTIVE)] * 2,  # RAW_TRANSMIT
        [(_DATA, SINK_ADAPTIVE), (_DATA | _GLOBAL, CLIENT_ADAPTIVE)] * 2,  # SINK_ADAPTIVE
        [(_NODE, CLIENT_PREDICTING)] * 2 + [(_DATA, CLIENT_ADAPTIVE)] * 2,  # CLIENT_ADAPTIVE
        [(0, CLIENT_PREDICTING)] * 2 + [(0, RAW_TRANSMIT)] * 2,  # CLIENT_PREDICTING
    ],
    dtype=np.uint8,
).reshape(16, 2).T


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
    run's only record: a node sent its block where ``kinds`` has DATA_BLOCK.

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
    error_glob: np.ndarray
    error_new: np.ndarray
    updates: list[tuple[int, np.ndarray, np.ndarray]] = field(default_factory=list)

    @classmethod
    def empty(cls, rounds: int, m: int) -> "Trace":
        shape = (rounds, m)
        return cls(
            phase=np.zeros(shape, dtype=np.uint8),
            kinds=np.zeros(shape, dtype=np.uint8),
            error_glob=np.zeros(shape),
            error_new=np.zeros(shape),
        )

    @property
    def transmitted(self) -> np.ndarray:
        """The DATA_BLOCK bit of every ``kinds`` cell, as bools."""
        return (self.kinds & _DATA) != 0

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
    sensed arrays themselves).  A finished run reads none of these four,
    so whoever runs its last round may set them to None, and
    ``sim.simulate_protocol`` does: a run it returns holds no array the
    size of its blocks.
    ``auto_mu`` says whether the step sizes follow the automatic rule.

    Engine state: ``client_weight`` and ``received_global`` rows are
    meaningful only while the row is in a client phase; the round that
    hands a row off sets both to its point's global weight.  Point p's
    rows are ``bounds[p]:bounds[p + 1]``; ``global_weight[p]`` is its sink
    filter and ``mu[p]`` the step size of its sink and client filters.  An
    explicit step size is set once; with ``auto_mu`` it is estimated in
    round 0, where every row is raw, and refreshed by every round in which
    one of the point's rows is raw.  ``trace`` is the run's trace, whose
    row r round r writes; ``round_index`` rounds have run.
    """

    node_ids: tuple[int, ...]
    point: np.ndarray
    bounds: tuple[int, ...]
    blocks: np.ndarray | None
    noise: np.ndarray | None
    sink_blocks: np.ndarray | None
    sink_desired: np.ndarray | None
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


def transmission_percentages(state: ProtocolState, point: int) -> tuple[np.ndarray, float]:
    """Percentage of its sensed blocks each row of ``point`` transmitted in
    the rounds run so far, and the percentage of all the point's blocks."""
    rounds = state.round_index
    sent = np.count_nonzero(state.trace.kinds[:rounds, state.rows(point)] & _DATA, axis=0)
    if rounds == 0 or not sent.size:
        raise DimensionMismatch(f"no transmission percentage: {rounds} rounds over {sent.size} nodes")
    return 100.0 * sent / rounds, 100.0 * int(sent.sum()) / (rounds * sent.size)


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
        transmitted = ((trace.kinds[r] & _DATA) != 0).tolist()
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
        raise DimensionMismatch(f"a weight needs n >= 1 taps, got {n}")
    return np.full(n, 1.0 / np.sqrt(n))


# The arithmetic kernels of a round.  They check nothing: the engine checks
# its inputs once per run, in ``new_protocol_state``.


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
    raw round: lambda_max is the largest of the ``eigvalsh`` eigenvalues of
    the ``(n, n)`` covariance of the blocks the point received in that
    round.  An explicit ``mu`` must be finite and > 0 (``InvalidParameter``
    otherwise).  ``received``, a ``(blocks, desired)`` pair shaped as
    those inputs, is what the sinks receive of each block a row sends
    (default: the sensed arrays themselves, not copied); a round reads it
    for its transmitting rows only.
    """
    if mu is not None and not (math.isfinite(mu) and mu > 0):
        raise InvalidParameter("mu_mode", f"must be 'auto' or > 0, got {mu!r}")
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


def _estimate_step_sizes(
    state: ProtocolState, u_sent: np.ndarray, cut: list[int], points: list[int]
) -> list[int]:
    """Set the step size of each of ``points`` from its arrivals, rows
    ``cut[p]:cut[p + 1]`` of ``u_sent``, by one eigen solve over the stack
    of their covariances; returns the points whose covariance is not
    finite, which keep their step sizes."""
    covs = np.array([u.T @ u / len(u) for u in (u_sent[cut[p] : cut[p + 1]] for p in points)])
    # The absolute entry sum bounds every partial sum of the entries, so
    # one NaN, infinity or overflowing sum shows here.
    finite = [math.isfinite(x) for x in np.abs(covs).sum(axis=(1, 2)).tolist()]
    refused = [p for p, ok in zip(points, finite) if not ok]
    if refused:
        points, covs = [p for p, ok in zip(points, finite) if ok], covs[finite]
    bounds = state.bounds
    for p, lam in zip(points, eigvalsh(covs)[:, -1].tolist()):
        state.mu[p] = 0.5 / ((bounds[p + 1] - bounds[p]) * lam) if lam > 0 else 0.0
    return refused


def _first_non_finite(x: np.ndarray) -> int | None:
    """The index of the first non-finite entry of ``x``, or None."""
    finite = np.isfinite(x)
    return None if finite.all() else int(np.argmin(finite))


def _check_finite(
    state: ProtocolState, refused: list[int], sent: np.ndarray, error: np.ndarray
) -> None:
    """Raise the current round's ``Diverged`` if it has a non-finite value:
    the lowest point with a non-finite client error, covariance (a point in
    ``refused``) or sink error (``error[j]`` is row ``sent[j]``'s), in that
    order within a point, named as its run alone names it."""
    ids = state.node_ids
    failures = []
    k = _first_non_finite(state.trace.error_new[state.round_index])
    if k is not None:
        failures.append((state.point[k], 0, f"client error for node {ids[k]}"))
    if refused:
        failures.append((refused[0], 1, "block covariance at the sink"))
    k = _first_non_finite(error)
    if k is not None:
        failures.append((state.point[sent[k]], 2, f"sink error for node {ids[sent[k]]}"))
    if failures:
        p, _, what = min(failures)
        raise Diverged(f"diverged in round {state.round_index}: non-finite {what}", point=int(p))


@np.errstate(over="ignore", invalid="ignore")
def step_round(state: ProtocolState) -> RoundResult:
    """Advance every point by one synchronous round, round
    ``state.round_index`` of its inputs, and write it into that row of
    ``state.trace``; returns the round's view.

    Which blocks reach the sink, and which weight messages are exchanged,
    follows the phase table in the module docstring.  The sink side is one
    pass over every point: one eigen solve over the stacked covariances of
    the points that estimate their step sizes, one row-wise residual and
    term pass over all received rows, and per point only its sweep's sum
    and its errors ``d - U @ w``.  Overflow on the way to a non-finite
    error is expected, and ignored here.

    Raises ``Diverged`` at the first non-finite value, by one rule: the
    earliest round, then the lowest point (as ``point``), and within a
    point its client errors, then its step-size estimate (a non-finite
    block covariance), then its sink errors.  Every point with arrivals
    runs its sweep before the check, so a lower point's sink error is
    found in a round where a higher point's covariance is not finite.  The
    message names the round and, for an error, the node: it is the message
    the point's run alone raises.  A state whose rounds have all run raises
    ``DimensionMismatch``.
    """
    r = state.round_index
    trace = state.trace
    if r >= len(trace.phase):
        raise DimensionMismatch(f"no round {r}: the run has {len(trace.phase)} rounds")
    phase = trace.phase[r]
    phase[:] = state.phase
    samples = state.blocks[:, r]

    # Client side: local filters and the beta decision, computed for every
    # row (the arithmetic is row-wise) and kept for the client rows: masks
    # cost less than gathering each input.
    d_new = _desired(samples, state.received_global, state.noise[:, r])
    adapting = (phase == CLIENT_ADAPTIVE).nonzero()[0]
    if adapting.size:
        mu = state.mu.take(state.point)[:, None]
        weights = _client_step(state.client_weight, samples, d_new, mu)[adapting]
        state.client_weight[adapting] = weights
        trace.updates.append((r, adapting, weights))
    errors = d_new - np.vecdot(samples, state.client_weight)
    error_new = trace.error_new[r]
    np.copyto(error_new, errors, where=phase >= CLIENT_ADAPTIVE)
    # Each row's case but its sink error, which the sink side decides.
    case = 4 * phase + 2 * (np.abs(errors) > state.beta)

    # Wire: data blocks of transmitting nodes, as the sinks receive them.
    # Point p's arrivals are rows cut[p]:cut[p + 1] of u_sent.
    sent = (_KINDS[case] & _DATA).nonzero()[0]
    u_sent, d_sent = state.sink_blocks[:, r].take(sent, axis=0), state.sink_desired[:, r].take(sent)
    cut = sent.searchsorted(state.bounds).tolist()
    points = range(len(cut) - 1)

    # Sink side, every point at once where the arithmetic is row-wise and
    # point by point only where a result's bits depend on its row count:
    # the covariances, the sweep's column sums and the errors d - U w.
    refused = []
    if state.auto_mu:
        raw = (phase == RAW_TRANSMIT).nonzero()[0].searchsorted(state.bounds).tolist()
        estimating = [p for p in points if raw[p] < raw[p + 1]]
        if estimating:
            refused = _estimate_step_sizes(state, u_sent, cut, estimating)
    # One global sweep per point with arrivals, w += mu sum_i u_i (d_i -
    # u_i.w), then the point's fit U w.
    glob = state.global_weight
    residual = d_sent - np.vecdot(u_sent, glob.take(state.point.take(sent), axis=0))
    terms = u_sent * residual[:, None]
    fit = np.empty(len(sent))
    for p in points:
        a, b = cut[p], cut[p + 1]
        if a < b:
            glob[p] += state.mu[p] * np.add.reduce(terms[a:b], axis=0, initial=0.0)
            np.matmul(u_sent[a:b], glob[p], out=fit[a:b])
    error = d_sent - fit
    error_glob = trace.error_glob[r]
    error_glob[sent] = error
    # x @ x is finite only if every entry of x is, and costs less than
    # np.isfinite; the entries are walked only when a check fails.
    if refused or not (math.isfinite(error_new @ error_new) and math.isfinite(error @ error)):
        _check_finite(state, refused, sent, error)

    # The round's messages, in sending order (see KIND_BITS), and the
    # end-of-round transitions: a handed-off row, sent the global weight,
    # starts the next round adapting from it.
    case += np.abs(error_glob) <= state.alpha
    kinds = trace.kinds[r]
    np.take(_KINDS, case, out=kinds)
    if r == 0:
        kinds |= _QUERY
    np.take(_NEXT, case, out=state.phase)
    handed = (kinds & _GLOBAL).nonzero()[0]
    payload = state.global_weight.take(state.point.take(handed), axis=0)
    state.client_weight[handed] = state.received_global[handed] = payload
    state.round_index = r + 1
    return RoundResult(trace, r, state.node_ids)

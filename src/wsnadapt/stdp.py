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

Weight messages travel with one round of latency; a round's data blocks
reach the sink within the round.

The array round.  The engine runs one or more *points*, independent
protocol runs over the same rounds (a sweep's points, or one scenario),
side by side.  Its rows are (point, node) pairs: point p's nodes are
consecutive rows, ids ascending, and ``point[k]`` names row k's point.
Inside the engine a row is the only address: queued mail and the channel
hook name rows, and node ids appear only in error messages.
``phase[k]`` is the row's phase code (an index into ``PHASES``; which
filter is active is a function of the phase alone), ``client_weight[k]``
its client filter Wc and ``received_global[k]`` the global weight Wr that
seeded it; each point has its own sink, with its own global weight and
auto step size.  A round takes the ``(rows, n)`` matrix U of sensed
blocks and the desired vector d, and works on masks over the phase codes:

1. client side, rows in a client phase: d' = U.Wr + noise; adapting rows
   step Wc += mu U (d' - U.Wc); the error e' = d' - U.Wc is held against
   beta (adapting rows fall silent at or below it, predicting rows
   restart above it);
2. wire: the transmitting rows, optionally through the channel;
3. sink side, per point: one global sweep w += mu sum_i u_i (d_i - u_i.w)
   over the point's received rows, then their errors d - U w are held
   against alpha.

Row dot products use ``np.vecdot``, which sums each row in the order of a
1-D ``u @ w``, and the sweep adds its terms row by row in ascending id
order, so the array round reproduces the per-node arithmetic bit for bit.
Row-wise operations give every point the bits it would get alone.  The
sink side does not batch across points: the bits of a 2-D ``U @ w`` and of
the sweep's column sums depend on how many rows they are given, so each
point's sweep and errors run over exactly its own received rows, and only
the step-size estimate (one power iteration over every refreshing point's
block covariance) spans points.  A full run is a deterministic function of
(inputs, thresholds), and each point of a batch equals its run alone.  The
first non-finite error stops the run with ``Diverged``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, Diverged, InvalidParameter, ProtocolViolation
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


_KIND_OF_BIT = {bit: kind for kind, bit in KIND_BITS.items()}
_WEIGHT_BITS = KIND_BITS[MessageKind.NODE_WEIGHT] | KIND_BITS[MessageKind.GLOBAL_WEIGHT]


def kinds_of(mask: int) -> tuple[MessageKind, ...]:
    """The message kinds set in a kind mask, in sending order."""
    return tuple(kind for kind, bit in KIND_BITS.items() if mask & bit)


# _ACCEPTS[bit, code]: a node in phase ``code`` accepts a queued message of
# kind ``bit``.  Data blocks are never queued.
_ACCEPTS = np.zeros((max(KIND_BITS.values()) + 1, len(PHASES)), dtype=bool)
_ACCEPTS[KIND_BITS[MessageKind.QUERY], RAW_TRANSMIT] = True
_ACCEPTS[KIND_BITS[MessageKind.NODE_WEIGHT], CLIENT_PREDICTING] = True
_ACCEPTS[KIND_BITS[MessageKind.GLOBAL_WEIGHT], [RAW_TRANSMIT, SINK_ADAPTIVE]] = True


@dataclass(frozen=True)
class Thresholds:
    """User-defined error thresholds: alpha at the sink, beta at the client."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise InvalidParameter("thresholds/alpha", f"must be > 0, got {self.alpha}")
        # beta == 0 is the degenerate always-transmit configuration.
        if not self.beta >= 0:
            raise InvalidParameter("thresholds/beta", f"must be >= 0, got {self.beta}")


@dataclass(frozen=True)
class Mail:
    """Messages queued between rounds, as columns with one entry per message.

    ``kind`` holds ``KIND_BITS`` codes and ``row`` the engine row of each
    message's client end: the sender of a NODE_WEIGHT, the receiver of
    anything else (the sink of the row's point is always the other end).
    ``payload[j]`` is the weight that entry j carries (zeros for a QUERY).
    """

    kind: np.ndarray
    row: np.ndarray
    payload: np.ndarray

    def __len__(self) -> int:
        return self.kind.size


@dataclass
class ProtocolState:
    """Mutable engine state; row k is node ``node_ids[k]`` of point
    ``point[k]``, rows ordered by point and then by ascending id.

    ``client_weight`` and ``received_global`` rows are meaningful only while
    the row is in a client phase; a GLOBAL_WEIGHT delivery overwrites both.
    ``sent[k]`` counts the blocks row k transmitted in ``round_index``
    rounds.  Point p's rows are ``bounds[p]:bounds[p + 1]``;
    ``global_weight[p]`` is its sink filter and ``mu[p]`` its automatic step
    size (NaN until first estimated).
    """

    n: int
    node_ids: tuple[int, ...]
    point: np.ndarray
    bounds: np.ndarray
    global_weight: np.ndarray
    mu: np.ndarray
    phase: np.ndarray
    client_weight: np.ndarray
    received_global: np.ndarray
    sent: np.ndarray
    pending: Mail
    round_index: int = 0


def transmission_percentage(state: ProtocolState) -> np.ndarray:
    """Percentage of sensed blocks each row actually transmitted."""
    if state.round_index == 0 or not state.node_ids:
        raise ValueError("record has nodes with no sensed blocks")
    return 100.0 * state.sent / state.round_index


def total_percentages(state: ProtocolState) -> list[float]:
    """Percentage of all its sensed blocks each point transmitted."""
    bounds = state.bounds.tolist()
    return [
        100.0 * int(state.sent[a:b].sum()) / (state.round_index * (b - a))
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


@dataclass(frozen=True)
class RoundResult:
    """One round as columns; entry k belongs to engine row k, node
    ``node_ids[k]``.

    ``phase`` holds the start-of-round phase codes and ``kinds`` the
    ``KIND_BITS`` mask of each node's messages.  ``error_glob`` (the sink's
    error) has a value where ``transmitted``, ``error_new`` (the client's)
    where the node started in a client phase; every other cell is 0.0.
    ``client_weight`` is each client filter after the round's update.
    ``messages`` are the weight messages queued for the next round.
    """

    round_index: int
    node_ids: tuple[int, ...]
    phase: np.ndarray
    kinds: np.ndarray
    transmitted: np.ndarray
    error_glob: np.ndarray
    error_new: np.ndarray
    client_weight: np.ndarray
    messages: Mail

    @property
    def rows(self) -> tuple[TraceRow, ...]:
        """The round node by node, built on request from the columns."""
        client = self.phase >= CLIENT_ADAPTIVE
        return tuple(
            TraceRow(
                self.round_index,
                node_id,
                PHASES[self.phase[k]],
                kinds_of(int(self.kinds[k])),
                float(self.error_glob[k]) if self.transmitted[k] else None,
                float(self.error_new[k]) if client[k] else None,
                bool(self.transmitted[k]),
            )
            for k, node_id in enumerate(self.node_ids)
        )


@dataclass(frozen=True)
class Trace:
    """A whole run as preallocated ``(rounds, m)`` columns of round results.

    ``client_weight[r, k]`` is meaningful where ``phase[r, k]`` is
    CLIENT_ADAPTIVE: it is row k's filter after its round-r update.
    """

    phase: np.ndarray
    kinds: np.ndarray
    transmitted: np.ndarray
    error_glob: np.ndarray
    error_new: np.ndarray
    client_weight: np.ndarray

    @classmethod
    def empty(cls, rounds: int, m: int, n: int) -> "Trace":
        shape = (rounds, m)
        return cls(
            phase=np.zeros(shape, dtype=np.int8),
            kinds=np.zeros(shape, dtype=np.uint8),
            transmitted=np.zeros(shape, dtype=bool),
            error_glob=np.zeros(shape),
            error_new=np.zeros(shape),
            client_weight=np.zeros(shape + (n,)),
        )

    def record(self, result: RoundResult) -> None:
        r = result.round_index
        self.phase[r] = result.phase
        self.kinds[r] = result.kinds
        self.transmitted[r] = result.transmitted
        self.error_glob[r] = result.error_glob
        self.error_new[r] = result.error_new
        self.client_weight[r] = result.client_weight


def initial_weight(n: int) -> np.ndarray:
    """Unit-norm all-ones start vector (every tap 1/sqrt(n))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.full(n, 1.0 / np.sqrt(n))


def _check_pair(u: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if u.shape != w.shape or u.ndim not in (1, 2):
        raise DimensionMismatch(f"shapes {u.shape} and {w.shape} do not agree")
    return u, w


def global_lms_update(
    w_prev: np.ndarray, samples: np.ndarray, desired: np.ndarray, mu: float
) -> np.ndarray:
    """One simultaneous sweep w + mu * sum_i u_i^T (d_i - u_i w).

    ``samples`` holds one block u_i per row and ``desired`` the matching
    d_i; the terms are added in row order, starting from zero.
    """
    w_prev = np.asarray(w_prev, dtype=float)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    desired = np.asarray(desired, dtype=float)
    if samples.shape[1] != w_prev.size or desired.shape != (samples.shape[0],):
        raise DimensionMismatch(
            f"blocks {samples.shape} and desired {desired.shape} do not fit a "
            f"{w_prev.size}-tap weight"
        )
    residual = desired - np.vecdot(samples, w_prev)
    step = np.add.reduce(samples * residual[:, None], axis=0, initial=0.0)
    return w_prev + mu * step


def client_desired(u: np.ndarray, w_glob: np.ndarray, noise) -> np.ndarray:
    """Client-side desired scalar u @ w_glob + noise (noise drawn by caller).

    ``u`` and ``w_glob`` are one vector each, or one per row.
    """
    u, w_glob = _check_pair(u, w_glob)
    return np.vecdot(u, w_glob) + noise


def client_update(w_prev: np.ndarray, u: np.ndarray, d_new, mu) -> np.ndarray:
    """Single-datum LMS step w + mu * u^T (d_new - u w), for one vector or
    for every row of stacked vectors; ``mu`` is one step size or one per
    row."""
    u, w_prev = _check_pair(u, w_prev)
    residual = np.asarray(d_new, dtype=float) - np.vecdot(u, w_prev)
    return w_prev + (np.asarray(mu, dtype=float)[..., None] * u) * residual[..., None]


def new_protocol_state(
    node_ids: Sequence[int], n: int, sizes: Sequence[int] | None = None
) -> ProtocolState:
    """Fresh engine state; queues each point's initial query to its nodes.

    ``sizes[p]`` consecutive entries of ``node_ids`` are point p's nodes
    (default: one point holding them all); they become the point's rows in
    ascending id order.
    """
    flat = [int(i) for i in node_ids]
    sizes = [len(flat)] if sizes is None else [int(size) for size in sizes]
    if not sizes or sum(sizes) != len(flat) or min(sizes) < 0:
        raise ValueError(f"point sizes {sizes} do not split {len(flat)} node ids")
    ids, start = [], 0
    for size in sizes:
        group = sorted(flat[start : start + size])
        start += size
        if len(set(group)) != size or SINK_ID in group:
            raise ValueError("node ids must be unique and non-zero (0 is the sink)")
        ids.extend(group)
    point = np.repeat(np.arange(len(sizes)), sizes)
    m = len(ids)
    return ProtocolState(
        n=n,
        node_ids=tuple(ids),
        point=point,
        bounds=np.cumsum([0, *sizes]),
        global_weight=np.tile(initial_weight(n), (len(sizes), 1)),
        mu=np.full(len(sizes), np.nan),
        phase=np.full(m, RAW_TRANSMIT, dtype=np.int8),
        client_weight=np.zeros((m, n)),
        received_global=np.zeros((m, n)),
        sent=np.zeros(m, dtype=np.int64),
        pending=Mail(
            kind=np.full(m, KIND_BITS[MessageKind.QUERY], dtype=np.uint8),
            row=np.arange(m),
            payload=np.zeros((m, n)),
        ),
    )


def _deliver(state: ProtocolState, mail: Mail) -> None:
    """Apply the queued messages, each checked against the phase its row
    ended the previous round in; the first bad entry raises."""
    accepted = _ACCEPTS[mail.kind, state.phase[mail.row]]
    if not accepted.all():
        j = int(np.argmin(accepted))
        kind, row = _KIND_OF_BIT[int(mail.kind[j])], int(mail.row[j])
        if not _ACCEPTS[KIND_BITS[kind]].any():
            raise ProtocolViolation(f"{kind.value} cannot be queued between rounds")
        role = "from" if kind is MessageKind.NODE_WEIGHT else "to"
        raise ProtocolViolation(
            f"{kind.value} {role} node {state.node_ids[row]} in {PHASES[state.phase[row]].value}"
        )
    handed = mail.kind == KIND_BITS[MessageKind.GLOBAL_WEIGHT]
    rows = mail.row[handed]
    state.phase[rows] = CLIENT_ADAPTIVE
    state.client_weight[rows] = mail.payload[handed]
    state.received_global[rows] = mail.payload[handed]


def _diverged(state: ProtocolState, row: int, side: str) -> Diverged:
    return Diverged(
        f"diverged in round {state.round_index}: non-finite {side} error "
        f"for node {state.node_ids[row]}",
        point=int(state.point[row]),
    )


@np.errstate(over="ignore", invalid="ignore")
def step_round(
    state: ProtocolState,
    samples: np.ndarray,
    desired: np.ndarray,
    thresholds: Thresholds | Sequence[Thresholds],
    mu: float | None = None,
    client_noise: np.ndarray | None = None,
    channel: Callable[[np.ndarray, np.ndarray, np.ndarray, int], tuple] | None = None,
) -> RoundResult:
    """Advance every point by one synchronous round.

    Row k of ``samples`` (rows x n), ``desired`` and ``client_noise`` (one
    entry per row) is what node ``state.node_ids[k]`` senses and draws this
    round; a ``Stream`` over the same nodes holds its rows in that
    (ascending id) order, so for one point ``stream.blocks[:, r]`` and
    ``stream.desired[:, r]`` fit.  ``thresholds`` is one ``Thresholds`` for
    every point or one per point.  Which blocks reach the sink, and which
    weight messages are exchanged, follows the phase table in the module
    docstring.  ``mu`` overrides the automatic step-size rule (0.5 / (M *
    lambda_max) of the point's empirical block covariance, refreshed
    whenever one of its nodes is in a raw round).
    ``channel(samples, desired, rows, round_index)`` optionally maps the
    blocks of the transmitting engine rows ``rows`` to what the sinks
    receive.

    Raises ``Diverged`` at the first round with a non-finite error, naming
    the round, the node and (as ``point``) the lowest point that has one.
    Within a point, client errors are checked before sink errors.
    """
    m = len(state.node_ids)
    points = len(state.global_weight)
    samples = np.asarray(samples, dtype=float)
    desired = np.asarray(desired, dtype=float)
    noise = np.zeros(m) if client_noise is None else np.asarray(client_noise, dtype=float)
    if samples.shape != (m, state.n) or desired.shape != (m,) or noise.shape != (m,):
        raise DimensionMismatch(
            f"a round of {m} nodes needs ({m}, {state.n}) samples and {m} desired "
            f"values and noise draws, got {samples.shape}, {desired.shape} and {noise.shape}"
        )
    if isinstance(thresholds, Thresholds):
        thresholds = [thresholds] * points
    if len(thresholds) != points:
        raise DimensionMismatch(f"{len(thresholds)} thresholds for {points} points")
    alpha, beta = np.array([(t.alpha, t.beta) for t in thresholds]).T[:, state.point]

    _deliver(state, state.pending)

    phase = state.phase.copy()
    kinds = np.full(m, KIND_BITS[MessageKind.QUERY] if state.round_index == 0 else 0, np.uint8)
    error_new = np.zeros(m)
    error_glob = np.zeros(m)
    transmit = phase <= SINK_ADAPTIVE

    # Client side: local filters and the beta decision.
    adapting = phase == CLIENT_ADAPTIVE
    predicting = phase == CLIENT_PREDICTING
    client = adapting | predicting
    if client.any():
        u = samples[client]
        d_new = client_desired(u, state.received_global[client], noise[client])
        if adapting.any():
            sub = adapting[client]
            state.client_weight[adapting] = client_update(
                state.client_weight[adapting],
                u[sub],
                d_new[sub],
                # fmax maps a never-estimated (NaN) step size to 0.0.
                mu if mu is not None else np.fmax(state.mu, 0.0)[state.point[adapting]],
            )
        error_new[client] = d_new - np.vecdot(u, state.client_weight[client])
    # Points from ``stop`` on have a non-finite client error: the sink side
    # runs only for the points before it, to find a lower point's sink error.
    client_bad = np.flatnonzero(~np.isfinite(error_new))
    stop = state.point[client_bad[0]] if client_bad.size else points
    loud = np.abs(error_new) > beta
    transmit |= adapting & loud
    silenced = adapting & ~loud
    restarted = predicting & loud
    kinds[silenced] |= KIND_BITS[MessageKind.NODE_WEIGHT]

    # Wire: data blocks of transmitting nodes, optionally through the channel.
    sent = np.flatnonzero(transmit)
    kinds[sent] |= KIND_BITS[MessageKind.DATA_BLOCK]
    handed = to_sink_adaptive = sent[:0]
    if sent.size and stop > 0:
        u_sent, d_sent = samples[sent], desired[sent]
        if channel is not None:
            u_sent, d_sent = channel(u_sent, d_sent, sent, state.round_index)

        # Sink side: per point, one global sweep over this round's arrivals,
        # then the alpha decision for rows whose sink filter is (or is
        # becoming) active.  Point p's arrivals are rows cut[p]:cut[p + 1]
        # of u_sent; raw rows always transmit, so they are among them.
        cut = np.searchsorted(sent, state.bounds).tolist()
        live = [p for p in range(stop) if cut[p] < cut[p + 1]]
        sent_phase = phase[sent]
        if mu is None:
            raw = np.searchsorted(np.flatnonzero(sent_phase == RAW_TRANSMIT), cut).tolist()
            steps = state.mu.tolist()
            refresh = [p for p in live if raw[p] < raw[p + 1] or math.isnan(steps[p])]
            if refresh:
                blocks = [u_sent[cut[p] : cut[p + 1]] for p in refresh]
                lams = max_eigenvalue(np.array([(u.T @ u) / u.shape[0] for u in blocks]))
                bounds = state.bounds.tolist()
                for p, lam in zip(refresh, lams.tolist()):
                    nodes = bounds[p + 1] - bounds[p]
                    state.mu[p] = 0.5 / (nodes * lam) if lam > 0 else 0.0
        for p in live:
            a, b = cut[p], cut[p + 1]
            u, d = u_sent[a:b], d_sent[a:b]
            weight = global_lms_update(
                state.global_weight[p], u, d, mu if mu is not None else state.mu[p]
            )
            state.global_weight[p] = weight
            error_glob[sent[a:b]] = d - u @ weight
        errs = error_glob[sent]
        sink_bad = np.flatnonzero(~np.isfinite(errs))
        if sink_bad.size:
            raise _diverged(state, sent[sink_bad[0]], "sink")
        near = np.abs(errs) <= alpha[sent]
        handed = sent[(sent_phase <= SINK_ADAPTIVE) & near]
        to_sink_adaptive = sent[~near & (sent_phase == RAW_TRANSMIT)]
        kinds[handed] |= KIND_BITS[MessageKind.GLOBAL_WEIGHT]
    if client_bad.size:
        raise _diverged(state, client_bad[0], "client")

    # End-of-round transitions; weight messages are delivered next round.
    state.phase[to_sink_adaptive] = SINK_ADAPTIVE
    state.phase[silenced] = CLIENT_PREDICTING
    state.phase[restarted] = RAW_TRANSMIT
    state.sent += transmit
    # Queue NODE_WEIGHT from the silenced rows, then GLOBAL_WEIGHT to the
    # handed-off ones; no row sends both in one round.
    queued = np.concatenate([np.flatnonzero(silenced), handed])
    kind = kinds[queued] & _WEIGHT_BITS
    state.pending = Mail(
        kind=kind,
        row=queued,
        payload=np.where(
            (kind == KIND_BITS[MessageKind.GLOBAL_WEIGHT])[:, None],
            state.global_weight[state.point[queued]],
            state.client_weight[queued],
        ),
    )
    result = RoundResult(
        round_index=state.round_index,
        node_ids=state.node_ids,
        phase=phase,
        kinds=kinds,
        transmitted=transmit,
        error_glob=error_glob,
        error_new=error_new,
        client_weight=state.client_weight.copy(),
        messages=state.pending,
    )
    state.round_index += 1
    return result

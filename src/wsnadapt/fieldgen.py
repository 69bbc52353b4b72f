"""Spatial field statistics and synthetic observation streams.

Node observations are zero-mean jointly Gaussian with a power-exponential
spatial correlation exp(-D/theta) over pairwise Euclidean distances, and
AR(1) temporal correlation within each node's sample sequence.  A stream
is generated by drawing cross-node innovation vectors through the Cholesky
factor of the spatial covariance, so the marginal covariance of every
sample index is exactly the configured R_uu.

Randomness discipline: one Philox substream per (seed, role, node), so
corrupting one node or toggling the channel never perturbs the draws of
any other node.  ``node_draws`` is the one function that reads a node's
substream; only the shared field innovations (``ROLE_FIELD``) are drawn
elsewhere.  A node's channel substream is read block by block, n + 1
draws per block, and drawn whole before the protocol runs: a (node, block)
gets the same channel noise whatever the node sent before it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CsvFormatError,
    DimensionMismatch,
    InvalidParameter,
    InvalidTheta,
    NonFinite,
    NotPositiveDefinite,
    UnknownNode,
)
from .numerics import as_symmetric_matrix, as_vector, cholesky_factor
from .stdp import initial_weight

# Substream roles (the entropy entry after the seed in the generator key).
ROLE_FIELD = 0      # shared cross-node innovations
ROLE_MEASURE = 1    # per-node measurement noise v_i
ROLE_MALICIOUS = 2  # per-node replacement samples for corrupted nodes
ROLE_CHANNEL = 3    # per-node channel noise
ROLE_PROTOCOL = 4   # per-node client-side noise draws during the protocol


def substream(seed: int, role: int, node_id: int = 0) -> np.random.Generator:
    """Independent, reproducible generator for one (seed, role, node) slot.

    The key's fourth entropy word stays 0: dropping it would change the
    generator of every seed or node id of 2**32 or more."""
    key = np.random.SeedSequence([int(seed), int(role), int(node_id), 0])
    return np.random.Generator(np.random.Philox(key))


def node_draws(seed: int, role: int, node_ids: Sequence[int], *shape: int) -> np.ndarray:
    """Unit normals shaped ``(len(node_ids), *shape)``: row k is node
    ``node_ids[k]``'s ``(seed, role)`` substream read in order, drawn straight
    into the result.  ``std * row + 0.0`` is, bit for bit, what
    ``Generator.normal(0.0, std, shape)`` would have drawn."""
    draws = np.empty((len(node_ids), *shape))
    for row, node_id in zip(draws, node_ids):
        substream(seed, role, node_id).standard_normal(out=row)
    return draws


@dataclass(frozen=True)
class NodeLayout:
    """Sensor positions (meters), the sink position, and node ids."""

    positions: tuple[tuple[float, float], ...]
    sink: tuple[float, float]
    node_ids: tuple[int, ...]

    def __post_init__(self):
        ids = self.node_ids
        if len(ids) != len(self.positions):
            raise InvalidParameter(
                "layout/node_ids", f"{len(ids)} ids for {len(self.positions)} positions"
            )
        if not ids:
            raise InvalidParameter("layout/node_ids", "layout needs at least one node")
        if not min(ids) >= 1:
            raise InvalidParameter(
                "layout/node_ids", f"ids must be >= 1 (0 is the sink's), got {min(ids)}"
            )
        # The engine and the CSV tables hold ids as int64.
        if max(ids) > 2**63 - 1:
            raise InvalidParameter("layout/node_ids", f"ids must be <= 2**63 - 1, got {max(ids)}")
        if len(set(ids)) != len(ids):
            repeated = sorted({i for i in ids if ids.count(i) > 1})
            raise InvalidParameter("layout/node_ids", f"ids {repeated} occur more than once")

    @property
    def size(self) -> int:
        return len(self.node_ids)

    def sink_distances(self) -> np.ndarray:
        p = np.asarray(self.positions, dtype=float)
        return np.hypot(p[:, 0] - self.sink[0], p[:, 1] - self.sink[1])

    def pair_distances(self) -> np.ndarray:
        p = np.asarray(self.positions, dtype=float)
        dx = p[:, 0][:, None] - p[:, 0][None, :]
        dy = p[:, 1][:, None] - p[:, 1][None, :]
        return np.hypot(dx, dy)


@dataclass(frozen=True)
class FieldParams:
    """Field statistics: range parameter, signal scales, noises, AR(1) coefficient."""

    theta: float = 2.0
    sigma_u: float | tuple[float, ...] = 1.0
    sigma_d: float = 1.0
    noise_var: float = 0.01
    temporal_phi: float = 0.9

    def __post_init__(self):
        # Each test is written so that NaN fails it.
        if not self.theta > 0:
            raise InvalidTheta("field/theta", f"must be > 0, got {self.theta}")
        # Variances are squares, so each scale must square to a float.
        for k, sigma in enumerate(np.ravel(np.asarray(self.sigma_u, dtype=float)).tolist()):
            index = k if np.ndim(self.sigma_u) else None
            if not sigma > 0:
                raise InvalidParameter("field/sigma_u", f"must be > 0, got {sigma}", index)
            if not 0.0 < sigma * sigma < math.inf:
                raise InvalidParameter(
                    "field/sigma_u", f"must square to a finite positive float, got {sigma}", index
                )
        if not self.sigma_d > 0:
            raise InvalidParameter("field/sigma_d", f"must be > 0, got {self.sigma_d}")
        sigma_d = float(self.sigma_d)
        if not 0.0 < sigma_d * sigma_d < math.inf:
            raise InvalidParameter(
                "field/sigma_d", f"must square to a finite positive float, got {self.sigma_d}"
            )
        if not self.noise_var >= 0:
            raise InvalidParameter("field/noise_var", f"must be >= 0, got {self.noise_var}")
        if not 0.0 <= self.temporal_phi < 1.0:
            raise InvalidParameter(
                "field/temporal_phi", f"must lie in [0, 1), got {self.temporal_phi}"
            )

    def sigma_vector(self, m: int) -> np.ndarray:
        """Per-node standard deviations, broadcasting a scalar to m nodes."""
        sig = np.atleast_1d(np.asarray(self.sigma_u, dtype=float))
        if sig.size == 1:
            return np.full(m, float(sig[0]))
        if sig.size != m:
            raise DimensionMismatch(f"sigma_u has {sig.size} entries for {m} nodes")
        return sig.astype(float)


@dataclass(frozen=True)
class CovariancePair:
    """Global second-order statistics: R_uu, R_du and the desired-signal power."""

    ruu: np.ndarray
    rdu: np.ndarray
    sigma_d_sq: float

    def __post_init__(self):
        object.__setattr__(self, "ruu", as_symmetric_matrix(self.ruu))
        object.__setattr__(self, "rdu", as_vector(self.rdu))
        if self.rdu.size != self.ruu.shape[0]:
            raise DimensionMismatch("rdu length must equal ruu order")
        if self.sigma_d_sq <= 0:
            raise ValueError("sigma_d_sq must be positive")

    @property
    def order(self) -> int:
        return self.ruu.shape[0]

    def restrict(self, indices: Sequence[int]) -> "CovariancePair":
        idx = np.asarray(indices, dtype=int)
        return CovariancePair(
            ruu=self.ruu[np.ix_(idx, idx)],
            rdu=self.rdu[idx],
            sigma_d_sq=self.sigma_d_sq,
        )


@dataclass(frozen=True)
class Stream:
    """Per-node sample blocks as arrays.

    Row k of every array belongs to node ``node_ids[k]``, and the ids are
    ascending, the row order of ``stdp.ProtocolState``: ``blocks[k]`` is
    that node's ``(num_blocks, n)`` array of sample windows and
    ``desired[k]`` its ``(num_blocks,)`` desired scalars.  Every entry is
    checked finite once, here: NonFinite names the first node and block
    holding a NaN or infinity, and DimensionMismatch, which refuses arrays
    of the wrong shape, names the first pair of ids out of order.
    """

    node_ids: tuple[int, ...]
    blocks: np.ndarray
    desired: np.ndarray

    def __post_init__(self):
        m = len(self.node_ids)
        for a, b in zip(self.node_ids, self.node_ids[1:]):
            if a >= b:
                raise DimensionMismatch(f"stream rows must ascend by node id, got {a} before {b}")
        if self.blocks.ndim != 3 or len(self.blocks) != m:
            raise DimensionMismatch(f"blocks have shape {self.blocks.shape}, expected {m} rows")
        if self.desired.shape != self.blocks.shape[:2]:
            raise DimensionMismatch("desired must have one row per node, one entry per block")
        if not (np.isfinite(self.blocks).all() and np.isfinite(self.desired).all()):
            bad = ~(np.isfinite(self.blocks).all(axis=2) & np.isfinite(self.desired))
            row, block = np.argwhere(bad)[0]
            raise NonFinite(f"non-finite stream entry at node {self.node_ids[row]}, block {block}")

    @property
    def num_blocks(self) -> int:
        return self.blocks.shape[1]

    @property
    def n(self) -> int:
        return self.blocks.shape[2]

    def rows_of(self, node_ids: Sequence[int]) -> np.ndarray:
        """Row indices of the given nodes, in the given order."""
        index = {i: k for k, i in enumerate(self.node_ids)}
        missing = [i for i in node_ids if i not in index]
        if missing:
            raise UnknownNode(f"nodes {missing} not in stream")
        return np.array([index[i] for i in node_ids], dtype=np.intp)

    def restrict(self, node_ids: Sequence[int]) -> "Stream":
        """Sub-stream holding only the given nodes, ids ascending."""
        node_ids = tuple(sorted(node_ids))
        if node_ids == self.node_ids:
            return self
        rows = self.rows_of(node_ids)
        return Stream(node_ids, self.blocks[rows], self.desired[rows])


def build_spatial_covariance(layout: NodeLayout, params: FieldParams) -> CovariancePair:
    """Spatial R_uu and sink-referenced R_du from geometry and signal scales.

    R_uu[i, j] = sigma_i * sigma_j * exp(-D_ij / theta) with D_ij the node
    pair distance; R_du[i] uses the node-to-sink distance.  The diagonal is
    exactly sigma_i**2 and the matrix is exactly symmetric.
    """
    m = layout.size
    sig = params.sigma_vector(m)
    ruu = np.outer(sig, sig) * np.exp(-layout.pair_distances() / params.theta)
    rdu = params.sigma_d * sig * np.exp(-layout.sink_distances() / params.theta)
    return CovariancePair(ruu=ruu, rdu=rdu, sigma_d_sq=params.sigma_d**2)


def _ar1_series(innovations: np.ndarray, phi: float) -> np.ndarray:
    """Stationary AR(1) path along the last axis from unit-scale innovations.

    ``innovations`` holds one series per row, at least 2-D.  Step t is
    ``phi * path[t - 1] + damp * innovation[t]``.  The recursion runs
    time-major, one step over every series at a time.  For the ``(m, total)``
    input of both callers, whose rows are contiguous, ``np.moveaxis`` gives
    a view whose step rows are strided, their m values a row stride apart;
    ``damp * steps`` keeps time the fast axis, so the path comes back
    C-ordered.
    The arithmetic, and so every bit, is that of a series stepped on its
    own.
    """
    damp = np.sqrt(1.0 - phi * phi)
    steps = np.moveaxis(innovations, -1, 0)
    out = damp * steps
    out[0] = steps[0]
    for prev, row in zip(out[:-1], out[1:]):
        row += phi * prev
    return np.moveaxis(out, 0, -1)


def _desired(blocks: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Desired scalars u_b @ w_init + v_b for every window along the last axis.

    ``np.vecdot`` sums each window in the same order as a 1-D ``u @ w_init``,
    so the scalars are bit-identical to a per-window dot product.
    """
    return np.vecdot(blocks, initial_weight(blocks.shape[-1])) + noise


def _measured_stream(
    noise_var: float, seed: int, node_ids: Sequence[int], blocks: np.ndarray
) -> Stream:
    """Stream over ``(m, num_blocks, n)`` blocks whose desired scalars carry
    each node's measurement noise, drawn from its own substream.  Row k of
    ``blocks`` is node ``node_ids[k]``; the stream reorders the rows by
    ascending id."""
    order = np.argsort(node_ids, kind="stable")
    node_ids = tuple(int(node_ids[k]) for k in order)
    blocks = blocks[order]
    noise_std = float(np.sqrt(noise_var))
    noise = noise_std * node_draws(seed, ROLE_MEASURE, node_ids, blocks.shape[1]) + 0.0
    return Stream(node_ids, blocks, _desired(blocks, noise))


def generate_stream(
    layout: NodeLayout,
    params: FieldParams,
    n: int,
    num_blocks: int,
    seed: int,
) -> Stream:
    """Seeded spatio-temporally correlated observation blocks for every node.

    At each sample index the cross-node vector is (an AR(1) blend of)
    L @ z with L the Cholesky factor of R_uu, so sample marginals carry the
    exact spatial covariance; consecutive samples of a node follow AR(1)
    with coefficient temporal_phi.  The desired scalar of each block is
    samples @ w + v with w the normalized all-ones initial weight and v
    drawn per node at variance noise_var.  Bit-identical for equal seeds.
    A degenerate layout raises NotPositiveDefinite naming the first node
    that adds no independent signal, in layout order.
    """
    if n < 1:
        raise InvalidParameter("n_block", "must be >= 1")
    if num_blocks < 1:
        raise InvalidParameter("num_blocks", "must be >= 1")
    m = layout.size
    try:
        low = cholesky_factor(build_spatial_covariance(layout, params).ruu)
    except NotPositiveDefinite as exc:
        raise exc.naming(layout.node_ids) from None

    total = n * num_blocks
    rng_field = substream(seed, ROLE_FIELD)
    # One draw of shape (total, m): all nodes' innovations for sample t sit
    # in row t, matching the per-sample-index draw order of the contract.
    z = rng_field.standard_normal((total, m))
    innovations = low @ z.T  # m x total, marginal covariance exactly ruu
    blocks = _ar1_series(innovations, params.temporal_phi).reshape(m, num_blocks, n)
    return _measured_stream(params.noise_var, seed, layout.node_ids, blocks)


def inject_malicious(
    stream: Stream,
    layout: NodeLayout,
    params: FieldParams,
    node_ids: Iterable[int],
    scale: float,
    seed: int,
) -> Stream:
    """Replace the listed nodes' observations with abnormally spread ones.

    A corrupted node senses an independent AR(1) signal, with the
    ``temporal_phi`` of ``params``, whose standard deviation is ``scale``
    times its nominal one, the ``sigma_u`` entry of its position in
    ``layout``; its desired scalars are recomputed from the
    corrupted samples with measurement noise of variance ``noise_var``.
    Each node's innovations, then its noise, are one ``node_draws`` row of
    its ``ROLE_MALICIOUS`` substream, so every other node's blocks are
    returned bit-for-bit untouched.
    """
    ids = sorted(set(int(i) for i in node_ids))
    if scale <= 1:
        raise InvalidParameter("malicious/scale", f"must exceed 1, got {scale}")
    rows = stream.rows_of(ids)
    position = {i: k for k, i in enumerate(layout.node_ids)}
    if not position.keys() >= set(ids):
        raise UnknownNode(f"nodes {sorted(set(ids) - position.keys())} not in layout")
    sigma = params.sigma_vector(layout.size)[[position[i] for i in ids]]

    k, num_blocks, n = len(ids), stream.num_blocks, stream.n
    draws = node_draws(seed, ROLE_MALICIOUS, ids, n * num_blocks + num_blocks)
    series = _ar1_series(draws[:, : n * num_blocks], params.temporal_phi)
    v = float(np.sqrt(params.noise_var)) * draws[:, n * num_blocks :] + 0.0
    blocks = stream.blocks.copy()
    desired = stream.desired.copy()
    blocks[rows] = (scale * sigma)[:, None, None] * series.reshape(k, num_blocks, n)
    desired[rows] = _desired(blocks[rows], v)
    return Stream(stream.node_ids, blocks, desired)


def awgn_channel(
    blocks: np.ndarray, desired: np.ndarray, noise: np.ndarray, snr_db: float
) -> tuple[np.ndarray, np.ndarray]:
    """Additive white Gaussian noise on every block: what the sink receives
    of ``(rows, B, n)`` blocks and their ``(rows, B)`` desired scalars.

    ``noise`` holds ``(rows, B, n + 1)`` unit normal draws, row k node k's
    ``node_draws`` of its ``ROLE_CHANNEL`` substream: ``noise[k, b]`` is
    block b's n sample draws, then its desired scalar's.  Each block's
    noise variance is its mean-square sample power scaled by
    10**(-snr_db/10), applied to its samples and its desired scalar as
    ``Generator.normal(0.0, std, n + 1)`` scales its draws.  The result is
    written into ``noise``, and the returned arrays are views of it.
    """
    n = blocks.shape[-1]
    std = np.sqrt(np.mean(blocks**2, axis=-1) * 10.0 ** (-snr_db / 10.0))
    noise *= std[..., None]
    noise += 0.0  # as Generator.normal's loc 0.0: -0.0 draws become 0.0
    noise[..., :n] += blocks
    noise[..., n] += desired
    return noise[..., :n], noise[..., n]


def ingest_csv(path, n: int, params: FieldParams, seed: int) -> Stream:
    """Build a stream from a ``timestamp,node_id,value`` CSV file.

    Rows are grouped per node into blocks of ``n`` in timestamp order
    (stable for ties); trailing samples short of a full block are dropped
    and node block counts are truncated to the common minimum.  Any
    malformed row is a hard CsvFormatError carrying its line number.
    Desired scalars are synthesized the same way as for generated streams.
    """
    rows: dict[int, list[tuple[float, float]]] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["timestamp", "node_id", "value"]:
            raise CsvFormatError("line 1: expected header 'timestamp,node_id,value'")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise CsvFormatError(f"line {lineno}: expected 3 columns, got {len(row)}")
            try:
                ts = float(row[0])
                node_id = int(row[1])
                value = float(row[2])
            except ValueError as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from None
            if not (np.isfinite(ts) and np.isfinite(value)):
                raise CsvFormatError(f"line {lineno}: non-finite entry")
            if node_id < 0:
                raise CsvFormatError(f"line {lineno}: negative node id {node_id}")
            rows.setdefault(node_id, []).append((ts, value))

    if not rows:
        raise CsvFormatError("line 2: file contains no data rows")
    num_blocks = min(len(r) for r in rows.values()) // n
    if num_blocks < 1:
        raise CsvFormatError(f"fewer than {n} samples for some node; no full block")

    node_ids = sorted(rows)
    series = np.array(
        [
            [v for _, v in sorted(rows[i], key=lambda tv: tv[0])[: num_blocks * n]]
            for i in node_ids
        ]
    )
    blocks = series.reshape(len(node_ids), num_blocks, n)
    return _measured_stream(params.noise_var, seed, node_ids, blocks)

"""Spatial field statistics and synthetic observation streams.

Node observations are zero-mean jointly Gaussian with a power-exponential
spatial correlation exp(-D/theta) over pairwise Euclidean distances, and
AR(1) temporal correlation within each node's sample sequence.  A stream
is generated by drawing cross-node innovation vectors through the Cholesky
factor of the spatial covariance, so the marginal covariance of every
sample index is exactly the configured R_uu.

Randomness discipline: one Philox substream per (seed, role, node), so
corrupting one node or toggling the channel never perturbs the draws of
any other node.  The channel goes one step further, with one substream
per (node, block).  Philox is counter-based, so a substream is fully set
by its 128-bit key: ``philox_keys`` derives the keys of every (node,
block) at once with a NumPy port of ``SeedSequence``, and the channel
re-keys one generator per block instead of building one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CsvFormatError,
    DimensionMismatch,
    InvalidParameter,
    InvalidTheta,
    UnknownNode,
)
from .numerics import as_symmetric_matrix, as_vector, cholesky_factor
from .stdp import initial_weight

# Substream roles (third entropy word of the generator key).
ROLE_FIELD = 0      # shared cross-node innovations
ROLE_MEASURE = 1    # per-node measurement noise v_i
ROLE_MALICIOUS = 2  # per-node replacement samples for corrupted nodes
ROLE_CHANNEL = 3    # per-node channel noise
ROLE_PROTOCOL = 4   # per-node client-side noise draws during the protocol


def substream(seed: int, role: int, node_id: int = 0, extra: int = 0) -> np.random.Generator:
    """Independent, reproducible generator for one (seed, role, node) slot."""
    key = np.random.SeedSequence([int(seed), int(role), int(node_id), int(extra)])
    return np.random.Generator(np.random.Philox(key))


# numpy's SeedSequence constants: pool of four 32-bit words, the hash
# multipliers of entropy mixing (A) and of state generation (B), and the
# multipliers of the pool-word mix.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """The running hash constant before each of ``count`` hash steps, and after the last."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return out


def _hashmix(value: np.ndarray, before: int, after: int) -> np.ndarray:
    value = (value ^ np.uint32(before)) * np.uint32(after)
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def _mixed_keys(words: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(2, np.uint64)`` for each row of
    an entropy table given as its W >= 1 uint32 word columns (arrays of
    one length, or of length 1 for a word every row shares)."""
    width = len(words)
    steps = _POOL_SIZE * _POOL_SIZE + max(width - _POOL_SIZE, 0) * _POOL_SIZE
    consts = _hash_constants(_INIT_A, _MULT_A, steps)
    hashes = iter(zip(consts, consts[1:]))
    zero = np.zeros(1, np.uint32)
    pool = [
        _hashmix(words[i] if i < width else zero, *next(hashes)) for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(hashes)))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(words[src], *next(hashes)))
    consts = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)
    state = [
        _hashmix(pool[i], consts[i], consts[i + 1]).astype(np.uint64) for i in range(_POOL_SIZE)
    ]
    return np.stack(
        [state[0] | state[1] << np.uint64(32), state[2] | state[3] << np.uint64(32)], axis=1
    )


def philox_keys(columns: Sequence) -> np.ndarray:
    """The Philox key of ``SeedSequence(row)`` for every row of an entropy
    table, as an ``(R, 2)`` uint64 array.

    The table is given by column: each entry of ``columns`` is either one
    int (of any size) shared by every row, or an array of R non-negative
    64-bit integers.  Row r's key equals
    ``np.random.SeedSequence([c[r] for c in columns]).generate_state(2, np.uint64)``,
    the key ``Philox(SeedSequence(row))`` runs on.  SeedSequence splits each
    value into 32-bit words, least significant first (one word below
    2**32, more above), and mixes the row's words in order, so rows are
    grouped by which of their values take two words and each group is
    mixed at once.
    """
    rows = max((np.size(c) for c in columns if np.ndim(c)), default=1)
    # Per column, its word arrays: one-element arrays for a shared int, the
    # low and high words for an array column.
    parts = []
    layout = np.zeros(rows, np.int64)  # bit c set: column c takes two words in this row
    for c, value in enumerate(columns):
        if np.ndim(value) == 0:
            value = int(value)
            if value < 0:
                raise ValueError(f"entropy must be non-negative, got {value}")
            count = max(1, (value.bit_length() + 31) // 32)
            parts.append([np.array([value >> 32 * k & 0xFFFFFFFF], np.uint32) for k in range(count)])
            continue
        value = np.asarray(value)
        if value.shape != (rows,) or value.dtype.kind not in "iu":
            raise ValueError(f"an entropy column must hold {rows} integers")
        if value.dtype.kind == "i" and rows and value.min() < 0:
            raise ValueError("entropy must be non-negative")
        value = value.astype(np.uint64, copy=False)
        high = (value >> np.uint64(32)).astype(np.uint32)
        parts.append([value.astype(np.uint32), high])
        layout |= (high != 0).astype(np.int64) << c
    keys = np.empty((rows, 2), np.uint64)
    groups = np.unique(layout)
    for group in groups:
        at = slice(None) if groups.size == 1 else layout == group
        words = []
        for c, (value, part) in enumerate(zip(columns, parts)):
            if np.ndim(value) == 0:
                words += part
            else:
                words += [w[at] for w in part[: 1 + (group >> c & 1)]]
        keys[at] = _mixed_keys(words)
    return keys


def channel_keys(seed: int, node_ids: Sequence[int], num_blocks: int) -> np.ndarray:
    """``(m, num_blocks, 2)`` table whose entry ``[k, b]`` is the Philox key
    of ``substream(seed, ROLE_CHANNEL, node_ids[k], b)``."""
    ids = np.asarray(node_ids, dtype=np.int64)
    keys = np.empty((ids.size, num_blocks, 2), np.uint64)
    blocks = np.arange(num_blocks, dtype=np.int64)
    # A few thousand keys at a time keep the derivation's temporaries small.
    step = max(1, 4096 // num_blocks)
    for start in range(0, ids.size, step):
        chunk = ids[start : start + step]
        keys[start : start + step] = philox_keys(
            [seed, ROLE_CHANNEL, np.repeat(chunk, num_blocks), np.tile(blocks, chunk.size)]
        ).reshape(chunk.size, num_blocks, 2)
    return keys


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
        if not np.all(np.asarray(self.sigma_u, dtype=float) > 0):
            raise InvalidParameter("field/sigma_u", f"must be > 0, got {self.sigma_u}")
        if not self.sigma_d > 0:
            raise InvalidParameter("field/sigma_d", f"must be > 0, got {self.sigma_d}")
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
    """Per-node sample blocks as arrays, plus the configuration that produced them.

    Row k of every array belongs to node ``node_ids[k]``, and the ids are
    ascending, the row order of ``stdp.ProtocolState``: ``blocks[k]`` is
    that node's ``(num_blocks, n)`` array of sample windows, ``desired[k]``
    its ``(num_blocks,)`` desired scalars and ``sigma[k]`` its nominal
    signal standard deviation.  Every entry is checked finite once, here.
    """

    params: FieldParams
    n: int
    num_blocks: int
    node_ids: tuple[int, ...]
    blocks: np.ndarray
    desired: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        m = len(self.node_ids)
        if any(a >= b for a, b in zip(self.node_ids, self.node_ids[1:])):
            raise ValueError("stream node ids must be strictly ascending")
        if self.blocks.shape != (m, self.num_blocks, self.n):
            raise DimensionMismatch(
                f"blocks have shape {self.blocks.shape}, expected {(m, self.num_blocks, self.n)}"
            )
        if self.desired.shape != (m, self.num_blocks) or self.sigma.shape != (m,):
            raise DimensionMismatch("desired and sigma must have one row per node")
        if not (np.isfinite(self.blocks).all() and np.isfinite(self.desired).all()):
            raise ValueError("stream entries must be finite")

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
        return replace(
            self,
            node_ids=node_ids,
            blocks=self.blocks[rows],
            desired=self.desired[rows],
            sigma=self.sigma[rows],
        )


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
    time-major, one step over every series at a time.  For the C-ordered
    ``(m, total)`` input of both callers, ``np.moveaxis`` gives a view
    whose step rows are strided, their m values ``total * 8`` bytes apart;
    ``damp * steps`` keeps that layout, so the path comes back C-ordered.
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
    """Desired scalars u_b @ w0 + v_b for every window along the last axis.

    ``np.vecdot`` sums each window in the same order as a 1-D ``u @ w0``,
    so the scalars are bit-identical to a per-window dot product.
    """
    return np.vecdot(blocks, initial_weight(blocks.shape[-1])) + noise


def _measured_stream(
    params: FieldParams, seed: int, node_ids: Sequence[int], blocks: np.ndarray, sigma: np.ndarray
) -> Stream:
    """Stream over ``(m, num_blocks, n)`` blocks whose desired scalars carry
    each node's measurement noise, drawn from its own substream.  Row k of
    ``blocks`` and ``sigma`` is node ``node_ids[k]``; the stream reorders
    the rows by ascending id."""
    order = np.argsort(node_ids, kind="stable")
    node_ids = [int(node_ids[k]) for k in order]
    blocks, sigma = blocks[order], sigma[order]
    m, num_blocks, n = blocks.shape
    noise_std = float(np.sqrt(params.noise_var))
    noise = np.array(
        [substream(seed, ROLE_MEASURE, i).normal(0.0, noise_std, num_blocks) for i in node_ids]
    )
    return Stream(
        params=params,
        n=n,
        num_blocks=num_blocks,
        node_ids=tuple(node_ids),
        blocks=blocks,
        desired=_desired(blocks, noise),
        sigma=sigma,
    )


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
    samples @ w0 + v with w0 the normalized all-ones initial weight and v
    drawn per node at variance noise_var.  Bit-identical for equal seeds.
    A degenerate layout raises NotPositiveDefinite.
    """
    if n < 1 or num_blocks < 1:
        raise ValueError("n and num_blocks must be >= 1")
    m = layout.size
    low = cholesky_factor(build_spatial_covariance(layout, params).ruu)

    total = n * num_blocks
    rng_field = substream(seed, ROLE_FIELD)
    # One draw of shape (total, m): all nodes' innovations for sample t sit
    # in row t, matching the per-sample-index draw order of the contract.
    z = rng_field.standard_normal((total, m))
    innovations = low @ z.T  # m x total, marginal covariance exactly ruu
    series = _ar1_series(innovations, params.temporal_phi)

    return _measured_stream(
        params, seed, layout.node_ids, series.reshape(m, num_blocks, n), params.sigma_vector(m)
    )


def inject_malicious(stream: Stream, node_ids: Iterable[int], scale: float, seed: int) -> Stream:
    """Replace the listed nodes' observations with abnormally spread ones.

    A corrupted node senses an independent AR(1) signal whose standard
    deviation is ``scale`` times its nominal one; its desired scalars are
    recomputed from the corrupted samples.  All draws come from that
    node's dedicated substream, so every other node's blocks are returned
    bit-for-bit untouched.
    """
    ids = sorted(set(int(i) for i in node_ids))
    if scale <= 1:
        raise ValueError(f"scale must exceed 1, got {scale}")
    rows = stream.rows_of(ids)

    k, num_blocks, n = len(ids), stream.num_blocks, stream.n
    noise_std = float(np.sqrt(stream.params.noise_var))
    # Each node draws its innovations, then its measurement noise, from its
    # own substream; the k series then run as one recursion.
    rngs = [substream(seed, ROLE_MALICIOUS, i) for i in ids]
    innovations = np.array([rng.standard_normal(n * num_blocks) for rng in rngs])
    series = _ar1_series(innovations.reshape(k, n * num_blocks), stream.params.temporal_phi)
    v = np.array([rng.normal(0.0, noise_std, num_blocks) for rng in rngs])
    blocks = stream.blocks.copy()
    desired = stream.desired.copy()
    blocks[rows] = (scale * stream.sigma[rows])[:, None, None] * series.reshape(k, num_blocks, n)
    desired[rows] = _desired(blocks[rows], v.reshape(k, num_blocks))
    return replace(stream, blocks=blocks, desired=desired)


def awgn_channel(
    samples: np.ndarray,
    desired: np.ndarray,
    keys: np.ndarray,
    snr_db: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Additive white Gaussian noise on the blocks transmitted in one round.

    Row k of ``samples`` (``(k, n)``) and ``desired`` is one node's block,
    and ``keys[k]`` is the Philox key of that (node, block)'s own channel
    substream (see ``channel_keys``).  Each block's per-sample noise
    variance is its mean-square sample power scaled by 10**(-snr_db/10);
    the same variance is applied to its desired scalar.

    ``rng`` is a Generator over a Philox bit generator, re-keyed here once
    per row with its counter at zero: row k draws exactly what
    ``np.random.Generator(np.random.Philox(key))`` would, n samples' noise
    and then the desired scalar's, scaled as ``Generator.normal`` scales.
    """
    count, n = samples.shape
    noise_std = np.sqrt(np.mean(samples**2, axis=1) * 10.0 ** (-snr_db / 10.0))
    bit_generator = rng.bit_generator
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    z = np.empty((count, n + 1))
    for row, key in enumerate(keys.tolist()):
        fresh["state"]["key"] = key
        bit_generator.state = fresh
        rng.standard_normal(out=z[row])
    noise = 0.0 + noise_std[:, None] * z
    return samples + noise[:, :n], desired + noise[:, n]


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
    return _measured_stream(
        params,
        seed,
        node_ids,
        series.reshape(len(node_ids), num_blocks, n),
        np.array([float(np.std(s)) or 1.0 for s in series]),
    )

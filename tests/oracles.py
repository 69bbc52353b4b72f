"""Independent reference implementations used only by the tests.

Nothing here may import from wsnadapt's numeric kernels: these exist to
cross-check them.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

import numpy as np

from wsnadapt.stdp import (
    CLIENT_ADAPTIVE,
    CLIENT_PREDICTING,
    KIND_BITS,
    RAW_TRANSMIT,
    SINK_ADAPTIVE,
    MessageKind,
)


def gauss_solve(a, b) -> np.ndarray:
    """Gaussian elimination with partial pivoting (dense, no factor reuse)."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    aug = np.hstack([a, b.reshape(-1, 1)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if aug[pivot, col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        for row in range(col + 1, n):
            factor = aug[row, col] / aug[col, col]
            aug[row, col:] -= factor * aug[col, col:]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (aug[row, n] - aug[row, row + 1 : n] @ x[row + 1 : n]) / aug[row, row]
    return x


def jacobi_eigenvalues(a, sweeps: int = 50, tol: float = 1e-14) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    m = np.array(a, dtype=float)
    n = m.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(m, -1) ** 2))
        if off < tol * max(1.0, np.max(np.abs(np.diag(m)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if m[p, q] == 0.0:
                    continue
                theta = 0.5 * np.arctan2(2.0 * m[p, q], m[q, q] - m[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                m = rot.T @ m @ rot
    return np.sort(np.diag(m))


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc @ yc) / np.sqrt((xc @ xc) * (yc @ yc)))


def quadratic_error(ruu, rdu, sigma_d_sq, w) -> float:
    """Direct evaluation of the estimation error sigma^2 - 2 r.w + w.R.w."""
    w = np.asarray(w, dtype=float)
    return float(sigma_d_sq - 2.0 * (np.asarray(rdu) @ w) + w @ (np.asarray(ruu) @ w))


def best_accuracy_per_size(ruu, rdu, sigma_d_sq) -> dict[int, float]:
    """Exhaustive best-subset accuracy for every subset size (small m only)."""
    m = np.asarray(ruu).shape[0]
    best: dict[int, float] = {}
    for size in range(1, m + 1):
        top = -np.inf
        for subset in combinations(range(m), size):
            idx = list(subset)
            sub_r = np.asarray(ruu)[np.ix_(idx, idx)]
            sub_d = np.asarray(rdu)[idx]
            w = gauss_solve(sub_r, sub_d)
            acc = 1.0 - quadratic_error(sub_r, sub_d, sigma_d_sq, w) / sigma_d_sq
            top = max(top, acc)
        best[size] = top
    return best


def prefix_accuracy_curve(positions, sink, node_ids, sigma_u, theta, sigma_d=1.0):
    """Sink-distance ranking (id breaks ties) and the optimal accuracy of
    every prefix, each prefix solved from scratch with numpy.linalg.solve.

    Builds R_uu[i, j] = s_i s_j exp(-D_ij / theta) and R_du[i] =
    sigma_d s_i exp(-D_i,sink / theta) straight from the geometry; the
    accuracy of the first k ranked nodes is R_du_k . R_uu_k^-1 R_du_k / sigma_d^2.
    """
    p = np.asarray(positions, dtype=float)
    m = p.shape[0]
    sig = np.broadcast_to(np.asarray(sigma_u, dtype=float), (m,))
    to_sink = np.linalg.norm(p - np.asarray(sink, dtype=float), axis=1)
    ranked = sorted(range(m), key=lambda k: (to_sink[k], node_ids[k]))
    p, sig, to_sink = p[ranked], sig[ranked], to_sink[ranked]
    pair = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=2)
    ruu = np.outer(sig, sig) * np.exp(-pair / theta)
    rdu = sigma_d * sig * np.exp(-to_sink / theta)
    curve = [
        rdu[:k] @ np.linalg.solve(ruu[:k, :k], rdu[:k]) / sigma_d**2 for k in range(1, m + 1)
    ]
    return tuple(node_ids[k] for k in ranked), np.array(curve)


def global_ia_update(w_prev, blocks, mu) -> np.ndarray:
    """Instantaneous-approximation sweep w + mu * sum_i (u_i^T d_i - u_i^T u_i w).

    Algebraically identical to the library's simultaneous LMS sweep, but
    evaluated term by term over (u_i, d_i) pairs through outer products.
    """
    w_prev = np.asarray(w_prev, dtype=float)
    step = np.zeros_like(w_prev)
    for u, d in blocks:
        u = np.asarray(u, dtype=float)
        step += u * float(d) - np.outer(u, u) @ w_prev
    return w_prev + mu * step


def random_spd(rng: np.random.Generator, n: int, jitter: float = 1e-3) -> np.ndarray:
    m = rng.normal(size=(n, n))
    return m @ m.T + jitter * np.eye(n)


def random_layout(rng: np.random.Generator, m: int, side: float = 4.0, min_sep: float = 0.3):
    """Node positions with a minimum pairwise separation (keeps SPD healthy)."""
    points: list[tuple[float, float]] = []
    while len(points) < m + 1:  # last point doubles as the sink
        cand = tuple(rng.uniform(0.0, side, 2))
        if all(np.hypot(cand[0] - p[0], cand[1] - p[1]) >= min_sep for p in points):
            points.append(cand)
    return points[:m], points[m]


def awgn_channel_per_node(blocks, desired, node_ids, snr_db, seed, role):
    """The AWGN channel with one freshly seeded generator per node, read
    block by block.

    Row k of ``blocks`` (``(rows, B, n)``) and ``desired`` (``(rows, B)``)
    is node ``node_ids[k]``, which draws from
    ``Philox(SeedSequence([seed, role, node, 0]))`` one block after the
    other: n samples' noise, then the desired scalar's, at a variance of the
    block's mean-square power times 10**(-snr_db/10).
    """
    noisy = np.empty_like(blocks)
    noisy_desired = np.empty_like(desired)
    for k, node_id in enumerate(node_ids):
        key = np.random.SeedSequence([int(seed), int(role), int(node_id), 0])
        rng = np.random.Generator(np.random.Philox(key))
        for b, u in enumerate(blocks[k]):
            power = float(np.mean(u**2))
            noise_std = float(np.sqrt(power * 10.0 ** (-snr_db / 10.0)))
            noise = rng.normal(0.0, noise_std, u.size + 1)
            noisy[k, b] = u + noise[:-1]
            noisy_desired[k, b] = desired[k, b] + noise[-1]
    return noisy, noisy_desired


def replay_client_updates(step, state, rounds, adaptive):
    """Every client-filter update of an engine run as (round, row, weight)
    triples, grouped by row and chronological within a row.

    ``step()`` advances the engine ``state`` by one round.  A row steps its
    filter in a round it starts in phase code ``adaptive``, the phase it
    ended the previous round in.  The update is the row of
    ``state.client_weight`` read after that round.
    """
    updates = []
    for r in range(rounds):
        starts = np.flatnonzero(state.phase == adaptive).tolist()
        step()
        updates.extend((r, k, state.client_weight[k].copy()) for k in starts)
    return sorted(updates, key=lambda update: update[1])


class ReferenceRun(NamedTuple):
    """One point's protocol run as ``reference_protocol`` makes it.

    ``phase``, ``kinds``, ``error_glob`` and ``error_new`` hold one row per
    completed round, shaped as an engine trace's columns; ``updates`` lists
    every client-filter step as ``(round, node index, weight)`` in time
    order; ``mu`` and ``global_weight`` are the sink's after the last
    completed round.  ``stop`` is ``(round, message)`` for a run that
    stopped at a non-finite value, else None.
    """

    phase: np.ndarray
    kinds: np.ndarray
    error_glob: np.ndarray
    error_new: np.ndarray
    updates: list
    mu: float
    global_weight: np.ndarray
    stop: tuple[int, str] | None


def reference_protocol(node_ids, blocks, desired, thresholds, mu=None, noise=None, received=None):
    """The dual-prediction protocol of one point, node by node in plain
    Python over 1-D dot products, written from the phase table of the
    ``stdp`` module docstring.

    Node k (id ``node_ids[k]``) senses ``blocks[k, r]`` (``(m, rounds, n)``)
    and ``desired[k, r]`` in round r and draws client noise ``noise[k, r]``
    (default zeros); the sink receives ``received = (blocks, desired)`` of
    what it sends (default: the sensed arrays).  ``mu`` is the step size,
    or None for the automatic rule: in a round with a raw node,
    0.5 / (m * lambda_max) of ``U.T @ U / k`` over the k received blocks.
    The sink's errors are one ``d - U @ w`` over the round's received rows,
    as the engine computes them; every other value is per node.  The run
    stops at the first non-finite client error, covariance or sink error,
    in that order, with the engine's message.
    """
    blocks = np.asarray(blocks, dtype=float)
    m, rounds, n = blocks.shape
    noise = np.zeros((m, rounds)) if noise is None else noise
    sink_blocks, sink_desired = (blocks, desired) if received is None else received
    query, own_weight, data, global_weight = (
        KIND_BITS[kind]
        for kind in (MessageKind.QUERY, MessageKind.NODE_WEIGHT, MessageKind.DATA_BLOCK,
                     MessageKind.GLOBAL_WEIGHT)
    )
    phase_log = np.zeros((rounds, m), dtype=np.uint8)
    kinds_log = np.zeros((rounds, m), dtype=np.uint8)
    error_glob = np.zeros((rounds, m))
    error_new = np.zeros((rounds, m))
    updates = []
    w = np.full(n, 1.0 / np.sqrt(n))
    step = math.nan if mu is None else float(mu)
    phase = [RAW_TRANSMIT] * m
    client = [None] * m  # Wc, the client filter
    seed = [None] * m  # Wr, the global weight the client was sent

    def stopped(r, what):
        done = slice(0, r)
        return ReferenceRun(
            phase_log[done], kinds_log[done], error_glob[done], error_new[done], updates, step, w,
            (r, f"diverged in round {r}: non-finite {what}"),
        )

    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(rounds):
            phase_log[r] = phase
            loud = [False] * m
            for k in range(m):
                if phase[k] < CLIENT_ADAPTIVE:
                    continue
                u = blocks[k, r]
                d_new = u @ seed[k] + noise[k, r]
                if phase[k] == CLIENT_ADAPTIVE:
                    client[k] = client[k] + (step * u) * (d_new - u @ client[k])
                    updates.append((r, k, client[k]))
                error_new[r, k] = d_new - u @ client[k]
                loud[k] = abs(error_new[r, k]) > thresholds.beta
                if not math.isfinite(error_new[r, k]):
                    return stopped(r, f"client error for node {node_ids[k]}")

            sent = [
                k for k in range(m)
                if phase[k] <= SINK_ADAPTIVE or (phase[k] == CLIENT_ADAPTIVE and loud[k])
            ]
            near = [False] * m
            if sent:
                u, d = sink_blocks[sent, r], sink_desired[sent, r]
                if mu is None and any(phase[k] == RAW_TRANSMIT for k in sent):
                    cov = u.T @ u / len(sent)
                    if not math.isfinite(np.abs(cov).sum()):
                        return stopped(r, "block covariance at the sink")
                    lam = np.linalg.eigvalsh(cov)[-1]
                    step = 0.5 / (m * lam) if lam > 0 else 0.0
                total = np.zeros(n)
                for j in range(len(sent)):
                    total = total + u[j] * (d[j] - u[j] @ w)
                w = w + step * total
                e = d - u @ w
                for j, k in enumerate(sent):
                    error_glob[r, k] = e[j]
                    near[k] = abs(e[j]) <= thresholds.alpha
                for j, k in enumerate(sent):
                    if not math.isfinite(e[j]):
                        return stopped(r, f"sink error for node {node_ids[k]}")

            for k in range(m):
                kinds = query if r == 0 else 0
                if k in sent:
                    kinds |= data
                if phase[k] <= SINK_ADAPTIVE:
                    if near[k]:
                        kinds |= global_weight
                        phase[k] = CLIENT_ADAPTIVE
                        client[k] = seed[k] = w
                    else:
                        phase[k] = SINK_ADAPTIVE
                elif phase[k] == CLIENT_ADAPTIVE and not loud[k]:
                    kinds |= own_weight
                    phase[k] = CLIENT_PREDICTING
                elif phase[k] == CLIENT_PREDICTING and loud[k]:
                    phase[k] = RAW_TRANSMIT
                kinds_log[r, k] = kinds
    return ReferenceRun(phase_log, kinds_log, error_glob, error_new, updates, step, w, None)

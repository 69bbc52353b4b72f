"""Independent reference implementations used only by the tests.

Nothing here may import from wsnadapt's numeric kernels: these exist to
cross-check them.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


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


def awgn_channel_per_block(samples, desired, node_ids, block_index, snr_db, seed, role):
    """The AWGN channel with one freshly seeded generator per transmitted block.

    Block ``block_index`` of node ``node_ids[k]`` (row k) draws from
    ``Philox(SeedSequence([seed, role, node, block_index]))``: n samples'
    noise, then the desired scalar's, at a variance of the block's
    mean-square power times 10**(-snr_db/10).
    """
    noisy = np.empty_like(samples)
    noisy_desired = np.empty_like(desired)
    for k, node_id in enumerate(node_ids):
        key = np.random.SeedSequence([int(seed), int(role), int(node_id), int(block_index)])
        rng = np.random.Generator(np.random.Philox(key))
        power = float(np.mean(samples[k] ** 2))
        noise_std = float(np.sqrt(power * 10.0 ** (-snr_db / 10.0)))
        noisy[k] = samples[k] + rng.normal(0.0, noise_std, samples.shape[1])
        noisy_desired[k] = desired[k] + rng.normal(0.0, noise_std)
    return noisy, noisy_desired


def replay_client_updates(step, state, rounds, adaptive, handoff):
    """Every client-filter update of an engine run as (round, row, weight)
    triples, grouped by row and chronological within a row.

    ``step()`` advances the engine ``state`` by one round.  A row steps its
    filter in a round it starts in phase code ``adaptive``: it ended the
    previous round there, or a queued message of kind code ``handoff`` (a
    global weight) puts it there on delivery.  The update is the row of
    ``state.client_weight`` read after that round.
    """
    updates = []
    for r in range(rounds):
        mail = state.pending
        starts = set(np.flatnonzero(state.phase == adaptive).tolist())
        starts |= set(mail.row[mail.kind == handoff].tolist())
        step()
        updates.extend((r, k, state.client_weight[k].copy()) for k in sorted(starts))
    return sorted(updates, key=lambda update: update[1])

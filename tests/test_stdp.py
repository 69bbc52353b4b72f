import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import global_ia_update, replay_client_updates
from wsnadapt import stdp
from wsnadapt.errors import DimensionMismatch, Diverged
from wsnadapt.fieldgen import (
    ROLE_MEASURE,
    ROLE_PROTOCOL,
    FieldParams,
    NodeLayout,
    generate_stream,
    substream,
)
from wsnadapt.numerics import max_eigenvalue
from wsnadapt.sim import default_layout, default_scenario, plan, simulate_protocol
from wsnadapt.stdp import (
    CLIENT_ADAPTIVE,
    CLIENT_PREDICTING,
    SINK_ADAPTIVE,
    KIND_BITS,
    PHASES,
    MessageKind,
    Phase,
    Thresholds,
    TraceRow,
    _client_step,
    _desired,
    errstate,
    initial_weight,
    kinds_of,
    new_protocol_state,
    total_percentages,
    step_round,
    transmission_percentage,
)


# The measurement noise variance of ``make_stream``'s streams, unless given.
NOISE_VAR = 0.01


def make_stream(num_blocks, n=5, seed=0, layout=None, noise_var=NOISE_VAR, phi=0.9):
    layout = layout or default_layout()
    params = FieldParams(noise_var=noise_var, temporal_phi=phi)
    return layout, generate_stream(layout, params, n, num_blocks, seed)


def trace_rows(state, r):
    """Round r node by node, read off the state's trace columns."""
    trace = state.trace
    return [
        TraceRow(
            r,
            node_id,
            PHASES[trace.phase[r, k]],
            kinds_of(int(trace.kinds[r, k])),
            float(trace.error_glob[r, k]) if trace.transmitted[r, k] else None,
            float(trace.error_new[r, k]) if trace.phase[r, k] >= CLIENT_ADAPTIVE else None,
            bool(trace.transmitted[r, k]),
        )
        for k, node_id in enumerate(state.node_ids)
    ]


def drive(layout, stream, thresholds, mu=None, noise_seed=None, received=None):
    """Run the engine over a whole stream, returning (state, rows, kinds):
    the rows read off the trace and each round's row of ``trace.kinds``.
    With ``noise_seed`` the clients draw noise of variance ``NOISE_VAR``."""
    ids = list(stream.node_ids)
    noise = None
    if noise_seed is not None:
        std = float(np.sqrt(NOISE_VAR))
        noise = np.array(
            [substream(noise_seed, ROLE_PROTOCOL, i).normal(0, std, stream.num_blocks) for i in ids]
        )
    state = new_protocol_state(
        ids, stream.blocks, stream.desired, thresholds, mu=mu, client_noise=noise, received=received
    )
    with errstate():
        for _ in range(stream.num_blocks):
            step_round(state)
    rows = [row for r in range(state.round_index) for row in trace_rows(state, r)]
    return state, rows, list(state.trace.kinds[: state.round_index])


def first_round(ids, samples, desired, thresholds, sizes=None):
    """A one-round state over the given ``(rows, n)`` samples and desired
    values."""
    return new_protocol_state(ids, samples[:, None], desired[:, None], thresholds, sizes)


def queued(state, kinds, kind):
    """Node ids of the rows whose round kind mask ``kinds`` has one kind."""
    return [state.node_ids[k] for k in np.flatnonzero(kinds & KIND_BITS[kind]).tolist()]


def one_round_sweep(w_prev, samples, desired, mu):
    """The global weight after one all-raw round of a one-point engine that
    starts from ``w_prev``, with ``samples[i]`` and ``desired[i]`` node
    i's block and desired value and an explicit step size ``mu``."""
    ids = range(1, len(samples) + 1)
    state = new_protocol_state(
        ids, np.asarray(samples)[:, None], np.asarray(desired)[:, None], Thresholds(), mu=mu
    )
    state.global_weight[0] = w_prev
    with errstate():
        step_round(state)
    return state.global_weight[0]


def test_initial_weight_values_and_norm():
    assert np.array_equal(initial_weight(1), [1.0])
    assert np.array_equal(initial_weight(4), [0.5, 0.5, 0.5, 0.5])
    for n in range(1, 65):
        assert np.linalg.norm(initial_weight(n)) == pytest.approx(1.0, abs=1e-12)


def test_global_lms_single_term():
    w = one_round_sweep([0.0, 0.0], [[1.0, 0.0]], [1.0], mu=0.5)
    assert np.array_equal(w, [0.5, 0.0])


def test_global_updates_fixed_point():
    rng = np.random.default_rng(2)
    w = rng.normal(size=4)
    u = rng.normal(size=(6, 4))
    d = u @ w  # zero innovation
    assert np.allclose(one_round_sweep(w, u, d, 0.3), w, atol=1e-14)
    assert np.allclose(global_ia_update(w, list(zip(u, d)), 0.3), w, atol=1e-12)


def test_global_lms_matches_term_by_term_oracle():
    rng = np.random.default_rng(3)
    w_prev = rng.normal(size=5)
    u = rng.normal(size=(6, 5))
    d = rng.normal(size=6)
    mu = 0.07
    acc = np.zeros(5)
    for u_i, d_i in zip(u, d):
        acc = acc + u_i * (d_i - float(u_i @ w_prev))
    expected = w_prev + mu * acc
    got = one_round_sweep(w_prev, u, d, mu)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_client_desired_and_statistics():
    assert _desired(np.array([1.0, 1.0]), np.array([0.5, 0.5]), 0.0) == 1.0
    assert _desired(np.array([1.0, 1.0]), np.array([0.0, 0.0]), 0.25) == 0.25
    rng = np.random.default_rng(13)
    u = rng.normal(size=5)
    w = rng.normal(size=5)
    noise_var = 0.04
    draws = rng.normal(0, np.sqrt(noise_var), 10_000)
    resid = _desired(u, w, draws) - float(u @ w)
    assert abs(resid.var() / noise_var - 1.0) < 0.1


def test_client_update_trivials():
    w = _client_step(np.zeros(2), np.array([1.0, 0.0]), 1.0, mu=0.5)
    assert np.array_equal(w, [0.5, 0.0])
    rng = np.random.default_rng(21)
    w_prev = rng.normal(size=4)
    u = rng.normal(size=4)
    unchanged = _client_step(w_prev, u, float(u @ w_prev), mu=0.4)
    assert np.allclose(unchanged, w_prev, atol=1e-15)
    # stacked rows update exactly as one vector at a time, with one step
    # size for all rows or a column of one per row
    w_rows, u_rows, d_rows = rng.normal(size=(7, 4)), rng.normal(size=(7, 4)), rng.normal(size=7)
    mus = rng.uniform(0.1, 0.5, size=7)
    for mu, row_mu in ((0.3, [0.3] * 7), (mus[:, None], mus)):
        stacked = _client_step(w_rows, u_rows, d_rows, mu)
        for k in range(7):
            assert np.array_equal(stacked[k], _client_step(w_rows[k], u_rows[k], d_rows[k], row_mu[k]))
    for k in range(7):
        assert _desired(u_rows, w_rows, d_rows)[k] == _desired(u_rows[k], w_rows[k], d_rows[k])


def test_client_update_convergence_on_ar1_stream():
    # scripted local filter with the default step-size rule: errors fall
    # below beta=0.1 within 200 blocks
    from wsnadapt.numerics import max_eigenvalue

    layout, stream = make_stream(200, seed=9)
    m = len(layout.node_ids)
    first = stream.blocks[:, 0]
    mu = 0.5 / (m * max_eigenvalue(first.T @ first / m))
    w_glob = initial_weight(5)
    rng = np.random.default_rng(9)
    w = w_glob.copy()
    errors = []
    (row,) = stream.rows_of([2])
    for u in stream.blocks[row]:
        d_new = _desired(u, w_glob, rng.normal(0, 0.1))
        w = _client_step(w, u, d_new, mu)
        errors.append(abs(d_new - float(u @ w)))
    assert min(errors[:200]) < 0.1
    assert np.mean(errors[-50:]) < 0.1


def test_step_round_huge_alpha_hands_off_everyone():
    layout, stream = make_stream(3, seed=1)
    state, rows, kinds = drive(layout, stream, Thresholds(alpha=1e9, beta=0.05), noise_seed=1)
    handed = set(queued(state, kinds[0], MessageKind.GLOBAL_WEIGHT))
    assert handed == set(layout.node_ids)
    round1 = [r for r in rows if r.round_index == 1]
    assert all(r.phase is Phase.CLIENT_ADAPTIVE for r in round1)


def test_step_round_beta_zero_never_stops():
    layout, stream = make_stream(40, seed=2)
    state, rows, _ = drive(layout, stream, Thresholds(alpha=0.5, beta=0.0), noise_seed=2)
    pct = transmission_percentage(state)
    assert all(p == 100.0 for p in pct)
    assert all(r.transmitted for r in rows)


def test_step_round_huge_beta_floor():
    layout, stream = make_stream(50, seed=3)
    state, rows, _ = drive(layout, stream, Thresholds(alpha=1e9, beta=1e9), noise_seed=3)
    pct = transmission_percentage(state)
    assert all(p == pytest.approx(100.0 / 50) for p in pct)


def test_mode_exclusivity_and_conservation():
    layout, stream = make_stream(120, seed=4)
    state, rows, _ = drive(layout, stream, Thresholds(alpha=0.5, beta=0.05), noise_seed=4)
    for row in rows:
        assert not (row.phase is Phase.CLIENT_PREDICTING and row.transmitted)
    for k, i in enumerate(state.node_ids):
        sent = sum(r.transmitted for r in rows if r.node_id == i)
        kept = sum(not r.transmitted for r in rows if r.node_id == i)
        assert transmission_percentage(state)[k] == 100.0 * sent / 120
        assert sent + kept == state.round_index == 120


def test_message_causality():
    layout, stream = make_stream(120, seed=5)
    thresholds = Thresholds(alpha=0.5, beta=0.05)
    state, rows, kinds = drive(layout, stream, thresholds, noise_seed=5)
    by_round = {}
    for row in rows:
        by_round[(row.round_index, row.node_id)] = row
    for r, batch in enumerate(kinds):
        for receiver in queued(state, batch, MessageKind.GLOBAL_WEIGHT):
            row = by_round[(r, receiver)]
            assert row.error_glob is not None
            assert abs(row.error_glob) <= thresholds.alpha
        for sender in queued(state, batch, MessageKind.NODE_WEIGHT):
            row = by_round[(r, sender)]
            assert row.error_new is not None
            assert abs(row.error_new) <= thresholds.beta
            assert not row.transmitted


def test_trace_is_deterministic():
    layout, stream = make_stream(60, seed=6)
    a = drive(layout, stream, Thresholds(0.5, 0.05), noise_seed=6)
    b = drive(layout, stream, Thresholds(0.5, 0.05), noise_seed=6)
    assert a[1] == b[1]
    assert np.array_equal(transmission_percentage(a[0]), transmission_percentage(b[0]))
    assert np.array_equal(a[0].global_weight, b[0].global_weight)


def test_noiseless_predicting_never_reverts():
    layout, stream = make_stream(60, seed=7, noise_var=0.0)
    state, rows, _ = drive(layout, stream, Thresholds(alpha=0.5, beta=0.05))
    entered = {}
    for row in rows:
        if row.node_id not in entered and row.phase is Phase.CLIENT_PREDICTING:
            entered[row.node_id] = row.round_index
    assert entered, "no node ever reached prediction mode"
    for row in rows:
        if row.node_id in entered and row.round_index >= entered[row.node_id]:
            assert row.phase is Phase.CLIENT_PREDICTING
            assert not row.transmitted


@pytest.mark.parametrize("sizes", [None, [2, 2]])
def test_node_ids_must_ascend_within_a_point(sizes):
    # Row k's blocks are node ids[k]'s: ids out of order would label one
    # node's samples as another's, so they are refused, not sorted.
    ids = [1, 2, 4, 3] if sizes else [2, 1]
    samples = np.arange(len(ids), dtype=float)[:, None] * np.ones(3)
    with pytest.raises(DimensionMismatch) as err:
        first_round(ids, samples, np.zeros(len(ids)), Thresholds(), sizes)
    point = 1 if sizes else 0
    assert str(err.value) == f"point {point}: node ids {ids[-2:]} do not strictly ascend"
    with pytest.raises(DimensionMismatch, match=r"point 0: node ids \[3, 3\] do not strictly ascend"):
        first_round([3, 3], samples[:2], np.zeros(2), Thresholds())
    # Points may share ids.
    ids = [1, 2, 1, 2] if sizes else [1, 2]
    state = first_round(ids, samples, np.zeros(len(ids)), Thresholds(), sizes)
    assert state.node_ids == tuple(ids)
    assert state.blocks[:, 0, 0].tolist() == samples[:, 0].tolist()


def test_step_round_requires_block_per_node():
    layout, stream = make_stream(2, seed=10)
    ids, thresholds = list(layout.node_ids), Thresholds(0.5, 0.05)
    with pytest.raises(DimensionMismatch):
        new_protocol_state(ids, stream.blocks[:-1], stream.desired[:-1], thresholds)
    with pytest.raises(DimensionMismatch):
        new_protocol_state(ids, stream.blocks[:, 0], stream.desired, thresholds)
    # every round of the blocks, and no other
    with pytest.raises(DimensionMismatch):
        new_protocol_state(ids, stream.blocks[:, :1], stream.desired, thresholds)
    with pytest.raises(DimensionMismatch):
        new_protocol_state(ids, stream.blocks, stream.desired, thresholds, client_noise=[0.0])
    with pytest.raises(DimensionMismatch):
        new_protocol_state(ids, stream.blocks, stream.desired, [thresholds] * 2)
    with pytest.raises(DimensionMismatch):
        received = (stream.blocks[:, :1], stream.desired[:, :1])
        new_protocol_state(ids, stream.blocks, stream.desired, thresholds, received=received)


def test_sinks_receive_only_the_blocks_that_were_sent():
    layout, stream = make_stream(30, seed=11)
    thresholds = Thresholds(0.5, 0.05)
    state, rows, kinds = drive(layout, stream, thresholds, noise_seed=11)
    unsent = ~state.trace.transmitted.T
    assert unsent.any()
    # What the sinks would receive of a block never sent is never read.
    blocks, desired = stream.blocks.copy(), stream.desired.copy()
    blocks[unsent] = np.nan
    desired[unsent] = np.inf
    again, again_rows, again_kinds = drive(
        layout, stream, thresholds, noise_seed=11, received=(blocks, desired)
    )
    assert again_rows == rows
    assert np.array_equal(again_kinds, kinds)
    # The sink side reads the received blocks.
    blocks, desired = stream.blocks.copy(), stream.desired.copy()
    blocks[~unsent] *= 1.5
    noisy, _, _ = drive(layout, stream, thresholds, noise_seed=11, received=(blocks, desired))
    assert not np.array_equal(noisy.trace.error_glob, state.trace.error_glob)


def idle_state(ids, rounds):
    """A state over ``rounds`` rounds of zero 3-sample blocks."""
    m = len(ids)
    return new_protocol_state(ids, np.zeros((m, rounds, 3)), np.zeros((m, rounds)), Thresholds())


def test_transmission_percentage_trivials():
    state = idle_state([1, 2], rounds=10)
    with pytest.raises(ValueError):
        transmission_percentage(state)
    state.trace.transmitted[:, 0] = True
    state.round_index = 10
    pct = transmission_percentage(state)
    assert pct.tolist() == [100.0, 0.0]
    nobody = idle_state([], rounds=10)
    nobody.round_index = 10
    with pytest.raises(ValueError):
        transmission_percentage(nobody)


def test_total_percentages_read_each_points_rows():
    # With client noise, point 0 never stops transmitting (beta 0); point
    # 1, handed off and silenced at once, sends only its first block.
    layout, stream = make_stream(40, seed=16)
    ids, m = list(stream.node_ids), len(stream.node_ids)
    noise = np.random.default_rng(16).normal(0.0, 0.1, size=(m, 40))
    state = new_protocol_state(
        ids * 2,
        np.concatenate([stream.blocks] * 2),
        np.concatenate([stream.desired] * 2),
        [Thresholds(alpha=0.5, beta=0.0), Thresholds(alpha=1e9, beta=1e9)],
        [m, m],
        client_noise=np.concatenate([noise] * 2),
    )
    with errstate():
        for _ in range(40):
            step_round(state)
    totals = total_percentages(state)
    assert totals[0] == 100.0
    assert totals[1] == pytest.approx(100.0 / 40)
    sent = state.trace.transmitted.sum(axis=0)
    for p, total in enumerate(totals):
        assert total == pytest.approx(100.0 * sent[state.rows(p)].mean() / 40, rel=1e-15)


def test_thresholds_validation():
    with pytest.raises(ValueError):
        Thresholds(alpha=0.0, beta=0.1)
    with pytest.raises(ValueError):
        Thresholds(alpha=0.5, beta=-0.1)
    Thresholds(alpha=0.5, beta=0.0)  # beta 0 is legal


def test_explicit_mu_bypasses_auto_rule():
    layout, stream = make_stream(10, seed=12)
    state, _, _ = drive(layout, stream, Thresholds(0.5, 0.05), mu=0.01, noise_seed=12)
    assert (state.mu == 0.01).all()  # auto estimate never engaged


@pytest.mark.parametrize("mu", [0.01, None])
def test_a_fixed_mu_runs_no_power_iteration(monkeypatch, mu):
    calls = []

    def counted(a):
        calls.append(a.shape)
        return max_eigenvalue(a)

    monkeypatch.setattr(stdp, "max_eigenvalue", counted)
    _, stream = make_stream(60, seed=5)
    state = new_protocol_state(
        stream.node_ids,
        stream.blocks,
        stream.desired,
        [Thresholds(0.5, 0.05), Thresholds(0.5, 0.2)],
        sizes=[4, 6],
        mu=mu,
    )
    with errstate():
        for _ in range(stream.num_blocks):
            step_round(state)
    assert state.trace.updates  # client filters stepped with the point's mu
    if mu is None:
        assert calls and np.isfinite(state.mu).all()
    else:
        assert calls == [] and state.auto_mu is False
        assert state.mu.tolist() == [mu, mu]


def test_divergence_stops_at_first_non_finite_round():
    layout, stream = make_stream(200, seed=12)
    with pytest.raises(Diverged) as err:
        drive(layout, stream, Thresholds(0.5, 0.05), mu=50.0, noise_seed=12)
    message = str(err.value)
    assert "round" in message and "node" in message
    # the engine stops in the round that first produced a non-finite error
    round_index = int(message.split("round ")[1].split(":")[0])
    state, rows, _ = drive(
        layout, make_stream(round_index, seed=12)[1], Thresholds(0.5, 0.05), mu=50.0, noise_seed=12
    )
    assert all(
        np.isfinite(e) for row in rows for e in (row.error_glob, row.error_new) if e is not None
    )


def test_stream_rows_follow_node_ids_for_an_unsorted_layout():
    base = default_layout()
    order = list(reversed(range(base.size)))
    layout = NodeLayout(
        positions=tuple(base.positions[k] for k in order),
        sink=base.sink,
        node_ids=tuple(base.node_ids[k] for k in order),
    )
    _, stream = make_stream(80, seed=13, layout=layout)
    assert stream.node_ids == tuple(sorted(layout.node_ids))
    # each row's desired values carry that node's own measurement noise
    std = float(np.sqrt(NOISE_VAR))
    for k, i in enumerate(stream.node_ids):
        noise = stream.desired[k] - np.vecdot(stream.blocks[k], initial_weight(stream.n))
        expected = substream(13, ROLE_MEASURE, i).normal(0.0, std, stream.num_blocks)
        assert np.allclose(noise, expected, atol=1e-12)
    # stepping rounds straight off the stream matches the scenario run
    state, rows, _ = drive(layout, stream, Thresholds(0.5, 0.05), noise_seed=13)
    run = simulate_protocol(plan(default_scenario(layout=layout, seed=13), stream=stream))
    assert np.array_equal(state.trace.transmitted, run.trace.transmitted)
    assert np.array_equal(transmission_percentage(state), transmission_percentage(run))
    assert np.array_equal(state.global_weight, run.global_weight)
    assert [r.phase for r in rows] == [PHASES[code] for code in run.trace.phase.ravel()]


@st.composite
def engine_runs(draw):
    """Point sizes, block length, rounds, per-point thresholds, the noise
    level of the sensed data and a seed for it."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    thresholds = [
        Thresholds(alpha=draw(st.floats(0.01, 2.0)), beta=draw(st.floats(0.0, 0.5)))
        for _ in sizes
    ]
    return (
        sizes,
        draw(st.integers(1, 4)),
        draw(st.integers(1, 40)),
        thresholds,
        draw(st.floats(0.0, 1.0)),
        draw(st.integers(0, 2**32 - 1)),
    )


def bit_set(kinds, kind):
    return (kinds & KIND_BITS[kind]) != 0


@settings(max_examples=60, deadline=None)
@given(engine_runs())
def test_step_round_properties(case):
    """What the weight messages set, the silence of predicting rows, the alpha/beta
    conditions of the weight messages and the count of sent blocks, over
    random multi-point runs of linear data with noise."""
    sizes, n, rounds, thresholds, noise_level, seed = case
    rng = np.random.default_rng(seed)
    m = sum(sizes)
    samples = rng.normal(size=(rounds, m, n))
    desired = samples @ rng.normal(size=n) + noise_level * rng.normal(size=(rounds, m))
    client_noise = noise_level * rng.normal(size=(rounds, m))
    state = new_protocol_state(
        [i for size in sizes for i in range(1, size + 1)],
        samples.transpose(1, 0, 2),
        desired.T,
        thresholds,
        sizes,
        client_noise=client_noise.T,
    )
    alpha, beta = np.array([(t.alpha, t.beta) for t in thresholds]).T[:, state.point]
    trace = state.trace
    suppressed = np.zeros(m, dtype=np.int64)
    for r in range(rounds):
        with errstate():
            result = step_round(state)
        start, kinds = trace.phase[r], trace.kinds[r]
        # The returned view is the trace row.
        assert list(result.rows) == trace_rows(state, r)

        # A round's weight messages take effect by its end: a row sent the
        # global weight adapts from it, a row that sent its own predicts.
        node_weight = bit_set(kinds, MessageKind.NODE_WEIGHT)
        global_weight = bit_set(kinds, MessageKind.GLOBAL_WEIGHT)
        handed = np.flatnonzero(global_weight)
        assert np.all(state.phase[handed] == CLIENT_ADAPTIVE)
        sent_weight = state.global_weight[state.point[handed]]
        assert np.array_equal(state.client_weight[handed], sent_weight)
        assert np.array_equal(state.received_global[handed], sent_weight)
        assert np.all(state.phase[node_weight] == CLIENT_PREDICTING)

        # No data block from a row that started the round predicting.
        data = bit_set(kinds, MessageKind.DATA_BLOCK)
        assert np.array_equal(data, trace.transmitted[r])
        assert not np.any(data & (start == CLIENT_PREDICTING))

        # NODE_WEIGHT exactly when an adapting client's |e'| <= beta, and
        # GLOBAL_WEIGHT exactly when a sink-side row's |e| <= alpha.
        quiet = np.abs(trace.error_new[r]) <= beta
        assert np.array_equal(node_weight, (start == CLIENT_ADAPTIVE) & quiet)
        near = np.abs(trace.error_glob[r]) <= alpha
        assert np.array_equal(global_weight, (start <= SINK_ADAPTIVE) & near)

        suppressed += (start == CLIENT_PREDICTING) | ((start == CLIENT_ADAPTIVE) & quiet)

    # Sent plus suppressed blocks make up every row's rounds.
    sent = trace.transmitted.sum(axis=0)
    assert np.array_equal(sent + suppressed, np.full(m, rounds))
    assert np.array_equal(transmission_percentage(state), 100.0 * sent / rounds)


@pytest.mark.parametrize("points", [1, 2])
def test_client_update_log_matches_a_replay(points):
    """The update log gives the (round, row, weight) of every client-filter
    update of every point, in ``client_updates`` order, as a replay that
    reads the client weights after each round finds them."""
    layout, stream = make_stream(120, seed=15)
    ids = list(stream.node_ids)
    m = len(ids)
    std = float(np.sqrt(NOISE_VAR))
    noise = np.array(
        [substream(15, ROLE_PROTOCOL, i).normal(0, std, stream.num_blocks) for i in ids]
    )
    state = new_protocol_state(
        ids * points,
        np.concatenate([stream.blocks] * points),
        np.concatenate([stream.desired] * points),
        [Thresholds(0.5, 0.05), Thresholds(0.8, 0.1)][:points],
        [m] * points,
        client_noise=np.concatenate([noise] * points),
    )

    def step():
        with errstate():
            step_round(state)

    expected = replay_client_updates(step, state, stream.num_blocks, CLIENT_ADAPTIVE)
    rounds, rows, weights = state.trace.client_updates()
    assert rounds.tolist() == [r for r, _, _ in expected]
    assert rows.tolist() == [k for _, k, _ in expected]
    assert np.array_equal(weights, np.array([w for _, _, w in expected]))
    assert all(np.any(rows // m == p) for p in range(points))
    # The log itself runs by round, then by row.
    log = state.trace.updates
    in_time = sorted(expected, key=lambda update: (update[0], update[1]))
    assert [(r, k) for r, rows, _ in log for k in rows.tolist()] == [(r, k) for r, k, _ in in_time]
    assert np.array_equal(np.concatenate([w for _, _, w in log]), [w for _, _, w in in_time])

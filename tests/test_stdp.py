import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import global_ia_update
from wsnadapt.errors import DimensionMismatch, Diverged, ProtocolViolation
from wsnadapt.fieldgen import (
    ROLE_MEASURE,
    ROLE_PROTOCOL,
    FieldParams,
    NodeLayout,
    generate_stream,
    substream,
)
from wsnadapt.sim import default_layout, default_scenario, simulate_protocol
from wsnadapt.stdp import (
    CLIENT_ADAPTIVE,
    CLIENT_PREDICTING,
    SINK_ADAPTIVE,
    KIND_BITS,
    Mail,
    PHASES,
    MessageKind,
    Phase,
    Thresholds,
    client_desired,
    client_update,
    global_lms_update,
    initial_weight,
    new_protocol_state,
    step_round,
    transmission_percentage,
)


def make_stream(num_blocks, n=5, seed=0, layout=None, noise_var=0.01, phi=0.9):
    layout = layout or default_layout()
    params = FieldParams(noise_var=noise_var, temporal_phi=phi)
    return layout, generate_stream(layout, params, n, num_blocks, seed)


def drive(layout, stream, thresholds, mu=None, noise_seed=None, channel=None):
    """Run the engine over a whole stream, returning (state, rows, messages)."""
    ids = list(stream.node_ids)
    state = new_protocol_state(ids, stream.n)
    noise = np.zeros((len(ids), stream.num_blocks))
    if noise_seed is not None:
        std = float(np.sqrt(stream.params.noise_var))
        noise = np.array(
            [substream(noise_seed, ROLE_PROTOCOL, i).normal(0, std, stream.num_blocks) for i in ids]
        )
    rows, messages = [], []
    for r in range(stream.num_blocks):
        result = step_round(
            state,
            stream.blocks[:, r],
            stream.desired[:, r],
            thresholds,
            mu=mu,
            client_noise=noise[:, r],
            channel=channel,
        )
        rows.extend(result.rows)
        messages.append(result.messages)
    return state, rows, messages


def queue(state, kind, row, payload):
    """Append one message to the state's queue of undelivered mail; ``row``
    is the engine row of its client end (the sender of a NODE_WEIGHT, else
    the receiver)."""
    state.pending = Mail(
        kind=np.append(state.pending.kind, KIND_BITS[kind]).astype(np.uint8),
        row=np.append(state.pending.row, row),
        payload=np.vstack([state.pending.payload, payload]),
    )


def clear_mail(state):
    """Drop the state's undelivered mail, the initial queries included."""
    mail = state.pending
    state.pending = Mail(kind=mail.kind[:0], row=mail.row[:0], payload=mail.payload[:0])


def queued(state, mail, kind):
    """Node ids of the client ends of the queued messages of one kind."""
    return [state.node_ids[k] for k in mail.row[mail.kind == KIND_BITS[kind]].tolist()]


def stacked(blocks):
    """(u, d) pairs as a block matrix and a desired vector."""
    return np.array([u for u, _ in blocks]), np.array([d for _, d in blocks])


def test_initial_weight_values_and_norm():
    assert np.array_equal(initial_weight(1), [1.0])
    assert np.array_equal(initial_weight(4), [0.5, 0.5, 0.5, 0.5])
    for n in range(1, 65):
        assert np.linalg.norm(initial_weight(n)) == pytest.approx(1.0, abs=1e-12)


def test_global_lms_single_term():
    w = global_lms_update([0.0, 0.0], [[1.0, 0.0]], [1.0], mu=0.5)
    assert np.array_equal(w, [0.5, 0.0])


def test_global_updates_fixed_point():
    rng = np.random.default_rng(2)
    w = rng.normal(size=4)
    blocks = []
    for _ in range(6):
        u = rng.normal(size=4)
        blocks.append((u, float(u @ w)))  # zero innovation
    assert np.allclose(global_lms_update(w, *stacked(blocks), 0.3), w, atol=1e-14)
    assert np.allclose(global_ia_update(w, blocks, 0.3), w, atol=1e-12)


def test_global_lms_matches_term_by_term_oracle():
    rng = np.random.default_rng(3)
    w_prev = rng.normal(size=5)
    blocks = [(rng.normal(size=5), float(rng.normal())) for _ in range(6)]
    mu = 0.07
    expected = w_prev.copy()
    acc = np.zeros(5)
    for u, d in blocks:
        acc = acc + u * (d - float(u @ w_prev))
    expected = w_prev + mu * acc
    got = global_lms_update(w_prev, *stacked(blocks), mu)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_global_update_forms_agree():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 11))
        w_prev = rng.normal(size=n)
        blocks = [(rng.normal(size=n), float(rng.normal())) for _ in range(m)]
        mu = float(rng.uniform(0.01, 0.8))
        a = global_lms_update(w_prev, *stacked(blocks), mu)
        b = global_ia_update(w_prev, blocks, mu)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


def test_global_update_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        global_lms_update([0.0, 0.0], np.zeros((1, 3)), [1.0], mu=0.1)


def test_client_desired_and_statistics():
    assert client_desired([1.0, 1.0], [0.5, 0.5], 0.0) == 1.0
    assert client_desired([1.0, 1.0], [0.0, 0.0], 0.25) == 0.25
    rng = np.random.default_rng(13)
    u = rng.normal(size=5)
    w = rng.normal(size=5)
    noise_var = 0.04
    draws = rng.normal(0, np.sqrt(noise_var), 10_000)
    vals = np.array([client_desired(u, w, z) for z in draws])
    resid = vals - float(u @ w)
    assert abs(resid.var() / noise_var - 1.0) < 0.1


def test_client_update_trivials():
    w = client_update([0.0, 0.0], [1.0, 0.0], 1.0, mu=0.5)
    assert np.array_equal(w, [0.5, 0.0])
    rng = np.random.default_rng(21)
    w_prev = rng.normal(size=4)
    u = rng.normal(size=4)
    unchanged = client_update(w_prev, u, float(u @ w_prev), mu=0.4)
    assert np.allclose(unchanged, w_prev, atol=1e-15)
    # stacked rows update exactly as one vector at a time
    w_rows, u_rows, d_rows = rng.normal(size=(7, 4)), rng.normal(size=(7, 4)), rng.normal(size=7)
    stacked_update = client_update(w_rows, u_rows, d_rows, mu=0.3)
    for k in range(7):
        assert np.array_equal(stacked_update[k], client_update(w_rows[k], u_rows[k], d_rows[k], 0.3))
        assert client_desired(u_rows, w_rows, d_rows)[k] == client_desired(u_rows[k], w_rows[k], d_rows[k])


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
        d_new = client_desired(u, w_glob, rng.normal(0, 0.1))
        w = client_update(w, u, d_new, mu)
        errors.append(abs(d_new - float(u @ w)))
    assert min(errors[:200]) < 0.1
    assert np.mean(errors[-50:]) < 0.1


def test_step_round_huge_alpha_hands_off_everyone():
    layout, stream = make_stream(3, seed=1)
    state, rows, messages = drive(layout, stream, Thresholds(alpha=1e9, beta=0.05), noise_seed=1)
    first = messages[0]
    handed = set(queued(state, first, MessageKind.GLOBAL_WEIGHT))
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
        assert sent == state.sent[k]
        assert sent + kept == state.round_index == 120


def test_message_causality():
    layout, stream = make_stream(120, seed=5)
    thresholds = Thresholds(alpha=0.5, beta=0.05)
    state, rows, messages = drive(layout, stream, thresholds, noise_seed=5)
    by_round = {}
    for row in rows:
        by_round[(row.round_index, row.node_id)] = row
    for r, batch in enumerate(messages):
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
    assert np.array_equal(a[0].sent, b[0].sent)
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


def test_protocol_violation_on_misdelivered_messages():
    layout, stream = make_stream(3, seed=8)
    ids = list(layout.node_ids)
    state = new_protocol_state(ids, stream.n)
    state.phase[0] = CLIENT_PREDICTING
    state.client_weight[0] = initial_weight(stream.n)
    state.received_global[0] = initial_weight(stream.n)
    clear_mail(state)
    queue(state, MessageKind.GLOBAL_WEIGHT, 0, initial_weight(stream.n))
    with pytest.raises(ProtocolViolation) as err:
        step_round(state, stream.blocks[:, 0], stream.desired[:, 0], Thresholds(0.5, 0.05))
    assert str(err.value) == "GLOBAL_WEIGHT to node 1 in CLIENT_PREDICTING"

    state = new_protocol_state(ids, stream.n)
    clear_mail(state)
    queue(state, MessageKind.NODE_WEIGHT, 0, initial_weight(stream.n))
    with pytest.raises(ProtocolViolation) as err:
        step_round(state, stream.blocks[:, 0], stream.desired[:, 0], Thresholds(0.5, 0.05))
    assert str(err.value) == "NODE_WEIGHT from node 1 in RAW_TRANSMIT"


def test_misdelivered_message_names_the_node_not_the_row():
    # Two points over ids (4, 7, 9): row 4 is node 7 of the second point,
    # and row 5 its node 9.
    n = 3
    state = new_protocol_state([4, 7, 9, 4, 7, 9], n, sizes=[3, 3])
    state.phase[4] = CLIENT_PREDICTING
    state.pending = Mail(
        kind=np.array([KIND_BITS[MessageKind.GLOBAL_WEIGHT]], dtype=np.uint8),
        row=np.array([4]),
        payload=initial_weight(n)[None],
    )
    rng = np.random.default_rng(14)
    samples, desired = rng.normal(size=(6, n)), rng.normal(size=6)
    thresholds = [Thresholds(0.5, 0.05)] * 2
    with pytest.raises(ProtocolViolation) as err:
        step_round(state, samples, desired, thresholds)
    assert str(err.value) == "GLOBAL_WEIGHT to node 7 in CLIENT_PREDICTING"

    state = new_protocol_state([4, 7, 9, 4, 7, 9], n, sizes=[3, 3])
    state.pending = Mail(
        kind=np.array([KIND_BITS[MessageKind.NODE_WEIGHT]], dtype=np.uint8),
        row=np.array([5]),
        payload=initial_weight(n)[None],
    )
    with pytest.raises(ProtocolViolation) as err:
        step_round(state, samples, desired, thresholds)
    assert str(err.value) == "NODE_WEIGHT from node 9 in RAW_TRANSMIT"


def test_step_round_requires_block_per_node():
    layout, stream = make_stream(2, seed=10)
    state = new_protocol_state(list(layout.node_ids), stream.n)
    with pytest.raises(DimensionMismatch):
        step_round(state, stream.blocks[:-1, 0], stream.desired[:-1, 0], Thresholds(0.5, 0.05))


def test_channel_hook_applies_to_transmitted_blocks_only():
    layout, stream = make_stream(30, seed=11)
    seen = []

    def channel(samples, desired, rows, block_index):
        seen.extend((row, block_index) for row in rows)
        return samples, desired

    state, rows, _ = drive(layout, stream, Thresholds(0.5, 0.05), noise_seed=11, channel=channel)
    sent = int(state.sent.sum())
    assert len(seen) == sent


def test_transmission_percentage_trivials():
    state = new_protocol_state([1, 2], n=3)
    with pytest.raises(ValueError):
        transmission_percentage(state)
    state.sent[:] = [10, 0]
    state.round_index = 10
    pct = transmission_percentage(state)
    assert pct.tolist() == [100.0, 0.0]
    nobody = new_protocol_state([], n=3)
    nobody.round_index = 10
    with pytest.raises(ValueError):
        transmission_percentage(nobody)


def test_thresholds_validation():
    with pytest.raises(ValueError):
        Thresholds(alpha=0.0, beta=0.1)
    with pytest.raises(ValueError):
        Thresholds(alpha=0.5, beta=-0.1)
    Thresholds(alpha=0.5, beta=0.0)  # degenerate always-transmit config is legal


def test_explicit_mu_bypasses_auto_rule():
    layout, stream = make_stream(10, seed=12)
    state, _, _ = drive(layout, stream, Thresholds(0.5, 0.05), mu=0.01, noise_seed=12)
    assert np.isnan(state.mu).all()  # auto estimate never engaged


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
    std = float(np.sqrt(stream.params.noise_var))
    for k, i in enumerate(stream.node_ids):
        noise = stream.desired[k] - np.vecdot(stream.blocks[k], initial_weight(stream.n))
        expected = substream(13, ROLE_MEASURE, i).normal(0.0, std, stream.num_blocks)
        assert np.allclose(noise, expected, atol=1e-12)
    # stepping rounds straight off the stream matches the scenario run
    state, rows, _ = drive(layout, stream, Thresholds(0.5, 0.05), noise_seed=13)
    run = simulate_protocol(default_scenario(layout=layout, seed=13), stream)
    assert np.array_equal(state.sent, run.state.sent)
    assert np.array_equal(state.global_weight, run.state.global_weight)
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
    """Message delivery, the silence of predicting rows, the alpha/beta
    conditions of the weight messages and the count of sent blocks, over
    random multi-point runs of linear data with noise."""
    sizes, n, rounds, thresholds, noise_level, seed = case
    rng = np.random.default_rng(seed)
    state = new_protocol_state([i for size in sizes for i in range(1, size + 1)], n, sizes)
    m = len(state.node_ids)
    samples = rng.normal(size=(rounds, m, n))
    desired = samples @ rng.normal(size=n) + noise_level * rng.normal(size=(rounds, m))
    client_noise = noise_level * rng.normal(size=(rounds, m))
    alpha, beta = np.array([(t.alpha, t.beta) for t in thresholds]).T[:, state.point]
    suppressed = np.zeros(m, dtype=np.int64)
    mail = None
    for r in range(rounds):
        result = step_round(state, samples[r], desired[r], thresholds, client_noise=client_noise[r])
        start, kinds = result.phase, result.kinds

        # The previous round's weight messages are delivered in this one.
        if mail is not None:
            handed = mail.kind == KIND_BITS[MessageKind.GLOBAL_WEIGHT]
            assert np.all(start[mail.row[handed]] == CLIENT_ADAPTIVE)
            assert np.array_equal(state.received_global[mail.row[handed]], mail.payload[handed])
            assert np.all(start[mail.row[~handed]] == CLIENT_PREDICTING)
        node_weight = bit_set(kinds, MessageKind.NODE_WEIGHT)
        global_weight = bit_set(kinds, MessageKind.GLOBAL_WEIGHT)
        mail = result.messages
        # Mail names the silenced rows, then the handed-off rows.
        assert np.array_equal(
            mail.row, np.concatenate([np.flatnonzero(node_weight), np.flatnonzero(global_weight)])
        )

        # No data block from a row that started the round predicting.
        data = bit_set(kinds, MessageKind.DATA_BLOCK)
        assert np.array_equal(data, result.transmitted)
        assert not np.any(data & (start == CLIENT_PREDICTING))

        # NODE_WEIGHT exactly when an adapting client's |e'| <= beta, and
        # GLOBAL_WEIGHT exactly when a sink-side row's |e| <= alpha.
        quiet = np.abs(result.error_new) <= beta
        assert np.array_equal(node_weight, (start == CLIENT_ADAPTIVE) & quiet)
        near = np.abs(result.error_glob) <= alpha
        assert np.array_equal(global_weight, (start <= SINK_ADAPTIVE) & near)

        suppressed += (start == CLIENT_PREDICTING) | ((start == CLIENT_ADAPTIVE) & quiet)

    # Sent plus suppressed blocks make up every row's rounds.
    assert np.array_equal(state.sent + suppressed, np.full(m, rounds))

import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import (
    awgn_channel_per_node,
    global_ia_update,
    jacobi_eigenvalues,
    reference_protocol,
    replay_client_updates,
)
from wsnadapt import stdp
from wsnadapt.errors import DimensionMismatch, Diverged, InvalidParameter, NonFinite
from wsnadapt.fieldgen import (
    ROLE_CHANNEL,
    ROLE_MEASURE,
    ROLE_PROTOCOL,
    FieldParams,
    NodeLayout,
    generate_stream,
    inject_malicious,
    substream,
)
from wsnadapt.numerics import max_eigenvalue
from wsnadapt.sim import (
    MaliciousSpec,
    default_layout,
    default_scenario,
    plan,
    run_stdp,
    simulate_protocol,
)
from wsnadapt.stdp import (
    CLIENT_ADAPTIVE,
    CLIENT_PREDICTING,
    RAW_TRANSMIT,
    SINK_ADAPTIVE,
    KIND_BITS,
    PHASES,
    MessageKind,
    Phase,
    Thresholds,
    TraceRow,
    _client_step,
    _desired,
    initial_weight,
    kinds_of,
    new_protocol_state,
    step_round,
    transmission_percentages,
)


# The measurement noise variance of ``make_stream``'s streams, unless given.
NOISE_VAR = 0.01


def make_stream(num_blocks, n=5, seed=0, layout=None, noise_var=NOISE_VAR, phi=0.9):
    layout = layout or default_layout()
    params = FieldParams(noise_var=noise_var, temporal_phi=phi)
    return layout, generate_stream(layout, params, n, num_blocks, seed)


def bit_set(kinds, kind):
    return (kinds & KIND_BITS[kind]) != 0


def fed_state(node_ids, blocks, desired, thresholds, sizes=None, mu=None, noise=None, received=None):
    """A fresh engine over a whole run's inputs, and a function that runs
    its next round on that round's slice of them, as
    ``sim.simulate_protocol`` does.  Row k of ``blocks`` ``(rows, rounds,
    n)``, ``desired`` and ``noise`` ``(rows, rounds)`` (default zeros) is
    what row k senses and draws; ``received``, a ``(blocks, desired)`` pair
    shaped as those (default: the sensed arrays), is what the sinks receive
    of them."""
    blocks, desired = np.asarray(blocks, dtype=float), np.asarray(desired, dtype=float)
    noise = np.zeros(desired.shape) if noise is None else np.asarray(noise, dtype=float)
    sink_blocks, sink_desired = (blocks, desired) if received is None else received
    _, rounds, n = blocks.shape
    state = new_protocol_state(node_ids, rounds, n, thresholds, sizes, mu)

    def step():
        r = state.round_index
        return step_round(state, blocks[:, r], noise[:, r], sink_blocks[:, r], sink_desired[:, r])

    return state, step


def trace_rows(state, r):
    """Round r node by node, read off the state's trace columns."""
    trace = state.trace
    sent = bit_set(trace.kinds[r], MessageKind.DATA_BLOCK)
    return [
        TraceRow(
            r,
            node_id,
            PHASES[trace.phase[r, k]],
            kinds_of(int(trace.kinds[r, k])),
            float(trace.error_glob[r, k]) if sent[k] else None,
            float(trace.error_new[r, k]) if trace.phase[r, k] >= CLIENT_ADAPTIVE else None,
            bool(sent[k]),
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
    state, step = fed_state(
        ids, stream.blocks, stream.desired, thresholds, mu=mu, noise=noise, received=received
    )
    for _ in range(stream.num_blocks):
        step()
    rows = [row for r in range(state.round_index) for row in trace_rows(state, r)]
    return state, rows, list(state.trace.kinds[: state.round_index])


def first_round(ids, samples, desired, thresholds, sizes=None):
    """A one-round ``fed_state`` over the given ``(rows, n)`` samples and
    desired values."""
    return fed_state(ids, samples[:, None], desired[:, None], thresholds, sizes)


def queued(state, kinds, kind):
    """Node ids of the rows whose round kind mask ``kinds`` has one kind."""
    return [state.node_ids[k] for k in np.flatnonzero(kinds & KIND_BITS[kind]).tolist()]


def one_round_sweep(w_prev, samples, desired, mu):
    """The global weight after one all-raw round of a one-point engine that
    starts from ``w_prev``, with ``samples[i]`` and ``desired[i]`` node
    i's block and desired value and an explicit step size ``mu``."""
    ids = range(1, len(samples) + 1)
    state, step = fed_state(
        ids, np.asarray(samples)[:, None], np.asarray(desired)[:, None], Thresholds(), mu=mu
    )
    state.global_weight[0] = w_prev
    step()
    return state.global_weight[0]


def test_initial_weight_values_and_norm():
    assert np.array_equal(initial_weight(1), [1.0])
    assert np.array_equal(initial_weight(4), [0.5, 0.5, 0.5, 0.5])
    for n in range(1, 65):
        assert np.linalg.norm(initial_weight(n)) == pytest.approx(1.0, abs=1e-12)


def test_an_empty_weight_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="n >= 1 taps, got 0"):
        initial_weight(0)
    # zero-sample blocks reach it through the engine
    with pytest.raises(DimensionMismatch, match="got 0"):
        new_protocol_state([1, 2], 3, 0, Thresholds())


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
    pct, total = transmission_percentages(state, 0)
    assert all(p == 100.0 for p in pct) and total == 100.0
    assert all(r.transmitted for r in rows)


def test_step_round_huge_beta_floor():
    layout, stream = make_stream(50, seed=3)
    state, rows, _ = drive(layout, stream, Thresholds(alpha=1e9, beta=1e9), noise_seed=3)
    pct, _ = transmission_percentages(state, 0)
    assert all(p == pytest.approx(100.0 / 50) for p in pct)


def test_mode_exclusivity_and_conservation():
    layout, stream = make_stream(120, seed=4)
    state, rows, _ = drive(layout, stream, Thresholds(alpha=0.5, beta=0.05), noise_seed=4)
    for row in rows:
        assert not (row.phase is Phase.CLIENT_PREDICTING and row.transmitted)
    pct, _ = transmission_percentages(state, 0)
    for k, i in enumerate(state.node_ids):
        sent = sum(r.transmitted for r in rows if r.node_id == i)
        kept = sum(not r.transmitted for r in rows if r.node_id == i)
        assert pct[k] == 100.0 * sent / 120
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
    (pct_a, total_a), (pct_b, total_b) = (transmission_percentages(s[0], 0) for s in (a, b))
    assert np.array_equal(pct_a, pct_b) and total_a == total_b
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
    # Points may share ids, and row k's round reads row k's block.
    ids = [1, 2, 1, 2] if sizes else [1, 2]
    state, step = first_round(ids, samples, np.zeros(len(ids)), Thresholds(), sizes)
    assert state.node_ids == tuple(ids)
    step()
    for p in range(len(state.bounds) - 1):
        rows = state.rows(p)
        fit = samples[rows] @ state.global_weight[p]
        assert state.trace.error_glob[0, rows].tolist() == (0.0 - fit).tolist()


def test_step_round_requires_block_per_node():
    layout, stream = make_stream(2, seed=10)
    ids, thresholds = list(layout.node_ids), Thresholds(0.5, 0.05)
    state = new_protocol_state(ids, 2, stream.n, thresholds)
    blocks, desired, noise = stream.blocks[:, 0], stream.desired[:, 0], np.zeros(len(ids))
    for inputs in [
        (blocks[:-1], noise, blocks, desired),  # a block short
        (blocks[:, 0], noise, blocks, desired),  # a sample, not a block
        (stream.blocks, noise, blocks, desired),  # one round of the blocks, and no other
        (blocks, np.zeros(1), blocks, desired),  # a noise draw per row
        (blocks, noise, stream.blocks[:, :1], desired),  # what the sinks receive
    ]:
        with pytest.raises(DimensionMismatch, match=r"^round 0 needs inputs shaped \(\(10, 5\), "):
            step_round(state, *inputs)
    assert state.round_index == 0
    with pytest.raises(DimensionMismatch):
        new_protocol_state(ids, 2, stream.n, [thresholds] * 2)


@pytest.mark.parametrize("short", ["rows", "samples"])
@pytest.mark.parametrize("argument", range(4))
def test_a_round_of_the_wrong_shape_is_refused_before_it_writes(argument, short):
    # Each argument of round 1 with a row too few, or a sample too few per
    # block (a value where a row's value is expected, made a 1-sample
    # block): the round raises naming itself and the shapes, and the state
    # and its trace are as round 0 left them.
    _, stream = make_stream(3, seed=10)
    noise = np.random.default_rng(10).normal(0.0, 0.1, size=stream.desired.shape)
    state, step = fed_state(stream.node_ids, stream.blocks, stream.desired, Thresholds(), noise=noise)
    step()
    inputs = [stream.blocks[:, 1], noise[:, 1], stream.blocks[:, 1], stream.desired[:, 1]]
    good = inputs[argument]
    if short == "rows":
        inputs[argument] = good[:-1]
    else:
        inputs[argument] = good[:, :-1] if good.ndim == 2 else good[:, None]
    before = {name: a.copy() for name, a in vars(state).items() if isinstance(a, np.ndarray)}
    trace = state.trace
    row = [getattr(trace, column)[1].copy() for column in ("phase", "kinds", "error_glob", "error_new")]
    updates = len(trace.updates)
    with pytest.raises(DimensionMismatch) as err:
        step_round(state, *inputs)
    shapes = tuple(a.shape for a in inputs)
    assert str(err.value) == f"round 1 needs inputs shaped ((10, 5), (10,), (10, 5), (10,)), got {shapes}"
    assert state.round_index == 1 and len(trace.updates) == updates
    for column, old in zip(("phase", "kinds", "error_glob", "error_new"), row):
        assert getattr(trace, column)[1].tobytes() == old.tobytes(), column
    for name, old in before.items():
        assert getattr(state, name).tobytes() == old.tobytes(), name
    step()  # the round runs once given its own inputs
    assert state.round_index == 2


def test_sinks_receive_only_the_blocks_that_were_sent():
    layout, stream = make_stream(30, seed=11)
    thresholds = Thresholds(0.5, 0.05)
    state, rows, kinds = drive(layout, stream, thresholds, noise_seed=11)
    unsent = ~bit_set(state.trace.kinds, MessageKind.DATA_BLOCK).T
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
    """A state over ``rounds`` rounds of 3-sample blocks."""
    return new_protocol_state(ids, rounds, 3, Thresholds())


def test_a_step_past_the_last_round_is_a_dimension_mismatch():
    state = idle_state([1, 2], rounds=2)
    zeros = np.zeros((2, 3)), np.zeros(2), np.zeros((2, 3)), np.zeros(2)
    step_round(state, *zeros)
    step_round(state, *zeros)
    with pytest.raises(DimensionMismatch, match=r"^no round 2: the run has 2 rounds$"):
        step_round(state, *zeros)
    assert state.round_index == 2


def test_transmission_percentage_trivials():
    state = idle_state([1, 2], rounds=10)
    with pytest.raises(DimensionMismatch, match="^no transmission percentage: 0 rounds over 2 nodes$"):
        transmission_percentages(state, 0)
    state.trace.kinds[:, 0] |= KIND_BITS[MessageKind.DATA_BLOCK]
    state.round_index = 10
    pct, total = transmission_percentages(state, 0)
    assert pct.tolist() == [100.0, 0.0] and total == 50.0
    nobody = idle_state([], rounds=10)
    nobody.round_index = 10
    with pytest.raises(DimensionMismatch, match="10 rounds over 0 nodes"):
        transmission_percentages(nobody, 0)
    # A point of no nodes beside one of two, after 4 rounds.
    empty_point = new_protocol_state([1, 2], 4, 3, Thresholds(), sizes=[2, 0])
    empty_point.round_index = 4
    assert transmission_percentages(empty_point, 0)[1] == 0.0
    with pytest.raises(DimensionMismatch, match="^no transmission percentage: 4 rounds over 0 nodes$"):
        transmission_percentages(empty_point, 1)


def test_total_percentages_read_each_points_rows():
    # With client noise, point 0 never stops transmitting (beta 0); point
    # 1, handed off and silenced at once, sends only its first block.
    layout, stream = make_stream(40, seed=16)
    ids, m = list(stream.node_ids), len(stream.node_ids)
    noise = np.random.default_rng(16).normal(0.0, 0.1, size=(m, 40))
    state, step = fed_state(
        ids * 2,
        np.concatenate([stream.blocks] * 2),
        np.concatenate([stream.desired] * 2),
        [Thresholds(alpha=0.5, beta=0.0), Thresholds(alpha=1e9, beta=1e9)],
        [m, m],
        noise=np.concatenate([noise] * 2),
    )
    for _ in range(40):
        step()
    (pct_0, total_0), (pct_1, total_1) = (transmission_percentages(state, p) for p in (0, 1))
    assert total_0 == 100.0 and pct_0.tolist() == [100.0] * m
    assert total_1 == pytest.approx(100.0 / 40)
    sent = bit_set(state.trace.kinds, MessageKind.DATA_BLOCK).sum(axis=0)
    for p, (pct, total) in enumerate([(pct_0, total_0), (pct_1, total_1)]):
        assert total == pytest.approx(100.0 * sent[state.rows(p)].mean() / 40, rel=1e-15)
        assert np.array_equal(pct, 100.0 * sent[state.rows(p)] / 40)


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


def two_point_state(stream, mu=None, noise=None):
    """A ``fed_state`` over the rows of ``stream`` split into points of 4
    and 6 nodes, beta 0.05 and 0.2."""
    return fed_state(
        stream.node_ids,
        stream.blocks,
        stream.desired,
        [Thresholds(0.5, 0.05), Thresholds(0.5, 0.2)],
        sizes=[4, 6],
        mu=mu,
        noise=noise,
    )


@pytest.mark.parametrize("mu", [-0.01, 0.0, float("nan"), float("inf")])
def test_an_explicit_mu_must_be_finite_and_positive(mu):
    # A step size at or below 0 would run to the end (the sink stepping
    # against the gradient, or nothing learning at all); a non-finite one
    # would surface only as round 0's divergence.
    _, stream = make_stream(2, seed=5)
    with pytest.raises(InvalidParameter) as err:
        two_point_state(stream, mu)
    assert err.value.field == "mu_mode"
    assert str(err.value) == f"mu_mode: must be 'auto' or > 0, got {mu!r}"


@pytest.fixture
def eigen_solves(monkeypatch):
    """The shapes of the engine's eigen solves, one entry per call."""
    calls = []

    def counted(a):
        calls.append(a.shape)
        return np.linalg.eigvalsh(a)

    monkeypatch.setattr(stdp, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("mu", [0.01, None])
def test_a_fixed_mu_runs_no_eigen_solve(eigen_solves, mu):
    _, stream = make_stream(60, seed=5)
    state, step = two_point_state(stream, mu)
    for _ in range(stream.num_blocks):
        step()
    assert state.trace.updates  # client filters stepped with the point's mu
    if mu is None:
        assert eigen_solves and np.isfinite(state.mu).all()
    else:
        assert eigen_solves == [] and state.auto_mu is False
        assert state.mu.tolist() == [mu, mu]


def test_every_point_estimates_its_step_size_in_round_0(eigen_solves):
    # Every row starts raw and transmits, so round 0 estimates each point's
    # step size before any client filter steps with it, in one solve over
    # the stack of the points' covariances.
    _, stream = make_stream(2, seed=5)
    state, step = two_point_state(stream)
    assert state.auto_mu and np.isnan(state.mu).all()
    step()
    assert np.isfinite(state.mu).all()
    assert eigen_solves == [(2, 5, 5)]
    beta_sweep = plan(default_scenario(num_blocks=2), "sweep", axis="beta", values=[0.05, 0.2])
    run = simulate_protocol(beta_sweep)
    for p in range(2):
        mu = run_stdp(beta_sweep, run, p).metadata["mu"]
        assert type(mu) is float and mu == run.mu[p] > 0


def test_auto_mu_is_half_over_nodes_times_the_largest_eigenvalue():
    # After every round in which a point has a raw row, its step size is
    # 0.5 / (M * lambda_max) of the covariance of that round's received rows.
    # Client noise sends predicting rows back to raw now and then.
    _, stream = make_stream(40, seed=7)
    noise = np.random.default_rng(7).normal(0, 0.1, size=stream.desired.shape)
    state, step = two_point_state(stream, noise=noise)
    trace = state.trace
    checked = [0, 0]
    for r in range(stream.num_blocks):
        step()
        for p in range(2):
            rows = state.rows(p)
            if not (trace.phase[r, rows] == RAW_TRANSMIT).any():
                continue
            u = stream.blocks[rows, r][bit_set(trace.kinds[r, rows], MessageKind.DATA_BLOCK)]
            lam = jacobi_eigenvalues(u.T @ u / len(u))[-1]
            nodes = rows.stop - rows.start
            assert state.mu[p] == pytest.approx(0.5 / (nodes * lam), rel=1e-12, abs=0)
            checked[p] += 1
    assert min(checked) >= 5


@pytest.mark.parametrize("seed", range(4))
def test_the_covariance_check_fires_wherever_the_power_iteration_refuses(seed):
    # Blocks scaled across the range where u.T @ u overflows, with mixed
    # signs and a few NaNs: wherever numerics.max_eigenvalue refuses the
    # covariance as non-finite, the engine's estimate raises Diverged.
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(4, 6))
    base[rng.uniform(size=base.shape) < 0.02] = np.nan
    refused = 0
    with np.errstate(over="ignore", invalid="ignore"):  # for samples.T @ samples
        for scale in np.logspace(150, 156, 40):
            samples = base * scale
            try:
                max_eigenvalue(samples.T @ samples / len(samples))
            except NonFinite:
                refused += 1
                _, step = first_round([1, 2, 3, 4], samples, np.zeros(4), Thresholds())
                with pytest.raises(Diverged, match="round 0: non-finite block covariance"):
                    step()
    assert refused


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


def test_a_direct_run_that_diverges_is_silent():
    # The caller holds no error state: the overflow on the way to the
    # non-finite error stays inside step_round, with warnings as errors.
    _, stream = make_stream(200, seed=12)
    state, step = fed_state(
        stream.node_ids, stream.blocks, stream.desired, Thresholds(0.5, 0.05), mu=50.0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diverged, match="non-finite"):
            for _ in range(stream.num_blocks):
                step()
    assert 0 < state.round_index < stream.num_blocks


def run_to_end(state, step):
    """Step a ``fed_state`` through its rounds: the ``Diverged`` that
    stopped it, or None."""
    try:
        while state.round_index < len(state.trace.phase):
            step()
    except Diverged as exc:
        return exc
    return None


def test_a_lower_points_sink_error_comes_before_a_higher_points_covariance():
    # Two 1-node points on node 1, whose round-3 block and desired value
    # are 1e200.  Point 0 (alpha 1e-300) stays sink-adaptive, so its sink
    # error turns non-finite; point 1, sent back to raw by round 2's client
    # noise, estimates its step size over a non-finite covariance.  Point 0
    # alone diverges in round 3 as well, so the batch names point 0.
    rng = np.random.default_rng(0)
    blocks = rng.normal(size=(4, 5))
    desired = blocks @ initial_weight(5) + 0.3 * rng.normal(size=4)
    blocks[3], desired[3] = 1e200, 1e200
    noise = np.zeros((2, 4))
    noise[1, 2] = 1.0
    thresholds = [Thresholds(1e-300, 0.5), Thresholds(1e300, 0.5)]
    batch, step = fed_state([1, 1], [blocks] * 2, [desired] * 2, thresholds, [1, 1], noise=noise)
    err = run_to_end(batch, step)
    assert batch.trace.phase[3].tolist() == [SINK_ADAPTIVE, RAW_TRANSMIT]
    alone = [
        run_to_end(*fed_state([1], [blocks], [desired], t, noise=noise[p : p + 1]))
        for p, t in enumerate(thresholds)
    ]
    assert [str(exc) for exc in alone] == [
        "diverged in round 3: non-finite sink error for node 1",
        "diverged in round 3: non-finite block covariance at the sink",
    ]
    assert str(err) == str(alone[0]) and err.point == 0


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
    data = MessageKind.DATA_BLOCK
    assert np.array_equal(bit_set(state.trace.kinds, data), bit_set(run.trace.kinds, data))
    (pct, total), (run_pct, run_total) = (transmission_percentages(s, 0) for s in (state, run))
    assert np.array_equal(pct, run_pct) and total == run_total
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


@settings(max_examples=60)
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
    state, step = fed_state(
        [i for size in sizes for i in range(1, size + 1)],
        samples.transpose(1, 0, 2),
        desired.T,
        thresholds,
        sizes,
        noise=client_noise.T,
    )
    alpha, beta = np.array([(t.alpha, t.beta) for t in thresholds]).T[:, state.point]
    trace = state.trace
    suppressed = np.zeros(m, dtype=np.int64)
    for r in range(rounds):
        result = step()
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

        # A data block exactly from a row that started the round raw or
        # sink-adaptive, or adapting with |e'| > beta: none from a row
        # that started it predicting.
        data = bit_set(kinds, MessageKind.DATA_BLOCK)
        loud = np.abs(trace.error_new[r]) > beta
        assert np.array_equal(data, (start <= SINK_ADAPTIVE) | ((start == CLIENT_ADAPTIVE) & loud))

        # NODE_WEIGHT exactly when an adapting client's |e'| <= beta, and
        # GLOBAL_WEIGHT exactly when a sink-side row's |e| <= alpha.
        quiet = np.abs(trace.error_new[r]) <= beta
        assert np.array_equal(node_weight, (start == CLIENT_ADAPTIVE) & quiet)
        near = np.abs(trace.error_glob[r]) <= alpha
        assert np.array_equal(global_weight, (start <= SINK_ADAPTIVE) & near)

        # Every row's next phase, by the phase table of the module docstring.
        expected = start.copy()
        expected[(start == RAW_TRANSMIT) & ~near] = SINK_ADAPTIVE
        expected[(start <= SINK_ADAPTIVE) & near] = CLIENT_ADAPTIVE
        expected[(start == CLIENT_ADAPTIVE) & quiet] = CLIENT_PREDICTING
        expected[(start == CLIENT_PREDICTING) & ~quiet] = RAW_TRANSMIT
        assert np.array_equal(state.phase, expected)

        suppressed += (start == CLIENT_PREDICTING) | ((start == CLIENT_ADAPTIVE) & quiet)

    # Sent plus suppressed blocks make up every row's rounds.
    sent = bit_set(trace.kinds, MessageKind.DATA_BLOCK).sum(axis=0)
    assert np.array_equal(sent + suppressed, np.full(m, rounds))
    pct = [transmission_percentages(state, p)[0] for p in range(len(sizes))]
    assert np.array_equal(np.concatenate(pct), 100.0 * sent / rounds)


@st.composite
def sweep_batches(draw):
    """The inputs of 1-3 points that sense the same nodes' data, as a
    sweep's points do: each point's node subset and thresholds, and the
    nodes' blocks, desired values, client noise and received arrays (None
    for no noise or no channel), with the step size (None for auto).  An
    optional 1e200 block, in round 0 (every row raw) or any round, drives
    divergence; so does a large fixed step size."""
    m, n, rounds = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 30))
    subsets = draw(
        st.lists(st.sets(st.integers(0, m - 1), min_size=1).map(sorted), min_size=1, max_size=3)
    )
    # An alpha of 1e300 hands a point's rows off in round 0.
    alphas = st.floats(0.01, 2.0) | st.just(1e300)
    thresholds = [
        Thresholds(alpha=draw(alphas), beta=draw(st.floats(0.0, 0.5))) for _ in subsets
    ]
    mu = draw(st.none() | st.sampled_from([0.05, 0.5, 5.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = rng.normal(size=(m, rounds, n))
    desired = blocks @ rng.normal(size=n) + 0.1 * rng.normal(size=(m, rounds))
    noise = 0.1 * rng.normal(size=(m, rounds)) if draw(st.booleans()) else None
    huge = draw(st.none() | st.just(0) | st.integers(0, rounds - 1))
    if huge is not None:
        k = draw(st.integers(0, m - 1))
        blocks[k, huge], desired[k, huge] = 1e200, 1e200
    received = None
    if draw(st.booleans()):
        received = (
            blocks + 0.1 * rng.normal(size=blocks.shape),
            desired + 0.1 * rng.normal(size=desired.shape),
        )
    return subsets, thresholds, mu, blocks, desired, noise, received


def protocol_over(subsets, thresholds, mu, blocks, desired, noise, received):
    """One ``fed_state`` whose points sense the given node subsets (node k's
    id is k + 1)."""
    rows = [k for subset in subsets for k in subset]
    return fed_state(
        [k + 1 for k in rows],
        blocks[rows],
        desired[rows],
        thresholds,
        [len(subset) for subset in subsets],
        mu=mu,
        noise=None if noise is None else noise[rows],
        received=None if received is None else (received[0][rows], received[1][rows]),
    )


@settings(max_examples=100)
@given(sweep_batches())
def test_each_point_of_a_batch_equals_its_run_alone(case):
    subsets, thresholds, *inputs = case
    batch, step = protocol_over(subsets, thresholds, *inputs)
    err = run_to_end(batch, step)
    alone = []
    for subset, t in zip(subsets, thresholds):
        state, step = protocol_over([subset], [t], *inputs)
        alone.append((state, run_to_end(state, step)))

    # Over the rounds the batch completed, every point has its alone bits.
    done = batch.round_index
    trace = batch.trace
    for p, (state, _) in enumerate(alone):
        rows = batch.rows(p)
        for column in ("phase", "kinds", "error_glob", "error_new"):
            mine = getattr(trace, column)[:done, rows]
            assert mine.tobytes() == getattr(state.trace, column)[:done].tobytes(), (p, column)

    # The batch stops in the earliest round any point alone stops in, naming
    # the lowest such point with that point's own message.
    stops = [(state.round_index, p, str(exc)) for p, (state, exc) in enumerate(alone) if exc]
    if not stops:
        assert err is None and done == len(trace.phase)
        # The step size from the stacked eigen solve, and the sink filter.
        for p, (state, _) in enumerate(alone):
            assert batch.mu[p : p + 1].tobytes() == state.mu.tobytes(), p
            assert batch.global_weight[p].tobytes() == state.global_weight[0].tobytes(), p
        event("no divergence")
        return
    first_round, point, message = min(stops)
    assert err is not None and done == first_round
    assert (err.point, str(err)) == (point, message)
    event(f"diverged: {message.split('non-finite ')[1].split(' for ')[0]}")


def first_difference(state, p, ref):
    """Where point ``p`` of an engine run first differs, bit for bit, from
    its reference run over the rounds both completed: the earliest round,
    then the lowest node, then the first column, or None."""
    rows, done = state.rows(p), min(state.round_index, len(ref.phase))
    found = []
    for column in ("phase", "kinds", "error_glob", "error_new"):
        mine, theirs = getattr(state.trace, column)[:done, rows], getattr(ref, column)[:done]
        bits = f"u{mine.itemsize}"
        cells = np.argwhere(mine.view(bits) != theirs.view(bits))
        if cells.size:
            r, k = cells[0].tolist()
            found.append((r, k, column, mine[r, k], theirs[r, k]))
    if not found:
        return None
    r, k, column, mine, theirs = min(found, key=lambda cell: cell[:2])
    node = state.node_ids[rows.start + k]
    return f"round {r}, node {node}, {column}: engine {mine!r}, reference {theirs!r}"


def assert_matches_reference(state, p, ref):
    """Point ``p`` of an engine run has its reference run's trace, client
    updates and, for a run that completed, step size and global weight."""
    assert first_difference(state, p, ref) is None, (p, first_difference(state, p, ref))
    rows, done = state.rows(p), min(state.round_index, len(ref.phase))
    mine = [
        (r, k - rows.start, w.tobytes())
        for r, updated, weights in state.trace.updates
        if r < done
        for k, w in zip(updated.tolist(), weights)
        if rows.start <= k < rows.stop
    ]
    assert mine == [(r, k, w.tobytes()) for r, k, w in ref.updates if r < done], p
    if ref.stop is None and done == len(state.trace.phase):
        assert state.mu[p : p + 1].tobytes() == np.float64(ref.mu).tobytes(), p
        assert state.global_weight[p].tobytes() == ref.global_weight.tobytes(), p


@settings(max_examples=100)
@given(sweep_batches())
def test_the_engine_matches_the_reference_protocol(case):
    """Each point of a batch, node by node as ``oracles.reference_protocol``
    runs it alone: every trace cell, client update, step size and sink
    weight bit for bit, and the same stop."""
    subsets, thresholds, mu, blocks, desired, noise, received = case
    batch, step = protocol_over(subsets, thresholds, mu, blocks, desired, noise, received)
    err = run_to_end(batch, step)
    stops = []
    for p, (subset, t) in enumerate(zip(subsets, thresholds)):
        ref = reference_protocol(
            [k + 1 for k in subset],
            blocks[subset],
            desired[subset],
            t,
            mu,
            None if noise is None else noise[subset],
            None if received is None else (received[0][subset], received[1][subset]),
        )
        assert_matches_reference(batch, p, ref)
        if ref.stop is not None:
            stops.append((ref.stop[0], p, ref.stop[1]))
    if not stops:
        assert err is None
        event("no divergence")
        return
    first_round, point, message = min(stops)
    assert batch.round_index == first_round
    assert (err.point, str(err)) == (point, message)
    event("diverged")


@pytest.mark.parametrize("axis, values", [("beta", [0.05, 0.4, 0.0]), ("node_count", [10, 3, 6])])
def test_a_sweep_plan_matches_the_reference_protocol(axis, values):
    # Corrupted nodes 5 and 9 draw client noise at 6 times the standard
    # deviation, and every block crosses a 25 dB channel.
    spec = MaliciousSpec(node_ids=(5, 9), scale=6.0)
    scenario = default_scenario(num_blocks=80, seed=11, channel=25.0, malicious=spec)
    sweep = plan(scenario, "sweep", axis=axis, values=values)
    state = simulate_protocol(sweep)
    layout, field, seed = scenario.layout, scenario.field, scenario.seed
    stream = generate_stream(layout, field, scenario.n_block, scenario.num_blocks, seed)
    stream = inject_malicious(stream, layout, field, spec.node_ids, spec.scale, seed)
    std = float(np.sqrt(field.noise_var))
    for p, (point, group) in enumerate(zip(sweep.points, sweep.groups)):
        rows = stream.rows_of(group)
        blocks, desired = stream.blocks[rows], stream.desired[rows]
        noise = np.array([
            substream(seed, ROLE_PROTOCOL, i).normal(
                0.0, std * (spec.scale if i in spec.node_ids else 1.0), stream.num_blocks
            )
            for i in group
        ])
        received = awgn_channel_per_node(blocks, desired, group, scenario.channel, seed, ROLE_CHANNEL)
        ref = reference_protocol(group, blocks, desired, point.thresholds, point.mu, noise, received)
        assert ref.stop is None and len(ref.phase) == scenario.num_blocks
        assert_matches_reference(state, p, ref)
    assert len({bytes(state.trace.kinds[:, state.rows(p)]) for p in range(len(values))}) > 1


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
    state, step = fed_state(
        ids * points,
        np.concatenate([stream.blocks] * points),
        np.concatenate([stream.desired] * points),
        [Thresholds(0.5, 0.05), Thresholds(0.8, 0.1)][:points],
        [m] * points,
        noise=np.concatenate([noise] * points),
    )

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

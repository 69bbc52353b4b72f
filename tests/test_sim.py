import math
import re
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gauss_solve
from wsnadapt import ada, fieldgen, malicious, numerics, sim, stdp
from wsnadapt.errors import (
    DimensionMismatch,
    Diverged,
    InsufficientHistory,
    InvalidArgument,
    InvalidParameter,
    NonFinite,
    NotPositiveDefinite,
    UnknownNode,
    WsnAdaptError,
)
from wsnadapt.fieldgen import FieldParams, NodeLayout, build_spatial_covariance, generate_stream
from wsnadapt.sim import (
    MaliciousSpec,
    RunReport,
    Scenario,
    Table,
    config_hash,
    default_scenario,
    execute,
    plan,
    report_files,
    run_ada,
    run_detect,
    run_stdp,
    scenario_for_point,
    scenario_to_dict,
    sensed_nodes,
    simulate_protocol,
    sweep,
)
from wsnadapt.stdp import Thresholds

DATA_BLOCK = stdp.KIND_BITS[stdp.MessageKind.DATA_BLOCK]


def csv_files(report):
    """Each of a report's CSV files as its header and data-row bytes."""
    return {name: (header, b"".join(body)) for name, (header, body) in report_files(report).items()}


def small_scenario(**overrides):
    return default_scenario(num_blocks=40, **overrides)


def tainted_scenario():
    return default_scenario(num_blocks=60, malicious=MaliciousSpec(node_ids=(5, 9), scale=6.0))


def test_run_ada_single_node_at_sink():
    layout = NodeLayout(positions=((2.0, 2.0),), sink=(2.0, 2.0), node_ids=(1,))
    scenario = Scenario(layout=layout, select_count=1)
    report = run_ada(plan(scenario, "ada"))
    assert report.files["ada_iterations.csv"].columns[1][-1] == pytest.approx(1.0, abs=1e-8)
    assert report.files["ada_nodes.csv"].columns[1][-1] == pytest.approx(1.0, abs=1e-12)


def test_run_ada_matches_direct_solve(default_scenario, default_cov):
    report = run_ada(plan(default_scenario, "ada"))
    w_star = gauss_solve(default_cov.ruu, default_cov.rdu)
    best = 1.0 - (
        default_cov.sigma_d_sq
        - 2.0 * default_cov.rdu @ w_star
        + w_star @ default_cov.ruu @ w_star
    ) / default_cov.sigma_d_sq
    assert report.files["ada_iterations.csv"].columns[1][-1] == pytest.approx(best, abs=1e-8)
    assert report.metadata["final_accuracy"] == report.files["ada_iterations.csv"].columns[1][-1]


def test_run_ada_curve_non_decreasing(default_scenario):
    report = run_ada(plan(default_scenario, "ada"))
    accs = report.files["ada_nodes.csv"].columns[1]
    assert np.all(np.diff(accs) >= -1e-12)


def test_run_ada_builds_the_covariance_once(default_scenario, monkeypatch):
    calls = []

    def counted(layout, params):
        calls.append(layout.size)
        return build_spatial_covariance(layout, params)

    monkeypatch.setattr(fieldgen, "build_spatial_covariance", counted)
    monkeypatch.setattr(sim, "build_spatial_covariance", counted)
    run_ada(plan(default_scenario, "ada"))
    assert calls == [default_scenario.layout.size]


def test_channel_run_derives_keys_without_a_seed_sequence_per_block(monkeypatch):
    # One substream per (role, node) plus the field's: measurement, protocol
    # and channel noise for every node and corruption for the corrupted one.
    # The channel reads a node's substream block by block, so the count does
    # not grow with the sent blocks.
    real = np.random.SeedSequence
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    counts, sent = [], []
    for beta in (0.05, 0.2):
        built.clear()
        scenario = default_scenario(
            num_blocks=120,
            channel=20.0,
            thresholds=Thresholds(0.5, beta),
            malicious=MaliciousSpec(node_ids=(5,), scale=6.0),
        )
        state = simulate_protocol(plan(scenario))
        sent.append(int(np.count_nonzero(state.trace.kinds & DATA_BLOCK)))
        counts.append(len(built))
    m = scenario.layout.size
    assert min(sent) > 100 and sent[0] != sent[1], sent
    assert counts == [1 + 3 * m + 1] * 2  # the field, 3 roles per node, 1 corrupted node
    assert counts[0] <= 3 * m + 2


def test_run_stdp_beta_zero_and_huge(default_scenario):
    full = run_stdp(plan(small_scenario(thresholds=Thresholds(0.5, 0.0))))
    assert np.all(full.files["stdp_transmission.csv"].columns[2] == 100.0)
    floor = run_stdp(plan(small_scenario(thresholds=Thresholds(1e9, 1e9))))
    assert floor.files["stdp_transmission.csv"].columns[2] == pytest.approx(100.0 / 40)


def test_run_stdp_beta_zero_without_client_noise_sends_one_block_per_node():
    # beta 0 silences a client only at an error of exactly 0.0.  Without
    # noise a handed-off client's filter is the global weight it was sent,
    # so its error is 0.0: every node sends the block that handed it off
    # and falls silent in the next round.
    default = default_scenario()
    scenario = default_scenario(
        field=replace(default.field, noise_var=0.0), thresholds=Thresholds(0.5, 0.0)
    )
    report = run_stdp(plan(scenario))
    assert report.files["stdp_transmission.csv"].columns[2].tolist() == [0.5] * 10
    assert report.metadata["total_percentage"] == 0.5


def test_run_stdp_reports_are_reproducible():
    a = run_stdp(plan(small_scenario()))
    b = run_stdp(plan(small_scenario()))
    assert csv_files(a) == csv_files(b)
    assert a.metadata == b.metadata


def test_run_stdp_select_first_restricts_nodes():
    report = run_stdp(plan(small_scenario(select_first=True, select_count=6)))
    assert report.metadata["active_nodes"] == [2, 4, 5, 7, 9, 10]
    assert report.files["stdp_transmission.csv"].columns[1].tolist() == [2, 4, 5, 7, 9, 10]


def test_run_detect_requires_malicious(default_scenario):
    with pytest.raises(ValueError):
        run_detect(plan(default_scenario, "detect"))


def test_run_detect_flags_the_corrupted_nodes():
    scenario = default_scenario(malicious=MaliciousSpec(node_ids=(5, 9), scale=6.0))
    report = run_detect(plan(scenario, "detect"))
    assert report.metadata["flagged"] == [5, 9]
    node_id, _, _, label = report.files["detection.csv"].columns
    assert node_id[label == b"Malicious"].tolist() == [5, 9]


def test_run_detect_near_normal_scale_well_formed():
    scenario = small_scenario(malicious=MaliciousSpec(node_ids=(5, 9), scale=1.0001))
    report = run_detect(plan(scenario, "detect"))  # no label guarantee, only shape
    assert len(report.files["detection.csv"]) == 10
    _, variance, threshold, label = report.files["detection.csv"].columns
    assert np.isfinite(variance).all() and np.isfinite(threshold).all()
    assert set(label.tolist()) <= {b"Normal", b"Malicious"}


def test_sweep_single_value_equals_single_run():
    scenario = small_scenario()
    merged = sweep(plan(scenario, "sweep", axis="beta", values=[0.1]))
    single = run_stdp(plan(scenario_for_point(scenario, "beta", 0.1)))
    assert csv_files(merged)["stdp_transmission.csv"] == csv_files(single)["stdp_transmission.csv"]
    assert merged.metadata["points"][0]["config_sha1"] == single.metadata["config_sha1"]


def test_sweep_beta_monotone_and_point_reproducible(default_scenario):
    values = [0.05, 0.1, 0.2, 0.4]
    # A plan takes any sequence of values, a numpy array too.
    merged = sweep(plan(default_scenario, "sweep", axis="beta", values=np.array(values)))
    beta_col, node_col, pct = merged.files["stdp_transmission.csv"].columns
    curves = [pct[beta_col == beta] for beta in values]
    assert all(np.all(later <= earlier) for earlier, later in zip(curves, curves[1:]))
    # every point is reproducible by running its scenario directly
    direct = run_stdp(plan(scenario_for_point(default_scenario, "beta", 0.2)))
    _, direct_nodes, direct_pct = direct.files["stdp_transmission.csv"].columns
    at = beta_col == 0.2
    assert np.array_equal(node_col[at], direct_nodes) and np.array_equal(pct[at], direct_pct)


def test_sweep_block_size_default_config():
    merged = sweep(plan(default_scenario(), "sweep", axis="n_block", values=[4, 5]))
    n_block, total = merged.files["sweep_totals.csv"].columns
    assert n_block.tolist() == [4, 5] and total[0] <= total[1]


def test_sweep_node_count_axis():
    merged = sweep(plan(small_scenario(), "sweep", axis="node_count", values=[3, 6]))
    value, node_id, _ = merged.files["sweep_transmission.csv"].columns
    assert node_id[value == 3].tolist() == [2, 4, 5]
    assert node_id[value == 6].tolist() == [2, 4, 5, 7, 9, 10]
    assert len(merged.metadata["points"]) == 2


@st.composite
def sweep_cases(draw):
    """A small scenario with node ids out of order, a ``beta`` or
    ``node_count`` axis and 1 to 6 values, with or without channel,
    corruption, an explicit step size and node selection."""
    m = draw(st.integers(2, 12))
    ids = draw(st.lists(st.integers(1, 60), min_size=m, max_size=m, unique=True))
    # One node per cell of a 0.5 m grid, jittered: no two nodes co-located.
    cells = draw(st.lists(st.integers(0, 63), min_size=m, max_size=m, unique=True))
    jitter = st.floats(-0.15, 0.15)
    positions = [
        (0.5 * (c % 8) + 0.25 + draw(jitter), 0.5 * (c // 8) + 0.25 + draw(jitter)) for c in cells
    ]
    layout = NodeLayout(positions=tuple(positions), sink=(2.0, 2.0), node_ids=tuple(ids))
    malicious = None
    if draw(st.booleans()):
        corrupted = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
        malicious = MaliciousSpec(node_ids=tuple(corrupted), scale=draw(st.floats(1.5, 8.0)))
    select_first = draw(st.booleans())
    scenario = Scenario(
        layout=layout,
        n_block=draw(st.integers(1, 6)),
        num_blocks=draw(st.integers(2, 40)),
        thresholds=Thresholds(draw(st.floats(0.05, 2.0)), draw(st.floats(0.0, 0.5))),
        mu_mode=draw(st.one_of(st.just("auto"), st.floats(0.001, 0.05))),
        malicious=malicious,
        channel=draw(st.one_of(st.none(), st.sampled_from([10.0, 30.0]))),
        seed=draw(st.integers(0, 2**40)),
        select_first=select_first,
        select_count=draw(st.integers(1, m)) if select_first else 1,
    )
    axis = draw(st.sampled_from(["beta", "node_count"]))
    value = st.floats(0.0, 0.6) if axis == "beta" else st.integers(1, m)
    return scenario, axis, draw(st.lists(value, min_size=1, max_size=6))


@settings(max_examples=40)
@given(sweep_cases())
def test_every_sweep_point_equals_its_own_run(case):
    scenario, axis, values = case
    merged = sweep(plan(scenario, "sweep", axis=axis, values=values))
    name = "stdp_transmission.csv" if axis == "beta" else "sweep_transmission.csv"
    value_col, node_col, pct_col = merged.files[name].columns
    totals = merged.files["sweep_totals.csv"].columns[1]
    start = 0
    for k, value in enumerate(values):
        single = run_stdp(plan(scenario_for_point(scenario, axis, value)))
        _, nodes, pct = single.files["stdp_transmission.csv"].columns
        rows = slice(start, start + len(nodes))
        start += len(nodes)
        assert np.all(value_col[rows] == value)
        assert np.array_equal(node_col[rows], nodes)
        assert pct_col[rows].tobytes() == pct.tobytes()
        assert totals[k].tobytes() == np.float64(single.metadata["total_percentage"]).tobytes()
        assert merged.metadata["points"][k]["config_sha1"] == single.metadata["config_sha1"]
    assert start == len(node_col)


@pytest.mark.parametrize("axis, values", [("beta", [0.3, 0.0, 0.1]), ("node_count", [6, 2, 4])])
def test_point_report_read_off_an_engine_run_equals_its_own_run(axis, values):
    scenario = small_scenario(channel=30.0, malicious=MaliciousSpec(node_ids=(5, 9), scale=4.0))
    sweep_plan = plan(scenario, "sweep", axis=axis, values=values)
    state = simulate_protocol(sweep_plan)
    for k, point in enumerate(sweep_plan.points):
        shared, own = run_stdp(sweep_plan, state=state, point=k), run_stdp(plan(point))
        assert shared.metadata == own.metadata
        assert csv_files(shared) == csv_files(own)
        assert "weights.csv" in csv_files(own)


def rounds_given(monkeypatch):
    """Each ``step_round`` call's arguments, as they are passed, from here on."""
    given, step_round = [], stdp.step_round

    def keep(state, *inputs):
        given.append((state, *inputs))
        return step_round(state, *inputs)

    monkeypatch.setattr(stdp, "step_round", keep)
    return given


def test_channel_sweep_points_receive_the_same_bytes_for_a_node_and_block(monkeypatch):
    # What the sinks receive is what each round is given, which a finished
    # run no longer holds.
    given = rounds_given(monkeypatch)

    def received():
        """The engine's node ids and the received blocks and desired values
        of its 40 rounds, stacked as ``(rows, rounds, ...)``; forgets them."""
        state = given[0][0]
        assert len(given) == 40 and all(inputs[0] is state for inputs in given)
        blocks = np.stack([inputs[3] for inputs in given], axis=1)
        desired = np.stack([inputs[4] for inputs in given], axis=1)
        given.clear()
        return state.node_ids, blocks, desired

    scenario = small_scenario(channel=30.0)
    simulate_protocol(plan(scenario))
    sensed = np.stack([inputs[1] for inputs in given], axis=1)
    ids, sink_blocks, sink_desired = received()
    assert not np.array_equal(sink_blocks, sensed)
    for axis, values in (("beta", [0.3, 0.0, 0.1]), ("node_count", [6, 2, 4])):
        simulate_protocol(plan(scenario, "sweep", axis=axis, values=values))
        rows_ids, blocks, desired = received()
        rows = np.searchsorted(ids, rows_ids)
        assert blocks.tobytes() == sink_blocks[rows].tobytes()
        assert desired.tobytes() == sink_desired[rows].tobytes()


@pytest.mark.parametrize("channel", [None, 30.0])
def test_a_finished_run_holds_none_of_its_inputs(channel, monkeypatch):
    # Every array a round is given, and every array it is a view of (the
    # run's sensed blocks, noise draws and received copies), dies when
    # simulate_protocol returns.
    given = rounds_given(monkeypatch)
    scenario = small_scenario(channel=channel)
    state = simulate_protocol(plan(scenario, "sweep", axis="beta", values=[0.05, 0.2]))
    inputs = [a for _, *round_inputs in given for a in round_inputs]
    bases = {id(a.base): a.base for a in inputs if a.base is not None}
    refs = [weakref.ref(a) for a in (*inputs, *bases.values())]
    assert len(given) == scenario.num_blocks and len(bases) >= 3
    del given[:], inputs, bases
    assert [ref for ref in refs if ref() is not None] == []
    arrays = [
        a for a in (*vars(state).values(), *vars(state.trace).values()) if isinstance(a, np.ndarray)
    ]
    arrays += [weights for _, _, weights in state.trace.updates]
    # No array left holds as many entries as the sensed blocks did.
    assert max(a.size for a in arrays) < len(state.node_ids) * state.round_index * scenario.n_block


def test_a_sweep_batch_holds_one_points_stream_at_a_time(traced_peak):
    # With S the bytes of one point's blocks, a batch of P points holds its
    # blocks and desired values, P (1 + 1/n) S, and while a point's stream
    # is made, generate_stream's two S-sized arrays: (P + 2 + P/n) S.  The
    # engine's own arrays come later and hold less than 2 S at n = 20.
    values = [0.05, 0.1, 0.2, 0.4]
    scenario = default_scenario(num_blocks=400, n_block=20)
    simulate_protocol(plan(small_scenario(), "sweep", axis="beta", values=values[:2]))
    state, peak = traced_peak(
        lambda: simulate_protocol(plan(scenario, "sweep", axis="beta", values=values))
    )
    P, n, S = len(values), scenario.n_block, scenario.layout.size * 400 * 20 * 8
    assert state.round_index == 400
    assert peak < (P + 2 + P / n + 0.1) * S


def wide_scenario():
    """The shape of the benchmark's stdp_wide run: 100 nodes on a jittered
    10 x 10 grid at the default layout's density, 500 rounds, no channel."""
    cell = math.sqrt(16.0 / 10.0)
    grid = np.stack(np.meshgrid(np.arange(10), np.arange(10)), axis=-1).reshape(-1, 2)
    jitter = np.random.default_rng(35).uniform(-0.25, 0.25, grid.shape)
    positions = tuple(map(tuple, ((grid + 0.5 + jitter) * cell).tolist()))
    layout = NodeLayout(positions, (5 * cell, 5 * cell), tuple(range(1, 101)))
    return default_scenario(layout=layout, num_blocks=500)


def memory_span(a: np.ndarray) -> int:
    """The bytes from the first to the last byte an array reads."""
    return a.itemsize + sum((k - 1) * abs(step) for k, step in zip(a.shape, a.strides))


def test_a_protocol_report_reads_its_trace_and_log_in_place():
    # Point 1 of a sweep: its rows are a strided run of the trace's columns.
    sweep_plan = plan(tainted_scenario(), "sweep", axis="beta", values=[0.05, 0.2])
    state = simulate_protocol(sweep_plan)
    updates = state.trace.client_updates()
    trace = state.trace
    report = run_stdp(sweep_plan, state, 1, updates)
    rows = state.rows(1)
    sources = {
        "message_trace.csv": (trace.phase, trace.kinds, trace.error_glob, trace.error_new),
        "weights.csv": updates,
    }
    for name, arrays in sources.items():
        table = report.files[name]
        grid = table.columns[0].shape
        assert len(grid) == 2 and len(table) == math.prod(grid)
        for column in table.columns:
            if not any(np.shares_memory(column, a) for a in arrays):
                # A grid broadcast from one row or column of its values.
                assert 0 in column.strides and memory_span(column) <= max(grid) * column.itemsize
        # The only arrays made cell by cell are the absent masks.
        assert all(mask.dtype == bool and mask.shape == grid for mask in table.absent.values())
    shape = (state.round_index, rows.stop - rows.start)
    assert report.files["message_trace.csv"].columns[0].shape == shape


def test_a_wide_runs_report_and_encoding_hold_the_log_and_one_chunk(traced_peak):
    wide = plan(wide_scenario())
    state = simulate_protocol(wide)
    rounds, m = state.trace.phase.shape
    (K, n) = state.trace.client_updates()[2].shape

    def encoded(report):
        return sum(len(chunk) for table in report.files.values() for chunk in table)

    written = encoded(run_stdp(wide, state))  # lazy imports and tables first
    report, report_peak = traced_peak(lambda: run_stdp(wide, state))
    size, peak = traced_peak(lambda: encoded(run_stdp(wide, state)))
    assert size == written and len(report.files["message_trace.csv"]) == rounds * m
    # The report copies the update log once, grouped by row, beside at
    # most seven K-sized index arrays and one batch of the log's rounds:
    # 8 K (n + 7) + 8 B m n bytes.  Per cell of the trace it holds two
    # absent masks, and meanwhile a uint8 temporary and the finiteness
    # check's two bool arrays: 5 bytes.
    batch = 8 * stdp._LOG_BATCH * m * n
    report_bound = 8 * K * (n + 7) + batch + 5 * rounds * m + 100_000
    assert report_peak < report_bound
    # A chunk holds its cells, its byte matrix and the matrix's bytes, each
    # at most CHUNK_ROWS rows of the widest message_trace.csv row: digits
    # of the round and the id, the longest phase and kind names, two
    # 27-slot floats, the transmitted bit and seven separators.
    width = len(str(rounds - 1)) + len(str(max(state.node_ids))) + 7
    width += max(map(len, sim._PHASE_NAMES)) + max(map(len, sim._KIND_NAMES)) + 2 * 27 + 1
    assert peak < report_bound + 3 * sim.CHUNK_ROWS * width


@pytest.mark.parametrize("run", [run_stdp, run_detect])
def test_a_given_stream_is_not_corrupted_so_malicious_is_refused(run):
    scenario = small_scenario(malicious=MaliciousSpec(node_ids=(5, 9), scale=6.0))
    stream = generate_stream(
        scenario.layout, scenario.field, scenario.n_block, scenario.num_blocks, scenario.seed
    )
    with pytest.raises(ValueError, match="^malicious: corrupts generated streams only"):
        run(plan(scenario, run.__name__.removeprefix("run_"), stream=stream))


def counting(monkeypatch, module, name, calls):
    """Patch ``module.name`` to append each call's arguments to ``calls``."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def stream_of(node_ids, scenario):
    """A generated stream of the given node ids, one metre apart."""
    positions = tuple((float(k), 0.0) for k in range(len(node_ids)))
    layout = NodeLayout(positions=positions, sink=(0.0, 1.0), node_ids=tuple(node_ids))
    return generate_stream(layout, scenario.field, scenario.n_block, scenario.num_blocks, 3)


@pytest.mark.parametrize(
    "run, node_ids, message",
    [
        (run_stdp, (50, 51, 52), "node ids [50, 51, 52] all lie outside the layout"),
        (run_detect, (50, 51, 52), "node ids [50, 51, 52] all lie outside the layout"),
        (
            run_detect,
            (5, 50, 51),
            "detect needs at least 2 nodes to classify; the run would use only [5] of node ids "
            "[5, 50, 51]",
        ),
    ],
)
def test_an_unusable_stream_is_refused_before_round_0(monkeypatch, run, node_ids, message):
    scenario = small_scenario()
    rounds = []
    counting(monkeypatch, stdp, "step_round", rounds)
    stream = stream_of(node_ids, scenario)
    with pytest.raises(UnknownNode, match=re.escape(message)):
        run(plan(scenario, run.__name__.removeprefix("run_"), stream=stream))
    assert rounds == []


def test_sensed_nodes_ranks_once_for_all_points(monkeypatch):
    calls = []
    counting(monkeypatch, NodeLayout, "sink_ranking", calls)
    points = [scenario_for_point(small_scenario(), "node_count", k) for k in (6, 2, 4)]
    assert sensed_nodes([small_scenario(), *points]) == [
        tuple(range(1, 11)), (2, 4, 5, 7, 9, 10), (2, 5), (2, 4, 5, 10)
    ]
    assert len(calls) == 1
    stream = stream_of((1, 2, 3, 4, 99), small_scenario())
    calls.clear()
    assert sensed_nodes(points, stream) == [(2, 4), (2,), (2, 4)]
    assert len(calls) == 1
    calls.clear()
    sweep(plan(small_scenario(), "sweep", axis="node_count", values=[6, 2, 4]))
    assert len(calls) == 1


@pytest.mark.parametrize("experiment", ["stdp", "detect"])
def test_a_select_first_plan_builds_no_covariance_and_factors_nothing(monkeypatch, experiment):
    calls = []
    for module in (fieldgen, sim):
        counting(monkeypatch, module, "build_spatial_covariance", calls)
    for module in (numerics, fieldgen, ada):
        counting(monkeypatch, module, "cholesky_factor", calls)
    spec = MaliciousSpec(node_ids=(2, 5), scale=6.0) if experiment == "detect" else None
    scenario = small_scenario(select_first=True, select_count=4, malicious=spec)
    assert plan(scenario, experiment).groups == ((2, 4, 5, 10),)
    assert calls == []


def test_a_multi_point_channel_run_draws_each_nodes_channel_noise_once(monkeypatch):
    keys = []
    counting(monkeypatch, np.random, "SeedSequence", keys)
    scenario = small_scenario(channel=30.0)
    sweep(plan(scenario, "sweep", axis="beta", values=[0.05, 0.1, 0.2]))
    channel = sorted(key[2] for key, in keys if key[1] == fieldgen.ROLE_CHANNEL)
    assert channel == list(scenario.layout.node_ids)


def test_each_engine_run_reads_its_client_update_log_once(monkeypatch):
    calls, reports = [], []
    counting(monkeypatch, stdp.Trace, "client_updates", calls)
    sweep(plan(small_scenario(), "sweep", axis="beta", values=[0.05, 0.1, 0.2]))
    assert len(calls) == 1
    calls.clear()
    counting(monkeypatch, sim, "run_stdp", reports)
    run_detect(plan(tainted_scenario(), "detect"))
    assert len(calls) == 1
    assert len(reports) == 1  # detect extends its run's one run_stdp report
    calls.clear()
    sweep(plan(small_scenario(), "sweep", axis="n_block", values=[4, 5]))
    assert len(calls) == 2  # n_block points run one engine each


def test_a_detect_report_is_its_runs_stdp_report_plus_the_detection(monkeypatch):
    states = []

    def recorded(run_plan):
        states.append(simulate_protocol(run_plan))
        return states[-1]

    monkeypatch.setattr(sim, "simulate_protocol", recorded)
    detect_plan = plan(tainted_scenario(), "detect")
    detect = run_detect(detect_plan)
    (state,) = states
    protocol = run_stdp(detect_plan, state, 0)
    files = csv_files(detect)
    expected = csv_files(protocol)
    for name in ("stdp_transmission.csv", "message_trace.csv", "weights.csv"):
        assert files[name] == expected[name]
    assert files.keys() == expected.keys() | {"detection.csv"}
    same = {key: value for key, value in protocol.metadata.items() if key != "kind"}
    assert detect.metadata.items() >= same.items()
    assert detect.metadata["kind"] == "DETECT"
    assert detect.metadata.keys() - same.keys() == {"kind", "kappa", "threshold", "flagged"}


def test_execute_runs_an_ada_plan_as_run_ada_does():
    ada_plan = plan(small_scenario(), "ada")
    ran, direct = execute(ada_plan), run_ada(ada_plan)
    assert csv_files(ran) == csv_files(direct)
    assert ran.metadata == direct.metadata


def test_detect_refuses_a_corrupted_node_it_does_not_sense(monkeypatch):
    scenario = small_scenario(
        select_first=True, select_count=4, malicious=MaliciousSpec(node_ids=(1, 3), scale=6.0)
    )
    rounds = []
    counting(monkeypatch, stdp, "step_round", rounds)
    message = "malicious/node_ids: corrupted nodes [1, 3] are not among the sensed nodes [2, 4, 5, 10]"
    with pytest.raises(InvalidParameter, match=re.escape(message)):
        run_detect(plan(scenario, "detect"))
    assert rounds == []
    # stdp still runs it: a node_count sweep point must equal its own run.
    assert run_stdp(plan(scenario)).metadata["active_nodes"] == [2, 4, 5, 10]


def diverging_points(scenario, axis, values):
    """(round, point, message) of every point whose own run diverges."""
    found = []
    for k, value in enumerate(values):
        try:
            run_stdp(plan(scenario_for_point(scenario, axis, value)))
        except Diverged as exc:
            round_index = int(str(exc).split("round ")[1].split(":")[0])
            found.append((round_index, k, f"{exc} at {axis}={value}"))
    return found


@pytest.mark.parametrize(
    "axis, values, mu", [("beta", [0.4, 0.2, 0.05, 0.1], 2.0), ("node_count", [2, 10, 6, 4], 50.0)]
)
def test_diverging_sweep_names_the_first_round_and_lowest_point(axis, values, mu):
    scenario = default_scenario(mu_mode=mu)
    found = diverging_points(scenario, axis, values)
    # The first point to diverge at all is not the first in the value list,
    # and two points share the first diverging round in the beta case.
    first = min(found)
    assert first[1] > 0 and len({r for r, _, _ in found}) > 1
    with pytest.raises(Diverged) as err:
        sweep(plan(scenario, "sweep", axis=axis, values=values))
    assert str(err.value) == first[2]
    assert err.value.point == first[1]


@pytest.mark.parametrize(
    "axis, values, mu", [("beta", [0.4, 0.2, 0.05, 0.1], 2.0), ("beta", [0.05], 50.0)]
)
def test_diverging_run_raises_without_runtime_warnings(axis, values, mu):
    # The engine's floating-point error state is entered once per run; the
    # overflow on the way to a non-finite error must stay inside it.
    scenario = default_scenario(mu_mode=mu)
    first = min(diverging_points(scenario, axis, values))
    sweep_plan = plan(scenario, "sweep", axis=axis, values=values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diverged) as err:
            simulate_protocol(sweep_plan)
    assert re.fullmatch(
        r"diverged in round \d+: non-finite (client|sink) error for node \d+", str(err.value)
    )
    assert f"{err.value} at {axis}={values[err.value.point]}" == first[2]
    assert err.value.point == first[1]


def test_sweep_rejects_unknown_axis(default_scenario):
    with pytest.raises(ValueError):
        sweep(plan(default_scenario, "sweep", axis="theta", values=[1.0]))


def test_report_rejects_non_finite():
    with pytest.raises(NonFinite):
        RunReport(files={"x": Table(("i", "x"), (np.array([0]), np.array([np.nan])))}, metadata={})


def test_report_absent_cells_are_masked_not_nan():
    errors = np.array([0.5, 0.0, 0.25])
    absent = np.array([False, True, False])
    table = Table(("round", "error"), (np.arange(3), errors), absent={1: absent})
    report = RunReport(files={"trace": table}, metadata={})
    assert csv_files(report) == {"trace": (("round", "error"), b"0,0.5\n1,\n2,0.25\n")}
    errors[2] = np.inf  # a real non-finite value still fails, naming series, row and column
    with pytest.raises(NonFinite) as err:
        RunReport(files={"trace": table}, metadata={})
    assert str(err.value) == "non-finite value in series trace, row 2, column error: inf"


def test_library_input_checks_raise_typed_errors(monkeypatch):
    """Inputs that only a Python caller can build, past the config checks,
    are refused with a package error class, so ``except WsnAdaptError``
    catches each one; ``select_nodes`` refuses before it factors."""
    layout = sim.default_layout()
    stream = generate_stream(layout, FieldParams(), 4, 2, seed=0)
    cov = build_spatial_covariance(layout, FieldParams())
    stdp_plan = plan(default_scenario(num_blocks=3))
    cases = [
        (DimensionMismatch, "point sizes [3] do not split 2 node ids",
         lambda: stdp.new_protocol_state([1, 2], 1, 3, Thresholds(), [3])),
        (DimensionMismatch, "point 0: node ids [2, 1] do not strictly ascend",
         lambda: stdp.new_protocol_state([2, 1], 1, 3, Thresholds())),
        (UnknownNode, "node ids must be non-zero (0 is the sink)",
         lambda: stdp.new_protocol_state([0, 1], 1, 3, Thresholds())),
        (DimensionMismatch, "a run needs rounds >= 0, got -1",
         lambda: stdp.new_protocol_state([1, 2], -1, 3, Thresholds())),
        (InvalidParameter, "malicious/scale: must exceed 1, got 1.0",
         lambda: fieldgen.inject_malicious(stream, layout, FieldParams(), {5}, 1.0, 0)),
        (InvalidParameter, "n_block: must be >= 1",
         lambda: generate_stream(layout, FieldParams(), 0, 2, seed=0)),
        (InvalidParameter, "num_blocks: must be >= 1",
         lambda: generate_stream(layout, FieldParams(), 4, 0, seed=0)),
        (NonFinite, "non-finite value in series x, row 0, column x: nan",
         lambda: RunReport({"x": Table(("i", "x"), (np.array([0]), np.array([np.nan])))}, {})),
        (DimensionMismatch, "series x is empty",
         lambda: RunReport({"x": Table(("x",), (np.array([], float),))}, {})),
        (NotPositiveDefinite, "covariance has a non-positive dominant eigenvalue",
         lambda: ada.step_size_bound(np.zeros((2, 2)))),
        (InvalidArgument, "provide exactly one of target or count",
         lambda: ada.select_nodes(layout, cov)),
        (InvalidParameter, "select_count: count must be in [1, 10], got 11",
         lambda: ada.select_nodes(layout, cov, count=11)),
        (InvalidArgument, "target must be in (0, 1], got 0.0",
         lambda: ada.select_nodes(layout, cov, target=0.0)),
        (InvalidParameter, "field/sigma_d: sigma_d_sq must be positive",
         lambda: fieldgen.CovariancePair(np.eye(1), np.ones(1), 0.0)),
        (InvalidParameter, "field/sigma_d: sigma_d_sq must be positive",
         lambda: fieldgen.CovariancePair(np.eye(1), np.ones(1), math.nan)),
        (InsufficientHistory, "need at least 2 nodes to classify",
         lambda: malicious.classify({1: 1.0})),
        (InvalidArgument, "kappa must exceed 1, got 1.0",
         lambda: malicious.classify({1: 1.0, 2: 2.0}, kappa=1.0)),
        (InvalidArgument, "kappa must exceed 1, got nan",
         lambda: malicious.classify({1: 1.0, 2: 2.0}, kappa=math.nan)),
        (InvalidParameter, "experiment: run_detect needs a detect plan, got a stdp plan",
         lambda: run_detect(stdp_plan)),
        (InvalidParameter, "sweep: axis 'theta' is not one of ['beta', 'n_block', 'node_count']",
         lambda: scenario_for_point(default_scenario(), "theta", 1.0)),
    ]
    factored = []
    counting(monkeypatch, ada, "cholesky_factor", factored)
    for cls, message, call in cases:
        with pytest.raises(WsnAdaptError) as err:
            call()
        assert type(err.value) is cls and str(err.value) == message
    assert factored == []


def test_config_hash_stable_and_sensitive(default_scenario):
    from dataclasses import replace

    echo = scenario_to_dict(default_scenario)
    assert config_hash(echo) == config_hash(scenario_to_dict(default_scenario))
    changed = scenario_to_dict(replace(default_scenario, seed=default_scenario.seed + 1))
    assert config_hash(echo) != config_hash(changed)


def test_report_files_formats_nine_significant_digits():
    report = run_ada(plan(default_scenario(), "ada"))
    files = report_files(report)
    header, body = files["ada_iterations.csv"]
    assert header == ("iter", "accuracy")
    value = b"".join(body).splitlines()[-1].split(b",")[1].decode()
    mantissa = value.replace(".", "").replace("-", "").lstrip("0")
    assert len(mantissa) <= 9


def test_scenario_validation():
    with pytest.raises(ValueError):
        default_scenario(num_blocks=1)
    with pytest.raises(ValueError):
        default_scenario(mu_mode="fast")
    with pytest.raises(ValueError):
        default_scenario(malicious=MaliciousSpec(node_ids=(99,), scale=6.0))
    with pytest.raises(ValueError):
        default_scenario(select_count=11)


@pytest.mark.parametrize(
    "override, message",
    [
        ({"mu_mode": math.inf}, "mu_mode: must be 'auto' or > 0, got inf"),
        ({"channel": math.nan}, "channel: must keep 10**(-channel/10) finite, got nan"),
        ({"channel": -math.inf}, "channel: must keep 10**(-channel/10) finite, got -inf"),
    ],
)
def test_plan_refuses_a_non_finite_mu_mode_or_channel(override, message):
    """The plan refuses what the run cannot do: an infinite mu fails the
    protocol state, and a NaN or -inf channel makes round 0 diverge."""
    with pytest.raises(InvalidParameter) as err:
        plan(default_scenario(num_blocks=3, **override))
    assert str(err.value) == message


def test_an_infinite_channel_runs_as_no_channel():
    bare, infinite = (
        execute(plan(default_scenario(num_blocks=3, channel=c))) for c in (None, math.inf)
    )
    assert csv_files(bare) == csv_files(infinite)


def test_default_scenario_fits_select_count_to_a_small_layout():
    layout = NodeLayout(((1.0, 1.0), (3.0, 1.0), (2.0, 3.0)), (2.0, 2.0), (1, 2, 3))
    assert default_scenario(layout=layout).select_count == 3
    assert default_scenario(layout=layout, select_count=2).select_count == 2
    assert default_scenario().select_count == 6


def test_engine_points_may_differ_only_in_thresholds_and_selection():
    scenario = small_scenario()
    simulate_protocol(plan(scenario, "sweep", axis="node_count", values=[3, 10]))
    base = plan(scenario, "sweep", axis="beta", values=[0.1, 0.2])
    reseeded = replace(base, points=(scenario, small_scenario(seed=5)))
    for bad in (reseeded, plan(scenario, "sweep", axis="n_block", values=[4, 5])):
        with pytest.raises(
            DimensionMismatch, match="^engine points may differ only in thresholds and node selection$"
        ):
            simulate_protocol(bad)

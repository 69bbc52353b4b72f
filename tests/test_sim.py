import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gauss_solve
from wsnadapt import fieldgen, sim
from wsnadapt.errors import Diverged
from wsnadapt.fieldgen import FieldParams, NodeLayout, build_spatial_covariance
from wsnadapt.sim import (
    MaliciousSpec,
    RunReport,
    Scenario,
    Table,
    config_hash,
    default_scenario,
    report_files,
    run_ada,
    run_detect,
    run_stdp,
    scenario_for_point,
    scenario_to_dict,
    simulate_protocol,
    sweep,
)
from wsnadapt.stdp import Thresholds


def small_scenario(**overrides):
    return default_scenario(num_blocks=40, **overrides)


def test_run_ada_single_node_at_sink():
    layout = NodeLayout(positions=((2.0, 2.0),), sink=(2.0, 2.0), node_ids=(1,))
    scenario = Scenario(layout=layout, select_count=1)
    report = run_ada(scenario)
    assert report.files["ada_iterations.csv"][-1][1] == pytest.approx(1.0, abs=1e-8)
    assert report.files["ada_nodes.csv"][-1][1] == pytest.approx(1.0, abs=1e-12)


def test_run_ada_matches_direct_solve(default_scenario, default_cov):
    report = run_ada(default_scenario)
    w_star = gauss_solve(default_cov.ruu, default_cov.rdu)
    best = 1.0 - (
        default_cov.sigma_d_sq
        - 2.0 * default_cov.rdu @ w_star
        + w_star @ default_cov.ruu @ w_star
    ) / default_cov.sigma_d_sq
    assert report.files["ada_iterations.csv"][-1][1] == pytest.approx(best, abs=1e-8)
    assert report.metadata["converged"]


def test_run_ada_curve_non_decreasing(default_scenario):
    report = run_ada(default_scenario)
    accs = [row[1] for row in report.files["ada_nodes.csv"]]
    assert all(accs[k + 1] >= accs[k] - 1e-12 for k in range(len(accs) - 1))


def test_run_ada_builds_the_covariance_once(default_scenario, monkeypatch):
    calls = []

    def counted(layout, params):
        calls.append(layout.size)
        return build_spatial_covariance(layout, params)

    monkeypatch.setattr(fieldgen, "build_spatial_covariance", counted)
    monkeypatch.setattr(sim, "build_spatial_covariance", counted)
    run_ada(default_scenario)
    assert calls == [default_scenario.layout.size]


def test_channel_run_derives_keys_without_a_seed_sequence_per_block(monkeypatch):
    # Each node needs a few substreams of its own (measurement, protocol,
    # corruption); the channel's (node, block) keys come from one table, so
    # the SeedSequence count grows with the nodes, not with the sent blocks.
    real = np.random.SeedSequence
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    scenario = default_scenario(
        num_blocks=120, channel=20.0, malicious=MaliciousSpec(node_ids=(5, 9), scale=6.0)
    )
    state = simulate_protocol(scenario)
    sent_blocks = int(state.trace.transmitted.sum())
    assert sent_blocks > 100
    m = scenario.layout.size
    assert len(built) <= 3 * m + 2, len(built)


def test_run_stdp_beta_zero_and_huge(default_scenario):
    full = run_stdp(small_scenario(thresholds=Thresholds(0.5, 0.0)))
    assert all(pct == 100.0 for _, _, pct in full.files["stdp_transmission.csv"])
    floor = run_stdp(small_scenario(thresholds=Thresholds(1e9, 1e9)))
    assert all(pct == pytest.approx(100.0 / 40) for _, _, pct in floor.files["stdp_transmission.csv"])


def test_run_stdp_reports_are_reproducible():
    a = run_stdp(small_scenario())
    b = run_stdp(small_scenario())
    assert a.files == b.files
    assert a.metadata == b.metadata


def test_run_stdp_select_first_restricts_nodes():
    report = run_stdp(small_scenario(select_first=True, select_count=6))
    assert report.metadata["active_nodes"] == [2, 4, 5, 7, 9, 10]
    nodes = {node_id for _, node_id, _ in report.files["stdp_transmission.csv"]}
    assert nodes == {2, 4, 5, 7, 9, 10}


def test_run_detect_requires_malicious(default_scenario):
    with pytest.raises(ValueError):
        run_detect(default_scenario)


def test_run_detect_flags_the_corrupted_nodes():
    scenario = default_scenario(malicious=MaliciousSpec(node_ids=(5, 9), scale=6.0))
    report = run_detect(scenario)
    assert report.metadata["flagged"] == [5, 9]
    labels = {node_id: label for node_id, _, _, label in report.files["detection.csv"]}
    assert labels[5] == "Malicious" and labels[9] == "Malicious"
    assert sum(lab == "Malicious" for lab in labels.values()) == 2


def test_run_detect_near_normal_scale_well_formed():
    scenario = small_scenario(malicious=MaliciousSpec(node_ids=(5, 9), scale=1.0001))
    report = run_detect(scenario)  # no label guarantee, only shape
    assert len(report.files["detection.csv"]) == 10
    for _, variance, threshold, label in report.files["detection.csv"]:
        assert np.isfinite(variance) and np.isfinite(threshold)
        assert label in ("Normal", "Malicious")


def test_sweep_single_value_equals_single_run():
    scenario = small_scenario()
    merged = sweep(scenario, "beta", [0.1])
    single = run_stdp(scenario_for_point(scenario, "beta", 0.1))
    assert merged.files["stdp_transmission.csv"] == single.files["stdp_transmission.csv"]
    assert merged.metadata["points"][0]["config_sha1"] == single.metadata["config_sha1"]


def test_sweep_beta_monotone_and_point_reproducible(default_scenario):
    values = [0.05, 0.1, 0.2, 0.4]
    merged = sweep(default_scenario, "beta", values)
    per_node = {}
    for beta, node_id, pct in merged.files["stdp_transmission.csv"]:
        per_node.setdefault(node_id, {})[beta] = pct
    for node_id, curve in per_node.items():
        series = [curve[beta] for beta in values]
        assert all(series[k + 1] <= series[k] for k in range(len(values) - 1))
    # every point is reproducible by running its scenario directly
    direct = run_stdp(scenario_for_point(default_scenario, "beta", 0.2))
    assert [r for r in merged.files["stdp_transmission.csv"] if r[0] == 0.2] == [
        (0.2, node_id, pct) for _, node_id, pct in direct.files["stdp_transmission.csv"]
    ]


def test_sweep_block_size_default_config():
    merged = sweep(default_scenario(), "n_block", [4, 5])
    totals = dict(merged.files["sweep_totals.csv"])
    assert totals[4] <= totals[5]


def test_sweep_node_count_axis():
    merged = sweep(small_scenario(), "node_count", [3, 6])
    nodes_at_3 = {n for v, n, _ in merged.files["sweep_transmission.csv"] if v == 3}
    nodes_at_6 = {n for v, n, _ in merged.files["sweep_transmission.csv"] if v == 6}
    assert nodes_at_3 == {2, 4, 5}
    assert nodes_at_6 == {2, 4, 5, 7, 9, 10}
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sweep_cases())
def test_every_sweep_point_equals_its_own_run(case):
    scenario, axis, values = case
    merged = sweep(scenario, axis, values)
    name = "stdp_transmission.csv" if axis == "beta" else "sweep_transmission.csv"
    value_col, node_col, pct_col = merged.files[name].columns
    totals = merged.files["sweep_totals.csv"].columns[1]
    start = 0
    for k, value in enumerate(values):
        single = run_stdp(scenario_for_point(scenario, axis, value))
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
    points = [scenario_for_point(scenario, axis, value) for value in values]
    state = simulate_protocol(points[0], points=points)
    for k, point in enumerate(points):
        shared, own = run_stdp(point, state=state, point=k), run_stdp(point)
        assert shared.metadata == own.metadata
        assert report_files(shared) == report_files(own)
        assert "weights.csv" in report_files(own)


def diverging_points(scenario, axis, values):
    """(round, point, message) of every point whose own run diverges."""
    found = []
    for k, value in enumerate(values):
        try:
            run_stdp(scenario_for_point(scenario, axis, value))
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
        sweep(scenario, axis, values)
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
    points = [scenario_for_point(scenario, axis, value) for value in values]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diverged) as err:
            simulate_protocol(points[0], points=points)
    assert re.fullmatch(
        r"diverged in round \d+: non-finite (client|sink) error for node \d+", str(err.value)
    )
    assert f"{err.value} at {axis}={values[err.value.point]}" == first[2]
    assert err.value.point == first[1]


def test_sweep_rejects_unknown_axis(default_scenario):
    with pytest.raises(ValueError):
        sweep(default_scenario, "theta", [1.0])


def test_report_rejects_non_finite():
    with pytest.raises(ValueError):
        RunReport(files={"x": Table(("i", "x"), (np.array([0]), np.array([np.nan])))}, metadata={})


def test_report_absent_cells_are_masked_not_nan():
    errors = np.array([0.5, 0.0, 0.25])
    absent = np.array([False, True, False])
    table = Table(("round", "error"), (np.arange(3), errors), absent={1: absent})
    report = RunReport(files={"trace": table}, metadata={})
    assert list(report.files["trace"]) == [(0, 0.5), (1, None), (2, 0.25)]
    assert table != Table(("round", "value"), (np.arange(3), errors), absent={1: absent})
    errors[2] = np.inf  # a real non-finite value still fails, naming series and row
    with pytest.raises(ValueError, match="series trace, row 2"):
        RunReport(files={"trace": table}, metadata={})


def test_config_hash_stable_and_sensitive(default_scenario):
    from dataclasses import replace

    echo = scenario_to_dict(default_scenario)
    assert config_hash(echo) == config_hash(scenario_to_dict(default_scenario))
    changed = scenario_to_dict(replace(default_scenario, seed=default_scenario.seed + 1))
    assert config_hash(echo) != config_hash(changed)


def test_report_files_formats_nine_significant_digits():
    report = run_ada(default_scenario())
    files = report_files(report)
    header, body = files["ada_iterations.csv"]
    assert header == ("iter", "accuracy")
    value = b"".join(body.chunks).splitlines()[-1].split(b",")[1].decode()
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


def test_engine_points_may_differ_only_in_thresholds_and_selection():
    scenario = small_scenario()
    simulate_protocol(scenario, points=[small_scenario(select_first=True, select_count=3)])
    with pytest.raises(ValueError, match="only in thresholds and node selection"):
        simulate_protocol(scenario, points=[small_scenario(seed=5)])

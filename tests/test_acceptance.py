"""Acceptance suite: one test per release criterion, each recording a
PASS/FAIL line for the session summary (see conftest)."""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import record_criterion
from oracles import gauss_solve, global_ia_update, random_layout
from wsnadapt import sim
from wsnadapt.ada import select_nodes, steepest_descent, step_size_bound
from wsnadapt.errors import StepSizeOutOfRange
from wsnadapt.fieldgen import FieldParams, NodeLayout, build_spatial_covariance
from wsnadapt.malicious import Label, classify, weight_variance, WeightHistory
from wsnadapt.sim import MaliciousSpec, default_scenario, plan, run_detect, run_stdp, sweep
from wsnadapt.stdp import (
    CLIENT_ADAPTIVE,
    CLIENT_PREDICTING,
    KIND_BITS,
    MessageKind,
    Thresholds,
    transmission_percentages,
)

from test_malicious import TABLE_LABELS, TABLE_VARIANCES, TABLE_WEIGHTS, scalar_history
from test_stdp import one_round_sweep


def descent_suite(count=100, seed=2024):
    """Seeded random layouts (M <= 10) with their covariance pairs."""
    rng = np.random.default_rng(seed)
    suite = []
    for _ in range(count):
        m = int(rng.integers(2, 11))
        positions, sink = random_layout(rng, m)
        layout = NodeLayout(
            positions=tuple(positions), sink=sink, node_ids=tuple(range(1, m + 1))
        )
        params = FieldParams(theta=float(rng.uniform(0.8, 3.0)))
        suite.append(build_spatial_covariance(layout, params))
    return suite


@pytest.fixture(scope="module")
def covariance_suite():
    return descent_suite()


def test_criterion_01_descent_converges_to_normal_equation(covariance_suite):
    started = time.monotonic()
    for cov in covariance_suite:
        mu = step_size_bound(cov.ruu) / 2.0  # 1 / lambda_max
        trace = steepest_descent(cov, mu=mu, tol=1e-8)
        w = trace.final_weight
        rdu_norm = np.linalg.norm(cov.rdu)
        assert np.linalg.norm(cov.rdu - cov.ruu @ w) <= 1e-8 * rdu_norm
        w_star = gauss_solve(cov.ruu, cov.rdu)
        assert np.linalg.norm(cov.ruu @ (w - w_star)) <= 2e-8 * rdu_norm
        assert np.all(np.diff(trace.mmse) <= 1e-12 * cov.sigma_d_sq)
    elapsed = time.monotonic() - started
    ok = elapsed < 5.0
    record_criterion(
        1, f"descent matches normal equation on 100 layouts in {elapsed:.2f}s", ok
    )
    assert ok


def test_criterion_02_step_size_bound_enforced(covariance_suite):
    for cov in covariance_suite:
        bound = step_size_bound(cov.ruu)
        # A returned trace has converged; running out of iterations raises.
        steepest_descent(cov, mu=1.99 / 2.0 * bound, tol=1e-8)
        with pytest.raises(StepSizeOutOfRange):
            steepest_descent(cov, mu=2.5 / 2.0 * bound)
    record_criterion(2, "mu=1.99/lambda converges, mu=2.5/lambda rejected", True)


def test_criterion_03_single_node_accuracy_closed_form(covariance_suite):
    rng = np.random.default_rng(99)
    for _ in range(1000):
        distance = float(rng.uniform(0.0, 10.0))
        theta = float(rng.uniform(0.5, 4.0))
        sigma_d = float(rng.uniform(0.5, 2.0))
        rho = np.exp(-distance / theta)
        layout = NodeLayout(positions=((distance, 0.0),), sink=(0.0, 0.0), node_ids=(1,))
        cov = build_spatial_covariance(layout, FieldParams(theta=theta, sigma_d=sigma_d))
        assert select_nodes(layout, cov, count=1).accuracy[0] == pytest.approx(rho**2, abs=1e-12)
    for cov in covariance_suite:
        trace = steepest_descent(cov)
        assert 0.0 <= 1.0 - trace.mmse[-1] / cov.sigma_d_sq <= 1.0
    record_criterion(3, "single-node accuracy equals rho^2 (1e-12); optimum in [0,1]", True)


def test_criterion_04_six_of_ten_selection(default_scenario, default_cov):
    selection = select_nodes(default_scenario.layout, default_cov, count=10)
    oracle_curve = []
    order_index = {i: k for k, i in enumerate(default_scenario.layout.node_ids)}
    for size in range(1, 11):
        idx = [order_index[i] for i in selection.order[:size]]
        sub_r = default_cov.ruu[np.ix_(idx, idx)]
        sub_d = default_cov.rdu[idx]
        w = gauss_solve(sub_r, sub_d)
        j = default_cov.sigma_d_sq - 2 * sub_d @ w + w @ sub_r @ w
        oracle_curve.append(1.0 - j / default_cov.sigma_d_sq)
    for acc, oracle in zip(selection.accuracy, oracle_curve, strict=True):
        assert acc == pytest.approx(oracle, abs=1e-10)
    assert all(
        oracle_curve[k + 1] >= oracle_curve[k] - 1e-12 for k in range(9)
    )
    ok = oracle_curve[5] >= 0.9 * oracle_curve[9]
    record_criterion(
        4,
        f"six nearest nodes reach {oracle_curve[5] / oracle_curve[9]:.3f} of full accuracy",
        ok,
    )
    assert ok
    assert sorted(selection.order[:6]) == [2, 4, 5, 7, 9, 10]


def test_criterion_05_update_forms_equivalent():
    rng = np.random.default_rng(555)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 11))
        w_prev = rng.normal(size=n)
        blocks = [(rng.normal(size=n), float(rng.normal())) for _ in range(m)]
        mu = float(rng.uniform(0.01, 0.9))
        u = np.array([u for u, _ in blocks])
        d = np.array([d for _, d in blocks])
        a = one_round_sweep(w_prev, u, d, mu)
        b = global_ia_update(w_prev, blocks, mu)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))
    record_criterion(5, "an engine round's sweep and the instantaneous sweep agree to 1e-12", True)


def test_criterion_06_transmission_monotone_in_beta(default_scenario):
    started = time.monotonic()
    betas = [0.05, 0.1, 0.2, 0.4]
    merged = sweep(plan(default_scenario, "sweep", axis="beta", values=betas))
    beta_col, node_col, pct = merged.files["stdp_transmission.csv"].columns
    nodes = [node_col[beta_col == b] for b in betas]
    curves = [pct[beta_col == b] for b in betas]
    assert all(np.array_equal(ids, nodes[0]) for ids in nodes)
    assert all(np.all(later <= earlier) for earlier, later in zip(curves, curves[1:]))
    zero = run_stdp(plan(replace(default_scenario, thresholds=Thresholds(0.5, 0.0))))
    assert np.all(zero.files["stdp_transmission.csv"].columns[2] == 100.0)
    elapsed = time.monotonic() - started
    ok = elapsed < 10.0
    record_criterion(
        6, f"per-node transmission non-increasing in beta; beta=0 gives 100% ({elapsed:.2f}s)", ok
    )
    assert ok


def test_criterion_07_blocksize_comparison_shipped_default_config_only():
    # config-dependent claim: asserted for the shipped default scenario only
    merged = sweep(plan(default_scenario(), "sweep", axis="n_block", values=[4, 5]))
    n_block, total = merged.files["sweep_totals.csv"].columns
    assert n_block.tolist() == [4, 5]
    total_4, total_5 = total.tolist()
    ok = total_4 <= total_5
    record_criterion(7, f"default config: N=4 transmits {total_4:.2f}% <= N=5 {total_5:.2f}%", ok)
    assert ok


def test_criterion_08_detection_table_reproduction():
    # the four columns whose printed weights are arithmetically consistent
    for node_id in (2, 4, 5, 10):
        got = weight_variance(scalar_history(node_id, TABLE_WEIGHTS[node_id]))
        assert got == pytest.approx(TABLE_VARIANCES[node_id], abs=1e-9)
    # node 7's printed trailing value drops a digit; restoring 0.0244 makes
    # the reference variance exact, confirming the estimator
    restored = scalar_history(7, (0.0229, 0.0225, 0.0207, 0.0214, 0.0244))
    assert weight_variance(restored) == pytest.approx(TABLE_VARIANCES[7], abs=1e-10)
    report = classify(TABLE_VARIANCES, kappa=5.0)
    assert report.labels == TABLE_LABELS
    flagged = sorted(i for i, lab in report.labels.items() if lab is Label.MALICIOUS)
    ok = flagged == [5, 9]
    record_criterion(
        8, "reference variance table reproduced; kappa=5 flags exactly {5, 9}", ok
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "reference weight columns for nodes 7 and 9 are rounded to four "
        "decimals while their printed variances come from unrounded data; "
        "no constant-denominator estimator reproduces them to 1e-9 from the "
        "printed inputs (node 7's trailing 0.024 is a truncated 0.0244)"
    ),
)
def test_criterion_08_nodes_7_and_9_from_printed_inputs():
    for node_id in (7, 9):
        got = weight_variance(scalar_history(node_id, TABLE_WEIGHTS[node_id]))
        assert got == pytest.approx(TABLE_VARIANCES[node_id], abs=1e-9)


def test_criterion_09_detection_robust_over_seeds():
    hits = 0
    for seed in range(20):
        scenario = default_scenario(
            seed=seed, malicious=MaliciousSpec(node_ids=(5, 9), scale=6.0)
        )
        report = run_detect(plan(scenario, "detect"))
        hits += report.metadata["flagged"] == [5, 9]
    ok = hits >= 18
    record_criterion(9, f"exactly {{5, 9}} flagged in {hits}/20 seeded runs", ok)
    assert ok


def test_criterion_10_cli_outputs_byte_identical(tmp_path):
    import json

    from wsnadapt.cli import main

    docs = {
        "ada": {"experiment": "ada"},
        "stdp": {"experiment": "stdp", "num_blocks": 40},
        "detect": {
            "experiment": "detect",
            "num_blocks": 80,
            "malicious": {"node_ids": [5, 9], "scale": 6.0},
        },
        "sweep": {
            "experiment": "sweep",
            "num_blocks": 40,
            "sweep": {"axis": "beta", "values": [0.05, 0.2]},
        },
    }
    for kind, doc in docs.items():
        config = tmp_path / f"{kind}.json"
        config.write_text(json.dumps(doc))
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{kind}_{tag}"
            assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
            outs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
            )
        assert outs[0] == outs[1], kind
    record_criterion(10, "repeated runs byte-identical for all four experiment kinds", True)


def test_criterion_11_protocol_safety_under_fuzzing():
    rng = np.random.default_rng(777)
    rounds_done = 0
    runs = 0
    while rounds_done < 10_000:
        runs += 1
        m = int(rng.integers(2, 9))
        positions, sink = random_layout(rng, m)
        layout = NodeLayout(
            positions=tuple(positions), sink=sink, node_ids=tuple(range(1, m + 1))
        )
        n = int(rng.integers(3, 7))
        num_rounds = int(rng.integers(40, 120))
        thresholds = Thresholds(
            alpha=float(rng.uniform(0.01, 2.0)), beta=float(rng.uniform(0.0, 0.5))
        )
        malicious = None
        if rng.uniform() < 0.3:
            victim = int(rng.integers(1, m + 1))
            malicious = MaliciousSpec(node_ids=(victim,), scale=float(rng.uniform(2.0, 8.0)))
        scenario = sim.Scenario(
            layout=layout,
            field=FieldParams(noise_var=float(rng.uniform(0.0, 0.05))),
            n_block=n,
            num_blocks=num_rounds,
            thresholds=thresholds,
            malicious=malicious,
            channel=float(rng.uniform(5.0, 40.0)) if rng.uniform() < 0.3 else None,
            seed=int(rng.integers(0, 2**32)),
            select_count=min(6, m),
        )
        state = sim.simulate_protocol(plan(scenario))
        trace = state.trace
        transmitted = (trace.kinds & KIND_BITS[MessageKind.DATA_BLOCK]) != 0
        assert not np.any((trace.phase == CLIENT_PREDICTING) & transmitted)
        global_weight = (trace.kinds & KIND_BITS[MessageKind.GLOBAL_WEIGHT]) != 0
        assert np.all(transmitted[global_weight])  # error_glob present
        assert np.all(np.abs(trace.error_glob[global_weight]) <= thresholds.alpha)
        node_weight = (trace.kinds & KIND_BITS[MessageKind.NODE_WEIGHT]) != 0
        assert np.all(trace.phase[node_weight] >= CLIENT_ADAPTIVE)  # error_new present
        assert np.all(np.abs(trace.error_new[node_weight]) <= thresholds.beta)
        sent = transmitted.sum(axis=0)
        kept = (~transmitted).sum(axis=0)
        pct, _ = transmission_percentages(state, 0)
        assert pct.tobytes() == (100 * sent / num_rounds).tobytes()
        assert np.all(sent + kept == num_rounds) and state.round_index == num_rounds
        rounds_done += num_rounds
    record_criterion(
        11, f"safety invariants held over {rounds_done} fuzzed rounds ({runs} runs)", True
    )

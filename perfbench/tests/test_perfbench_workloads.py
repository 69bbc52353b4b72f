"""The seeded workload generator and the traced run."""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
import wsnadapt  # noqa: E402
from wsnadapt import cli  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_config(name):
    first = json.dumps(workloads.build_config(name, 3))
    assert json.dumps(workloads.build_config(name, 3)) == first
    assert json.dumps(workloads.build_config(name, 4)) != first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_config_is_valid_at_default_density(tmp_path, name):
    config = workloads.build_config(name, 9)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    parsed = cli.parse_config(path)
    layout = parsed.scenario.layout
    side = 2.0 * layout.sink[0]
    assert layout.sink == (side / 2.0, side / 2.0)
    assert math.isclose(side * side / layout.size, 16.0 / 10.0)
    assert all(0.0 <= c <= side for p in layout.positions for c in p)


def traced_run(tmp_path: Path, config: dict, tag: str) -> dict:
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(config))
    command = "sweep" if config["experiment"] == "sweep" else "run"
    tracer = spans.Tracer(wsnadapt, tmp_path)
    tracer.install()
    try:
        status = cli.main([command, "--config", str(path), "--out", str(tmp_path / tag),
                           "--jobs", "2"])
    finally:
        tracer.uninstall()
    assert status == 0 and tracer.missing == []
    return spans.layer_metrics(tracer.take(), tracer.owner_pid, 1.0)


def small(name: str, nodes: int, rounds: int) -> dict:
    config = workloads.build_config(name, 1)
    config["layout"] = {k: v[:nodes] if k != "sink" else v for k, v in config["layout"].items()}
    config["num_blocks"] = rounds
    return config


def test_traced_counts_repeat_and_add_up(tmp_path):
    config = small("stdp_wide", 6, 60)
    first = traced_run(tmp_path, config, "a")
    again = traced_run(tmp_path, config, "b")
    for key in spans.COUNT_METRICS:
        if key in first:
            assert first[key] == again[key], key
    assert first["stdp.node_rounds"] == 6 * 60
    assert sum(first[f"stdp.phase.{p}"] for p in spans.PHASES) == 6 * 60
    assert first["stdp.msgs.QUERY"] == 6
    assert first["numerics.cholesky_calls"] == 1
    assert first["fieldgen.samples"] == 6 * 5 * 60
    assert first["sim.format_s"] > 0 and first["cli.write_s"] > 0


def test_sweep_worker_spans_are_collected(tmp_path):
    config = small("sweep_beta", 6, 40)
    metrics = traced_run(tmp_path, config, "sweep")
    points = len(config["sweep"]["values"])
    assert metrics["stdp.node_rounds"] == 6 * 40 * points
    assert metrics["numerics.cholesky_calls"] == points
    assert metrics["sim.sweep_point_s"] > 0

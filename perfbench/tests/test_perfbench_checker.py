"""The benchmark's output checker must pass real outputs and fail corrupted ones."""

import json
import os
import random
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checker  # noqa: E402
import loop  # noqa: E402
from wsnadapt import cli  # noqa: E402


def small_config(experiment: str) -> dict:
    rng = random.Random(7)
    config = {
        "experiment": experiment,
        "seed": 5,
        "layout": {
            "positions": [[rng.uniform(0, 4), rng.uniform(0, 4)] for _ in range(8)],
            "sink": [2.0, 2.0],
            "node_ids": list(range(1, 9)),
        },
    }
    if experiment == "ada":
        config["field"] = {"theta": 2.0, "sigma_u": 1.0, "sigma_d": 1.0}
    else:
        config["num_blocks"] = 120
    if experiment == "detect":
        config["malicious"] = {"node_ids": [2, 5], "scale": 6.0}
        config["channel"] = 30.0
    if experiment == "sweep":
        config["sweep"] = {"axis": "beta", "values": [0.05, 0.4]}
    return config


def run_cli(tmp_path: Path, config: dict, name: str = "out") -> Path:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / name
    command = "sweep" if config["experiment"] == "sweep" else "run"
    assert cli.main([command, "--config", str(path), "--out", str(out), "--jobs", "1"]) == 0
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("outputs")
    return {
        e: (small_config(e), run_cli(base, small_config(e), e))
        for e in ("ada", "stdp", "detect", "sweep")
    }


def corrupted(tmp_path: Path, out: Path, name: str, edit) -> Path:
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    lines = (copy / name).read_text().splitlines()
    (copy / name).write_text("\n".join(edit(lines)) + "\n")
    return copy


def replace_cell(line: str, column: int, value: str) -> str:
    cells = line.split(",")
    cells[column] = value
    return ",".join(cells)


@pytest.mark.parametrize("experiment", ["ada", "stdp", "detect", "sweep"])
def test_real_outputs_pass(outputs, experiment):
    config, out = outputs[experiment]
    assert checker.check_outputs(out, config) == []


@pytest.mark.parametrize(
    "experiment, name, edit, reason",
    [
        ("stdp", "weights.csv", lambda l: l[:5] + [replace_cell(l[5], 3, "nan")] + l[6:], "non-finite"),
        ("stdp", "message_trace.csv", lambda l: l[:7] + l[8:], "rows"),
        ("stdp", "message_trace.csv", lambda l: l[:-1], "rows"),
        ("stdp", "stdp_transmission.csv", lambda l: l[:1] + [replace_cell(l[1], 2, "100.5")] + l[2:], "pct"),
        ("stdp", "message_trace.csv",
         lambda l: l[:3] + [replace_cell(l[3], 6, "1" if l[3].endswith("0") else "0")] + l[4:],
         "transmitted"),
        ("detect", "detection.csv",
         lambda l: l[:1] + [replace_cell(l[1], 3, "Malicious" if l[1].endswith("Normal") else "Normal")] + l[2:],
         "label"),
        ("ada", "ada_nodes.csv", lambda l: l[:-1] + [replace_cell(l[-1], 1, "0.99999")], "full-set accuracy"),
        ("ada", "ada_nodes.csv", lambda l: l[:3] + [replace_cell(l[3], 1, "0.001")] + l[4:], "falls"),
        ("ada", "ada_iterations.csv", lambda l: l[:2] + [replace_cell(l[2], 1, "inf")] + l[3:], "non-finite"),
        ("sweep", "sweep_totals.csv", lambda l: l[:1] + [replace_cell(l[1], 1, "-3")] + l[2:], "pct"),
    ],
)
def test_corrupted_outputs_fail(tmp_path, outputs, experiment, name, edit, reason):
    config, out = outputs[experiment]
    failures = checker.check_outputs(corrupted(tmp_path, out, name, edit), config)
    assert len(failures) == 1 and reason in failures[0], failures


def test_missing_and_stray_files_fail(tmp_path, outputs):
    config, out = outputs["stdp"]
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    (copy / "detection.csv").write_text("stale\n")
    assert "file set" in checker.check_outputs(copy, config)[0]
    (copy / "detection.csv").unlink()
    (copy / "weights.csv").unlink()
    assert "file set" in checker.check_outputs(copy, config)[0]


def test_digest_drift_between_repeats_fails(tmp_path, outputs):
    config, _ = outputs["stdp"]
    first = checker.digest_dir(run_cli(tmp_path, config, "first"))
    again = run_cli(tmp_path, config, "again")
    assert checker.judge_run(0, b"", checker.digest_dir(again), first) == []
    with open(again / "message_trace.csv", "r+b") as handle:
        handle.seek(200)
        byte = handle.read(1)
        handle.seek(200)
        handle.write(b"7" if byte != b"7" else b"8")
    failures = checker.judge_run(0, b"", checker.digest_dir(again), first)
    assert failures and "message_trace.csv" in failures[0]


def test_stray_stderr_and_exit_status_fail():
    assert "stderr" in checker.judge_run(0, b"RuntimeWarning\n", {}, None)[0]
    assert "exit status 2" in checker.judge_run(2, b"", {}, None)[0]


def test_run_once_captures_stderr_of_the_process(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "stderr", open(2, "w", closefd=False))

    class Noisy:
        @staticmethod
        def main(argv):
            os.write(2, b"from fd 2\n")
            print("from sys.stderr", file=sys.stderr)
            return 0

    status, stderr, wall = loop.run_once(Noisy, [], tmp_path / "out")
    assert status == 0 and wall >= 0
    assert stderr == b"from fd 2\nfrom sys.stderr\n"

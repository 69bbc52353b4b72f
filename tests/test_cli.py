import ast
import errno
import json
import os
import re
import stat
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import wsnadapt
from test_sim import counting
from wsnadapt import ada, errors, sim
from wsnadapt.cli import _CONFIG, _config_error, _write_atomic, main, parse_config
from wsnadapt.errors import InvalidParameter, SchemaError
from wsnadapt.fieldgen import FieldParams, NodeLayout
from wsnadapt.sim import (
    MaliciousSpec,
    RunReport,
    Scenario,
    Table,
    default_scenario,
    report_files,
    scenario_to_dict,
)
from wsnadapt.stdp import Thresholds

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def write_config(tmp_path, doc, name="config.json"):
    """Write ``doc`` as JSON (NaN and infinities as their non-standard
    constants), or as given when it is already text."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def read_dir(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def test_minimal_config_gets_defaults(tmp_path):
    path = write_config(tmp_path, {"experiment": "ada"})
    parsed = parse_config(path)
    assert parsed.scenario.layout.size == 10
    assert parsed.scenario.n_block == 5
    assert parsed.scenario.num_blocks == 200
    assert parsed.output_dir == "out"


def test_schema_error_carries_json_pointer(tmp_path):
    path = write_config(tmp_path, {"experiment": "ada", "field": {"theta": -1}})
    with pytest.raises(SchemaError) as err:
        parse_config(path)
    assert err.value.pointer == "/field/theta"


def test_unknown_key_is_rejected(tmp_path):
    path = write_config(tmp_path, {"experiment": "ada", "bogus": 1})
    with pytest.raises(SchemaError):
        parse_config(path)


# Sets every config key to a value other than its default: unsorted ids,
# integer coordinates, a per-node sigma_u with an integer entry, and an
# integer scale and channel.
EVERY_KEY = {
    "experiment": "stdp",
    "seed": 7,
    "layout": {
        "positions": [[1, 1], [3.0, 1.2], [2.5, 3.1], [0.8, 2.9], [1.9, 2.2]],
        "sink": [2, 2.0],
        "node_ids": [7, 3, 9, 1, 5],
    },
    "field": {
        "theta": 1.5,
        "sigma_u": [1.0, 2, 1.5, 0.9, 1.1],
        "sigma_d": 1.2,
        "noise_var": 0.02,
        "temporal_phi": 0.8,
    },
    "n_block": 4,
    "num_blocks": 20,
    "thresholds": {"alpha": 0.4, "beta": 0.1},
    "mu_mode": 0.05,
    "malicious": {"node_ids": [3], "scale": 4},
    "channel": 25,
    "select_first": True,
    "select_count": 4,
}


def test_effective_config_round_trips(tmp_path, capsys):
    for name, doc in [("minimal", {"experiment": "stdp", "num_blocks": 20}), ("every", EVERY_KEY)]:
        doc = {**doc, "output_dir": str(tmp_path / name)}
        path = write_config(tmp_path, doc, f"{name}.json")
        assert main(["run", "--config", str(path), "--jobs", "1"]) == 0
        assert capsys.readouterr().out == ""
        echo_path = tmp_path / name / "effective_config.json"
        reparsed = parse_config(echo_path)
        assert reparsed.scenario == parse_config(path).scenario, name
        assert reparsed.experiment == "stdp"
        # The echo holds each value as given; a scale is a float even when
        # given as an integer, so 4 echoes as 4.0.
        echo = json.loads(echo_path.read_text())
        assert {key: echo[key] for key in doc} == doc, name
        assert echo["malicious"] is None or type(echo["malicious"]["scale"]) is float


def test_validate_writes_nothing(tmp_path, capsys):
    out = tmp_path / "never"
    path = write_config(
        tmp_path, {"experiment": "ada", "output_dir": str(out)}
    )
    assert main(["validate", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out.exists()


def test_validate_bad_config_exit_1(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "ada", "field": {"theta": -1}})
    assert main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "/field/theta" in captured.err


def test_missing_config_exit_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_twice_is_byte_identical_all_kinds(tmp_path):
    docs = {
        "ada": {"experiment": "ada"},
        "stdp": {"experiment": "stdp", "num_blocks": 30},
        "detect": {
            "experiment": "detect",
            "num_blocks": 60,
            "malicious": {"node_ids": [5, 9], "scale": 6.0},
        },
        "sweep": {
            "experiment": "sweep",
            "num_blocks": 30,
            "sweep": {"axis": "beta", "values": [0.05, 0.2]},
        },
    }
    for kind, doc in docs.items():
        path = write_config(tmp_path, doc, name=f"{kind}.json")
        out1 = tmp_path / f"{kind}_one"
        out2 = tmp_path / f"{kind}_two"
        assert main(["run", "--config", str(path), "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["run", "--config", str(path), "--out", str(out2), "--jobs", "1"]) == 0
        assert read_dir(out1) == read_dir(out2), kind


def test_seed_flag_overrides_and_is_recorded(tmp_path):
    path = write_config(tmp_path, {"experiment": "stdp", "num_blocks": 20, "seed": 1})
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--seed", "77", "--jobs", "1"]) == 0
    echo = json.loads((out / "effective_config.json").read_text())
    assert echo["seed"] == 77


def test_run_detect_cli_flags_expected_nodes(tmp_path):
    out = tmp_path / "detect_out"
    assert main(
        ["run", "--config", str(CONFIG_DIR / "detect.json"), "--out", str(out), "--jobs", "1"]
    ) == 0
    rows = (out / "detection.csv").read_text().strip().splitlines()
    assert rows[0] == "node_id,variance,threshold,label"
    labels = {int(r.split(",")[0]): r.split(",")[3] for r in rows[1:]}
    assert labels[5] == "Malicious" and labels[9] == "Malicious"
    assert sum(v == "Malicious" for v in labels.values()) == 2


def test_run_ada_writes_expected_files(tmp_path):
    out = tmp_path / "ada_out"
    assert main(
        ["run", "--config", str(CONFIG_DIR / "ada.json"), "--out", str(out), "--jobs", "1"]
    ) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"effective_config.json", "ada_iterations.csv", "ada_nodes.csv"}
    assert not any(p.suffix == ".tmp" for p in out.iterdir())


@pytest.mark.parametrize(
    "doc, written",
    [
        ({"experiment": "ada"}, {"ada_iterations.csv", "ada_nodes.csv"}),
        (
            {"experiment": "stdp", "num_blocks": 40, "thresholds": {"alpha": 1e-6}},
            {"stdp_transmission.csv", "message_trace.csv"},
        ),
    ],
    ids=["ada_after_stdp", "stdp_without_weight_updates"],
)
def test_run_removes_the_known_outputs_it_did_not_write(tmp_path, capsys, doc, written):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("not an output")
    (out / "weights.csv.bak").write_text("not an output name")
    first = write_config(tmp_path, {"experiment": "stdp", "num_blocks": 30}, name="first.json")
    assert main(["run", "--config", str(first), "--out", str(out)]) == 0
    before = read_dir(out)
    assert "weights.csv" in before
    # A run that fails removes nothing.
    failing = write_config(tmp_path, {"experiment": "stdp", "mu_mode": 50}, name="failing.json")
    assert main(["run", "--config", str(failing), "--out", str(out)]) == 2
    assert read_dir(out) == before
    path = write_config(tmp_path, doc, name="second.json")
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert set(read_dir(out)) == written | {"effective_config.json", "notes.txt", "weights.csv.bak"}
    assert capsys.readouterr().out == ""


def test_write_that_fails_part_way_keeps_the_previous_run(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    first = write_config(tmp_path, {"experiment": "stdp", "num_blocks": 30, "seed": 1})
    assert main(["run", "--config", str(first), "--out", str(out)]) == 0
    before = read_dir(out)
    assert len(before) == 4
    mkstemp = tempfile.mkstemp
    calls = []

    def third_fails(*args, **kwargs):
        calls.append(kwargs)
        if len(calls) == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return mkstemp(*args, **kwargs)

    monkeypatch.setattr(tempfile, "mkstemp", third_fails)
    assert main(["run", "--config", str(first), "--seed", "2", "--out", str(out)]) == 2
    assert len(calls) == 3
    assert capsys.readouterr().err == "run error: [Errno 28] No space left on device\n"
    assert read_dir(out) == before
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]


def test_write_that_fails_removes_the_directories_it_made(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path, {"experiment": "stdp", "num_blocks": 30})
    out = tmp_path / "fresh" / "out"
    mkstemp = tempfile.mkstemp
    calls = []

    def third_fails(*args, **kwargs):
        calls.append(kwargs)
        if len(calls) == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return mkstemp(*args, **kwargs)

    monkeypatch.setattr(tempfile, "mkstemp", third_fails)
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert len(calls) == 3
    assert capsys.readouterr().err == "run error: [Errno 28] No space left on device\n"
    assert not (tmp_path / "fresh").exists()
    assert tmp_path.is_dir()


def test_encode_that_fails_part_way_keeps_the_previous_run(tmp_path, capsys, monkeypatch):
    # Rows are encoded while the files are written, so an encode error
    # arrives after some temp files exist.
    out = tmp_path / "out"
    first = write_config(tmp_path, {"experiment": "stdp", "num_blocks": 30, "seed": 1})
    assert main(["run", "--config", str(first), "--out", str(out)]) == 0
    before = read_dir(out)
    chunk_bytes = sim._chunk_bytes
    calls, staged = [], []

    def second_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            staged.append({p.name.split(".")[1] for p in target.glob(".*.tmp")})
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return chunk_bytes(*args)

    monkeypatch.setattr(sim, "_chunk_bytes", second_fails)
    fresh = tmp_path / "fresh" / "out"
    for target in (out, fresh):
        calls.clear()
        assert main(["run", "--config", str(first), "--seed", "2", "--out", str(target)]) == 2
        assert len(calls) == 2 and "effective_config" in staged[-1]
        assert capsys.readouterr().err == "run error: [Errno 28] No space left on device\n"
    assert read_dir(out) == before
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]
    assert not (tmp_path / "fresh").exists()


def test_written_files_take_their_mode_from_the_umask(tmp_path):
    config = write_config(tmp_path, {"experiment": "stdp", "num_blocks": 30})
    modes = {}
    old = os.umask(0o022)
    try:
        for umask in (0o022, 0o077):
            os.umask(umask)
            out = tmp_path / f"out_{umask:o}"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            modes[umask] = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    finally:
        os.umask(old)
    assert len(modes[0o022]) == 4 and modes[0o022].keys() == modes[0o077].keys()
    assert set(modes[0o022].values()) == {0o644}
    assert set(modes[0o077].values()) == {0o600}


def test_writing_a_report_holds_about_one_chunk(tmp_path):
    k = np.arange(32 * sim.CHUNK_ROWS)
    report = RunReport({"t.csv": Table(("k", "x"), (k, np.sin(k) * 1e3))}, {})
    tracemalloc.start()
    try:
        files = {name: chain([b"k,x\n"], body) for name, (_, body) in report_files(report).items()}
        _write_atomic(tmp_path, files)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = (tmp_path / "t.csv").stat().st_size
    assert peak < written / 2, (peak, written)


def test_sweep_command_requires_sweep_config(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "ada"})
    assert main(["sweep", "--config", str(path)]) == 1
    assert "sweep" in capsys.readouterr().err


def test_sweep_command_runs_sweep_config(tmp_path):
    node_count = {
        "experiment": "sweep",
        "num_blocks": 20,
        "sweep": {"axis": "node_count", "values": [3, 6]},
    }
    for doc in (json.loads((CONFIG_DIR / "sweep_block.json").read_text()), node_count):
        axis = doc["sweep"]["axis"]
        path = write_config(tmp_path, doc, name=f"{axis}.json")
        out = tmp_path / axis
        assert main(["sweep", "--config", str(path), "--out", str(out), "--jobs", "1"]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"effective_config.json", "sweep_transmission.csv", "sweep_totals.csv"}
        header = (out / "sweep_transmission.csv").read_text().splitlines()[0]
        assert header == f"{axis},node_id,pct"
        totals = (out / "sweep_totals.csv").read_text().splitlines()
        assert totals[0] == f"{axis},total_pct"
        assert [row.split(",")[0] for row in totals[1:]] == [str(v) for v in doc["sweep"]["values"]]


def test_sweep_section_only_for_sweep_experiment(tmp_path, capsys):
    doc = {"experiment": "ada", "sweep": {"axis": "beta", "values": [0.1]}}
    assert_config_error(tmp_path, capsys, doc, "/sweep: only valid when experiment is 'sweep'")


def test_ingest_csv_flows_into_stdp(tmp_path):
    lines = ["timestamp,node_id,value"]
    rng_vals = [0.1, -0.2, 0.3, 0.05, -0.1]
    for node in range(1, 11):
        for t in range(40):
            lines.append(f"{t},{node},{rng_vals[t % 5] * node % 1.7}")
    csv_path = tmp_path / "field.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    path = write_config(
        tmp_path,
        {"experiment": "stdp", "ingest_csv": str(csv_path), "num_blocks": 8},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--jobs", "1"]) == 0
    trace = (out / "message_trace.csv").read_text().splitlines()
    assert trace[0] == "round,node_id,phase,kind,error_glob,error_new,transmitted"
    assert len(trace) > 1


def write_readings(path: Path, node_ids, samples: int = 20) -> Path:
    lines = ["timestamp,node_id,value"]
    lines += [f"{t},{node},{0.1 * ((t * node) % 7)}" for t in range(samples) for node in node_ids]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "experiment, csv_ids, named",
    [
        ("stdp", [42, 43], "node ids [42, 43] all lie outside the layout"),
        ("detect", [11, 12, 13], "node ids [11, 12, 13] all lie outside the layout"),
        ("stdp", [0, 1, 2, 3], "node id 0 is the sink's id, not a sensor's"),
        ("detect", [0], "node id 0 is the sink's id, not a sensor's"),
    ],
)
def test_unusable_ingest_is_a_config_error_naming_the_ids(
    tmp_path, capsys, experiment, csv_ids, named
):
    csv_path = write_readings(tmp_path / "field.csv", csv_ids)
    path = write_config(
        tmp_path, {"experiment": experiment, "ingest_csv": str(csv_path), "num_blocks": 4}
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: /ingest_csv: {named}\n"
    assert not out.exists()


def test_sweep_config_with_ingest_is_a_config_error(tmp_path, capsys):
    csv_path = write_readings(tmp_path / "field.csv", range(1, 11))
    path = write_config(
        tmp_path,
        {
            "experiment": "sweep",
            "ingest_csv": str(csv_path),
            "num_blocks": 4,
            "sweep": {"axis": "beta", "values": [0.05, 0.1]},
        },
    )
    out = tmp_path / "out"
    for command in ("sweep", "validate"):
        args = [command, "--config", str(path)]
        if command == "sweep":
            args += ["--out", str(out), "--jobs", "1"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: /ingest_csv: not applicable to the sweep experiment\n"
        )
    assert not out.exists()


@pytest.mark.parametrize(
    "csv_ids, lines, code, message",
    [
        ([42, 43], None, 1, "config error: /ingest_csv: node ids [42, 43] all lie outside the layout"),
        ([0, 1], None, 1, "config error: /ingest_csv: node id 0 is the sink's id, not a sensor's"),
        (None, ["0,1,0.5", "1,x,0.2"], 2, "run error: line 3: invalid literal for int() with base 10: 'x'"),
        (None, ["0,-4,0.5"], 2, "run error: line 2: negative node id -4"),
        ([1, 2, 3], None, 0, None),
    ],
)
def test_validate_reads_the_ingest_file_like_run(tmp_path, capsys, csv_ids, lines, code, message):
    csv_path = tmp_path / "field.csv"
    if csv_ids is not None:
        write_readings(csv_path, csv_ids)
    else:
        csv_path.write_text("\n".join(["timestamp,node_id,value", *lines]) + "\n")
    path = write_config(
        tmp_path, {"experiment": "stdp", "ingest_csv": str(csv_path), "num_blocks": 4}
    )
    out = tmp_path / "out"
    assert main(["validate", "--config", str(path)]) == code
    validated = capsys.readouterr()
    assert main(["run", "--config", str(path), "--out", str(out), "--jobs", "1"]) == code
    ran = capsys.readouterr()
    assert validated.out == ran.out == ""
    assert validated.err == ran.err == ("" if message is None else message + "\n")
    assert out.exists() == (code == 0)


def test_validate_missing_ingest_file_fails_like_run(tmp_path, capsys):
    path = write_config(
        tmp_path, {"experiment": "detect", "ingest_csv": str(tmp_path / "absent.csv")}
    )
    assert main(["validate", "--config", str(path)]) == 2
    validated = capsys.readouterr().err
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert validated == capsys.readouterr().err
    assert validated.startswith("run error: ") and "absent.csv" in validated


def test_ingest_ids_partly_outside_the_layout_are_dropped(tmp_path):
    csv_path = write_readings(tmp_path / "field.csv", [1, 2, 3, 99])
    path = write_config(
        tmp_path, {"experiment": "stdp", "ingest_csv": str(csv_path), "num_blocks": 4}
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--jobs", "1"]) == 0
    rows = (out / "stdp_transmission.csv").read_text().splitlines()[1:]
    assert sorted(int(row.split(",")[1]) for row in rows) == [1, 2, 3]


def test_malicious_unknown_node_pointer(tmp_path):
    path = write_config(
        tmp_path,
        {"experiment": "detect", "malicious": {"node_ids": [42], "scale": 6.0}},
    )
    with pytest.raises(SchemaError) as err:
        parse_config(path)
    assert err.value.pointer == "/malicious/node_ids"


@pytest.mark.parametrize("mu", [10, 50])
def test_divergent_explicit_mu_fails_fast_with_one_line(tmp_path, mu):
    import subprocess
    import sys

    import wsnadapt

    path = write_config(
        tmp_path, {"experiment": "stdp", "mu_mode": mu, "select_first": True, "select_count": 6}
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from wsnadapt.cli import entrypoint; entrypoint()",
            "run",
            "--config",
            str(path),
            "--out",
            str(tmp_path / "out"),
            "--jobs",
            "1",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(wsnadapt.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("run error: diverged in round ")
    assert "for node " in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc, code, message",
    [
        (
            {"select_first": True, "select_count": 1},
            1,
            "config error: /select_count: detect needs at least 2 selected nodes to classify",
        ),
        (
            {
                "layout": {"positions": [[1.0, 1.0]], "sink": [2.0, 2.0], "node_ids": [1]},
                "malicious": {"node_ids": [1], "scale": 6.0},
            },
            1,
            "config error: /layout/node_ids: detect needs at least 2 nodes to classify",
        ),
        ({"num_blocks": 3}, 2, "run error: node 3 has 1 snapshots, need >= 2"),
        (
            {
                "layout": {
                    "positions": [[3.6, 2.7], [3.1, 3.6], [1.0, 2.5], [3.6, 3.5]],
                    "sink": [2.0, 2.0],
                    "node_ids": [3, 7, 9, 12],
                },
                "num_blocks": 30,
                "select_count": 3,
                "thresholds": {"alpha": 0.002},
                "malicious": {"node_ids": [7], "scale": 6.0},
            },
            2,
            "run error: detect needs at least 2 nodes with weight snapshots to classify, "
            "got [7]; nodes [3, 9, 12] never adapted a client filter",
        ),
    ],
    ids=["one_selected", "one_node_layout", "short_history", "one_node_adapts"],
)
def test_detect_that_cannot_classify_fails_and_writes_nothing(tmp_path, capsys, doc, code, message):
    malicious = {"node_ids": [5], "scale": 6.0}
    path = write_config(tmp_path, {"experiment": "detect", "malicious": malicious, **doc})
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--jobs", "1"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"
    assert not out.exists()


def test_run_too_large_to_allocate_is_a_run_error(tmp_path, capsys):
    # 2e15 samples per node: the field draw asks for 142 PiB, which no
    # allocator grants, so the run fails at its first large allocation.
    path = write_config(
        tmp_path, {"experiment": "stdp", "n_block": 100_000_000_000_000, "num_blocks": 20}
    )
    assert main(["validate", "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("run error: Unable to allocate 142. PiB")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not out.exists()


def test_stdp_ingest_sharing_no_active_node_is_a_config_error(tmp_path, capsys):
    # The shipped stdp config selects the nearest nodes; with one selected
    # (node 2) a file holding only node 7 leaves the run no node to step.
    csv_path = write_readings(tmp_path / "field.csv", [7])
    doc = json.loads((CONFIG_DIR / "stdp.json").read_text())
    doc.update(select_count=1, ingest_csv=str(csv_path), num_blocks=4)
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    for command in ("validate", "run"):
        args = [command, "--config", str(path)]
        if command == "run":
            args += ["--out", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: /ingest_csv: node ids [7] include none of the run's active nodes [2]\n"
        )
    assert not out.exists()


def test_detect_ingest_sharing_one_node_is_a_config_error(tmp_path, capsys):
    csv_path = write_readings(tmp_path / "field.csv", [3, 42, 43])
    path = write_config(
        tmp_path,
        {
            "experiment": "detect",
            "ingest_csv": str(csv_path),
            "num_blocks": 4,
        },
    )
    out = tmp_path / "out"
    for command in ("validate", "run"):
        args = [command, "--config", str(path)]
        if command == "run":
            args += ["--out", str(out), "--jobs", "1"]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "config error: /ingest_csv: detect needs at least 2 nodes to classify; "
            "the run would use only [3] of node ids [3, 42, 43]\n"
        )
    assert not out.exists()


def test_detect_that_senses_no_corrupted_node_is_a_config_error(tmp_path, capsys):
    # The four nodes nearest the sink are 2, 5, 4 and 10: nodes 1 and 3
    # would be corrupted and then never labelled.
    doc = {
        "experiment": "detect",
        "select_first": True,
        "select_count": 4,
        "malicious": {"node_ids": [1, 3], "scale": 6.0},
    }
    assert_config_error(
        tmp_path,
        capsys,
        doc,
        "/malicious/node_ids: corrupted nodes [1, 3] are not among the sensed nodes "
        "[2, 4, 5, 10]",
    )


@pytest.mark.parametrize("select_first", [True, False])
def test_a_detect_run_decides_its_nodes_once(tmp_path, monkeypatch, select_first):
    # validate and run each build one plan, which ranks the nodes at most
    # once; the run itself reads the plan's groups.
    doc = {
        "experiment": "detect",
        "select_first": select_first,
        "num_blocks": 60,
        "malicious": {"node_ids": [5, 9], "scale": 6.0},
    }
    path = write_config(tmp_path, doc)
    ranked, planned = [], []
    counting(monkeypatch, ada, "select_nodes", ranked)
    counting(monkeypatch, sim, "sensed_nodes", planned)
    for command, plans in (("validate", 1), ("run", 2)):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert (len(ranked), len(planned)) == (plans * select_first, plans), command


@pytest.mark.parametrize(
    "doc",
    [{"experiment": "ada"}, {"experiment": "stdp"}, {"experiment": "stdp", "select_first": True}],
    ids=["ada", "stdp", "stdp_selected"],
)
def test_a_degenerate_layout_names_its_node(tmp_path, capsys, doc):
    # Nodes 7 and 9 share a position, so node 9 adds nothing to node 7, in
    # layout order and in sink-distance order (7 ranks first on the tie).
    positions = {**sim.DEFAULT_POSITIONS, 7: (1.0, 1.0), 9: (1.0, 1.0)}
    layout = {
        "positions": [positions[i] for i in sorted(positions)],
        "sink": list(sim.DEFAULT_SINK),
        "node_ids": sorted(positions),
    }
    path = write_config(tmp_path, {**doc, "layout": layout, "num_blocks": 4})
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("run error: covariance is degenerate at node 9: pivot ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not out.exists()


def test_module_entry_point_is_silent_on_success():
    import subprocess
    import sys

    import wsnadapt

    proc = subprocess.run(
        [sys.executable, "-m", "wsnadapt.cli", "validate", "--config", str(CONFIG_DIR / "ada.json")],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(wsnadapt.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert proc.stderr == ""


@pytest.mark.parametrize("doc", [{}, {"malicious": None}], ids=["absent", "null"])
def test_detect_with_nothing_to_detect_is_a_config_error(tmp_path, capsys, doc):
    path = write_config(tmp_path, {"experiment": "detect", **doc})
    with pytest.raises(InvalidParameter) as err:
        sim.plan(parse_config(path).scenario, "detect")
    assert err.value.field == "malicious"
    out = tmp_path / "out"
    for command in ("validate", "run"):
        args = [command, "--config", str(path)]
        if command == "run":
            args += ["--out", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: /malicious: detect needs a malicious configuration or an "
            "ingest_csv to run on\n"
        )
    assert not out.exists()


def test_diverging_sweep_exits_2_with_one_line_and_writes_nothing(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "experiment": "sweep",
            "mu_mode": 2.0,
            "sweep": {"axis": "beta", "values": [0.4, 0.2, 0.05, 0.1]},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "run error: diverged in round 174: non-finite sink error for node 1 at beta=0.05\n"
    )
    assert not out.exists()


def test_jobs_is_accepted_and_has_no_effect(tmp_path):
    path = CONFIG_DIR / "sweep_beta.json"
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert main(["sweep", "--config", str(path), "--out", str(out), "--jobs", jobs]) == 0
        outputs.append(read_dir(out))
    assert outputs[0] == outputs[1]


def two_node_layout(node_ids):
    return {"positions": [[1.0, 1.0], [3.0, 3.0]], "sink": [2.0, 2.0], "node_ids": node_ids}


def test_the_largest_int64_id_runs_with_the_channel(tmp_path, capsys):
    doc = {
        "experiment": "stdp",
        "num_blocks": 10,
        "channel": 30.0,
        "layout": two_node_layout([1, 2**63 - 1]),
    }
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "stdp_transmission.csv").read_text().splitlines()
    assert rows[-1].startswith("0.05,9223372036854775807,")


@pytest.mark.parametrize(
    "doc, flags, message",
    [
        (
            {"experiment": "sweep", "sweep": {"axis": "beta", "values": [0.05, -1]}},
            [],
            "/sweep/values/1: beta must be >= 0, got -1.0",
        ),
        (
            {"experiment": "stdp", "thresholds": {"alpha": float("nan")}},
            [],
            "/: not valid JSON: NaN is not a finite number",
        ),
        (
            {"experiment": "stdp", "field": {"theta": float("nan")}},
            [],
            "/: not valid JSON: NaN is not a finite number",
        ),
        (
            {"experiment": "stdp", "field": {"theta": float("inf")}},
            [],
            "/: not valid JSON: Infinity is not a finite number",
        ),
        (
            '{"experiment": "stdp", "field": {"theta": 1e999}}',
            [],
            "/: not valid JSON: 1e999 is not a finite number",
        ),
        (
            {"experiment": "stdp", "mu_mode": float("inf")},
            [],
            "/: not valid JSON: Infinity is not a finite number",
        ),
        (
            {"experiment": "stdp", "channel": float("-inf")},
            [],
            "/: not valid JSON: -Infinity is not a finite number",
        ),
        (
            {"experiment": "stdp", "channel": float("nan")},
            [],
            "/: not valid JSON: NaN is not a finite number",
        ),
        (
            {"experiment": "sweep", "sweep": {"axis": "node_count", "values": [3, 11]}},
            [],
            "/sweep/values/1: node_count must lie in [1, 10], got 11",
        ),
        (
            {"experiment": "sweep", "sweep": {"axis": "n_block", "values": [4, 0]}},
            [],
            "/sweep/values/1: n_block must be >= 1, got 0",
        ),
        (
            {"experiment": "stdp", "field": {"sigma_u": [1.0, 2.0, 3.0]}},
            [],
            "/field/sigma_u: expected 10 entries, got 3",
        ),
        (
            {"experiment": "stdp", "layout": two_node_layout([1, 2, 3])},
            [],
            "/layout/node_ids: 3 ids for 2 positions",
        ),
        (
            {"experiment": "stdp", "layout": two_node_layout([4, 4])},
            [],
            "/layout/node_ids: ids [4] occur more than once",
        ),
        (
            {"experiment": "stdp", "layout": two_node_layout([0, 1])},
            [],
            "/layout/node_ids: ids must be >= 1 (0 is the sink's), got 0",
        ),
        (
            {"experiment": "stdp", "layout": two_node_layout([1, 2**63])},
            [],
            "/layout/node_ids: ids must be <= 2**63 - 1, got 9223372036854775808",
        ),
        ({"experiment": "stdp"}, ["--seed", "-1"], "/seed: must be >= 0, got -1"),
        ({"experiment": "stdp", "n_block": 5.0}, [], "/n_block: 5.0 is not of type 'integer'"),
        (
            {"experiment": "detect", "malicious": {"node_ids": [3, 3], "scale": 6}},
            [],
            "/malicious/node_ids: ids [3] occur more than once",
        ),
        ({"n_block": 4}, [], "/: 'experiment' is a required property"),
        (
            {"experiment": "stdp", "field": {"sigma_u": [1.0] * 9 + [-1.0]}},
            [],
            "/field/sigma_u/9: must be > 0, got -1.0",
        ),
        # The plan's checks that need no stream come before the file is read.
        (
            {
                "experiment": "detect",
                "select_first": True,
                "select_count": 1,
                "ingest_csv": "no-such-dir/field.csv",
            },
            [],
            "/select_count: detect needs at least 2 selected nodes to classify",
        ),
        (
            {"experiment": "sweep", "sweep": {"axis": "n_block", "values": [4, 2.5]}},
            [],
            "/sweep/values/1: n_block must be an integer, got 2.5",
        ),
        # Several problems: the first by sorted path is reported.
        (
            {"experiment": "stdp", "n_block": 5.0, "channel": "x", "field": {"theta": "y"}},
            [],
            "/channel: 'x' is not of type 'number' or 'null'",
        ),
    ],
    ids=[
        "negative_beta_sweep_value",
        "alpha_nan",
        "theta_nan",
        "theta_infinity",
        "theta_overflow",
        "mu_mode_infinity",
        "channel_minus_infinity",
        "channel_nan",
        "node_count_above_layout",
        "n_block_zero",
        "sigma_u_wrong_length",
        "positions_and_ids_differ",
        "duplicate_ids",
        "id_zero",
        "id_above_int64",
        "negative_seed_flag",
        "integral_float_n_block",
        "duplicate_malicious_ids",
        "missing_experiment",
        "sigma_u_entry",
        "stream_free_check_before_a_missing_ingest_file",
        "non_integer_n_block_sweep_value",
        "first_of_several_by_path",
    ],
)
def test_validate_rejects_what_run_rejects(tmp_path, capsys, doc, flags, message):
    assert_config_error(tmp_path, capsys, doc, message, flags)


def assert_config_error(tmp_path, capsys, doc, message, flags=()):
    """``validate`` and ``run`` both exit 1 with the one line ``message``,
    before any stream is built, and nothing is written."""
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    lines = []
    for command in ("validate", "run"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "generate_stream", lambda *a: pytest.fail("a stream was built"))
            assert main([command, "--config", str(path), "--out", str(out), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines.append(captured.err)
    assert lines == [f"config error: {message}\n"] * 2
    assert not out.exists()


TOP_LEVEL_KEYS = (
    "layout, field, n_block, num_blocks, thresholds, mu_mode, malicious, channel, seed, "
    "select_first, select_count, experiment, output_dir, ingest_csv, sweep"
)
SWEEP = {"experiment": "sweep", "sweep": {"axis": "beta", "values": [0.1]}}
DETECT = {"experiment": "detect", "malicious": {"node_ids": [3], "scale": 6}}


# Each rule that relates config keys to each other: the CLI's line is
# sim.plan's refusal at its pointer.
@pytest.mark.parametrize(
    "doc, kwargs, message",
    [
        (
            {"experiment": "ada", "ingest_csv": "field.csv"},
            {"experiment": "ada", "stream": "field.csv"},
            "/ingest_csv: not applicable to the ada experiment",
        ),
        (
            {**SWEEP, "ingest_csv": "field.csv"},
            {"experiment": "sweep", "stream": "field.csv", "axis": "beta", "values": [0.1]},
            "/ingest_csv: not applicable to the sweep experiment",
        ),
        (
            {"experiment": "stdp", "sweep": SWEEP["sweep"]},
            {"experiment": "stdp", "axis": "beta", "values": [0.1]},
            "/sweep: only valid when experiment is 'sweep'",
        ),
        (
            {"experiment": "sweep"},
            {"experiment": "sweep"},
            "/sweep: sweep experiment requires the sweep section",
        ),
        (
            {"experiment": "sweep", "sweep": {"axis": "n_block", "values": [2.5]}},
            {"experiment": "sweep", "axis": "n_block", "values": [2.5]},
            "/sweep/values/0: n_block must be an integer, got 2.5",
        ),
        (
            {"experiment": "sweep", "sweep": {"axis": "node_count", "values": [3, 2.5]}},
            {"experiment": "sweep", "axis": "node_count", "values": [3, 2.5]},
            "/sweep/values/1: node_count must be an integer, got 2.5",
        ),
        (
            {"experiment": "bogus"},
            {"experiment": "bogus"},
            "/experiment: 'bogus' is not one of ['ada', 'stdp', 'detect', 'sweep']",
        ),
    ],
    ids=[
        "ada_with_a_stream",
        "sweep_with_a_stream",
        "stdp_with_a_sweep",
        "sweep_without_an_axis",
        "non_integer_n_block",
        "non_integer_node_count",
        "unknown_experiment",
    ],
)
def test_plan_refuses_what_the_cli_refuses_with_its_line(tmp_path, capsys, doc, kwargs, message):
    with pytest.raises(InvalidParameter) as err:
        sim.plan(default_scenario(), **kwargs)
    assert isinstance(err.value, ValueError)
    assert str(_config_error(err.value, kwargs.get("axis"))) == message
    assert_config_error(tmp_path, capsys, doc, message)


def test_a_stdp_plan_refuses_sweep_values_without_an_axis():
    with pytest.raises(InvalidParameter, match="^sweep: only valid when experiment is 'sweep'$"):
        sim.plan(default_scenario(), "stdp", values=[0.1])


def test_a_sweep_plan_refuses_an_unknown_axis_before_any_point():
    message = "sweep: axis 'theta' is not one of ['beta', 'n_block', 'node_count']"
    with pytest.raises(InvalidParameter) as err:
        sim.plan(default_scenario(), "sweep", axis="theta", values=[1])
    assert str(err.value) == message
    assert err.value.point is None


@pytest.mark.parametrize(
    "sweep, echoed, column",
    [
        ({"axis": "n_block", "values": [4.0, 5]}, "[\n      4,\n      5\n    ]", ["4", "5"]),
        ({"axis": "beta", "values": [1]}, "[\n      1.0\n    ]", ["1"]),
    ],
    ids=["n_block", "beta"],
)
def test_sweep_values_echo_as_the_plan_reads_them(tmp_path, capsys, sweep, echoed, column):
    doc = {"experiment": "sweep", "num_blocks": 10, "sweep": sweep}
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    text = (out / "effective_config.json").read_text()
    assert f'"values": {echoed}' in text
    totals = (out / "sweep_totals.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in totals] == column


def test_a_sweep_command_on_another_experiment_names_the_experiment_first(tmp_path, capsys):
    doc = {"experiment": "ada", "ingest_csv": "field.csv", "sweep": SWEEP["sweep"]}
    assert main(["sweep", "--config", str(write_config(tmp_path, doc))]) == 1
    assert capsys.readouterr() == (
        "", "config error: /experiment: sweep command needs a sweep config, got 'ada'\n"
    )


# One case per constraint the config's shape check holds: types, unknown
# keys, required keys, array lengths, non-empty values and names.
@pytest.mark.parametrize(
    "doc, message",
    [
        ({"field": {"theta": True}}, "/field/theta: True is not of type 'number'"),
        ({"n_block": True}, "/n_block: True is not of type 'integer'"),
        ({"seed": 3.0}, "/seed: 3.0 is not of type 'integer'"),
        ({"layout": two_node_layout([1, 2.0])}, "/layout/node_ids/1: 2.0 is not of type 'integer'"),
        ({"select_first": 1}, "/select_first: 1 is not of type 'boolean'"),
        ({"output_dir": 3}, "/output_dir: 3 is not of type 'string'"),
        ({"n_block": None}, "/n_block: None is not of type 'integer'"),
        ({"field": [1]}, "/field: [1] is not of type 'object'"),
        ({"bogus": 1}, f"/: unknown key(s) 'bogus'; expected one of: {TOP_LEVEL_KEYS}"),
        (
            {"layout": {**two_node_layout([1, 2]), "bogus": 1}},
            "/layout: unknown key(s) 'bogus'; expected one of: positions, sink, node_ids",
        ),
        (
            {"field": {"bogus": 1, "zz": 2}},
            "/field: unknown key(s) 'bogus', 'zz'; expected one of: "
            "theta, sigma_u, sigma_d, noise_var, temporal_phi",
        ),
        (
            {"thresholds": {"bogus": 1}},
            "/thresholds: unknown key(s) 'bogus'; expected one of: alpha, beta",
        ),
        (
            {**DETECT, "malicious": {"node_ids": [3], "scale": 6, "bogus": 1}},
            "/malicious: unknown key(s) 'bogus'; expected one of: node_ids, scale",
        ),
        (
            {**SWEEP, "sweep": {"axis": "beta", "values": [0.1], "bogus": 1}},
            "/sweep: unknown key(s) 'bogus'; expected one of: axis, values",
        ),
        (
            {"layout": {"sink": [2, 2], "node_ids": [1]}},
            "/layout: 'positions' is a required property",
        ),
        (
            {"layout": {"positions": [[1, 1]], "node_ids": [1]}},
            "/layout: 'sink' is a required property",
        ),
        (
            {"layout": {"positions": [[1, 1]], "sink": [2, 2]}},
            "/layout: 'node_ids' is a required property",
        ),
        ({**DETECT, "malicious": {"scale": 6}}, "/malicious: 'node_ids' is a required property"),
        ({**DETECT, "malicious": {"node_ids": [3]}}, "/malicious: 'scale' is a required property"),
        ({**SWEEP, "sweep": {"values": [0.1]}}, "/sweep: 'axis' is a required property"),
        ({**SWEEP, "sweep": {"axis": "beta"}}, "/sweep: 'values' is a required property"),
        (
            {"layout": {**two_node_layout([1, 2]), "positions": [[1.0, 1.0], [3.0]]}},
            "/layout/positions/1: [3.0] is too short",
        ),
        (
            {"layout": {**two_node_layout([1, 2]), "positions": [[1.0, 1.0], [3.0, 3.0, 1.0]]}},
            "/layout/positions/1: [3.0, 3.0, 1.0] is too long",
        ),
        (
            {"layout": {**two_node_layout([1, 2]), "positions": [[1.0, "a"], [3.0, 3.0]]}},
            "/layout/positions/0/1: 'a' is not of type 'number'",
        ),
        ({"layout": {**two_node_layout([1, 2]), "sink": [2.0]}}, "/layout/sink: [2.0] is too short"),
        (
            {**DETECT, "malicious": {"node_ids": [], "scale": 6}},
            "/malicious/node_ids: [] should be non-empty",
        ),
        ({**SWEEP, "sweep": {"axis": "beta", "values": []}}, "/sweep/values: [] should be non-empty"),
        ({"output_dir": ""}, "/output_dir: '' should be non-empty"),
        ({"ingest_csv": ""}, "/ingest_csv: '' should be non-empty"),
        (
            {"experiment": "bogus"},
            "/experiment: 'bogus' is not one of ['ada', 'stdp', 'detect', 'sweep']",
        ),
        (
            {**SWEEP, "sweep": {"axis": "theta", "values": [1]}},
            "/sweep/axis: 'theta' is not one of ['beta', 'n_block', 'node_count']",
        ),
        ({**DETECT, "malicious": 5}, "/malicious: 5 is not of type 'object' or 'null'"),
        (
            {**DETECT, "malicious": {"node_ids": [3], "scale": "x"}},
            "/malicious/scale: 'x' is not of type 'number'",
        ),
        ({"mu_mode": True}, "/mu_mode: True is not of type 'number' or 'string'"),
        ({"channel": "x"}, "/channel: 'x' is not of type 'number' or 'null'"),
        ({"field": {"sigma_u": "x"}}, "/field/sigma_u: 'x' is not of type 'number' or 'array'"),
        (
            {"field": {"sigma_u": [1, "x"]}},
            "/field/sigma_u/1: 'x' is not of type 'number'",
        ),
    ],
    ids=[
        "bool_as_number",
        "bool_as_integer",
        "float_as_integer",
        "float_in_integer_array",
        "integer_as_bool",
        "number_as_string",
        "null_for_a_number",
        "array_as_object",
        "unknown_top_level_key",
        "unknown_layout_key",
        "unknown_field_keys",
        "unknown_thresholds_key",
        "unknown_malicious_key",
        "unknown_sweep_key",
        "missing_positions",
        "missing_sink",
        "missing_node_ids",
        "missing_malicious_node_ids",
        "missing_malicious_scale",
        "missing_sweep_axis",
        "missing_sweep_values",
        "position_of_one",
        "position_of_three",
        "string_coordinate",
        "sink_of_one",
        "empty_malicious_node_ids",
        "empty_sweep_values",
        "empty_output_dir",
        "empty_ingest_csv",
        "unknown_experiment",
        "unknown_sweep_axis",
        "number_as_malicious",
        "string_scale",
        "bool_mu_mode",
        "string_channel",
        "string_sigma_u",
        "string_in_sigma_u",
    ],
)
def test_config_shape_is_checked_against_the_value_types(tmp_path, capsys, doc, message):
    assert_config_error(tmp_path, capsys, {"experiment": "stdp", **doc}, message)


@pytest.mark.parametrize(
    "doc",
    [
        {"malicious": None},
        {"channel": None},
        {"field": {"sigma_u": [1, 2.5, *[1.0] * 8]}},
        {"seed": 10**400},
    ],
    ids=["null_malicious", "null_channel", "list_sigma_u", "seed_beyond_the_float_range"],
)
def test_config_shapes_that_are_accepted(tmp_path, capsys, doc):
    path = write_config(tmp_path, {"experiment": "stdp", "num_blocks": 10, **doc})
    out = tmp_path / "out"
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    echo = json.loads((out / "effective_config.json").read_text())
    for key, value in doc.items():  # a section echoes the keys it was given
        assert echo[key] == ({**echo[key], **value} if isinstance(value, dict) else value)


# A range error for each value type; mu_mode "AUTO" passes the type check
# (float | str) and gets Scenario's message.
@pytest.mark.parametrize(
    "doc, build",
    [
        ({"field": {"theta": -1}}, lambda: FieldParams(theta=-1)),
        ({"field": {"temporal_phi": 1}}, lambda: FieldParams(temporal_phi=1)),
        ({"thresholds": {"alpha": 0}}, lambda: Thresholds(alpha=0)),
        (
            {"layout": two_node_layout([2, 2])},
            lambda: NodeLayout(((1.0, 1.0), (3.0, 3.0)), (2.0, 2.0), (2, 2)),
        ),
        ({"mu_mode": "AUTO"}, lambda: default_scenario(mu_mode="AUTO")),
        ({"num_blocks": 1}, lambda: default_scenario(num_blocks=1)),
        (
            {"malicious": {"node_ids": [3], "scale": 1.0}},
            lambda: default_scenario(malicious=MaliciousSpec((3,), 1.0)),
        ),
    ],
    ids=["theta", "temporal_phi", "alpha", "layout_ids", "mu_mode", "num_blocks", "scale"],
)
def test_a_range_error_comes_from_its_value_type(tmp_path, capsys, doc, build):
    with pytest.raises(InvalidParameter) as err:
        build()
    assert_config_error(tmp_path, capsys, {"experiment": "stdp", **doc}, f"/{err.value}")


def field_names(value_type):
    return {f.name for f in fields(value_type)}


def test_config_keys_are_the_value_type_fields(tmp_path):
    """A config key is the name of a value-type field: every key of
    EVERY_KEY, which sets each field, is accepted and echoed, and an
    unknown key is refused in each section."""
    sections = {
        "layout": NodeLayout, "field": FieldParams, "thresholds": Thresholds, "malicious": MaliciousSpec
    }
    assert set(EVERY_KEY) - {"experiment"} == field_names(Scenario)
    for key, value_type in sections.items():
        assert set(EVERY_KEY[key]) == field_names(value_type), key
    parsed = parse_config(write_config(tmp_path, EVERY_KEY))
    echo = json.loads(json.dumps(parsed.effective(sim.plan(parsed.scenario, parsed.experiment))))
    assert {key: echo[key] for key in EVERY_KEY} == EVERY_KEY
    for key in [*sections, "sweep"]:
        doc = {**EVERY_KEY, **SWEEP} if key == "sweep" else dict(EVERY_KEY)
        doc[key] = {**doc[key], "bogus": 1}
        with pytest.raises(SchemaError) as err:
            parse_config(write_config(tmp_path, doc))
        assert err.value.pointer == f"/{key}"
        assert err.value.reason.startswith("unknown key(s) 'bogus'; expected one of: ")


def test_importing_the_cli_leaves_out_jsonschema():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", "import sys, wsnadapt.cli; print('jsonschema' in sys.modules)"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(wsnadapt.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_ada_descent_that_cannot_converge_exits_2_and_writes_nothing(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "ada", "field": {"theta": 1e6}})
    assert main(["validate", "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "run error: accuracy descent did not converge: relative residual 2.88e-07 after "
        "50000 iterations\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"experiment": "ada", "field": {"sigma_d": 1e200}},
            "/field/sigma_d: must square to a finite positive float, got 1e+200",
        ),
        (
            {"experiment": "stdp", "channel": -3090},
            "/channel: must keep 10**(-channel/10) finite, got -3090",
        ),
        (
            {"experiment": "ada", "field": {"sigma_u": 1e200}},
            "/field/sigma_u: must square to a finite positive float, got 1e+200",
        ),
        (
            {"experiment": "ada", "field": {"sigma_u": 1e-200}},
            "/field/sigma_u: must square to a finite positive float, got 1e-200",
        ),
        (
            {"experiment": "ada", "field": {"sigma_d": 1e-200}},
            "/field/sigma_d: must square to a finite positive float, got 1e-200",
        ),
    ],
    ids=["sigma_d_huge", "channel_below_range", "sigma_u_huge", "sigma_u_tiny", "sigma_d_tiny"],
)
def test_scales_out_of_float_range_are_config_errors(tmp_path, capsys, doc, message):
    assert_config_error(tmp_path, capsys, doc, message)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"experiment": "ada", "field": {"theta": 10**400}}, "/field/theta"),
        ({"experiment": "stdp", "channel": -(10**400)}, "/channel"),
        (
            {"experiment": "sweep", "sweep": {"axis": "beta", "values": [0.1, 10**400]}},
            "/sweep/values/1",
        ),
        (
            {"experiment": "stdp", "layout": {**two_node_layout([1, 2]), "sink": [2, 10**400]}},
            "/layout/sink/1",
        ),
    ],
    ids=["theta", "channel", "sweep_value", "sink"],
)
def test_integers_beyond_the_float_range_are_config_errors(tmp_path, capsys, doc, message):
    message += ": must fit a float, got an integer of 1329 bits"
    assert_config_error(tmp_path, capsys, doc, message)


def test_an_integer_literal_of_too_many_digits_is_a_config_error(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integer literals of any length")
    path = write_config(tmp_path, '{"experiment": "ada", "seed": 1' + "0" * limit + "}")
    for command in ("validate", "run"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: /: not valid JSON: ")
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("channel", [None, 30.0])
def test_a_corruption_that_overflows_the_sink_covariance_fails_in_round_0(
    tmp_path, capsys, channel
):
    doc = {
        "experiment": "detect",
        "channel": channel,
        "malicious": {"node_ids": [3, 7], "scale": 1e160},
    }
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "",
        "run error: diverged in round 0: non-finite block covariance at the sink\n",
    )
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["stdp", "detect"])
def test_malicious_beside_an_ingest_file_is_a_config_error(tmp_path, capsys, experiment):
    # The ingested samples cannot be corrupted; before, only the listed
    # nodes' simulated client noise was scaled, and that alone flagged them.
    csv_path = write_readings(tmp_path / "field.csv", range(1, 11), samples=40)
    doc = {
        "experiment": experiment,
        "ingest_csv": str(csv_path),
        "malicious": {"node_ids": [5, 9], "scale": 6},
    }
    message = "/malicious: corrupts generated streams only, not an ingest_csv"
    assert_config_error(tmp_path, capsys, doc, message)


def key_paths(doc, prefix=""):
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from key_paths(value, prefix + key + "/")


def test_every_range_error_names_a_config_key():
    """Each InvalidParameter raised in the package names, as a literal, a
    key path of the config file, so its JSON pointer names a real key."""
    # The default has no malicious section; give it one, so its keys count.
    spec = MaliciousSpec(node_ids=(5,), scale=6.0)
    paths = set(key_paths(scenario_to_dict(default_scenario(malicious=spec)))) | set(_CONFIG.keys)
    fields = []
    for source in Path(wsnadapt.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("InvalidParameter", "InvalidTheta")
            ):
                assert isinstance(node.args[0], ast.Constant), f"{source.name}:{node.lineno}"
                fields.append(node.args[0].value)
    assert len(fields) >= 15
    assert set(fields) <= paths, sorted(set(fields) - paths)


def test_only_fieldgen_reads_a_random_substream():
    """``substream`` is called twice in the package, both in ``fieldgen``:
    for the shared field innovations and by ``node_draws``, which reads
    every per-node substream, so the (seed, role, node) rule has one home."""
    calls = []
    for source in Path(wsnadapt.__file__).parent.glob("*.py"):
        tree = ast.parse(source.read_text())
        owner = {}  # node -> name of its innermost enclosing function
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(function), function.name))
        for node in ast.walk(tree):
            target = node.func if isinstance(node, ast.Call) else None
            if getattr(target, "id", getattr(target, "attr", None)) == "substream":
                calls.append((source.name, owner.get(node)))
    assert sorted(calls) == [("fieldgen.py", "generate_stream"), ("fieldgen.py", "node_draws")]


def test_every_error_class_is_raised_in_the_package():
    """Each class in ``wsnadapt.errors`` but the base is raised or built
    somewhere in the package, so no error type outlives its last use."""
    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type)
        and issubclass(value, errors.WsnAdaptError)
        and value is not errors.WsnAdaptError
    }
    used = set()
    for source in Path(wsnadapt.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            # ``X(...)``, ``errors.X(...)`` or a bare ``raise X``.
            target = node.func if isinstance(node, ast.Call) else getattr(node, "exc", None)
            if isinstance(target, ast.Name):
                used.add(target.id)
            elif isinstance(target, ast.Attribute):
                used.add(target.attr)
    assert len(classes) >= 12
    assert classes <= used, sorted(classes - used)


_SCOPES = (ast.FunctionDef, ast.Lambda, ast.ClassDef, ast.ListComp, ast.SetComp,
           ast.DictComp, ast.GeneratorExp)


def _bound_names(scope) -> set[str]:
    """The names that ``scope`` (a function, lambda, class or
    comprehension) binds itself, and so shadows within its own code."""
    if isinstance(scope, (ast.FunctionDef, ast.Lambda)):
        a = scope.args
        names = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg}
        body = scope.body if isinstance(scope, ast.FunctionDef) else [scope.body]
    elif isinstance(scope, ast.ClassDef):
        names, body = set(), scope.body
    else:
        names, body = set(), [generator.target for generator in scope.generators]
    pending = list(body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if not isinstance(node, _SCOPES):
            pending.extend(ast.iter_child_nodes(node))
    return names


class _References(ast.NodeVisitor):
    """The package functions that one module's code names, each resolved
    through the module's own definitions or its relative imports.  A name
    that an enclosing function, lambda or comprehension binds is a local
    and names nothing; an attribute counts only on a module's own name."""

    def __init__(self, module: str, tree: ast.Module):
        self.module = module
        self.functions = {}  # name in this module -> (module, function)
        self.modules = {}  # name in this module -> package module
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = (module, node.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if node.module is None:
                        self.modules[name] = alias.name
                    else:
                        self.functions[name] = (node.module, alias.name)
        self.scopes = []  # (scope node, the names it binds), innermost last
        self.owner = None  # the module-level function being visited
        self.found = set()
        self.visit(tree)

    def _local(self, name: str) -> bool:
        # A class body's names are not visible in the functions inside it.
        return any(
            name in bound
            for k, (scope, bound) in enumerate(self.scopes)
            if not isinstance(scope, ast.ClassDef) or k == len(self.scopes) - 1
        )

    def _enter(self, node) -> None:
        self.scopes.append((node, _bound_names(node)))
        self.generic_visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node) -> None:
        for outer in (*node.decorator_list, *node.args.defaults, *node.args.kw_defaults):
            if outer is not None:
                self.visit(outer)
        if not self.scopes:
            self.owner = node.name
        self.scopes.append((node, _bound_names(node)))
        for statement in node.body:
            self.visit(statement)
        self.scopes.pop()
        if not self.scopes:
            self.owner = None

    visit_Lambda = visit_ClassDef = visit_ListComp = visit_SetComp = _enter
    visit_DictComp = visit_GeneratorExp = _enter

    def _found(self, target) -> None:
        if target != (self.module, self.owner):
            self.found.add(target)

    def visit_Name(self, node) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in self.functions and not self._local(node.id):
            self._found(self.functions[node.id])

    def visit_Attribute(self, node) -> None:
        base = node.value
        if isinstance(base, ast.Name) and base.id in self.modules and not self._local(base.id):
            self._found((self.modules[base.id], node.attr))
        self.generic_visit(node)


def test_every_public_function_is_used_by_the_package():
    """Each public module-level function in the package is called or named
    by package code outside its own body (``execute``'s runner table
    counts), or is the console script: no function lives only for tests."""
    package = Path(wsnadapt.__file__).parent
    public, used = set(), set()
    for source in package.glob("*.py"):
        tree = ast.parse(source.read_text())
        public |= {
            (source.stem, node.name)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        }
        used |= _References(source.stem, tree).found
    pyproject = (package.parent.parent / "pyproject.toml").read_text()
    used |= set(re.findall(r'^\w+ = "wsnadapt\.(\w+):(\w+)"$', pyproject, re.M))
    assert len(public) >= 30
    assert public <= used, sorted(public - used)

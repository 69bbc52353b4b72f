import json
from pathlib import Path

import pytest

from wsnadapt.cli import main, parse_config
from wsnadapt.errors import SchemaError

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
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


def test_effective_config_round_trips(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {"experiment": "stdp", "num_blocks": 20, "output_dir": str(tmp_path / "out")},
    )
    assert main(["run", "--config", str(path), "--jobs", "1"]) == 0
    assert capsys.readouterr().out == ""
    echo = tmp_path / "out" / "effective_config.json"
    reparsed = parse_config(echo)
    assert reparsed.scenario == parse_config(path).scenario
    assert reparsed.experiment == "stdp"


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


def test_sweep_command_requires_sweep_config(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "ada"})
    assert main(["sweep", "--config", str(path)]) == 1
    assert "sweep" in capsys.readouterr().err


def test_sweep_command_runs_sweep_config(tmp_path):
    out = tmp_path / "sweep_out"
    assert main(
        ["sweep", "--config", str(CONFIG_DIR / "sweep_block.json"), "--out", str(out), "--jobs", "1"]
    ) == 0
    header = (out / "sweep_transmission.csv").read_text().splitlines()[0]
    assert header == "n_block,node_id,pct"


def test_sweep_section_only_for_sweep_experiment(tmp_path):
    path = write_config(
        tmp_path,
        {"experiment": "ada", "sweep": {"axis": "beta", "values": [0.1]}},
    )
    with pytest.raises(SchemaError) as err:
        parse_config(path)
    assert err.value.pointer == "/sweep"


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
    assert not (tmp_path / "out" / "message_trace.csv").exists()

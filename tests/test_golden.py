"""Golden outputs: the SHA-256 of every file the CLI writes.

Each shipped config in ``configs/`` is run through ``wsnadapt run`` (or
``wsnadapt sweep`` for sweep configs) with ``--jobs 1``, and every file in
its output directory must hash to the recorded digest.  One extra
100-node x 200-round detect scenario with a 30 dB channel and three
corrupted nodes pins the channel and corruption paths, which no shipped
config exercises.  A small 12-node x 60-round detect scenario with a
10 dB channel, a seed of 2**32 + 5 and one node id of 2**32 + 7 pins the
substreams whose entropy takes several 32-bit words, the channel's among
them.  Two
sweeps pin the batched sweep engine: a 20-node ``node_count`` sweep whose
points use different node sets, and a 16-node ``beta`` sweep with a 30 dB
channel, two corrupted nodes, an explicit step size and node ids listed
out of order.  Two runs pin the ``ingest_csv`` path: a stdp run and a
detect run with a 30 dB channel, both over a seeded AR(1) readings file
for the ten default nodes that the test writes.  Three runs at alpha =
0.05 pin the sink-adaptive path, which alpha = 0.5 almost never enters: a
stdp run, a detect run with a 30 dB channel and a beta sweep, each over
the ten default nodes and 200 rounds.  The stdp and detect runs' traces
together hold every phase and every message kind.

A digest here may change only in a change that says why in CHANGES.md and
reports the largest absolute difference against the previous output.
"""

import csv
import hashlib
import json
import random
from pathlib import Path

import pytest

from wsnadapt.cli import main
from wsnadapt.stdp import MessageKind, Phase

CONFIG_DIR = Path(__file__).parent.parent / "configs"

GOLDEN = {
    "ada": {
        "ada_iterations.csv": "f146716a08f3f46dc7a78c78bdbee3b9c87c7a7b772072e20a7e88f4cd1e305f",
        "ada_nodes.csv": "798d610053fd0dbd340241621fc407bd0a20607765eb4d4f30df3c8d09ea9189",
        "effective_config.json": "09515ec9f7306b096ea589fb5b727c95a6d65b03c5f9d25e7f616e1bc65a2ab8",
    },
    "detect": {
        "detection.csv": "68c4b57a5769e31c42b48db7659663396a1a4e221f22be93844f2565e34c14e2",
        "effective_config.json": "bb8e2895daa0c29f693921c83f42b37e9ba16fdb6f3d840db1682fc744f24ebf",
        "message_trace.csv": "a54c82ed28c5176de9c0676e93c582facabc3d3a7d94def7995ba240437ed26b",
        "stdp_transmission.csv": "e85ec3380d65706d3ecb5e35f71673ff4f51306f43bf4d95400edd6794bc2276",
        "weights.csv": "e1ffcf746ef9ef44e78051a27efa13c689daf7f3b8f2faddd5dc24995694c4a5",
    },
    "stdp": {
        "effective_config.json": "02cbb4dc7c973dd9a8bc4ac87f261117f0709b890771cc3a8ac774b697dc226a",
        "message_trace.csv": "6655d70962b67c87f9d0bb3753828c35fa533b32e3b0486a6f1ae86f1cf2fc9c",
        "stdp_transmission.csv": "2d72f7d231f57a43298957c11aa8d3ac06d3fe4d7bb4d3e4bfafd60d8ce68732",
        "weights.csv": "446386d1a1de68dd2e736c06531179701173608c476c6d40d0f5908eabdf93df",
    },
    "sweep_beta": {
        "effective_config.json": "87fef6d149560f9d053b3025057f544d2970073b3893f60959925c52694239af",
        "stdp_transmission.csv": "5b666c5e7221e7b6c8b54c76b3c590c57f51b8efedbbb710764439e1f34fb054",
        "sweep_totals.csv": "22f1b67c8788ae113305254e23936c74cae03bd7a64724ca9de0eef63766bbfa",
    },
    "sweep_block": {
        "effective_config.json": "c2c1a7670062842e23c3c61ed5510453c68407efb986145b9057f4a30f0bf9bf",
        "sweep_totals.csv": "26772d537da96887dc7b3d206be3b5122312c1a27bb74be6b3fc4f72c752943d",
        "sweep_transmission.csv": "1c572c0ce8da858b6d853d5677375f8d9edcb08044055241454dfdee17e53e4c",
    },
    "detect_100": {
        "detection.csv": "390cf49db2aae7c765f3709d933d94325b4cf403cba580dfa54a9bfca4998cac",
        "effective_config.json": "32c0c9c1eaf4d0fb99406011d4e37be3466b526cb43ce277398714a0832b5740",
        "message_trace.csv": "386c57d1b2efbd4b723cca40af9c89bff622b8fa7740f687c7c9adc18e441327",
        "stdp_transmission.csv": "08bd8f877c75a0d86c8517d823cf8e2bad81b547071ba21081a3b221c5acc84f",
        "weights.csv": "b0dc73e19a537c8ecce28a65528bf26a70451e570eafb8f54bf19e83f207aedb",
    },
    "detect_multiword": {
        "detection.csv": "ac6a455f5cde0fae254daf675263ef50e919f685c309c307049eebbcd59dda28",
        "effective_config.json": "61b71e73154be40556fe151787f954f21b3af1aa0f324753dded3ba7b026654f",
        "message_trace.csv": "b6f99b411e18b9f7692e37d5732d4863625f2db3b0445f8b0066848485e220b6",
        "stdp_transmission.csv": "616a774efdbd00466ae655d53c28c99bbabe0425594ea72964d7b0f86b9261c6",
        "weights.csv": "c1fa9016767749153f53d437733ed440ad689009dfec2bbada651bbd22e158ed",
    },
    "sweep_node_count": {
        "effective_config.json": "998c64c5c7c9ba8dfef027dafc7e5d09b0370349e3d315591a2fd3599b413b44",
        "sweep_totals.csv": "d856c2e8a2aecc2ae6790527865a40848a878149e208403794021250d8e8186f",
        "sweep_transmission.csv": "fe349fe476af1b28c8594d24af9d57d5ab9d1eca20a3d4a50f51d23e36b42b86",
    },
    "sweep_beta_channel": {
        "effective_config.json": "056169785e06ee8f08097083d7361146c9087a409a7afcf79816ec977d322287",
        "stdp_transmission.csv": "ff95c7a1dd8d626222e791940b1980210ecdd3cc94336abb3bba223dc6562c1f",
        "sweep_totals.csv": "2e036112b0d4e42fdebc796290dd3b29a20db8e6fa401aca00f56d23ce9cec90",
    },
    "stdp_ingest": {
        "effective_config.json": "42f0261db8509972c9a927b1690d3744f5f32ea42e7a9051ebfad301e05f1c65",
        "message_trace.csv": "b355343637a337ae8e721ba961eea84e4cccecac2edabc8530d38df979c7de48",
        "stdp_transmission.csv": "7b192c5780653132cb8c8173671e5910827591cc5396f9b73f6bb719e4c0a5de",
        "weights.csv": "9c0a443a9df16e527518af2254f76446b2e147e083d7a27c7d76a578758ef326",
    },
    "detect_ingest": {
        "detection.csv": "253c359261423c9e78a36a599f1531e2d704afb5464ce79a5229d85405e1b549",
        "effective_config.json": "f9149188dd8b8132f1ddf87248a7d0c9c6cb5ed3d76e3617b7393cef78ec13ba",
        "message_trace.csv": "afc33050a0dab7d60b60a76c415b53153c05caaef232341b85c60e8c6bba6277",
        "stdp_transmission.csv": "178ac371b2e51fd2e72bfc32e2b52f38c448cc542eb272a34040e7471f93243a",
        "weights.csv": "299a51d69a114d1de5688cd7cf3f18654163c0ff159a613e7d856ea932459f00",
    },
    "stdp_alpha": {
        "effective_config.json": "515a94d48c1ed12f1cbffcf27c71b0ac62e91412bdbbb08679847c4971966e59",
        "message_trace.csv": "00326ef39d6025a20c27ccc8738737c413fe6276ef00618c4582b8bf6dd5367d",
        "stdp_transmission.csv": "dfa525f5e93dea8d8543221b2e58034e7e09158c90b652ec34dae984571f8899",
        "weights.csv": "3bf41a4fa02ba59ea3e5be280f93c716a9d4f2ff494d7cff945a7ef4f8d6c4f0",
    },
    "detect_alpha": {
        "detection.csv": "bb15916af1a099b88ff166cdc7b270e7c82fbe87a2247f54ecfcb86d931494f7",
        "effective_config.json": "59f544e478c7aaec1d779d1affde39fc7690179ec1c274487fdb44e3b3b32b19",
        "message_trace.csv": "1929000262aa48cdc54a85b3aba9525ad46802cb749ffcca93184423937957be",
        "stdp_transmission.csv": "edac2e2bd472a99a1093a26606d2f7373133971fd49a72c072086dbbcbd08ec3",
        "weights.csv": "11ba5cb9c51b63593814416dcb25c0811348cdc33d9f903ccd8de939b07a72e6",
    },
    "sweep_beta_alpha": {
        "effective_config.json": "42bcf9607e8422b5d17277faa2c242b1af438ae71abcb0932a16d07ddf2659c7",
        "stdp_transmission.csv": "654338e6101c62aedc43916f90bf04a628e07290afebbda26b55f4956a3068b3",
        "sweep_totals.csv": "fec8cab618f97255274f9f0434d67154385d73f0aa66f4dfc97c464b9527e81d",
    },
}

# A raw node's sink error is its measurement noise (median |v| 0.067 at
# the default noise_var), so alpha = 0.5 hands every node off in its first
# round; at alpha = 0.05 most are not handed off, and the sink adapts.
SINK_ADAPTIVE_THRESHOLDS = {"alpha": 0.05, "beta": 0.05}
SINK_ADAPTIVE_CONFIGS = {
    "stdp_alpha": {"experiment": "stdp", "seed": 12},
    "detect_alpha": {
        "experiment": "detect",
        "seed": 12,
        "channel": 30.0,
        "malicious": {"node_ids": [5, 9], "scale": 6.0},
    },
    "sweep_beta_alpha": {
        "experiment": "sweep",
        "seed": 12,
        "sweep": {"axis": "beta", "values": [0.05, 0.1, 0.2, 0.4]},
    },
}


def detect_100_config() -> dict:
    """100 nodes on a jittered 10 x 10 grid (10 nodes per 16 m^2), sink at
    the centre, 200 rounds, a 30 dB channel and three corrupted nodes."""
    rng = random.Random(20240607)
    side = (100 * 1.6) ** 0.5
    cell = side / 10
    positions = [
        [
            round((c % 10 + 0.5 + rng.uniform(-0.25, 0.25)) * cell, 6),
            round((c // 10 + 0.5 + rng.uniform(-0.25, 0.25)) * cell, 6),
        ]
        for c in range(100)
    ]
    return {
        "experiment": "detect",
        "seed": 31,
        "layout": {
            "positions": positions,
            "sink": [side / 2, side / 2],
            "node_ids": list(range(1, 101)),
        },
        "num_blocks": 200,
        "channel": 30.0,
        "malicious": {"node_ids": [17, 52, 88], "scale": 6.0},
    }


def detect_multiword_config() -> dict:
    """12 nodes on a jittered 4 x 3 grid, 60 rounds, a 10 dB channel and two
    corrupted nodes.  The seed and the last node id are above 2**32, so
    their substream entropy takes two 32-bit words each."""
    rng = random.Random(4)
    positions = [
        [
            round(0.5 + c % 4 + rng.uniform(-0.3, 0.3), 6),
            round(0.5 + c // 4 + rng.uniform(-0.3, 0.3), 6),
        ]
        for c in range(12)
    ]
    big = 2**32 + 7
    return {
        "experiment": "detect",
        "seed": 2**32 + 5,
        "layout": {"positions": positions, "sink": [2.0, 1.5], "node_ids": [*range(1, 12), big]},
        "num_blocks": 60,
        "channel": 10.0,
        "malicious": {"node_ids": [3, big], "scale": 6.0},
    }


def sweep_node_count_config() -> dict:
    """20 nodes on a jittered 5 x 4 grid, 150 rounds, swept over node counts
    12, 3, 20 and 7 (in that order), so every point has its own node set."""
    rng = random.Random(1206)
    side = (20 * 1.6) ** 0.5
    cell = side / 5
    positions = [
        [
            round((c % 5 + 0.5 + rng.uniform(-0.25, 0.25)) * cell, 6),
            round((c // 5 + 0.5 + rng.uniform(-0.25, 0.25)) * cell, 6),
        ]
        for c in range(20)
    ]
    return {
        "experiment": "sweep",
        "seed": 23,
        "layout": {
            "positions": positions,
            "sink": [side / 2, side / 2],
            "node_ids": list(range(1, 21)),
        },
        "num_blocks": 150,
        "sweep": {"axis": "node_count", "values": [12, 3, 20, 7]},
    }


def sweep_beta_channel_config() -> dict:
    """16 nodes with shuffled ids below 400 on a jittered 4 x 4 grid, 150
    rounds, a 30 dB channel, two corrupted nodes and mu_mode 0.004, swept
    over betas 0.2, 0.05, 0.4 and 0.1."""
    rng = random.Random(1207)
    ids = rng.sample(range(2, 400), 16)
    positions = [
        [
            round(0.5 + c % 4 + rng.uniform(-0.3, 0.3), 6),
            round(0.5 + c // 4 + rng.uniform(-0.3, 0.3), 6),
        ]
        for c in range(16)
    ]
    return {
        "experiment": "sweep",
        "seed": 41,
        "layout": {"positions": positions, "sink": [2.0, 2.0], "node_ids": ids},
        "num_blocks": 150,
        "channel": 30.0,
        "mu_mode": 0.004,
        "malicious": {"node_ids": [ids[3], ids[11]], "scale": 6.0},
        "sweep": {"axis": "beta", "values": [0.2, 0.05, 0.4, 0.1]},
    }


def ingest_readings() -> str:
    """600 readings per default node: independent AR(1) series, x <- 0.9 x
    + N(0, 0.3**2) from 0, each value written as its shortest repr."""
    rng = random.Random(1810)
    lines = ["timestamp,node_id,value"]
    x = dict.fromkeys(range(1, 11), 0.0)
    for t in range(600):
        for node in x:
            x[node] = 0.9 * x[node] + rng.gauss(0.0, 0.3)
            lines.append(f"{t},{node},{x[node]!r}")
    return "\n".join(lines) + "\n"


def digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def run_config(path: Path, out: Path) -> dict[str, str]:
    experiment = json.loads(path.read_text())["experiment"]
    command = "sweep" if experiment == "sweep" else "run"
    assert main([command, "--config", str(path), "--out", str(out), "--jobs", "1"]) == 0
    return digests(out)


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_shipped_config_outputs_match_golden(name, tmp_path):
    assert run_config(CONFIG_DIR / f"{name}.json", tmp_path / "out") == GOLDEN[name]


def test_detect_100_nodes_channel_matches_golden(tmp_path):
    path = tmp_path / "detect_100.json"
    path.write_text(json.dumps(detect_100_config()))
    assert run_config(path, tmp_path / "out") == GOLDEN["detect_100"]


def test_detect_multiword_entropy_matches_golden(tmp_path):
    path = tmp_path / "detect_multiword.json"
    path.write_text(json.dumps(detect_multiword_config()))
    assert run_config(path, tmp_path / "out") == GOLDEN["detect_multiword"]


@pytest.mark.parametrize(
    "name, config",
    [
        ("sweep_node_count", sweep_node_count_config),
        ("sweep_beta_channel", sweep_beta_channel_config),
    ],
)
def test_sweep_matches_golden(name, config, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config()))
    assert run_config(path, tmp_path / "out") == GOLDEN[name]


@pytest.mark.parametrize(
    "name, config",
    [
        ("stdp_ingest", {"experiment": "stdp"}),
        ("detect_ingest", {"experiment": "detect", "channel": 30.0}),
    ],
)
def test_ingest_matches_golden(name, config, tmp_path, monkeypatch):
    # A relative ingest path keeps effective_config.json free of tmp_path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "readings.csv").write_text(ingest_readings())
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**config, "ingest_csv": "readings.csv"}))
    assert run_config(path, tmp_path / "out") == GOLDEN[name]


@pytest.fixture(scope="module")
def sink_adaptive_outputs(tmp_path_factory) -> dict[str, Path]:
    """The output directory of each alpha = 0.05 config, run once."""
    base = tmp_path_factory.mktemp("sink_adaptive")
    outputs = {}
    for name, config in SINK_ADAPTIVE_CONFIGS.items():
        path = base / f"{name}.json"
        path.write_text(json.dumps({**config, "thresholds": SINK_ADAPTIVE_THRESHOLDS}))
        run_config(path, base / name)
        outputs[name] = base / name
    return outputs


@pytest.mark.parametrize("name", sorted(SINK_ADAPTIVE_CONFIGS))
def test_sink_adaptive_run_matches_golden(name, sink_adaptive_outputs):
    assert digests(sink_adaptive_outputs[name]) == GOLDEN[name]


def test_sink_adaptive_goldens_hold_every_phase_and_message_kind(sink_adaptive_outputs):
    phases, kinds = set(), set()
    for out in sink_adaptive_outputs.values():
        trace = out / "message_trace.csv"
        if trace.exists():
            with open(trace, newline="") as handle:
                for row in csv.DictReader(handle):
                    phases.add(row["phase"])
                    kinds.update(filter(None, row["kind"].split(";")))
    assert phases == {phase.value for phase in Phase}
    assert kinds == {kind.value for kind in MessageKind}

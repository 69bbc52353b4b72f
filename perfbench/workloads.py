"""Seeded workload configs for the wsnadapt benchmark.

Every workload is a plain wsnadapt JSON config built from the benchmark's
``--seed``: the same seed gives byte-identical configs.  The program under
test sees only the generated config.

Nodes fill a square sized for the simulator's default density (10 nodes per
16 m^2) with the sink at the centre, so node count changes the amount of
work and not the field statistics.  Like the default scenario they sit on a
jittered grid: each node is uniform in the middle half of its own grid cell.
Uniform positions put some pairs centimetres apart, which makes R_uu nearly
singular; the 400-node descent then took from 1 170 to 7 572 iterations over
ten seeds, and run_s of ada_dense spread by 21% across five seeds.  On the
jittered grid it took 684 to 843 over ten layouts.

The protocol workloads run 500 rounds.  At 1000 rounds one stdp_wide run
took about 5.5 s on a shared 2-core machine, so only four fitted in a 25 s
window and run_s spread by 9% across five seeds.
"""

from __future__ import annotations

import copy
import math
import random

DENSITY_M2_PER_NODE = 16.0 / 10.0
JITTER = 0.25  # largest offset from the cell centre, as a share of the cell side

# name -> (experiment, nodes, rounds, extra config keys).  Why each one is
# in the benchmark is recorded beside its metrics in BENCHMARK.json.
WORKLOADS = {
    "ada_dense": ("ada", 400, None, {"field": {"theta": 2.0, "sigma_u": 1.0, "sigma_d": 1.0}}),
    "stdp_wide": ("stdp", 100, 500, {"channel": None}),
    "detect_noisy": ("detect", 50, 500, {"channel": 30.0}),
    "sweep_beta": ("sweep", 50, 500, {"sweep": {"axis": "beta", "values": [0.05, 0.1, 0.2, 0.4]}}),
}

MALICIOUS_COUNT = 3
MALICIOUS_SCALE = 6.0
SWEEP_JOBS = 2


def build_config(name: str, seed: int) -> dict:
    """The wsnadapt config for workload ``name`` under benchmark ``seed``."""
    experiment, nodes, rounds, extra = WORKLOADS[name]
    # random.Random hashes a str seed with SHA-512, independent of
    # PYTHONHASHSEED, so configs repeat across interpreters.
    rng = random.Random(f"wsnadapt-bench/{name}/{seed}")
    side = math.sqrt(nodes * DENSITY_M2_PER_NODE)
    per_row = math.ceil(math.sqrt(nodes))
    cell = side / per_row
    positions = [
        [
            round((c % per_row + 0.5 + rng.uniform(-JITTER, JITTER)) * cell, 6),
            round((c // per_row + 0.5 + rng.uniform(-JITTER, JITTER)) * cell, 6),
        ]
        for c in sorted(rng.sample(range(per_row * per_row), nodes))
    ]
    node_ids = list(range(1, nodes + 1))
    config = {
        "experiment": experiment,
        "seed": rng.randrange(2**31),
        "layout": {
            "positions": positions,
            "sink": [side / 2.0, side / 2.0],
            "node_ids": node_ids,
        },
    }
    if rounds is not None:
        config["num_blocks"] = rounds
    if experiment == "detect":
        config["malicious"] = {
            "node_ids": sorted(rng.sample(node_ids, MALICIOUS_COUNT)),
            "scale": MALICIOUS_SCALE,
        }
    config.update(copy.deepcopy(extra))
    return config


def cli_args(name: str, config_path: str, out_dir: str) -> list[str]:
    """argv for ``wsnadapt.cli.main`` that runs the workload once."""
    experiment = WORKLOADS[name][0]
    command = "sweep" if experiment == "sweep" else "run"
    args = [command, "--config", config_path, "--out", out_dir]
    if experiment == "sweep":
        args += ["--jobs", str(SWEEP_JOBS)]
    return args


def node_rounds(config: dict) -> int:
    """Active nodes x rounds, summed over sweep points (0 for ada)."""
    if config["experiment"] == "ada":
        return 0
    points = len(config["sweep"]["values"]) if "sweep" in config else 1
    return len(config["layout"]["node_ids"]) * config["num_blocks"] * points

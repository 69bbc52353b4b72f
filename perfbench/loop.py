"""The workload process: runs one workload's CLI runs back to back.

Started by ``run.py`` with ``OPENBLAS_NUM_THREADS=1`` and the checkout's
``src/`` first on ``PYTHONPATH``.  It is a closed loop with one client:
each ``wsnadapt.cli.main`` call starts when the previous one has returned.
The first run warms the process (imports, lazy set-up) and leaves its
output for the full check in ``run.py``; every later run is timed and its
files must hash to the same SHA-256 as the first run's.

Each untraced timed run is bracketed by two timings of a fixed reference
loop.  The shared host this benchmark was built on changes speed by up to
1.8x for tens of seconds at a time, so the median run time of one 25 s
window moved by up to a third between runs of the same code.  Divided by
the median reference time of the same window it moved by about half as
much.

With ``--trace 1`` the timed runs alternate between untraced and traced
(see ``spans.py``), so the tracing overhead is measured in one process.

Usage (normally only through run.py):

    python3 perfbench/loop.py --workload NAME --config CFG --seconds S \\
        --trace 0|1 --work DIR --result FILE --src SRC
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checker
import spans
import workloads

MIN_SAMPLES = 3  # of untraced runs, and of traced runs with --trace 1
REFERENCE_ITERATIONS = 12_000  # about 50 ms on a 2-core x86_64 VM


def import_program(src: Path):
    import wsnadapt

    where = Path(wsnadapt.__file__).resolve()
    if not where.is_relative_to(src.resolve()):
        sys.exit(f"wsnadapt imported from {where}, not from {src}")
    from wsnadapt import cli

    return wsnadapt, cli


def reference_loop() -> float:
    """Wall time (s) of a fixed loop of scalar Python work and tiny numpy
    operations -- the mix a CLI run spends its time on -- with the garbage
    collector off, so the program's heap cannot change its cost."""
    taps = np.arange(40, dtype=float).reshape(8, 5) / 40.0
    weight = np.ones(5)
    seen = {}
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(REFERENCE_ITERATIONS):
            u = taps[i % 8]
            err = 0.1 - float(u @ weight)
            weight = weight + 0.001 * u * err
            seen[i % 97] = err
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_once(cli, argv: list[str], out_dir: Path) -> tuple[object, bytes, float]:
    """One CLI run with fd 2 captured; returns (exit status, stderr, wall s)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    with tempfile.TemporaryFile(dir=out_dir.parent) as err:
        sys.stderr.flush()
        saved = os.dup(2)
        os.dup2(err.fileno(), 2)
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception as exc:  # a crash is a failed run, not a benchmark error
            status = f"uncaught {type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - start
            sys.stderr.flush()
            os.dup2(saved, 2)
            os.close(saved)
        err.seek(0)
        return status, err.read(), wall


def environment(wsnadapt) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "wsnadapt": str(Path(wsnadapt.__file__).resolve().parent),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()

    wsnadapt, cli = import_program(Path(args.src))
    work = Path(args.work)
    config = json.loads(Path(args.config).read_text())
    warm_dir, rep_dir = work / "warm", work / "rep"

    failures: list[str] = []
    attempted = 0

    def judged(out_dir: Path, reference) -> tuple[float, dict]:
        nonlocal attempted
        status, stderr, wall = run_once(
            cli, workloads.cli_args(args.workload, args.config, str(out_dir)), out_dir
        )
        digests = checker.digest_dir(out_dir) if out_dir.is_dir() else {}
        attempted += 1
        problems = checker.judge_run(status, stderr, digests, reference)
        failures.extend(f"run {attempted}: {p}" for p in problems)
        return wall, digests

    _, reference = judged(warm_dir, None)

    tracer = None
    if args.trace:
        spill = work / "spans"
        spill.mkdir(exist_ok=True)
        tracer = spans.Tracer(wsnadapt, spill)
    malicious_ids = config.get("malicious", {}).get("node_ids", ())

    samples: list[float] = []
    references: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    # A run starts only if a typical run still ends inside --seconds, so the
    # measured window never overshoots by a whole run.
    start = time.perf_counter()
    while (
        time.perf_counter() - start + statistics.median(samples + traced or [0.0])
        <= args.seconds
        or len(samples) < MIN_SAMPLES
        or (tracer is not None and len(traced) < MIN_SAMPLES)
    ):
        if tracer is not None and len(traced) < len(samples):
            tracer.install()
            try:
                wall, _ = judged(rep_dir, reference)
            finally:
                tracer.uninstall()
            traced.append(wall)
            metrics = spans.layer_metrics(tracer.take(), os.getpid(), wall, malicious_ids)
            metrics["cli.bytes_written"] = sum(
                p.stat().st_size for p in rep_dir.glob("*") if p.is_file()
            )
            layers.append(metrics)
        else:
            before = reference_loop()
            wall, _ = judged(rep_dir, reference)
            references.append((before + reference_loop()) / 2.0)
            samples.append(wall)

    result = {
        "samples": samples,
        "references": references,
        "traced": traced,
        "layers": layers,
        "missing_targets": tracer.missing if tracer is not None else [],
        "attempted": attempted,
        "failures": failures,
        "digests": reference,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(wsnadapt),
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""wsnadapt benchmark: seeded workloads through the real CLI, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout; the program is imported from that
checkout's ``src/`` (it need not be installed).  For one workload it

1. writes the workload's config, generated from ``--seed`` (workloads.py);
2. times ``setup_s``: fresh interpreters running ``wsnadapt validate`` on
   that config, median of SETUP_REPEATS, half before step 3 and half after
   (with ``--trace 1`` it times the bare ``import wsnadapt.cli`` instead,
   for ``cli.import_s``);
3. starts the workload process (loop.py), a closed loop with one client
   that calls ``wsnadapt.cli.main`` back to back for ``--seconds``, while
   this process samples the resident set of it and its pool workers;
4. checks the warm-up run's files in full (checker.py) -- every timed run
   must reproduce them byte for byte -- and prints the details and, as the
   last line, ``{"correct", "attempted", "failed", "metrics"}``.

Every child runs with ``OPENBLAS_NUM_THREADS=1``: on a small machine a
threaded BLAS makes each small factorization pay thread start-up, which
the benchmark would otherwise measure instead of the algorithm.

End-to-end metrics (``--trace 0``): ``run_rel``, the median wall time of
one CLI run divided by the median time of loop.py's reference loop, timed
around each of those runs; ``setup_s``; ``peak_rss_mb``.  The table also prints
``run_s`` (the median wall time of one CLI run in the warmed process), the
tail percentile of the run times, node-rounds per second on the protocol
workloads, and the failure ratio.  These are not in the result line: on a
shared host the wall-time median of one run moved by up to a third between
runs of the same code.  With ``--trace 1`` the metrics are the per-layer
figures of spans.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 6
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 170.0
RSS_POLL_S = 0.02
PID_SCAN_EVERY = 10  # polls between scans for new pool workers

COUNT_UNITS = {"stdp.suppressed_ratio": "ratio", "cli.bytes_written": "B"}


def reason(name: str) -> str:
    """Why the workload is in the benchmark, as BENCHMARK.json records it."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in doc["workloads"] if w["name"] == name)


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def tail(samples: list[float]) -> dict:
    """The highest nearest-rank percentile with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return {"value": None, "percentile": None, "n": n,
                "note": "needs at least 11 samples"}
    rank = n - 10  # 1-based rank of the value with ten samples above it
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n, "n": n}


def fresh_cli(args: list[str], env: dict) -> tuple[float, int, bytes]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "cli_entry.py"), *args],
        env=env, capture_output=True, cwd=ROOT, timeout=60,
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout + proc.stderr


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if int(fields[1]) == pid:
                kids.append(int(entry))
    return kids


def run_workload_process(cmd: list[str], env: dict, log: Path) -> int:
    """Run the workload process to completion; return the peak resident set
    (KiB) sampled over it and its direct children (the sweep pool)."""
    peak = 0
    with open(log, "wb") as out:
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            kids: list[int] = []
            polls = 0
            have_proc = os.path.isdir(f"/proc/{proc.pid}")
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise TimeoutError(f"workload process ran over {CHILD_TIMEOUT_S} s")
                if have_proc:
                    if polls % PID_SCAN_EVERY == 0:
                        kids = _children(proc.pid)
                    peak = max(peak, _rss_kb(proc.pid) + sum(_rss_kb(k) for k in kids))
                polls += 1
                time.sleep(RSS_POLL_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(
            f"workload process exited {proc.returncode}:\n{log.read_text()[-2000:]}"
        )
    return peak


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    work = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_workload(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    config = workloads.build_config(name, seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n")
    env = child_env()
    failures: list[str] = []
    attempted = 0

    setup_times, import_times = [], []

    def time_setup(repeats: int) -> None:
        nonlocal attempted
        for _ in range(repeats):
            wall, status, output = fresh_cli(["validate", "--config", str(config_path)], env)
            attempted += 1
            for problem in checker.judge_run(status, output, {}, None):
                failures.append(f"validate {attempted}: {problem}")
            setup_times.append(wall)

    # The first fresh interpreter also writes the bytecode caches, which an
    # installed package would already have; it is checked but not timed.
    time_setup(1)
    setup_times.clear()
    # Half the set-up runs go before the loop and half after, so that their
    # median does not hang on one moment of the host's speed.
    time_setup(0 if trace else SETUP_REPEATS // 2)
    for _ in range(IMPORT_REPEATS if trace else 0):
        _, status, output = fresh_cli(["--import-time"], env)
        if status != 0:
            raise RuntimeError(f"import of wsnadapt.cli failed: {output.decode()[-2000:]}")
        import_times.append(float(output))

    result_path = work / "result.json"
    peak_kb = run_workload_process(
        [sys.executable, str(BENCH / "loop.py"), "--workload", name,
         "--config", str(config_path), "--seconds", str(seconds), "--trace", str(trace),
         "--work", str(work), "--result", str(result_path), "--src", str(SRC)],
        env, work / "loop.log",
    )
    time_setup(0 if trace else SETUP_REPEATS - SETUP_REPEATS // 2)
    loop = json.loads(result_path.read_text())
    attempted += loop["attempted"]
    failures += loop["failures"]
    failures += [f"run 1: {p}" for p in checker.check_outputs(work / "warm", config)]

    run_s = statistics.median(loop["samples"])
    run_rel = run_s / statistics.median(loop["references"])
    details = {
        "workload": name,
        "why": reason(name),
        "seed": seed,
        "config_seed": config["seed"],
        "env": loop["env"],
        "load": "closed loop, 1 client, CLI runs back to back in one warmed process",
        "samples": len(loop["samples"]),
        "run_s": run_s,
        "run_s_all": loop["samples"],
        "reference_s_all": loop["references"],
        "run_s_tail": tail(loop["samples"]),
        "digests": loop["digests"],
    }
    node_rounds = workloads.node_rounds(config)
    if node_rounds:
        details["node_rounds"] = node_rounds
        details["node_rounds_per_s"] = node_rounds / run_s

    if trace:
        layers, drift = spans.merge_repeats(loop["layers"])
        failures += [f"traced runs: {d}" for d in drift]
        layers["cli.import_s"] = statistics.median(import_times)
        layers["trace.overhead_s"] = statistics.median(loop["traced"]) - run_s
        details["traced_samples"] = len(loop["traced"])
        details["missing_trace_targets"] = loop["missing_targets"]
        metrics = {
            key: {"value": value, "unit": COUNT_UNITS.get(
                key, "s" if key.endswith("_s") else "count")}
            for key, value in sorted(layers.items())
        }
    else:
        details["setup_s_all"] = setup_times
        metrics = {
            "run_rel": {"value": run_rel, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": max(peak_kb, loop["maxrss_kb"]) / 1024.0, "unit": "MB"},
        }

    failed = len({f.split(":", 1)[0] for f in failures})
    details["fail_ratio"] = failed / attempted
    details["failures"] = failures
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
    }


def table(name: str, result: dict) -> list[str]:
    """One line per metric: the gated metrics, then the figures that the
    result line leaves out (the run-time tail, throughput, failure ratio)."""
    lines = [
        f"{name:13s} {metric:28s} {m['value']:.6g} {m['unit']}"
        for metric, m in result["metrics"].items()
    ]
    details = result["details"]
    lines.append(f"{name:13s} {'run_s':28s} {details['run_s']:.6g} s (wall, median)")
    t = details["run_s_tail"]
    lines.append(
        f"{name:13s} {'run_s_tail':28s} {t['value']:.6g} s (p{t['percentile']:.3g} of {t['n']} samples)"
        if t["value"] is not None
        else f"{name:13s} {'run_s_tail':28s} undefined ({t['n']} samples, {t['note']})"
    )
    if "node_rounds_per_s" in details:
        lines.append(f"{name:13s} {'node_rounds_per_s':28s} {details['node_rounds_per_s']:.6g} 1/s")
    lines.append(
        f"{name:13s} {'fail_ratio':28s} {details['fail_ratio']:.6g} "
        f"({result['failed']} of {result['attempted']} runs)"
    )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "wsnadapt" / "__init__.py").is_file():
        print(f"no wsnadapt sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark error on {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(results[name]["details"], indent=1, sort_keys=True))
        for line in table(name, results[name]):
            print(line)

    if len(results) == 1:
        line = {k: results[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()
            },
        }
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1) + "\n"
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

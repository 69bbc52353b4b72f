"""Per-layer spans for a traced CLI run, recorded from outside the program.

``Tracer.install`` wraps the layer-boundary functions of wsnadapt in the
benchmark's own code.  A function is patched in its home module and in
every wsnadapt module that imported it by name (``sim.generate_stream``,
``stdp.max_eigenvalue``, ``cli.run_stdp`` ...), because those call sites
never look the function up in its home module again.  Nothing under
``src/`` changes.

A span is ``[name, parent, start, end, counts]`` with ``parent`` the index
of the enclosing span in the same process (-1 at top level).  Spans stay in
memory.  Sweep pool workers are forked with the patches in place; each one
starts a fresh span list and appends it to ``spans-<pid>.jsonl`` in the
tracer's directory whenever its outermost span (one sweep point) ends.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from checker import KINDS, PHASES

# (module, function, counter) -- counter maps (args, kwargs, result) to the
# counts stored on the span.  Span names are "<module>.<function>".
TARGETS = (
    ("numerics", "cholesky_factor", None),
    ("numerics", "max_eigenvalue", None),
    ("fieldgen", "build_spatial_covariance", None),
    (
        "fieldgen",
        "generate_stream",
        lambda a, k, r: {"samples": len(r.blocks) * r.n * r.num_blocks},
    ),
    ("fieldgen", "inject_malicious", None),
    ("fieldgen", "awgn_channel", None),
    ("ada", "steepest_descent", lambda a, k, r: {"iters": r.iterations}),
    ("ada", "select_nodes", None),
    ("stdp", "step_round", lambda a, k, r: _round_counts(r)),
    (
        "malicious",
        "histories_from_snapshots",
        lambda a, k, r: {"snapshots": sum(len(h.snapshots) for h in r.values())},
    ),
    ("malicious", "weight_variance", None),
    (
        "malicious",
        "classify",
        lambda a, k, r: {
            "flagged_ids": sorted(i for i, lab in r.labels.items() if lab.value == "Malicious")
        },
    ),
    ("sim", "run_ada", None),
    ("sim", "run_stdp", None),
    ("sim", "run_detect", None),
    ("sim", "sweep", None),
    ("sim", "simulate_protocol", None),
    ("sim", "report_files", lambda a, k, r: {"rows": sum(len(rows) for _, rows in r.values())}),
    ("cli", "parse_config", None),
    ("cli", "_write_atomic", None),
)

# The report-building part of a run: the run_* bodies minus their callees.
RUN_SPANS = ("sim.run_ada", "sim.run_stdp", "sim.run_detect")
MALICIOUS_SPANS = ("malicious.histories_from_snapshots", "malicious.weight_variance", "malicious.classify")
TOP_LEVEL = ("cli.parse_config", "sim.run_ada", "sim.run_stdp", "sim.run_detect",
             "sim.sweep", "sim.report_files", "cli._write_atomic")


def _round_counts(result) -> dict:
    counts = Counter()
    for row in result.rows:
        counts["phase." + row.phase.value] += 1
        for kind in row.kinds:
            counts["msgs." + kind.value] += 1
        counts["suppressed"] += not row.transmitted
    counts["node_rounds"] = len(result.rows)
    return dict(counts)


class Tracer:
    """Installs span-recording wrappers and collects the spans they record."""

    def __init__(self, package, spill_dir: Path):
        self.package = package
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.owner_pid = self.pid
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:  # first call in a forked worker
                tracer.pid = os.getpid()
                tracer.spans, tracer.stack = [], []
            spans, stack = tracer.spans, tracer.stack
            index = len(spans)
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            if not stack and tracer.pid != tracer.owner_pid:
                tracer._spill()
            return result

        return traced

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans.clear()

    def install(self) -> None:
        self.missing = []
        modules = [
            m for n, m in sys.modules.items()
            if n == self.package.__name__ or n.startswith(self.package.__name__ + ".")
        ]
        for module_name, func_name, counter in TARGETS:
            home = sys.modules.get(f"{self.package.__name__}.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self.patched):
            setattr(module, attr, value)
        self.patched.clear()

    def take(self) -> dict[int, list[list]]:
        """All spans since the last take, by process id (workers included)."""
        by_pid = {self.owner_pid: self.spans}
        self.spans, self.stack = [], []
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            pid = int(path.stem.split("-")[1])
            spans = by_pid.setdefault(pid, [])
            for line in path.read_text().splitlines():
                spans.extend(_offset(json.loads(line), len(spans)))
            path.unlink()
        return by_pid


def _offset(batch: list[list], base: int) -> list[list]:
    return [[n, p + base if p >= 0 else -1, s, e, c] for n, p, s, e, c in batch]


def layer_metrics(by_pid: dict[int, list[list]], owner_pid: int, wall_s: float,
                  malicious_ids=()) -> dict[str, float]:
    """Per-layer times and counts of one traced CLI run.

    Times are summed over every process.  A self time is a span's duration
    minus the durations of its direct child spans.
    """
    total = Counter()
    self_time = Counter()
    calls = Counter()
    counts = Counter()
    flagged: list[int] = []
    point_time = Counter()
    top_level = 0.0
    for pid, records in by_pid.items():
        child = [0.0] * len(records)
        for name, parent, start, end, _ in records:
            if parent >= 0:
                child[parent] += end - start
        for k, (name, parent, start, end, extra) in enumerate(records):
            duration = end - start
            total[name] += duration
            self_time[name] += duration - child[k]
            calls[name] += 1
            if pid == owner_pid and parent < 0 and name in TOP_LEVEL:
                top_level += duration
            # A sweep point is a run_stdp at the top of a pool worker, or
            # directly under sim.sweep when the sweep runs in-process.
            if name == "sim.run_stdp" and (
                records[parent][0] == "sim.sweep" if parent >= 0 else pid != owner_pid
            ):
                point_time[pid] += duration
            if extra:
                for key, value in extra.items():
                    if key == "flagged_ids":
                        flagged.extend(value)
                    else:
                        counts[key] += value
    sensed = counts["node_rounds"]
    metrics = {
        "numerics.cholesky_s": total["numerics.cholesky_factor"],
        "numerics.cholesky_calls": calls["numerics.cholesky_factor"],
        "numerics.max_eig_s": total["numerics.max_eigenvalue"],
        "numerics.max_eig_calls": calls["numerics.max_eigenvalue"],
        "fieldgen.covariance_s": total["fieldgen.build_spatial_covariance"],
        "fieldgen.stream_s": total["fieldgen.generate_stream"],
        "fieldgen.samples": counts["samples"],
        "fieldgen.inject_s": total["fieldgen.inject_malicious"],
        "fieldgen.channel_s": total["fieldgen.awgn_channel"],
        "fieldgen.channel_calls": calls["fieldgen.awgn_channel"],
        "ada.descent_s": total["ada.steepest_descent"],
        "ada.descent_iters": counts["iters"],
        "ada.select_s": total["ada.select_nodes"],
        "stdp.round_self_s": self_time["stdp.step_round"],
        "stdp.node_rounds": sensed,
        **{f"stdp.msgs.{k}": counts["msgs." + k] for k in KINDS},
        **{f"stdp.phase.{p}": counts["phase." + p] for p in PHASES},
        "stdp.suppressed_ratio": counts["suppressed"] / sensed if sensed else 0.0,
        "malicious.detect_s": sum(total[n] for n in MALICIOUS_SPANS),
        "malicious.snapshots": counts["snapshots"],
        "malicious.flagged": len(flagged),
        "malicious.true_flags": len(set(flagged) & set(malicious_ids)),
        "sim.protocol_self_s": self_time["sim.simulate_protocol"],
        "sim.report_s": sum(self_time[n] for n in RUN_SPANS),
        "sim.format_s": total["sim.report_files"],
        "sim.rows": counts["rows"],
        "sim.sweep_point_s": sum(point_time.values()),
        "sim.pool_overhead_s": (
            total["sim.sweep"] - max(point_time.values()) if point_time else 0.0
        ),
        "cli.parse_s": total["cli.parse_config"],
        "cli.write_s": total["cli._write_atomic"],
        "trace.uncovered_s": wall_s - top_level,
    }
    return metrics


COUNT_METRICS = (
    "numerics.cholesky_calls", "numerics.max_eig_calls", "fieldgen.samples",
    "fieldgen.channel_calls", "ada.descent_iters", "stdp.node_rounds",
    *(f"stdp.msgs.{k}" for k in KINDS), *(f"stdp.phase.{p}" for p in PHASES),
    "stdp.suppressed_ratio", "malicious.snapshots", "malicious.flagged",
    "malicious.true_flags", "sim.rows", "cli.bytes_written",
)


def merge_repeats(repeats: list[dict]) -> tuple[dict, list[str]]:
    """Median of each time over traced repeats; counts must repeat exactly."""
    merged, drift = {}, []
    for key in repeats[0]:
        values = [r[key] for r in repeats]
        if key in COUNT_METRICS:
            merged[key] = values[0]
            if any(v != values[0] for v in values):
                drift.append(f"{key} differs between traced repeats: {values}")
        else:
            merged[key] = statistics.median(values)
    return merged, drift

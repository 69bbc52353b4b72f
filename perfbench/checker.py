"""Output checks for one benchmark workload.

The checker reads the files a CLI run wrote and the config it was given,
and returns a list of human-readable failures (empty means the run is
correct).  It does not import wsnadapt: the reference values it compares
against (the full-set accuracy) are computed here with numpy alone.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

PHASES = ("RAW_TRANSMIT", "SINK_ADAPTIVE", "CLIENT_ADAPTIVE", "CLIENT_PREDICTING")
KINDS = ("QUERY", "DATA_BLOCK", "GLOBAL_WEIGHT", "NODE_WEIGHT")
LABELS = ("Normal", "Malicious")
DEFAULT_BETA = 0.05
DEFAULT_N_BLOCK = 5
# Every float is printed with 9 significant digits, so two values that
# agree to rounding can differ by one unit in the 9th digit.
PRINT_RTOL = 1e-8

TRACE_HEADER = ("round", "node_id", "phase", "kind", "error_glob", "error_new", "transmitted")
HEADERS = {
    "ada_iterations.csv": ("iter", "accuracy"),
    "ada_nodes.csv": ("k", "accuracy", "node_ids"),
    "stdp_transmission.csv": ("beta", "node_id", "pct"),
    "message_trace.csv": TRACE_HEADER,
    "weights.csv": ("round", "node_id", "tap_index", "value"),
    "detection.csv": ("node_id", "variance", "threshold", "label"),
    "sweep_totals.csv": ("beta", "total_pct"),
}
FILES = {
    "ada": ("ada_iterations.csv", "ada_nodes.csv"),
    "stdp": ("stdp_transmission.csv", "message_trace.csv", "weights.csv"),
    "detect": ("stdp_transmission.csv", "message_trace.csv", "weights.csv", "detection.csv"),
    "sweep": ("stdp_transmission.csv", "sweep_totals.csv"),
}


class CheckFailed(Exception):
    """One failed output check; the message names the file and row."""


def digest_dir(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every regular file in ``out_dir``, by file name."""
    digests = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.is_file():
            h = hashlib.sha256()
            with open(path, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    h.update(chunk)
            digests[path.name] = h.hexdigest()
    return digests


def judge_run(exit_code, stderr: bytes, digests: dict, reference: dict | None) -> list[str]:
    """Failures of one CLI run judged from outside: its exit status, its
    stderr (which must be empty) and its file digests against the first
    run of the same config in this benchmark run."""
    failures = []
    if exit_code != 0:
        failures.append(f"exit status {exit_code}")
    if stderr:
        failures.append(f"stderr not empty: {stderr[:200]!r}")
    if reference is not None and digests != reference:
        changed = sorted(
            n for n in set(digests) | set(reference) if digests.get(n) != reference.get(n)
        )
        failures.append(f"output differs from the first repeat in {changed}")
    return failures


def _rows(path: Path, header: tuple[str, ...]) -> list[list[str]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        got = tuple(next(reader, ()))
        if got != header:
            raise CheckFailed(f"{path.name}: header {got} != {header}")
        rows = list(reader)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise CheckFailed(f"{path.name}:{lineno}: {len(row)} cells, expected {len(header)}")
    return rows


def _float(cell: str, where: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CheckFailed(f"{where}: {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{where}: non-finite value {cell!r}")
    return value


def _pct(cell: str, where: str) -> float:
    value = _float(cell, where)
    if not 0.0 <= value <= 100.0:
        raise CheckFailed(f"{where}: pct {value} outside [0, 100]")
    return value


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= PRINT_RTOL * max(abs(a), abs(b), 1.0)


def full_set_accuracy(config: dict) -> float:
    """rdu . Ruu^-1 rdu / sigma_d^2 for the whole layout, by numpy.linalg.solve."""
    layout, field = config["layout"], config["field"]
    theta, sigma_u, sigma_d = field["theta"], field["sigma_u"], field["sigma_d"]
    pos = np.asarray(layout["positions"], dtype=float)
    sink = np.asarray(layout["sink"], dtype=float)
    pair = np.hypot(pos[:, None, 0] - pos[None, :, 0], pos[:, None, 1] - pos[None, :, 1])
    ruu = sigma_u * sigma_u * np.exp(-pair / theta)
    rdu = sigma_d * sigma_u * np.exp(-np.hypot(*(pos - sink).T) / theta)
    return float(rdu @ np.linalg.solve(ruu, rdu)) / sigma_d**2


def _check_ada(out: Path, config: dict) -> None:
    nodes = len(config["layout"]["node_ids"])
    iters = _rows(out / "ada_iterations.csv", HEADERS["ada_iterations.csv"])
    if not iters:
        raise CheckFailed("ada_iterations.csv: no rows")
    for k, (it, acc) in enumerate(iters):
        where = f"ada_iterations.csv:{k + 2}"
        if it != str(k):
            raise CheckFailed(f"{where}: iter {it!r}, expected {k}")
        if not 0.0 <= _float(acc, where) <= 1.0:
            raise CheckFailed(f"{where}: accuracy {acc} outside [0, 1]")

    curve = _rows(out / "ada_nodes.csv", HEADERS["ada_nodes.csv"])
    if len(curve) != nodes:
        raise CheckFailed(f"ada_nodes.csv: {len(curve)} rows, expected {nodes}")
    previous = 0.0
    for k, (size, acc, ids) in enumerate(curve, start=1):
        where = f"ada_nodes.csv:{k + 1}"
        value = _float(acc, where)
        if size != str(k) or len(ids.split(";")) != k:
            raise CheckFailed(f"{where}: prefix size {size!r} with {ids!r}")
        if not 0.0 <= value <= 1.0:
            raise CheckFailed(f"{where}: accuracy {value} outside [0, 1]")
        if value < previous and not _close(value, previous):
            raise CheckFailed(f"{where}: node curve falls from {previous} to {value}")
        previous = value
    expected = full_set_accuracy(config)
    if abs(previous - expected) > 1e-9:
        raise CheckFailed(
            f"ada_nodes.csv: full-set accuracy {previous!r} != {expected!r} (numpy.linalg.solve)"
        )


def _check_transmission(out: Path, beta_values: list, node_ids: list) -> dict:
    rows = _rows(out / "stdp_transmission.csv", HEADERS["stdp_transmission.csv"])
    expected = [(b, i) for b in beta_values for i in node_ids]
    if len(rows) != len(expected):
        raise CheckFailed(f"stdp_transmission.csv: {len(rows)} rows, expected {len(expected)}")
    pct = {}
    for k, ((beta, node, value), (b, i)) in enumerate(zip(rows, expected)):
        where = f"stdp_transmission.csv:{k + 2}"
        if not _close(_float(beta, where), b) or node != str(i):
            raise CheckFailed(f"{where}: row ({beta}, {node}), expected ({b}, {i})")
        pct[(b, i)] = _pct(value, where)
    return pct


def _check_protocol(out: Path, config: dict) -> None:
    node_ids = config["layout"]["node_ids"]
    rounds = config["num_blocks"]
    pct = _check_transmission(out, [DEFAULT_BETA], node_ids)

    trace = _rows(out / "message_trace.csv", TRACE_HEADER)
    if len(trace) != len(node_ids) * rounds:
        raise CheckFailed(
            f"message_trace.csv: {len(trace)} rows, expected {len(node_ids)} x {rounds}"
        )
    sent = dict.fromkeys(node_ids, 0)
    ordered = iter((r, i) for r in range(rounds) for i in sorted(node_ids))
    for k, (rnd, node, phase, kind, e_glob, e_new, transmitted) in enumerate(trace):
        where = f"message_trace.csv:{k + 2}"
        r, i = next(ordered)
        if (rnd, node) != (str(r), str(i)):
            raise CheckFailed(f"{where}: row for ({rnd}, {node}), expected ({r}, {i})")
        if phase not in PHASES:
            raise CheckFailed(f"{where}: unknown phase {phase!r}")
        kinds = kind.split(";") if kind else []
        if not set(kinds) <= set(KINDS):
            raise CheckFailed(f"{where}: unknown message kind in {kind!r}")
        for cell in (e_glob, e_new):
            if cell:
                _float(cell, where)
        if transmitted not in ("0", "1") or (transmitted == "1") != ("DATA_BLOCK" in kinds):
            raise CheckFailed(f"{where}: transmitted={transmitted!r} with kind {kind!r}")
        sent[i] += transmitted == "1"
    for i in node_ids:
        if not _close(pct[(DEFAULT_BETA, i)], 100.0 * sent[i] / rounds):
            raise CheckFailed(
                f"stdp_transmission.csv: node {i} pct {pct[(DEFAULT_BETA, i)]} "
                f"disagrees with {sent[i]}/{rounds} sent blocks in the trace"
            )

    known = set(node_ids)
    for k, (rnd, node, tap, value) in enumerate(
        _rows(out / "weights.csv", HEADERS["weights.csv"])
    ):
        where = f"weights.csv:{k + 2}"
        _float(value, where)
        if int(node) not in known or not 0 <= int(tap) < DEFAULT_N_BLOCK or not 0 <= int(rnd) < rounds:
            raise CheckFailed(f"{where}: row ({rnd}, {node}, {tap}) out of range")


def _check_detection(out: Path, config: dict) -> None:
    node_ids = config["layout"]["node_ids"]
    rows = _rows(out / "detection.csv", HEADERS["detection.csv"])
    if [r[0] for r in rows] != [str(i) for i in sorted(node_ids)]:
        raise CheckFailed(f"detection.csv: {len(rows)} rows, expected one per node")
    thresholds = {r[2] for r in rows}
    if len(thresholds) != 1:
        raise CheckFailed(f"detection.csv: {len(thresholds)} different thresholds")
    for k, (node, variance, threshold, label) in enumerate(rows):
        where = f"detection.csv:{k + 2}"
        flagged = _float(variance, where) > _float(threshold, where)
        if label not in LABELS or (label == "Malicious") != flagged:
            raise CheckFailed(f"{where}: label {label!r} for variance {variance} vs {threshold}")


def _check_sweep(out: Path, config: dict) -> None:
    values = config["sweep"]["values"]
    pct = _check_transmission(out, values, config["layout"]["node_ids"])
    totals = _rows(out / "sweep_totals.csv", HEADERS["sweep_totals.csv"])
    if len(totals) != len(values):
        raise CheckFailed(f"sweep_totals.csv: {len(totals)} rows, expected {len(values)}")
    for k, ((beta, total), b) in enumerate(zip(totals, values)):
        where = f"sweep_totals.csv:{k + 2}"
        if not _close(_float(beta, where), b):
            raise CheckFailed(f"{where}: beta {beta}, expected {b}")
        mean = sum(p for (pb, _), p in pct.items() if pb == b) / len(config["layout"]["node_ids"])
        if not _close(_pct(total, where), mean):
            raise CheckFailed(f"{where}: total {total} is not the node mean {mean}")


def check_outputs(out_dir, config: dict) -> list[str]:
    """Every failed check of one run's output directory against its config."""
    out = Path(out_dir)
    experiment = config["experiment"]
    expected = {"effective_config.json", *FILES[experiment]}
    present = {p.name for p in out.iterdir() if p.is_file()} if out.is_dir() else set()
    if present != expected:
        return [f"file set {sorted(present)} != {sorted(expected)}"]
    try:
        echo = json.loads((out / "effective_config.json").read_text())
        for key in ("experiment", "layout", "seed"):
            if echo.get(key) != config[key]:
                raise CheckFailed(f"effective_config.json: {key} differs from the config")
        if experiment == "ada":
            _check_ada(out, config)
        elif experiment == "sweep":
            _check_sweep(out, config)
        else:
            _check_protocol(out, config)
            if experiment == "detect":
                _check_detection(out, config)
    except (CheckFailed, ValueError) as exc:
        return [str(exc)]
    return []

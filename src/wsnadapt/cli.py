"""Command-line front end: validate a JSON scenario config, run the chosen
experiment, and write CSV reports plus an effective-config echo.

Exit codes: 0 success, 1 config validation failure, 2 runtime failure.
Diagnostics go to stderr only; output files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Iterable

import jsonschema

from .errors import InvalidParameter, SchemaError, WsnAdaptError
from .fieldgen import Stream, ingest_csv
from .sim import (
    OUTPUT_FILES,
    SWEEP_AXES,
    MaliciousSpec,
    Scenario,
    active_node_ids,
    default_scenario,
    report_files,
    run_ada,
    run_detect,
    run_stdp,
    scenario_for_point,
    scenario_to_dict,
    sweep,
)

EXPERIMENTS = ("ada", "stdp", "detect", "sweep")

_NUMBER = {"type": "number"}
_POSITION = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}

# Shape, types, enums and required keys only: each field's range is
# checked by the value type it builds (NodeLayout, FieldParams, Thresholds,
# Scenario), which names the field on failure.
CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment"],
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "output_dir": {"type": "string", "minLength": 1},
        "ingest_csv": {"type": "string", "minLength": 1},
        "seed": {"type": "integer"},
        "layout": {
            "type": "object",
            "additionalProperties": False,
            "required": ["positions", "sink", "node_ids"],
            "properties": {
                "positions": {"type": "array", "items": _POSITION},
                "sink": _POSITION,
                "node_ids": {"type": "array", "items": {"type": "integer"}},
            },
        },
        "field": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "theta": _NUMBER,
                "sigma_u": {"anyOf": [_NUMBER, {"type": "array", "items": _NUMBER}]},
                "sigma_d": _NUMBER,
                "noise_var": _NUMBER,
                "temporal_phi": _NUMBER,
            },
        },
        "n_block": {"type": "integer"},
        "num_blocks": {"type": "integer"},
        "thresholds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"alpha": _NUMBER, "beta": _NUMBER},
        },
        "mu_mode": {"anyOf": [{"const": "auto"}, _NUMBER]},
        "malicious": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["node_ids", "scale"],
                    "properties": {
                        "node_ids": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
                        "scale": _NUMBER,
                    },
                },
            ]
        },
        "channel": {"anyOf": [{"type": "null"}, _NUMBER]},
        "select_first": {"type": "boolean"},
        "select_count": {"type": "integer"},
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["axis", "values"],
            "properties": {
                "axis": {"enum": list(SWEEP_AXES)},
                "values": {"type": "array", "items": _NUMBER, "minItems": 1},
            },
        },
    },
}


@dataclass(frozen=True)
class ParsedConfig:
    experiment: str
    scenario: Scenario
    output_dir: str
    ingest_path: str | None
    sweep_axis: tuple[str, list] | None

    def effective(self) -> dict:
        doc = {"experiment": self.experiment, "output_dir": self.output_dir}
        if self.ingest_path is not None:
            doc["ingest_csv"] = self.ingest_path
        if self.sweep_axis is not None:
            doc["sweep"] = {"axis": self.sweep_axis[0], "values": self.sweep_axis[1]}
        doc.update(scenario_to_dict(self.scenario))
        return doc


# JSON Schema counts 5.0 as an integer; a block length or a seed must be an int.
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: type(value) is int
    ),
)


def _schema_validate(doc: dict) -> None:
    validator = _Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        raise SchemaError("/" + "/".join(map(str, err.absolute_path)), err.message)


def _semantic_validate(doc: dict, scenario: Scenario) -> None:
    """Checks that relate several fields of a built scenario's config."""
    experiment = doc["experiment"]
    if experiment == "sweep" and "sweep" not in doc:
        raise SchemaError("/sweep", "sweep experiment requires the sweep section")
    if experiment != "sweep" and "sweep" in doc:
        raise SchemaError("/sweep", "only valid when experiment is 'sweep'")
    if experiment in ("ada", "sweep") and "ingest_csv" in doc:
        raise SchemaError("/ingest_csv", f"not applicable to the {experiment} experiment")
    if experiment == "detect" and scenario.malicious is None and "ingest_csv" not in doc:
        raise SchemaError(
            "/malicious", "detect needs a malicious configuration or an ingest_csv to run on"
        )
    # The detector labels nodes against the median of at least two.
    if experiment == "detect" and scenario.layout.size < 2:
        raise SchemaError("/layout/node_ids", "detect needs at least 2 nodes to classify")
    if experiment == "detect" and scenario.select_first and scenario.select_count < 2:
        raise SchemaError("/select_count", "detect needs at least 2 selected nodes to classify")

    sweep_doc = doc.get("sweep")
    if sweep_doc is not None and sweep_doc["axis"] in ("n_block", "node_count"):
        bad = [v for v in sweep_doc["values"] if v != int(v)]
        if bad:
            raise SchemaError("/sweep/values", f"axis needs integers, got {bad}")


def _tuples(value):
    """A JSON value with its arrays, at every depth, as tuples."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _build_scenario(doc: dict) -> Scenario:
    """The default scenario with each field the config sets replaced; a
    config key is the name of the field it sets.

    A section such as ``field`` replaces the fields it names in its value
    type's default.  Value types are built in field order, so the first
    bad section raises first and the Scenario's own checks run last.
    """
    base = default_scenario()
    values = {}
    for f in fields(Scenario):
        value = doc.get(f.name)
        if value is None:
            continue
        default = getattr(base, f.name)
        if f.name == "malicious":
            # float(): an integer scale echoes as 4.0, keeping its config_sha1.
            value = MaliciousSpec(node_ids=tuple(value["node_ids"]), scale=float(value["scale"]))
        elif is_dataclass(default):
            value = replace(default, **{key: _tuples(v) for key, v in value.items()})
        values[f.name] = _tuples(value)
    if "select_count" not in values:
        values["select_count"] = min(base.select_count, values.get("layout", base.layout).size)
    return replace(base, **values)


def _finite_number(text: str) -> float:
    """A JSON number; NaN, Infinity and overflowing literals are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError("/", f"not valid JSON: {text} is not a finite number")
    return value


def parse_config(path, seed: int | None = None) -> ParsedConfig:
    """Load, check and default-fill a config file; ``seed`` overrides its seed.

    Raises SchemaError (with a JSON-pointer path) on any validation
    problem, a sweep value out of its axis's range included, and OSError on
    unreadable input.  No simulation work happens here.
    """
    with open(path) as handle:
        try:
            doc = json.load(handle, parse_float=_finite_number, parse_constant=_finite_number)
        except json.JSONDecodeError as exc:
            raise SchemaError("/", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("/", "config must be a JSON object")
    if seed is not None:
        doc["seed"] = seed
    _schema_validate(doc)
    try:
        scenario = _build_scenario(doc)
    except InvalidParameter as exc:
        raise SchemaError("/" + exc.field, exc.reason) from None
    _semantic_validate(doc, scenario)
    sweep_doc = doc.get("sweep")
    sweep_axis = None
    if sweep_doc is not None:
        axis = sweep_doc["axis"]
        values = [
            int(v) if axis in ("n_block", "node_count") else float(v)
            for v in sweep_doc["values"]
        ]
        for k, value in enumerate(values):
            try:
                scenario_for_point(scenario, axis, value)
            except InvalidParameter as exc:
                raise SchemaError(f"/sweep/values/{k}", f"{axis} {exc.reason}") from None
        sweep_axis = (axis, values)
    return ParsedConfig(
        experiment=doc["experiment"],
        scenario=scenario,
        output_dir=doc.get("output_dir", "out"),
        ingest_path=doc.get("ingest_csv"),
        sweep_axis=sweep_axis,
    )


def _write_atomic(path: Path, parts: Iterable[bytes]) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_ingest(parsed: ParsedConfig) -> Stream | None:
    """The configured ``ingest_csv`` stream, or None without one.

    A file naming id 0 (the sink), sharing no node with the layout or with
    the run's active nodes, or, for detect, sharing fewer than 2 nodes with
    them raises SchemaError at ``/ingest_csv`` naming the ids, before the
    run writes anything.  Other ids outside the layout are dropped.  Only
    the protocol experiments (stdp, detect) take an ingest file.
    """
    if parsed.ingest_path is None:
        return None
    scenario = parsed.scenario
    stream = ingest_csv(parsed.ingest_path, scenario.n_block, scenario.field, scenario.seed)
    ids = list(stream.node_ids)
    if ids[0] == 0:
        raise SchemaError("/ingest_csv", "node id 0 is the sink's id, not a sensor's")
    if not set(ids) & set(scenario.layout.node_ids):
        raise SchemaError("/ingest_csv", f"node ids {ids} all lie outside the layout")
    selected = active_node_ids(scenario)
    active = sorted(set(ids) & set(selected))
    if not active:
        raise SchemaError(
            "/ingest_csv",
            f"node ids {ids} include none of the run's active nodes {sorted(selected)}",
        )
    if parsed.experiment == "detect" and len(active) < 2:
        raise SchemaError(
            "/ingest_csv",
            f"detect needs at least 2 nodes to classify; the run would use only "
            f"{active} of node ids {ids}",
        )
    return stream


def _write_outputs(parsed: ParsedConfig, stream: Stream | None, out_dir: Path) -> None:
    """Run the experiment, then write its CSVs and the effective config; a
    run that fails writes nothing.  A known output file that this run did
    not write is removed, so the directory never mixes two runs."""
    scenario = parsed.scenario
    if parsed.experiment == "ada":
        report = run_ada(scenario)
    elif parsed.experiment == "stdp":
        report = run_stdp(scenario, stream=stream)
    elif parsed.experiment == "detect":
        report = run_detect(scenario, stream=stream)
    else:
        axis, values = parsed.sweep_axis
        report = sweep(scenario, axis, values)
    files = report_files(report)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(
        out_dir / "effective_config.json",
        [(json.dumps(parsed.effective(), indent=2, sort_keys=True) + "\n").encode()],
    )
    for name, (header, body) in files.items():
        _write_atomic(out_dir / name, [(",".join(header) + "\n").encode(), *body.chunks])
    for name in OUTPUT_FILES - files.keys():
        stale = out_dir / name
        if stale.is_file():
            stale.unlink()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wsnadapt",
        description="Adaptive accuracy / dual-prediction sensor-field simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("run", "run a configured experiment and write its CSV reports"),
        ("sweep", "run a sweep config (experiment must be 'sweep')"),
        ("validate", "validate a config file without running anything"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the config output directory")
        if name != "validate":
            p.add_argument(
                "--jobs",
                type=int,
                help="accepted for compatibility and has no effect: a sweep runs "
                "its points in one process",
            )
    args = parser.parse_args(argv)

    try:
        parsed = parse_config(args.config, seed=args.seed)
        if args.command == "sweep" and parsed.experiment != "sweep":
            raise SchemaError(
                "/experiment", f"sweep command needs a sweep config, got {parsed.experiment!r}"
            )
    except (SchemaError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        # validate reads the ingest file too, so it rejects exactly what run rejects.
        stream = _load_ingest(parsed)
        if args.command == "validate":
            return 0
        out_dir = Path(args.out if args.out is not None else parsed.output_dir)
        _write_outputs(parsed, stream, out_dir)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (WsnAdaptError, OSError, ValueError, MemoryError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()

"""Command-line front end: validate a JSON scenario config, run the chosen
experiment, and write CSV reports plus an effective-config echo.

Exit codes: 0 success, 1 config validation failure, 2 runtime failure.
Diagnostics go to stderr only; output files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import jsonschema

from .errors import SchemaError, WsnAdaptError
from .fieldgen import FieldParams, NodeLayout, Stream, ingest_csv
from .sim import (
    MaliciousSpec,
    Scenario,
    default_scenario,
    report_files,
    run_ada,
    run_detect,
    run_stdp,
    scenario_to_dict,
    sweep,
)
from .stdp import Thresholds

EXPERIMENTS = ("ada", "stdp", "detect", "sweep")

_POSITION = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment"],
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "output_dir": {"type": "string", "minLength": 1},
        "ingest_csv": {"type": "string", "minLength": 1},
        "seed": {"type": "integer", "minimum": 0},
        "layout": {
            "type": "object",
            "additionalProperties": False,
            "required": ["positions", "sink", "node_ids"],
            "properties": {
                "positions": {"type": "array", "items": _POSITION, "minItems": 1},
                "sink": _POSITION,
                "node_ids": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
            },
        },
        "field": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "theta": {"type": "number", "exclusiveMinimum": 0},
                "sigma_u": {
                    "anyOf": [
                        {"type": "number", "exclusiveMinimum": 0},
                        {
                            "type": "array",
                            "items": {"type": "number", "exclusiveMinimum": 0},
                            "minItems": 1,
                        },
                    ]
                },
                "sigma_d": {"type": "number", "exclusiveMinimum": 0},
                "noise_var": {"type": "number", "minimum": 0},
                "temporal_phi": {
                    "type": "number",
                    "minimum": 0,
                    "exclusiveMaximum": 1,
                },
            },
        },
        "n_block": {"type": "integer", "minimum": 1},
        "num_blocks": {"type": "integer", "minimum": 2},
        "thresholds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha": {"type": "number", "exclusiveMinimum": 0},
                "beta": {"type": "number", "minimum": 0},
            },
        },
        "mu_mode": {
            "anyOf": [{"const": "auto"}, {"type": "number", "exclusiveMinimum": 0}]
        },
        "malicious": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["node_ids", "scale"],
                    "properties": {
                        "node_ids": {
                            "type": "array",
                            "items": {"type": "integer"},
                            "minItems": 1,
                        },
                        "scale": {"type": "number", "exclusiveMinimum": 1},
                    },
                },
            ]
        },
        "channel": {"anyOf": [{"type": "null"}, {"type": "number"}]},
        "select_first": {"type": "boolean"},
        "select_count": {"type": "integer", "minimum": 1},
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["axis", "values"],
            "properties": {
                "axis": {"enum": ["beta", "n_block", "node_count"]},
                "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
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


def _pointer(path) -> str:
    return "/" + "/".join(str(p) for p in path)


def _schema_validate(doc: dict) -> None:
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        raise SchemaError(_pointer(err.absolute_path), err.message)


def _semantic_validate(doc: dict) -> None:
    layout = doc.get("layout")
    if layout is not None:
        if len(layout["positions"]) != len(layout["node_ids"]):
            raise SchemaError("/layout", "positions and node_ids lengths differ")
        if len(set(layout["node_ids"])) != len(layout["node_ids"]):
            raise SchemaError("/layout/node_ids", "node ids must be unique")
        node_ids = layout["node_ids"]
    else:
        node_ids = list(default_scenario().layout.node_ids)

    sigma = doc.get("field", {}).get("sigma_u")
    if isinstance(sigma, list) and len(sigma) != len(node_ids):
        raise SchemaError("/field/sigma_u", f"expected {len(node_ids)} entries")

    mal = doc.get("malicious")
    if mal is not None:
        unknown = set(mal["node_ids"]) - set(node_ids)
        if unknown:
            raise SchemaError("/malicious/node_ids", f"unknown nodes {sorted(unknown)}")

    if doc.get("select_count") is not None and doc["select_count"] > len(node_ids):
        raise SchemaError("/select_count", f"exceeds node count {len(node_ids)}")

    experiment = doc["experiment"]
    if experiment == "sweep" and "sweep" not in doc:
        raise SchemaError("/sweep", "sweep experiment requires the sweep section")
    if experiment != "sweep" and "sweep" in doc:
        raise SchemaError("/sweep", "only valid when experiment is 'sweep'")
    if experiment == "ada" and "ingest_csv" in doc:
        raise SchemaError("/ingest_csv", "not applicable to the ada experiment")

    sweep_doc = doc.get("sweep")
    if sweep_doc is not None and sweep_doc["axis"] in ("n_block", "node_count"):
        bad = [v for v in sweep_doc["values"] if v != int(v) or v < 1]
        if bad:
            raise SchemaError("/sweep/values", f"axis needs positive integers, got {bad}")
        if sweep_doc["axis"] == "node_count":
            high = [v for v in sweep_doc["values"] if v > len(node_ids)]
            if high:
                raise SchemaError("/sweep/values", f"node counts {high} exceed layout")


def _build_scenario(doc: dict) -> Scenario:
    base = default_scenario()
    layout = base.layout
    if "layout" in doc:
        layout = NodeLayout(
            positions=tuple(tuple(p) for p in doc["layout"]["positions"]),
            sink=tuple(doc["layout"]["sink"]),
            node_ids=tuple(doc["layout"]["node_ids"]),
        )
    fdoc = doc.get("field", {})
    sigma = fdoc.get("sigma_u", base.field.sigma_u)
    fld = FieldParams(
        theta=fdoc.get("theta", base.field.theta),
        sigma_u=tuple(sigma) if isinstance(sigma, list) else sigma,
        sigma_d=fdoc.get("sigma_d", base.field.sigma_d),
        noise_var=fdoc.get("noise_var", base.field.noise_var),
        temporal_phi=fdoc.get("temporal_phi", base.field.temporal_phi),
    )
    tdoc = doc.get("thresholds", {})
    thresholds = Thresholds(
        alpha=tdoc.get("alpha", base.thresholds.alpha),
        beta=tdoc.get("beta", base.thresholds.beta),
    )
    mal = doc.get("malicious")
    malicious = (
        None
        if mal is None
        else MaliciousSpec(node_ids=tuple(mal["node_ids"]), scale=float(mal["scale"]))
    )
    select_count = doc.get("select_count")
    if select_count is None:
        select_count = min(base.select_count, len(layout.node_ids))
    try:
        return Scenario(
            layout=layout,
            field=fld,
            n_block=doc.get("n_block", base.n_block),
            num_blocks=doc.get("num_blocks", base.num_blocks),
            thresholds=thresholds,
            mu_mode=doc.get("mu_mode", base.mu_mode),
            malicious=malicious,
            channel=doc.get("channel", base.channel),
            seed=doc.get("seed", base.seed),
            select_first=doc.get("select_first", base.select_first),
            select_count=select_count,
        )
    except (ValueError, WsnAdaptError) as exc:
        raise SchemaError("/", str(exc)) from None


def parse_config(path) -> ParsedConfig:
    """Load, schema-check and default-fill a config file.

    Raises SchemaError (with a JSON-pointer path) on any validation
    problem and OSError/json errors on unreadable input.  No simulation
    work happens here.
    """
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError("/", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("/", "config must be a JSON object")
    _schema_validate(doc)
    _semantic_validate(doc)
    scenario = _build_scenario(doc)
    sweep_doc = doc.get("sweep")
    sweep_axis = None
    if sweep_doc is not None:
        values = [
            int(v) if sweep_doc["axis"] in ("n_block", "node_count") else float(v)
            for v in sweep_doc["values"]
        ]
        sweep_axis = (sweep_doc["axis"], values)
    return ParsedConfig(
        experiment=doc["experiment"],
        scenario=scenario,
        output_dir=doc.get("output_dir", "out"),
        ingest_path=doc.get("ingest_csv"),
        sweep_axis=sweep_axis,
    )


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_ingest(parsed: ParsedConfig) -> Stream | None:
    """The configured ``ingest_csv`` stream, or None without one.

    A file naming id 0 (the sink) or sharing no node with the layout raises
    SchemaError at ``/ingest_csv`` naming the ids, before the run writes
    anything.  Other ids outside the layout are dropped.
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
    return stream


def _write_outputs(
    parsed: ParsedConfig, stream: Stream | None, out_dir: Path, jobs: int
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(
        out_dir / "effective_config.json",
        json.dumps(parsed.effective(), indent=2, sort_keys=True) + "\n",
    )
    scenario = parsed.scenario
    if parsed.experiment == "ada":
        report = run_ada(scenario)
    elif parsed.experiment == "stdp":
        report = run_stdp(scenario, stream=stream)
    elif parsed.experiment == "detect":
        report = run_detect(scenario, stream=stream)
    else:
        axis, values = parsed.sweep_axis
        report = sweep(scenario, axis, values, jobs=jobs)
    for name, (header, rows) in report_files(report).items():
        lines = [",".join(header), *map(",".join, rows)]
        _write_atomic(out_dir / name, "\n".join(lines) + "\n")


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
                default=os.cpu_count() or 1,
                help="sweep-point parallelism (default: processor count)",
            )
    args = parser.parse_args(argv)

    try:
        parsed = parse_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise SchemaError("/seed", "seed must be non-negative")
            parsed = replace(parsed, scenario=replace(parsed.scenario, seed=args.seed))
        if args.command == "sweep" and parsed.experiment != "sweep":
            raise SchemaError(
                "/experiment", f"sweep command needs a sweep config, got {parsed.experiment!r}"
            )
    except (SchemaError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        return 0

    out_dir = Path(args.out if args.out is not None else parsed.output_dir)
    try:
        _write_outputs(parsed, _load_ingest(parsed), out_dir, jobs=max(1, args.jobs))
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (WsnAdaptError, OSError, ValueError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()

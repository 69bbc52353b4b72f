"""Command-line front end: validate a JSON scenario config, run the chosen
experiment, and write CSV reports plus an effective-config echo.

A config's keys and value types are checked against the field annotations
of the value types it builds (``Scenario``, ``NodeLayout``, ``FieldParams``,
``Thresholds``, ``MaliciousSpec``), each field's range by those types, and the
rest by the ``sim.plan`` that ``validate`` builds and ``run`` executes.  Exit codes:
0 success, 1 config validation failure, 2 runtime failure.
Diagnostics go to stderr only; output files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import cache
from itertools import chain, count, repeat, takewhile
from pathlib import Path
from types import UnionType
from typing import Iterable, Literal, Union, get_args, get_origin, get_type_hints

from .errors import InvalidParameter, SchemaError, UnknownNode, WsnAdaptError
from .sim import (
    OUTPUT_FILES,
    SWEEP_AXES,
    MaliciousSpec,
    RunPlan,
    Scenario,
    default_scenario,
    execute,
    plan,
    report_files,
    scenario_to_dict,
)

EXPERIMENTS = ("ada", "stdp", "detect", "sweep")


# A config section's keys are the fields of its value type, and each value
# must fit its field's annotation; a key is required when its field has no
# default.  A field's range is checked only by the value type it builds,
# which names the field on failure.
@dataclass(frozen=True, eq=False)
class _Section:
    keys: dict  # key -> the annotation its value must fit
    required: frozenset


# The top level: Scenario's fields, which the default scenario fills, and
# the keys that set no field.
_CONFIG = _Section(
    {
        **get_type_hints(Scenario),
        "experiment": Literal[EXPERIMENTS],
        "output_dir": str,
        "ingest_csv": str,
        "sweep": _Section(
            {"axis": Literal[SWEEP_AXES], "values": tuple[float, ...]}, frozenset({"axis", "values"})
        ),
    },
    frozenset({"experiment"}),
)
_NON_EMPTY = {("malicious", "node_ids"), ("sweep", "values"), ("output_dir",), ("ingest_csv",)}
_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string", type(None): "null",
          list: "array", dict: "object"}
# The Python types of the JSON values a scalar annotation takes: a bool is
# not a number, and 5.0 is not an integer.
_PLAIN = {float: (int, float), int: (int,), bool: (bool,), str: (str,)}


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


@cache
def _resolve(hint) -> tuple:
    """An annotation's origin, its arguments (a section for an object) and
    the Python types of the JSON values that fit it, worked out once."""
    if is_dataclass(hint) and not isinstance(hint, _Section):
        required = frozenset(f.name for f in fields(hint) if f.default is MISSING)
        hint = _Section(get_type_hints(hint), required)
    if isinstance(hint, _Section):
        return None, hint, (dict,)
    origin = Union if get_origin(hint) is UnionType else get_origin(hint)
    return origin, get_args(hint), (list,) if origin is tuple else _PLAIN.get(hint, (hint,))


def _first_error(value, hint, path: tuple) -> tuple[tuple, str] | None:
    """The first problem, by sorted path, of a JSON value against the
    annotation ``hint``, as (path, message); None when the value fits."""
    origin, args, accepts = _resolve(hint)
    if origin is Union:
        # The alternatives have distinct JSON types, so at most one fits the
        # value's; a problem inside it is reported at its own path.
        for alt in args:
            if type(value) in _resolve(alt)[2]:
                return _first_error(value, alt, path)
        kinds = " or ".join(repr(_KINDS[_resolve(alt)[2][-1]]) for alt in args)
        return path, f"{value!r} is not of type {kinds}"
    if origin is Literal:
        return None if value in args else (path, f"{value!r} is not one of {list(args)!r}")
    if type(value) not in accepts:
        return path, f"{value!r} is not of type {_KINDS[accepts[-1]]!r}"
    if not value and path in _NON_EMPTY:
        return path, f"{value!r} should be non-empty"
    if hint is float and type(value) is int:
        try:
            float(value)
        except OverflowError:
            return path, f"must fit a float, got an integer of {value.bit_length()} bits"
    if type(value) is dict:
        unknown = [key for key in value if key not in args.keys]
        if unknown:
            names = ", ".join(map(repr, unknown))
            return path, f"unknown key(s) {names}; expected one of: {', '.join(args.keys)}"
        missing = [key for key in args.keys if key in args.required and key not in value]
        if missing:
            return path, f"{missing[0]!r} is a required property"
        children = [(key, value[key], args.keys[key]) for key in sorted(value)]
    elif type(value) is list:
        if args[-1] is not Ellipsis and len(value) != len(args):
            return path, f"{value!r} is too {'short' if len(value) < len(args) else 'long'}"
        children = zip(count(), value, repeat(args[0]) if args[-1] is Ellipsis else args)
    else:
        return None
    for key, child, child_hint in children:
        if child and type(child) is child_hint:
            continue  # the common case, without a call
        error = _first_error(child, child_hint, (*path, key))
        if error is not None:
            return error
    return None


def _semantic_validate(doc: dict) -> None:
    """Checks that relate the config's keys to its experiment."""
    experiment = doc["experiment"]
    if experiment == "sweep" and "sweep" not in doc:
        raise SchemaError("/sweep", "sweep experiment requires the sweep section")
    if experiment != "sweep" and "sweep" in doc:
        raise SchemaError("/sweep", "only valid when experiment is 'sweep'")
    if experiment in ("ada", "sweep") and "ingest_csv" in doc:
        raise SchemaError("/ingest_csv", f"not applicable to the {experiment} experiment")


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


def _config_error(exc: InvalidParameter | UnknownNode, axis: str | None = None) -> SchemaError:
    """The config error at the key that ``exc``, from a value type or ``sim.plan``, refuses."""
    if isinstance(exc, UnknownNode):
        return SchemaError("/ingest_csv", str(exc))
    if exc.point is not None:
        return SchemaError(f"/sweep/values/{exc.point}", f"{axis} {exc.reason}")
    return SchemaError("/" + exc.field, exc.reason)


def parse_config(path, seed: int | None = None) -> ParsedConfig:
    """Load, check and default-fill a config file; ``seed`` overrides its seed.

    Raises SchemaError (with a JSON-pointer path) on any problem with the
    config's shape or a value's range, and OSError on unreadable input.
    No simulation work happens here; ``sim.plan`` checks the rest.
    """
    with open(path) as handle:
        try:
            doc = json.load(handle, parse_float=_finite_number, parse_constant=_finite_number)
        except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
            raise SchemaError("/", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("/", "config must be a JSON object")
    if seed is not None:
        doc["seed"] = seed
    error = _first_error(doc, _CONFIG, ())
    if error is not None:
        raise SchemaError("/" + "/".join(map(str, error[0])), error[1])
    try:
        scenario = _build_scenario(doc)
    except InvalidParameter as exc:
        raise _config_error(exc) from None
    _semantic_validate(doc)
    sweep_doc = doc.get("sweep")
    sweep_axis = None
    if sweep_doc is not None:
        axis, values = sweep_doc["axis"], sweep_doc["values"]
        integral = axis in ("n_block", "node_count")
        bad = [v for v in values if integral and v != int(v)]
        if bad:
            raise SchemaError("/sweep/values", f"axis needs integers, got {bad}")
        sweep_axis = (axis, [int(v) if integral else float(v) for v in values])
    return ParsedConfig(
        experiment=doc["experiment"],
        scenario=scenario,
        output_dir=doc.get("output_dir", "out"),
        ingest_path=doc.get("ingest_csv"),
        sweep_axis=sweep_axis,
    )


def _write_atomic(out_dir: Path, files: dict[str, Iterable[bytes]]) -> None:
    """Write each named file's parts to a temp file in ``out_dir`` and rename
    the temp files into place only once all of them are complete; a failed
    write, or a part that raises as it is made, removes them and leaves
    every existing file as it was.  Parts are written as they are made.
    Each file gets the mode ``open`` would give it, ``0o666`` less the
    umask, in place of a temp file's owner-only mode."""
    umask = os.umask(0)
    os.umask(umask)
    temps: list[str] = []
    try:
        for name, parts in files.items():
            fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.", suffix=".tmp")
            temps.append(tmp)
            with os.fdopen(fd, "wb") as handle:
                os.chmod(tmp, 0o666 & ~umask)
                handle.writelines(parts)
        for tmp, name in zip(temps, files):
            os.replace(tmp, out_dir / name)
    except BaseException:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _write_outputs(parsed: ParsedConfig, run_plan: RunPlan, out_dir: Path) -> None:
    """Execute the plan, then write its CSVs and the effective config; a
    run that fails, or a file that cannot be encoded or written in full,
    changes no file and leaves no directory that it made.  Each CSV is
    encoded chunk by chunk as it is written, so the run holds one chunk of
    its text at a time.  A known output file that this run did not write
    is removed, so the directory never mixes two runs."""
    report = execute(run_plan)
    config = json.dumps(parsed.effective(), indent=2, sort_keys=True) + "\n"
    files = {"effective_config.json": [config.encode()]}
    for name, (header, table) in report_files(report).items():
        files[name] = chain([(",".join(header) + "\n").encode()], table)
    # The directories the run makes, deepest first.
    made = list(takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        _write_atomic(out_dir, files)
    except BaseException:
        for directory in made:
            directory.rmdir()
        raise
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
        if name != "validate":  # a sweep runs its points in one process
            p.add_argument("--jobs", type=int, help="accepted for compatibility; has no effect")
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

    axis, values = parsed.sweep_axis or (None, ())
    try:
        # validate builds the plan that run executes, so it refuses what run refuses.
        try:
            run_plan = plan(parsed.scenario, parsed.experiment, parsed.ingest_path, axis, values)
        except (InvalidParameter, UnknownNode) as exc:
            raise _config_error(exc, axis) from None
        if args.command == "validate":
            return 0
        _write_outputs(parsed, run_plan, Path(parsed.output_dir if args.out is None else args.out))
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

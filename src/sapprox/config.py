"""Experiment configuration: JSON schema, validation with field paths,
overrides, and construction of problem objects.

One experiment per file.  Shape:

    {
      "schema_version": 1,
      "seed": 20240801,
      "drift":  {"kind": "linear", "parameters": {"alpha1": -1.0}, "x_star": 0.0},
      "noise":  {"kind": "rademacher", "sigma": 1.0},
      "b": 2.0,
      "x0": 1.0,
      "simulate": {"n": 10, "record": true, "output": "traj.csv"},
      "bound":    {"epsilon": 1.0, "n_grid": [...], "replicas": 100000,
                   "paper_c": null, "output": "bound.csv"},
      "rate":     {"target": "recursion", "gamma": 3.0, "r": 1.0,
                   "n_grid": [...], "replicas": 1000000, "output": "rate.csv"}
    }

Only the block of the command being run is required, and only it is
parsed: parse_config returns its values with the defaults filled in
(`record` true, `format` csv, `paper_c` null).  A field that the root,
the drift or noise model, or that block does not have is an issue, and so
is an `output` or `format` in a simulate block whose `record` is false,
which writes no file.  The seed is mandatory: there is no wall-clock
fallback, every run must be reproducible from the file alone.

This module checks JSON types, and the ranges of the fields that no
constructor takes: seed in [0, 2^64), simulate.n >= 0, replicas >= 1,
epsilon > 0 and paper_c > 0.  The other ranges are checked where their
values are taken (the drift and noise classes, ProblemSpec, Schedule and
mdp.horizon_grid), whose ParameterError becomes a ConfigIssue at the
offending field's path.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Container, Optional

from sapprox.engine import TARGETS
from sapprox.mdp import Schedule, horizon_grid
from sapprox.model import DRIFTS, NOISES, ParameterError, ProblemSpec

SCHEMA_VERSION = 1

OUTPUT_FORMATS = ("csv", "json")
ROOT_FIELDS = ("schema_version", "seed", "drift", "noise", "b", "x0",
               "simulate", "bound", "rate")


@dataclass(frozen=True)
class ConfigIssue:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class ConfigError(Exception):
    """Raised when a config fails validation; carries every issue found."""

    def __init__(self, issues: list[ConfigIssue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


@dataclass
class ExperimentConfig:
    """A validated experiment: its seed, the problem built from it, and one
    command's parsed block."""

    seed: int
    spec: ProblemSpec
    block: dict = field(default_factory=dict)  # the command's values, parsed
    schedule: Optional[Schedule] = None  # built for the rate command


def load_raw(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ConfigError([ConfigIssue("$", "config root must be a JSON object")])
    return raw


def canonical_json(raw: dict) -> str:
    """Stable serialization; loading then re-serializing is idempotent."""
    return json.dumps(raw, sort_keys=True, indent=2) + "\n"


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply --set key.path=value overrides; values parse as JSON with a
    bare-string fallback.  Missing objects on the path are created; a value
    on the path that is not an object is an issue, never replaced."""
    out = json.loads(json.dumps(raw))
    for item in assignments:
        key, eq, value = item.partition("=")
        parts = key.split(".")
        if not eq or "" in parts:
            raise ConfigError([ConfigIssue(item, "override must look like key.path=value")])
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = out
        for i, part in enumerate(parts[:-1]):
            if part not in node:
                node[part] = {}
            elif not isinstance(node[part], dict):
                prefix = ".".join(parts[:i + 1])
                raise ConfigError([ConfigIssue(
                    item, f"{prefix} is not an object, so it has no field {parts[i + 1]}")])
            node = node[part]
        node[parts[-1]] = parsed
    return out


def _is_real(x: Any) -> bool:
    """A finite JSON number (json reads NaN, Infinity and 1e400 as floats)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond float64
        return False


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _real(value: Any, path: str, issues: list[ConfigIssue], positive: bool = False,
          message: str = "must be a finite real number") -> Optional[float]:
    if not _is_real(value) or (positive and not value > 0):
        issues.append(ConfigIssue(path, message))
        return None
    return float(value)


def _int(value: Any, path: str, issues: list[ConfigIssue], minimum: int) -> Optional[int]:
    if not _is_int(value) or value < minimum:
        issues.append(ConfigIssue(path, f"must be an integer >= {minimum}"))
        return None
    return value


def _construct(make: Callable, path_of: Callable[[str], str],
               issues: list[ConfigIssue], *args) -> Any:
    """make(*args), a ParameterError becoming an issue at the path of its
    field, or of the object holding its fields when it names several."""
    try:
        return make(*args)
    except ParameterError as exc:
        paths = [path_of(name) for name in exc.fields]
        path = paths[0] if len(paths) == 1 else paths[0].rpartition(".")[0]
        issues.append(ConfigIssue(path, str(exc)))
        return None


def _lookup(raw: dict, path: str) -> Any:
    node: Any = raw
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return MISSING
        node = node[part]
    return node


def _unknown_fields(node: Any, prefix: str, known: Container[str],
                    issues: list[ConfigIssue]) -> None:
    """An issue for each key of the object `node` whose path is not known."""
    if isinstance(node, dict):
        issues.extend(ConfigIssue(prefix + key, "unknown field")
                      for key in node if prefix + key not in known)


def _build_model(raw: dict, section: str, registry: dict, issues: list[ConfigIssue],
                 path_of: Callable[[str], str]):
    """The drift or noise model of `section`: the class its kind names in
    the registry, built from that class's fields, the only ones it may hold."""
    kind = _lookup(raw, f"{section}.kind")
    cls = registry.get(kind) if isinstance(kind, str) else None
    if cls is None:
        issues.append(
            ConfigIssue(f"{section}.kind", f"must be one of {tuple(registry)}")
        )
        return None
    # the section holds its kind and fields, and the objects that hold fields
    # (drift.parameters); sorted, as a set's order changes between runs
    known = {f"{section}.kind", *(path_of(f.name) for f in fields(cls))}
    parents = {path.rpartition(".")[0] for path in known}
    for parent in sorted(parents):
        _unknown_fields(_lookup(raw, parent), f"{parent}.", known | parents, issues)
    values = {}
    for f in fields(cls):
        value = _lookup(raw, path_of(f.name))
        if value is MISSING and f.default is not MISSING:
            value = f.default
        values[f.name] = _real(value, path_of(f.name), issues)
    if None in values.values():
        return None
    return _construct(lambda: cls(**values), path_of, issues)


def _n_grid(block: dict, path: str, issues: list[ConfigIssue]) -> Optional[tuple]:
    grid = block.get("n_grid")
    if not isinstance(grid, list) or not all(_is_int(n) for n in grid):
        issues.append(ConfigIssue(f"{path}.n_grid", "must be a list of integers"))
        return None
    return _construct(horizon_grid, lambda name: f"{path}.{name}", issues, grid)


def _output(block: dict, path: str, issues: list[ConfigIssue], required: bool) -> dict:
    """The block's output path, None when absent, and its format."""
    out = block.get("output")
    if out is None:
        if required:
            issues.append(ConfigIssue(f"{path}.output", "an output path is required"))
    elif not isinstance(out, str) or not out:
        issues.append(ConfigIssue(f"{path}.output", "must be a non-empty string"))
    fmt = block.get("format")
    if fmt is not None and fmt not in OUTPUT_FORMATS:
        issues.append(
            ConfigIssue(f"{path}.format", f"must be one of {OUTPUT_FORMATS}")
        )
    return {"output": out, "format": "csv" if fmt is None else fmt}


def parse_config(raw: dict, command: Optional[str] = None) -> ExperimentConfig:
    """Validate the raw dict (for one command, when given) and build objects.

    The command's block comes back parsed, with its defaults filled in.
    Raises ConfigError carrying every violation with its field path.
    """
    issues: list[ConfigIssue] = []
    _unknown_fields(raw, "", ROOT_FIELDS, issues)

    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        issues.append(
            ConfigIssue("schema_version", f"must be {SCHEMA_VERSION}, got {version!r}")
        )

    seed = raw.get("seed")
    if not _is_int(seed):
        issues.append(
            ConfigIssue("seed", "a 64-bit integer seed is required (no clock seeding)")
        )
    elif not 0 <= seed < 1 << 64:
        # the noise hash reads the seed mod 2^64: larger seeds would alias
        issues.append(ConfigIssue("seed", f"must lie in [0, 2^64), got {seed}"))

    drift = _build_model(raw, "drift", DRIFTS, issues, lambda name: (
        "drift.x_star" if name == "x_star" else f"drift.parameters.{name}"))
    noise = _build_model(raw, "noise", NOISES, issues, lambda name: f"noise.{name}")
    b = _real(raw.get("b"), "b", issues)
    x0 = _real(raw.get("x0"), "x0", issues)
    spec = None
    if b is not None and x0 is not None:
        # built even when the drift or noise failed, so b is checked too
        spec = _construct(ProblemSpec, lambda name: name, issues, drift, noise, b, x0)

    block: dict = {}
    schedule = None
    if command is not None:
        given = raw.get(command)
        if not isinstance(given, dict):
            issues.append(ConfigIssue(command, f"missing '{command}' block"))
        elif command == "simulate":
            n = _int(given.get("n"), "simulate.n", issues, 0)
            record = given.get("record", True)
            if not isinstance(record, bool):
                issues.append(ConfigIssue("simulate.record", "must be a boolean"))
                record = True
            if record:
                block = {"n": n, "record": record,
                         **_output(given, "simulate", issues, required=True)}
            else:
                block = {"n": n, "record": record, "output": None, "format": "csv"}
                issues.extend(
                    ConfigIssue(f"simulate.{key}", "record is false, so no file is written")
                    for key in ("output", "format") if given.get(key) is not None)
        elif command == "bound":
            paper_c = given.get("paper_c")
            block = {
                "epsilon": _real(given.get("epsilon"), "bound.epsilon", issues,
                                 positive=True, message="must be a real number > 0"),
                "n_grid": _n_grid(given, "bound", issues),
                "replicas": _int(given.get("replicas"), "bound.replicas", issues, 1),
                "paper_c": None if paper_c is None else _real(
                    paper_c, "bound.paper_c", issues,
                    positive=True, message="must be null or a real > 0"),
                **_output(given, "bound", issues, required=True),
            }
        elif command == "rate":
            target = given.get("target")
            if target not in TARGETS:
                issues.append(ConfigIssue("rate.target", f"must be one of {TARGETS}"))
            gamma = _real(given.get("gamma"), "rate.gamma", issues)
            r = _real(given.get("r"), "rate.r", issues)
            grid = _n_grid(given, "rate", issues)
            if None not in (gamma, r, grid):
                schedule = _construct(Schedule, lambda name: f"rate.{name}",
                                      issues, gamma, grid, r)
            block = {"target": target, "gamma": gamma, "r": r, "n_grid": grid,
                     "replicas": _int(given.get("replicas"), "rate.replicas", issues, 1),
                     **_output(given, "rate", issues, required=True)}
            if spec is not None and drift is not None:
                try:
                    spec.require_mdp_regime()
                except ValueError as exc:
                    issues.append(ConfigIssue("rate", str(exc)))
        else:
            issues.append(ConfigIssue(command, f"unknown command {command!r}"))
        _unknown_fields(given, f"{command}.", {f"{command}.{key}" for key in block}, issues)

    if issues:
        raise ConfigError(issues)

    return ExperimentConfig(seed=int(seed), spec=spec, block=block, schedule=schedule)

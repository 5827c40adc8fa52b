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

Each command's block is one row of the table `_BLOCKS`: its fields in
order, one reader per field, and an optional rule across fields.  A reader
takes `(value, path, issues)`, with `MISSING` for an absent field, and
returns the parsed value, its default filled in.  Absent and null differ
for one field only:

    field     absent                        null
    record    true                          "must be a boolean"
    format    csv                           csv
    paper_c   None                          None
    output    "an output path is required"  the same
    others    the field's issue             the same

parse_config does the same for every command: it reads each field, runs
the row's rule on the block's issues (simulate's refuses an output or
format when `record` is false; rate's builds the Schedule and checks the
deviation regime), then reports the block's unknown fields.  A command
with no row has no fields.  ROOT_FIELDS ends with the table's commands, so
a new command is one row here and one in `cli._COMMANDS`, and no branch.

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
from functools import partial
from pathlib import Path
from typing import Any, Callable, Container, Optional

from sapprox.engine import TARGETS
from sapprox.mdp import Schedule, horizon_grid
from sapprox.model import DRIFTS, NOISES, ParameterError, ProblemSpec

SCHEMA_VERSION = 1

OUTPUT_FORMATS = ("csv", "json")


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
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                prefix = ".".join(parts[:i + 1])
                raise ConfigError([ConfigIssue(
                    item, f"{prefix} is not an object, so it has no field {parts[i + 1]}")])
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


def _one_of(choices: tuple, value: Any, path: str, issues: list[ConfigIssue]) -> Any:
    if value in choices:
        return value
    issues.append(ConfigIssue(path, f"must be one of {choices}"))
    return None


def _build_model(raw: dict, section: str, registry: dict, issues: list[ConfigIssue],
                 path_of: Callable[[str], str]):
    """The drift or noise model of `section`: the class its kind names in
    the registry, built from that class's fields, the only ones it may hold."""
    kind = _one_of(tuple(registry), _lookup(raw, f"{section}.kind"), f"{section}.kind", issues)
    if kind is None:
        return None
    cls = registry[kind]
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


def _n_grid(grid: Any, path: str, issues: list[ConfigIssue]) -> Optional[tuple]:
    if not isinstance(grid, list) or not all(_is_int(n) for n in grid):
        issues.append(ConfigIssue(path, "must be a list of integers"))
        return None
    return _construct(horizon_grid, lambda name: path, issues, grid)


def _optional(default: Any, read: Callable) -> Callable:
    """A reader giving `default` for a field that is absent or null, and
    reading any other value with `read`."""
    return lambda value, path, issues: (
        default if value is None or value is MISSING else read(value, path, issues))


def _record(value: Any, path: str, issues: list[ConfigIssue]) -> bool:
    """True when absent; a value that is not a boolean is read as true."""
    if value is not MISSING and not isinstance(value, bool):
        issues.append(ConfigIssue(path, "must be a boolean"))
    return value is not False


def _output(value: Any, path: str, issues: list[ConfigIssue]) -> Optional[str]:
    if value is None or value is MISSING:
        issues.append(ConfigIssue(path, "an output path is required"))
    elif not isinstance(value, str) or not value:
        issues.append(ConfigIssue(path, "must be a non-empty string"))
    return value


def _unrecorded(given: dict, block: dict, spec: Any, issues: list) -> None:
    """A simulate block whose record is false writes no file, so an output
    or format in it is refused, in place of what their readers found in it."""
    if not block["record"]:
        refused = {f"simulate.{key}": key for key in ("output", "format")}
        issues[:] = [issue for issue in issues if issue.path not in refused]
        issues.extend(ConfigIssue(path, "record is false, so no file is written")
                      for path, key in refused.items() if given.get(key) is not None)
        block.update(output=None, format="csv")


def _schedule(given: dict, block: dict, spec: Any, issues: list) -> Optional[Schedule]:
    """The rate block's Schedule, and the deviation regime of its spec."""
    values = block["gamma"], block["n_grid"], block["r"]
    schedule = None if None in values else _construct(
        Schedule, lambda name: f"rate.{name}", issues, *values)
    if spec is not None and spec.drift is not None:
        try:
            spec.require_mdp_regime()
        except ValueError as exc:
            issues.append(ConfigIssue("rate", str(exc)))
    return schedule


_format = _optional("csv", partial(_one_of, OUTPUT_FORMATS))

# command -> (its block's fields, in order, each with its reader, and the
# block's cross-field rule or None).  A rule's spec is as parse_config built
# it: None when b or x0 failed, and holding a None drift or noise when that
# model failed, so a rule tests the parts it reads
_BLOCKS = {
    "simulate": ({"n": partial(_int, minimum=0), "record": _record,
                  "output": _output, "format": _format}, _unrecorded),
    "bound": ({"epsilon": partial(_real, positive=True, message="must be a real number > 0"),
               "n_grid": _n_grid, "replicas": partial(_int, minimum=1),
               "paper_c": _optional(None, partial(_real, positive=True,
                                                  message="must be null or a real > 0")),
               "output": _output, "format": _format}, None),
    "rate": ({"target": partial(_one_of, TARGETS), "gamma": _real, "r": _real,
              "n_grid": _n_grid, "replicas": partial(_int, minimum=1),
              "output": _output, "format": _format}, _schedule),
}
ROOT_FIELDS = ("schema_version", "seed", "drift", "noise", "b", "x0", *_BLOCKS)


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
        readers, rule = _BLOCKS.get(command, ({}, None))  # an unknown command has no fields
        if not isinstance(given, dict):
            issues.append(ConfigIssue(command, f"missing '{command}' block"))
        elif command not in _BLOCKS:
            issues.append(ConfigIssue(command, f"unknown command {command!r}"))
        else:
            found: list[ConfigIssue] = []  # the block's own issues, which its rule may replace
            block = {name: read(given.get(name, MISSING), f"{command}.{name}", found)
                     for name, read in readers.items()}
            if rule is not None:
                schedule = rule(given, block, spec, found)
            issues += found
        _unknown_fields(given, f"{command}.", {f"{command}.{key}" for key in readers}, issues)

    if issues:
        raise ConfigError(issues)

    return ExperimentConfig(seed=int(seed), spec=spec, block=block, schedule=schedule)

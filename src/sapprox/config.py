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

Only the block of the command being run is required.  The seed is
mandatory: there is no wall-clock fallback, every run must be
reproducible from the file alone.

This module checks JSON types only.  Value ranges are checked by the
constructors (the drift and noise classes, ProblemSpec, Schedule), whose
ParameterError becomes a ConfigIssue at the offending field's path.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Optional

from sapprox.mdp import Schedule, horizon_grid
from sapprox.model import DRIFTS, NOISES, ParameterError, ProblemSpec

SCHEMA_VERSION = 1

RATE_TARGETS = ("recursion", "weighted_sum")
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
    """A validated experiment file plus the objects built from it."""

    raw: dict
    seed: int
    spec: ProblemSpec
    command: Optional[str] = None
    block: dict = field(default_factory=dict)
    schedule: Optional[Schedule] = None  # built for the rate command


def load_raw(path) -> dict:
    text = Path(path).read_text()
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ConfigError([ConfigIssue("$", "config root must be a JSON object")])
    return raw


def canonical_json(raw: dict) -> str:
    """Stable serialization; loading then re-serializing is idempotent."""
    return json.dumps(raw, sort_keys=True, indent=2) + "\n"


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply --set key.path=value overrides; values parse as JSON with a
    bare-string fallback."""
    out = json.loads(json.dumps(raw))
    for item in assignments:
        if "=" not in item:
            raise ConfigError(
                [ConfigIssue(item, "override must look like key.path=value")]
            )
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
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


def _real(value: Any, path: str, issues: list[ConfigIssue]) -> Optional[float]:
    if not _is_real(value):
        issues.append(ConfigIssue(path, "must be a finite real number"))
        return None
    return float(value)


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


def _build_model(raw: dict, section: str, registry: dict, issues: list[ConfigIssue],
                 path_of: Callable[[str], str]):
    """The drift or noise model of `section`: the class its kind names in
    the registry, built from that class's fields."""
    kind = _lookup(raw, f"{section}.kind")
    cls = registry.get(kind) if isinstance(kind, str) else None
    if cls is None:
        issues.append(
            ConfigIssue(f"{section}.kind", f"must be one of {tuple(registry)}")
        )
        return None
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


def _check_replicas(block: dict, path: str, issues: list[ConfigIssue]) -> None:
    if not _is_int(block.get("replicas")) or block["replicas"] < 1:
        issues.append(ConfigIssue(f"{path}.replicas", "must be an integer >= 1"))


def _check_output(block: dict, path: str, issues: list[ConfigIssue],
                  required: bool) -> None:
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


def parse_config(raw: dict, command: Optional[str] = None) -> ExperimentConfig:
    """Validate the raw dict (for one command, when given) and build objects.

    Raises ConfigError carrying every violation with its field path.
    """
    issues: list[ConfigIssue] = []

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
        block_raw = raw.get(command)
        if not isinstance(block_raw, dict):
            issues.append(ConfigIssue(command, f"missing '{command}' block"))
        else:
            block = block_raw
            if command == "simulate":
                if not _is_int(block.get("n")) or block["n"] < 0:
                    issues.append(
                        ConfigIssue("simulate.n", "must be an integer >= 0")
                    )
                record = block.get("record", True)
                if not isinstance(record, bool):
                    issues.append(ConfigIssue("simulate.record", "must be a boolean"))
                    record = True
                _check_output(block, "simulate", issues, required=record)
            elif command == "bound":
                eps = block.get("epsilon")
                if not _is_real(eps) or not eps > 0:
                    issues.append(
                        ConfigIssue("bound.epsilon", "must be a real number > 0")
                    )
                _n_grid(block, "bound", issues)
                _check_replicas(block, "bound", issues)
                paper_c = block.get("paper_c")
                if paper_c is not None and (not _is_real(paper_c) or not paper_c > 0):
                    issues.append(
                        ConfigIssue("bound.paper_c", "must be null or a real > 0")
                    )
                _check_output(block, "bound", issues, required=True)
            elif command == "rate":
                if block.get("target") not in RATE_TARGETS:
                    issues.append(
                        ConfigIssue("rate.target", f"must be one of {RATE_TARGETS}")
                    )
                gamma = _real(block.get("gamma"), "rate.gamma", issues)
                r = _real(block.get("r"), "rate.r", issues)
                grid = _n_grid(block, "rate", issues)
                if None not in (gamma, r, grid):
                    schedule = _construct(Schedule, lambda name: f"rate.{name}",
                                          issues, gamma, grid, r)
                _check_replicas(block, "rate", issues)
                _check_output(block, "rate", issues, required=True)
                if spec is not None and drift is not None:
                    try:
                        spec.require_mdp_regime()
                    except ValueError as exc:
                        issues.append(ConfigIssue("rate", str(exc)))
            else:
                issues.append(ConfigIssue(command, f"unknown command {command!r}"))

    if issues:
        raise ConfigError(issues)

    return ExperimentConfig(raw=raw, seed=int(seed), spec=spec, command=command,
                            block=block, schedule=schedule)

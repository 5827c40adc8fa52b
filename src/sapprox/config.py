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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from sapprox.mdp import Schedule
from sapprox.model import (
    LinearDrift,
    ProblemSpec,
    Rademacher,
    SineLinearDrift,
    TwoPointAdaptive,
)

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
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_n_grid(block: dict, path: str, issues: list[ConfigIssue]) -> None:
    grid = block.get("n_grid")
    if not isinstance(grid, list) or not grid:
        issues.append(ConfigIssue(f"{path}.n_grid", "must be a non-empty list"))
        return
    if not all(_is_int(n) and n >= 1 for n in grid):
        issues.append(ConfigIssue(f"{path}.n_grid", "entries must be integers >= 1"))
        return
    if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
        issues.append(ConfigIssue(f"{path}.n_grid", "must be strictly increasing"))


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


def _build_drift(raw: dict, issues: list[ConfigIssue]):
    drift_cfg = raw.get("drift")
    if not isinstance(drift_cfg, dict):
        issues.append(ConfigIssue("drift", "missing or not an object"))
        return None
    kind = drift_cfg.get("kind")
    params = drift_cfg.get("parameters")
    x_star = drift_cfg.get("x_star", 0.0)
    if not _is_real(x_star):
        issues.append(ConfigIssue("drift.x_star", "must be a real number"))
        return None
    if not isinstance(params, dict):
        issues.append(ConfigIssue("drift.parameters", "missing or not an object"))
        return None
    if kind == "linear":
        alpha1 = params.get("alpha1")
        if not _is_real(alpha1) or not alpha1 < 0:
            issues.append(
                ConfigIssue("drift.parameters", "linear drift needs alpha1 < 0")
            )
            return None
        return LinearDrift(alpha1=float(alpha1), x_star=float(x_star))
    if kind == "sine_linear":
        c1, c2 = params.get("c1"), params.get("c2")
        if not (_is_real(c1) and _is_real(c2)) or not (c1 > c2 > 0):
            issues.append(
                ConfigIssue("drift.parameters", "sine_linear drift needs c1 > c2 > 0")
            )
            return None
        return SineLinearDrift(c1=float(c1), c2=float(c2), x_star=float(x_star))
    issues.append(ConfigIssue("drift.kind", "must be 'linear' or 'sine_linear'"))
    return None


def _build_noise(raw: dict, issues: list[ConfigIssue]):
    noise_cfg = raw.get("noise")
    if not isinstance(noise_cfg, dict):
        issues.append(ConfigIssue("noise", "missing or not an object"))
        return None
    kind = noise_cfg.get("kind")
    sigma = noise_cfg.get("sigma")
    if not _is_real(sigma) or not sigma > 0:
        issues.append(ConfigIssue("noise.sigma", "must be a real number > 0"))
        return None
    if kind == "rademacher":
        return Rademacher(sigma=float(sigma))
    if kind == "two_point_adaptive":
        p_min, p_max = noise_cfg.get("p_min"), noise_cfg.get("p_max")
        if not (_is_real(p_min) and _is_real(p_max)) or not (
            0.0 < p_min <= p_max < 1.0
        ):
            issues.append(
                ConfigIssue("noise", "two_point_adaptive needs 0 < p_min <= p_max < 1")
            )
            return None
        return TwoPointAdaptive(sigma=float(sigma), p_min=float(p_min), p_max=float(p_max))
    issues.append(
        ConfigIssue("noise.kind", "must be 'rademacher' or 'two_point_adaptive'")
    )
    return None


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

    drift = _build_drift(raw, issues)
    noise = _build_noise(raw, issues)

    b = raw.get("b")
    if not _is_real(b) or not b > 0:
        issues.append(ConfigIssue("b", "must be a real number > 0"))
    x0 = raw.get("x0")
    if not _is_real(x0):
        issues.append(ConfigIssue("x0", "must be a real number"))

    block: dict = {}
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
                _check_n_grid(block, "bound", issues)
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
                gamma = block.get("gamma")
                if not _is_real(gamma) or not gamma > 0:
                    issues.append(ConfigIssue("rate.gamma", "must be a real number > 0"))
                r = block.get("r")
                if not _is_real(r) or not r > 0:
                    issues.append(ConfigIssue("rate.r", "must be a real number > 0"))
                _check_n_grid(block, "rate", issues)
                _check_replicas(block, "rate", issues)
                _check_output(block, "rate", issues, required=True)
                if drift is not None and _is_real(b) and b > 0:
                    if not b * drift.gprime_star < -1.0:
                        issues.append(
                            ConfigIssue(
                                "rate",
                                "deviation-rate runs need b * g'(x*) < -1, got "
                                f"{b * drift.gprime_star}",
                            )
                        )
            else:
                issues.append(ConfigIssue(command, f"unknown command {command!r}"))

    if issues:
        raise ConfigError(issues)

    spec = ProblemSpec(drift=drift, noise=noise, b=float(b), x0=float(x0))
    return ExperimentConfig(
        raw=raw, seed=int(seed), spec=spec, command=command, block=block
    )


def build_schedule(cfg: ExperimentConfig) -> Schedule:
    block = cfg.block
    return Schedule(
        gamma=float(block["gamma"]),
        n_grid=tuple(block["n_grid"]),
        r=float(block["r"]),
    )

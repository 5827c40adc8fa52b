"""The benchmark's workloads: which sapprox command each one runs, with
which experiment config, and how the benchmark seed becomes the config seed.

Every workload is closed loop: one command at a time from one process.
Why each workload was chosen is recorded in README.md and BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# Rows of an oracle cross-check are printed only up to this horizon.
ORACLE_MAX_N = 22


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "rate" or "bound"
    base_seed: int
    experiment: dict  # drift, noise, b and x0 of the config
    block: dict  # the command's config block, without its output path
    workers: int = 1
    oracle: bool = False
    # gate the rate interval against the Gaussian reference +-0.1
    mdp_gate: bool = False
    # run every seed at the base seed (see README.md, "Seeds")
    fixed_seed: bool = False

    def seed_for(self, seed: int) -> int:
        """Config seed for benchmark seed `seed`: a fixed hash of the
        workload's base seed and `seed`, inside [0, 2^63)."""
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if self.fixed_seed:
            return self.base_seed
        digest = hashlib.sha256(f"{self.base_seed}:{seed}".encode()).digest()
        return int.from_bytes(digest[:8], "big") >> 1

    def config(self, seed: int, output: str) -> dict:
        return {
            "schema_version": 1,
            "seed": self.seed_for(seed),
            **self.experiment,
            self.command: {**self.block, "output": output},
        }

    def argv(self, config_path: str) -> list[str]:
        argv = [self.command, "--config", config_path, "--workers", str(self.workers)]
        if self.oracle:
            argv.append("--oracle")
        return argv

    def oracle_ns(self) -> list[int]:
        if not self.oracle:
            return []
        return [n for n in self.block["n_grid"] if n <= ORACLE_MAX_N]


_RADEMACHER = {"kind": "rademacher", "sigma": 1.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rate-linear",
            command="rate",
            base_seed=808,
            experiment={
                "drift": {"kind": "linear", "parameters": {"alpha1": -1.0}, "x_star": 0.0},
                "noise": _RADEMACHER,
                "b": 2.0,
                "x0": 1.0,
            },
            block={
                "target": "recursion",
                "gamma": 3.0,
                "r": 1.0,
                "n_grid": [1000, 4000],
                "replicas": 1 << 17,
            },
            workers=2,
            mdp_gate=True,
        ),
        Workload(
            name="bound-sine-adaptive",
            command="bound",
            base_seed=505,
            experiment={
                "drift": {"kind": "sine_linear", "parameters": {"c1": 3.0, "c2": 1.0},
                          "x_star": 0.0},
                "noise": {"kind": "two_point_adaptive", "sigma": 1.0,
                          "p_min": 0.4, "p_max": 0.6},
                "b": 1.0,
                "x0": 0.5,
            },
            block={
                "epsilon": 2.0,
                "n_grid": [2000, 4000],
                "replicas": 1 << 13,
                "paper_c": None,
            },
        ),
        Workload(
            name="oracle-weighted-sum",
            command="rate",
            base_seed=707,
            experiment={
                "drift": {"kind": "linear", "parameters": {"alpha1": -2.0}, "x_star": 0.0},
                "noise": _RADEMACHER,
                "b": 1.0,
                "x0": 0.0,
            },
            block={
                "target": "weighted_sum",
                "gamma": 3.0,
                "r": 1.0,
                "n_grid": [16, 18, 20],
                "replicas": 100000,
            },
            oracle=True,
            fixed_seed=True,
        ),
    )
}

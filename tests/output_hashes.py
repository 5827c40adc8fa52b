"""Print the sha256 of each command's output file and standard output, with
its exit code, so two checkouts can be compared byte for byte.

    PYTHONPATH=src python tests/output_hashes.py

Each benchmark workload (perfbench/workloads.py, read only) runs through
sapprox.cli.main at seeds 1-3, and so do `simulate`, `bound` and
`rate --oracle` on both targets for each drift x noise kind, in csv and json,
at --workers 1 and 2.  Every run happens in a temporary directory, which is
removed, so nothing is left behind.  Run it in two checkouts and diff the
two listings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from sapprox import cli  # noqa: E402

SEEDS = (1, 2, 3)

# b g'(x*) is -2 and -4: both in the deviation regime, and `bound` is
# feasible for both
DRIFTS = {
    "linear": {"drift": {"kind": "linear", "parameters": {"alpha1": -1.0},
                         "x_star": 0.25}, "b": 2.0},
    "sine_linear": {"drift": {"kind": "sine_linear", "parameters": {"c1": 3.0, "c2": 1.0},
                              "x_star": -0.5}, "b": 1.0},
}
NOISES = {
    "rademacher": {"kind": "rademacher", "sigma": 1.0},
    "two_point_adaptive": {"kind": "two_point_adaptive", "sigma": 1.0,
                           "p_min": 0.4, "p_max": 0.6},
}
BLOCKS = {
    "simulate": ({"n": 200, "record": True}, []),
    "bound": ({"epsilon": 1.0, "n_grid": [4, 8, 1000], "replicas": 3000,
               "paper_c": None}, []),
    "rate-recursion": ({"target": "recursion", "gamma": 3.0, "r": 1.0,
                        "n_grid": [16, 20, 200], "replicas": 5000}, ["--oracle"]),
    "rate-weighted_sum": ({"target": "weighted_sum", "gamma": 3.0, "r": 1.0,
                           "n_grid": [16, 20, 200], "replicas": 5000}, ["--oracle"]),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(config: dict, argv: list[str]) -> str:
    """Exit code and hashes of one cli.main call, in a fresh directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(config))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            output = Path("out")
            file_hash = _sha(output.read_bytes()) if output.exists() else "-"
        finally:
            os.chdir(cwd)
    return f"exit={rc} output={file_hash} stdout={_sha(out.getvalue().encode())}"


def workload_runs():
    for name, w in WORKLOADS.items():
        for seed in SEEDS:
            yield f"{name} seed={seed}", w.config(seed, "out"), w.argv("config.json")


def kind_runs():
    for drift, noise, (command, (block, flags)) in itertools.product(
            DRIFTS, NOISES, BLOCKS.items()):
        experiment = {**DRIFTS[drift], "noise": NOISES[noise], "x0": 1.0}
        sub = command.split("-")[0]
        for seed in SEEDS:
            config = {"schema_version": 1, "seed": seed, **experiment,
                      sub: {**block, "output": "out"}}
            for fmt in ("csv", "json"):
                for workers in ("1", "2"):
                    argv = [sub, "--config", "config.json", "--format", fmt,
                            "--workers", workers, *flags]
                    yield (f"{command} {drift} {noise} seed={seed} {fmt} "
                           f"workers={workers}", config, argv)


def main() -> int:
    for label, config, argv in (*workload_runs(), *kind_runs()):
        print(f"{label}: {run(config, argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

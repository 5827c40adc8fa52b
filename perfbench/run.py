"""sapprox benchmark: runs one workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; sapprox is imported from `src`, not
installed.  A run repeats whole rounds until S seconds have passed.  Each
round starts a fresh interpreter (perfbench/child.py) that runs the
workload's command once through sapprox.cli.main, then checks every row
of its output (perfbench/checks.py).  With --trace 0 the run reports the
median over rounds of the end-to-end metrics; with --trace 1 each round
also runs the command traced and `python -X importtime`, and the run
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

IMPORT_MODULES = ("sapprox.mdp", "sapprox.engine", "sapprox.weights")

PER_LAYER = {
    **{f"import.{m}.s": "s" for m in IMPORT_MODULES},
    "config.parse_config.s": "s",
    "cli.self.s": "s",
    "engine.count_tail_hits.s": "s",
    "engine.count_tail_hits.calls": "count",
    "engine.replica_steps": "count",
    "engine.ns_per_replica_step": "ns",
    "engine.cpu_per_wall": "s/s",
    "engine.envelope_bound.s": "s",
    "bounds.select_delta.s": "s",
    "bounds.exp_inequality_bound.s": "s",
    "mdp.exact_tail_enumeration.s": "s",
    "mdp.patterns": "count",
    "mdp.patterns_per_s": "1/s",
    "mdp.exact_tail_enumeration.rss_rise_mb": "MB",
    "mdp.estimate_tail.self.s": "s",
    "mdp.stats.s": "s",
    "weights.h_norm.s": "s",
    "weights.h_norm.terms": "count",
    "weights.ns_per_term": "ns",
    "trace.overhead_s": "s",
}

# One run must end within 180 s: no round starts once this could be passed,
# and a traced round of three hung children still ends in time.
RUN_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 45.0


class Tally:
    """Operations attempted and failed in one run; a row check that finds
    a wrong value also makes the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []

    def add(self, errors: list[str], wrong: bool) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.correct = self.correct and not wrong
            self.errors.extend(errors)


def run_command(workload, seed: int, workdir: Path, trace: bool):
    """Run the workload's command once in a fresh interpreter.

    Returns (report, output, error): the child's report and the command's
    output text, or an error message when the command did not complete.
    """
    output = workdir / f"{workload.command}.csv"
    config = workdir / "config.json"
    result = workdir / "result.json"
    config.write_text(json.dumps(workload.config(seed, str(output))))
    for stale in (output, result):
        stale.unlink(missing_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(result), str(int(trace)),
             *workload.argv(str(config))],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, None, f"{workload.command} timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result.exists():
        return None, None, f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    report = json.loads(result.read_text())
    if report["rc"] != 0 or not output.exists():
        return None, None, (f"sapprox {workload.command} exited {report['rc']}: "
                            f"{proc.stderr.strip()[-500:]}")
    report["setup_s"] = report["ready"] - spawned
    return report, output.read_text(), None


def import_times() -> dict[str, float]:
    """Cumulative import time of each IMPORT_MODULES entry, in seconds,
    from `python -X importtime` importing sapprox.cli; a module that was
    not imported is left out, and the run then reports no measurement."""
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sapprox.cli"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
    except subprocess.TimeoutExpired:
        return {}
    times = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in IMPORT_MODULES:
            times[f"import.{parts[2].strip()}.s"] = int(parts[1]) * 1e-6
    return times


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat rounds of the workload for `seconds` and return the result
    object.  Every round attempts the same operations: one command (two
    when tracing) and its row checks."""
    tally = Tally()
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    traced_walls: list[float] = []
    layers: dict[str, list[float]] = {}
    first_output = None
    cfg = workload.config(seed, "")
    runs_dir = HERE / "_runs"
    runs_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs_dir) as tmp:
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            for traced in (False, True) if trace else (False,):
                report, output, error = run_command(workload, seed, Path(tmp), traced)
                wrong = error is None and first_output not in (None, output)
                if wrong:
                    error = "output differs from the first round of this run"
                tally.add([error] if error else [], wrong=wrong)
                if error:
                    for _ in range(checks.operation_count(workload)):
                        tally.add([f"not checked: {error}"], wrong=False)
                    continue
                first_output = first_output or output
                for errors in checks.check_outputs(workload, cfg, output, report["stdout"]):
                    tally.add(errors, wrong=True)
                if traced:
                    traced_walls.append(report["wall_s"])
                    for name, value in report["layers"].items():
                        layers.setdefault(name, []).append(value)
                else:
                    for name in END_TO_END:
                        samples[name].append(report[name])
            if trace:
                for name, value in import_times().items():
                    layers.setdefault(name, []).append(value)
            now = time.monotonic()
            if now - start >= seconds or now - start + (now - round_start) > RUN_LIMIT_S:
                break

    if trace:
        metrics = {name: statistics.median(values) for name, values in layers.items()}
        if traced_walls and samples["wall_s"]:
            metrics["trace.overhead_s"] = (
                statistics.median(traced_walls) - statistics.median(samples["wall_s"])
            )
        units = PER_LAYER
    else:
        metrics = {name: statistics.median(v) for name, v in samples.items() if v}
        units = END_TO_END
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
        "errors": tally.errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "sapprox" / "cli.py").is_file():
        print(f"error: no sapprox sources under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2

    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    errors = result.pop("errors")
    for error in errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(wanted) - set(result["metrics"]))
    if missing:
        print(f"error: no measurement of {', '.join(missing)}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"attempted = {result['attempted']}  failed = {result['failed']}  "
          f"correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

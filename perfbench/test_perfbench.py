"""Fast tests of the benchmark itself: each workload at a reduced size, the
traced run, the independent recomputations against sapprox, and every
correctness check failing on a corrupted row.

    python3 -m pytest perfbench -q
"""

import csv
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "rate-linear": {"n_grid": [1000, 4000], "replicas": 4096},
    "bound-sine-adaptive": {"n_grid": [2000, 4000], "replicas": 1024},
    "oracle-weighted-sum": {"n_grid": [10, 12], "replicas": 4000},
}


def small(name):
    w = WORKLOADS[name]
    return dataclasses.replace(w, block={**w.block, **SMALL[name]})


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real run of each reduced workload: (workload, cfg, csv, stdout)."""
    out = {}
    for name in WORKLOADS:
        w = small(name)
        report, text, error = run.run_command(w, 0, tmp_path_factory.mktemp(name), False)
        assert error is None, error
        out[name] = (w, w.config(0, ""), text, report["stdout"])
    return out


def _rewrite(text, index, **changes):
    rows = checks.read_rows(text)
    rows[index].update({k: str(v) for k, v in changes.items()})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _errors(outputs, name, text=None, stdout=None):
    w, cfg, real_text, real_stdout = outputs[name]
    results = checks.check_outputs(
        w, cfg, real_text if text is None else text,
        real_stdout if stdout is None else stdout,
    )
    assert len(results) == checks.operation_count(w)
    return [e for errs in results for e in errs]


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reduced_workload_passes_every_check(name):
    w = small(name)
    result = run.measure(w, seed=1, seconds=0, trace=False)
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + checks.operation_count(w)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_with_exact_counts():
    w = small("oracle-weighted-sum")
    result = run.measure(w, seed=1, seconds=0, trace=True)
    assert result["errors"] == [] and result["failed"] == 0
    assert result["attempted"] == 2 * (1 + checks.operation_count(w))
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    grid, replicas = w.block["n_grid"], w.block["replicas"]
    assert metrics["engine.replica_steps"] == replicas * sum(n + 1 for n in grid)
    assert metrics["engine.count_tail_hits.calls"] == len(grid)
    assert metrics["mdp.patterns"] == sum(1 << (n + 1) for n in grid)
    assert metrics["weights.h_norm.terms"] == sum(n + 1 for n in grid)
    for name in ("import.sapprox.mdp.s", "mdp.exact_tail_enumeration.s",
                 "mdp.stats.s", "cli.self.s", "config.parse_config.s"):
        assert metrics[name] > 0, name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_runs"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rate-linear",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- the independent recomputations agree with sapprox ---------------------


def test_h_norm_matches_sapprox():
    from sapprox.weights import h_norm

    for b, c, n in ((2.0, -2.0, 1000), (1.0, -4.0, 300), (0.7, -1.3, 5000)):
        assert math.isclose(checks.h_norm(b, c, n), h_norm(b, c, n), rel_tol=1e-11)


def test_meet_in_the_middle_matches_full_enumeration():
    from sapprox.mdp import enumerate_signed_sum_tail

    rng = np.random.default_rng(5)
    for m in (1, 2, 7, 12):
        w = list(rng.uniform(0.0, 1.0, m))
        t = 0.3 * sum(w)
        assert checks.signed_sum_tail(w, t) == enumerate_signed_sum_tail(w, t)


def test_envelope_and_bound_match_sapprox():
    from sapprox.bounds import exp_inequality_bound, select_delta
    from sapprox.model import ProblemSpec, SineLinearDrift, TwoPointAdaptive

    spec = ProblemSpec(SineLinearDrift(3.0, 1.0), TwoPointAdaptive(1.0, 0.4, 0.6), 1.0, 0.5)
    choice = select_delta(spec, 2.0, n_probe=3000)
    ku = checks.noise_bound({"kind": "two_point_adaptive", "sigma": 1.0,
                             "p_min": 0.4, "p_max": 0.6})
    assert math.isclose(checks.envelope_sup(1.0, 2.0, 4.0, ku, 0.5, 3000), choice.F,
                        rel_tol=1e-12)
    want = exp_inequality_bound(spec, 2.0, 3000, choice).value
    assert math.isclose(checks.exp_bound(1.0, ku, 2.0, choice.delta, 3000), want,
                        rel_tol=1e-10)


# --- every check fails on a corrupted row ----------------------------------


def test_real_outputs_pass(outputs):
    for name in WORKLOADS:
        assert _errors(outputs, name) == [], name


@pytest.mark.parametrize("name", ["rate-linear", "oracle-weighted-sum"])
@pytest.mark.parametrize("field,change", [
    ("hits", lambda v: int(v) + 1),
    ("threshold", lambda v: float(v) * 1.01),
    ("b_n", lambda v: float(v) * 1.01),
    ("ci_low", lambda v: float(v) * 1.01),
    ("ci_high", lambda v: float(v) * 1.01),
    ("rate", lambda v: float(v) * 1.01),
    ("gaussian_rate", lambda v: float(v) * 1.01),
    ("replicas", lambda v: int(v) + 1),
])
def test_rate_row_corruption_is_caught(outputs, name, field, change):
    text = outputs[name][2]
    row = checks.read_rows(text)[1]
    assert _errors(outputs, name, _rewrite(text, 1, **{field: change(row[field])}))


def test_rate_footer_and_missing_rows_are_caught(outputs):
    text = outputs["rate-linear"][2]
    assert _errors(outputs, "rate-linear", _rewrite(text, 2, limit_rate=-0.4))
    assert _errors(outputs, "rate-linear", text.rsplit("\n", 3)[0] + "\n")


def test_zero_hits_is_caught(outputs):
    text = outputs["rate-linear"][2]
    assert _errors(outputs, "rate-linear",
                   _rewrite(text, 1, hits=0, p_hat=0.0, ci_low=0.0, rate="-inf"))


def test_mdp_gate_catches_a_rate_far_from_the_gaussian_reference(outputs):
    w, cfg, text, _ = outputs["rate-linear"]
    row = checks.read_rows(text)[1]
    replicas, b_n = int(row["replicas"]), float(row["b_n"])
    hits = max(1, int(row["hits"]) // 20)  # a self-consistent row, rate far too low
    lo, hi = checks.clopper_pearson(hits, replicas)
    bad = _rewrite(text, 1, hits=hits, p_hat=repr(hits / replicas), ci_low=repr(lo),
                   ci_high=repr(hi), rate=repr(math.log(hits / replicas) / b_n**2))
    errors = _errors(outputs, "rate-linear", bad)
    assert len(errors) == 1 and "Gaussian reference" in errors[0]


@pytest.mark.parametrize("field,change", [
    ("delta", lambda v: float(v) * 1.01),
    ("bound", lambda v: float(v) * 1.01),
    ("empirical", lambda v: float(v) + 1.0 / 1024),
    ("ci_high", lambda v: float(v) * 1.01),
    ("epsilon", lambda v: float(v) + 1.0),
    ("paper_form", lambda v: 0.5),
])
def test_bound_row_corruption_is_caught(outputs, field, change):
    text = outputs["bound-sine-adaptive"][2]
    row = checks.read_rows(text)[0]
    assert _errors(outputs, "bound-sine-adaptive",
                   _rewrite(text, 0, **{field: change(row[field])}))


def test_empirical_tail_above_the_bound_is_caught(outputs):
    w, cfg, text, _ = outputs["bound-sine-adaptive"]
    row = checks.read_rows(text)[1]
    replicas = int(row["replicas"])
    hits = math.ceil(float(row["bound"]) * replicas) + 20
    lo, hi = checks.clopper_pearson(hits, replicas)
    bad = _rewrite(text, 1, empirical=repr(hits / replicas), ci_low=repr(lo), ci_high=repr(hi))
    errors = _errors(outputs, "bound-sine-adaptive", bad)
    assert len(errors) == 1 and "exceeds the bound" in errors[0]


def test_oracle_line_corruption_is_caught(outputs):
    w, cfg, text, stdout = outputs["oracle-weighted-sum"]
    n = w.oracle_ns()[0]
    line = stdout.splitlines()[0]
    exact = line.split("exact_p=")[1].split()[0]
    hits = line.split("hits=")[1].split()[0]
    off_by_one = repr(float(Fraction(exact) + Fraction(1, 1 << (n + 1))))
    for bad in (
        line.replace(f"exact_p={exact}", f"exact_p={off_by_one}"),
        line.replace(f"hits={hits}", f"hits={int(hits) + 1}"),
        line.replace("band=[", "band=[1"),
        line.replace(" ok", " MISMATCH"),
        "",
    ):
        assert _errors(outputs, "oracle-weighted-sum",
                       stdout=stdout.replace(line, bad, 1)), bad

"""Acceptance suite: one test per criterion, at the stated tolerances and
runtime budgets.  Each prints a pass/fail line (echoed again in the pytest
terminal summary)."""

import json
import math
import subprocess
import sys

import numpy as np

from acceptance_report import criterion
from references import batch_final_deviations, h_asymptotic, weighted_sums_over_signs
from sapprox.bounds import azuma_tail, exp_inequality_bound, select_delta
from sapprox.cli import main
from sapprox.engine import (
    count_tail_hits,
    envelope_bound,
    simulate,
    taylor_decompose,
)
from sapprox.mdp import (
    Schedule,
    binomial_band,
    estimate_tail,
    gaussian_reference,
    rate_curve,
)
from sapprox.model import (
    LinearDrift,
    ProblemSpec,
    Rademacher,
    SineLinearDrift,
    TwoPointAdaptive,
)
from sapprox.weights import beta, beta_bounds, h_norm


def _sign_mags(weights_arr):
    """|sum w_k xi_k| over every sign pattern, chunked."""
    w = np.asarray(weights_arr, dtype=np.float64)
    m = len(w)
    total = 1 << m
    out = np.empty(total)
    chunk = 1 << 20
    cols = np.arange(m, dtype=np.uint64)[None, :]
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        idx = np.arange(lo, hi, dtype=np.uint64)[:, None]
        signs = 2.0 * ((idx >> cols) & np.uint64(1)).astype(np.float64) - 1.0
        out[lo:hi] = np.abs(signs @ w)
    return out


def _recursion_weights(spec, n):
    """b * beta(c, k+1, n) / (k+1) for k = 0..n via one backward pass."""
    j = np.arange(n + 1, dtype=np.float64)
    f = 1.0 + spec.c / (j + 1.0)
    suffix = np.ones(n + 1)
    if n >= 1:
        suffix[:n] = np.cumprod(f[:0:-1])[::-1]
    return spec.b * suffix / (j + 1.0)


def _support_midpoints(mags, count):
    vals = np.unique(mags)
    scale = max(1.0, float(vals[-1]))
    gaps = np.flatnonzero(np.diff(vals) > 1e-9 * scale)
    mids = 0.5 * (vals[gaps] + vals[gaps + 1])
    pick = np.linspace(0, len(mids) - 1, count).astype(int)
    return mids[pick]


def test_criterion_01_product_sandwich():
    with criterion(1, "product sandwich bounds", 10.0):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 10_000:
            c = float(-rng.uniform(0.01, 5.0))
            k_min = math.ceil(max(-2.0 * c - 1.0, 1.0))
            n = int(rng.integers(1, 10_001))
            if k_min > n:
                continue
            k = int(rng.integers(k_min, n + 1))
            lower, upper = beta_bounds(c, k, n)
            val = beta(c, k, n)
            assert lower <= val <= upper, (c, k, n, lower, val, upper)
            checked += 1


def test_criterion_02_normalizer_limit():
    with criterion(2, "normalizer large-n limit", 30.0):
        grid = (10**3, 10**4, 10**5, 10**6)
        for c in (-1.2, -1.5, -2.0, -3.0):
            devs = [
                abs(h_norm(1.0, c, n) / h_asymptotic(1.0, c, n) - 1.0) for n in grid
            ]
            assert devs[-1] <= 0.05, (c, devs)
            assert all(b < a for a, b in zip(devs, devs[1:])), (c, devs)


def test_criterion_03_decomposition_identity():
    with criterion(3, "three-term decomposition identity", 20.0):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            n = int(rng.integers(1, 1001))
            seed = int(rng.integers(0, 2**62))
            spec = ProblemSpec(
                SineLinearDrift(2.0, 1.0, 0.0),
                Rademacher(1.0),
                float(rng.uniform(0.5, 2.5)),
                float(rng.normal(0.0, 2.0)),
            )
            traj = simulate(spec, n, seed)
            dec = taylor_decompose(traj)
            dev = traj.final_deviation
            err = abs(dec.total - dev) / max(1.0, abs(dev))
            assert err <= 1e-10, (n, seed, err)
        lin = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 2.0, 1.0)
        for seed in range(100):
            dec = taylor_decompose(simulate(lin, 200, seed))
            assert dec.i2 == 0.0


def test_criterion_04_exact_second_moment():
    with criterion(4, "normalized noise-sum second moment", 60.0):
        spec = ProblemSpec(LinearDrift(-2.0, 0.0), Rademacher(1.0), 1.0, 0.0)
        for n in range(0, 11):
            m = n + 1
            idx = np.arange(1 << m, dtype=np.uint64)[:, None]
            bits = (idx >> np.arange(m, dtype=np.uint64)[None, :]) & np.uint64(1)
            signs = 2.0 * bits.astype(np.float64) - 1.0
            s = weighted_sums_over_signs(spec, n, signs)
            h = h_norm(spec.b, spec.c, n)
            m2 = float(np.mean((h * s) ** 2))
            assert abs(m2 - 1.0) <= 1e-12, (n, m2)
        # history-dependent noise: statistical check at 4 standard errors
        tpa = ProblemSpec(
            LinearDrift(-2.0, 0.0), TwoPointAdaptive(1.0, 0.3, 0.7), 1.0, 0.0
        )
        n = 1000
        replicas = 100_000
        devs = batch_final_deviations(tpa, "weighted_sum", n, 404, replicas)
        y = (h_norm(tpa.b, tpa.c, n) * devs) ** 2
        mean = float(np.mean(y))
        se = float(np.std(y, ddof=1)) / math.sqrt(replicas)
        assert abs(mean - 1.0) <= 4.0 * se, (mean, se)


def test_criterion_05_exponential_inequality_domination():
    with criterion(5, "exponential bound dominates Monte Carlo", 300.0):
        spec = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 2.0, 1.0)
        replicas = 100_000
        for eps in (0.5, 1.0):
            choice = select_delta(spec, eps, n_probe=10_000)
            assert choice.feasible and choice.feasible_from <= 1000, choice
            for n in (1000, 10_000):
                tb = exp_inequality_bound(spec, eps, n, choice)
                env, _ = envelope_bound(spec, n)
                res = count_tail_hits(
                    spec, "recursion", n, 505, replicas, eps,
                    inclusive=True, envelope=env,
                )
                empirical = res.hits / replicas
                slack = 3.0 * math.sqrt(tb.value / replicas)
                assert empirical <= tb.value + slack, (eps, n, empirical, tb.value)
                assert res.envelope_violations == 0, (eps, n)


def test_criterion_06_azuma_validity():
    with criterion(6, "sub-Gaussian bound vs exact enumeration", 120.0):
        rng = np.random.default_rng(606)
        spec = ProblemSpec(LinearDrift(-2.0, 0.0), Rademacher(1.0), 1.0, 0.0)
        weight_sets = [
            _recursion_weights(spec, 13),
            _recursion_weights(spec, 20),
            rng.uniform(0.05, 1.0, size=16),
            rng.uniform(0.05, 1.0, size=21),
        ]
        for w in weight_sets:
            mags = _sign_mags(w)
            total = len(mags)
            ranges = [(-abs(x), abs(x)) for x in w]
            for t in np.linspace(0.0, 1.02 * float(np.sum(np.abs(w))), 100):
                exact = np.count_nonzero(mags > t) / total
                bound = azuma_tail(float(t), ranges)
                assert exact <= bound, (len(w), t, exact, bound)


def test_criterion_07_monte_carlo_vs_enumeration():
    with criterion(7, "Monte Carlo inside exact binomial band", 120.0):
        spec = ProblemSpec(LinearDrift(-2.0, 0.0), Rademacher(1.0), 1.0, 0.0)
        replicas = 100_000
        b_n = 1.5
        for n in (8, 12, 16):
            h = h_norm(spec.b, spec.c, n)
            mags = _sign_mags(spec.noise.sigma * _recursion_weights(spec, n))
            for t in _support_midpoints(mags, 10):
                exact = float(np.count_nonzero(mags > t) / len(mags))
                est = estimate_tail(
                    "weighted_sum", spec, n, float(t) * h / b_n, b_n,
                    replicas, 707,
                )
                lo, hi = binomial_band(exact, replicas, confidence=0.999)
                assert lo <= est.hits <= hi, (n, t, exact, est.hits, lo, hi)


def test_criterion_08_deviation_rate_tracking():
    with criterion(8, "moderate-deviation rate tracking", 1800.0):
        ref30 = gaussian_reference(1.0, 30.0, 1.0)
        assert abs(ref30.rate / -0.5 - 1.0) <= 0.01, ref30
        spec = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 2.0, 1.0)
        sched = Schedule(gamma=3.0, n_grid=(10**3, 10**4, 10**5), r=1.0)
        for target, seed in (("recursion", 808), ("weighted_sum", 809)):
            # hit counts do not depend on workers (criterion 9 checks it)
            curve = rate_curve(target, spec, sched, 10**6, seed, workers=2)
            for pt in curve:
                assert pt.rate < 0.0, (target, pt)
                g = pt.gaussian_rate
                b2 = pt.b_n * pt.b_n
                rate_lo = (
                    -math.inf if pt.ci_low == 0.0 else math.log(pt.ci_low) / b2
                )
                rate_hi = math.log(pt.ci_high) / b2
                assert rate_hi >= g - 0.1 and rate_lo <= g + 0.1, (
                    target, pt.n, rate_lo, rate_hi, g,
                )


def _write_cfg(tmp_path, name, **kwargs):
    cfg = {
        "schema_version": 1,
        "seed": 909,
        "drift": {"kind": "linear", "parameters": {"alpha1": -1.0}, "x_star": 0.0},
        "noise": {"kind": "rademacher", "sigma": 1.0},
        "b": 2.0,
        "x0": 1.0,
    }
    cfg.update(kwargs)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_criterion_09_subcommand_determinism(tmp_path, capsys):
    with criterion(9, "byte-identical subcommand output", 300.0):
        out = {}
        cfgs = {
            "simulate": _write_cfg(
                tmp_path, "sim.json",
                simulate={"n": 50, "record": True,
                          "output": str(tmp_path / "traj.csv")},
            ),
            "bound": _write_cfg(
                tmp_path, "bound.json",
                bound={"epsilon": 3.0, "n_grid": [500, 1000], "replicas": 20000,
                       "paper_c": 1.0, "output": str(tmp_path / "bound.csv")},
            ),
            "rate": _write_cfg(
                tmp_path, "rate.json",
                rate={"target": "recursion", "gamma": 3.0, "r": 1.0,
                      "n_grid": [200, 500], "replicas": 20000,
                      "output": str(tmp_path / "rate.csv")},
            ),
        }
        for cmd, cfg_path in cfgs.items():
            runs = []
            for workers in ("1", "4", "1", "4"):
                rc = main([cmd, "--config", str(cfg_path), "--workers", workers])
                assert rc == 0
                captured = capsys.readouterr()
                file_bytes = (tmp_path / f"{'traj' if cmd == 'simulate' else cmd}.csv").read_bytes()
                runs.append((captured.out, file_bytes))
            assert all(r == runs[0] for r in runs[1:]), cmd
            out[cmd] = runs[0]
        # selftest: stdout identical across two runs
        assert main(["selftest"]) == 0
        first = capsys.readouterr().out
        assert main(["selftest"]) == 0
        second = capsys.readouterr().out
        assert first == second


def test_criterion_10_selftest_fresh_build():
    with criterion(10, "selftest under a minute", 60.0):
        proc = subprocess.run(
            [sys.executable, "-m", "sapprox.cli", "selftest"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.count("PASS") == 4

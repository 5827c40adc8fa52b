"""Fast invariant suites for the selftest subcommand.

Each suite re-derives a core guarantee from scratch in a few seconds:
the product sandwich, the exact three-term decomposition identity, the
enumerated second moment of the normalized noise sum, and the
sub-Gaussian bound against exact enumerated tails.  Checks go through
module attributes so an injected corruption (e.g. a monkeypatched beta)
is caught by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from sapprox import bounds, engine, mdp, weights
from sapprox.model import LinearDrift, ProblemSpec, Rademacher, SineLinearDrift


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _check_sandwich() -> Optional[str]:
    rng = np.random.default_rng(90210)
    checked = 0
    while checked < 1500:
        c = float(-rng.uniform(0.01, 5.0))
        k_min = math.ceil(max(-2.0 * c - 1.0, 1.0))
        n = int(rng.integers(1, 1500))
        if k_min > n:
            continue
        k = int(rng.integers(k_min, n + 1))
        lower, upper = weights.beta_bounds(c, k, n)
        val = weights.beta(c, k, n)
        if not lower <= val <= upper:
            return f"violated at c={c}, k={k}, n={n}: {lower} <= {val} <= {upper}"
        checked += 1
    return None


def _check_decomposition() -> Optional[str]:
    rng = np.random.default_rng(1729)
    spec_lin = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 2.0, 1.0)
    traj = engine.simulate(spec_lin, 100, 4, record=True)
    dec = engine.taylor_decompose(traj)
    if dec.i2 != 0.0:
        return f"linear drift remainder term is {dec.i2}, expected exactly 0"
    for _ in range(25):
        n = int(rng.integers(1, 250))
        seed = int(rng.integers(0, 2**63))
        spec = ProblemSpec(
            SineLinearDrift(2.0, 1.0, 0.0), Rademacher(1.0), 1.6, float(rng.normal())
        )
        traj = engine.simulate(spec, n, seed, record=True)
        dec = engine.taylor_decompose(traj)
        dev = traj.final_deviation
        err = abs(dec.total - dev) / max(1.0, abs(dev))
        if err > 1e-10:
            return f"identity off by {err} at n={n}, seed={seed}"
    return None


def _check_second_moment() -> Optional[str]:
    spec = ProblemSpec(LinearDrift(-2.0, 0.0), Rademacher(1.0), 1.0, 0.0)
    for n in range(0, 11):
        # half the patterns; the other half are their exact negations
        f, a = weights.recurrence_factors(spec.b, spec.c, n)
        s = mdp._pattern_values(f, a * spec.noise.sigma, np.arange(1 << n))
        h = weights.h_norm(spec.b, spec.c, n)
        m2 = float(np.mean((h * s) ** 2))
        if abs(m2 - 1.0) > 1e-12:
            return f"E[(h S)^2] = {m2} at n={n}, expected 1 to 1e-12"
    return None


def _check_azuma_enumeration() -> Optional[str]:
    rng = np.random.default_rng(55)
    weight_sets = [rng.uniform(0.1, 1.0, size=m) for m in (3, 7, 11)]
    spec = ProblemSpec(LinearDrift(-2.0, 0.0), Rademacher(1.0), 1.0, 0.0)
    for n in (6, 10):
        weight_sets.append(weights.recursion_weights(spec, n)[1])
    for w in weight_sets:
        total = float(np.sum(np.abs(w)))
        for t in np.linspace(0.0, 1.1 * total, 25):
            exact = float(mdp.enumerate_signed_sum_tail(w, float(t)))
            bound = bounds.azuma_tail(float(t), [(-abs(x), abs(x)) for x in w])
            if exact > bound:
                return f"exact tail {exact} exceeds bound {bound} at t={t}"
    return None


SUITES: list[tuple[str, Callable[[], Optional[str]]]] = [
    ("weights.sandwich", _check_sandwich),
    ("engine.decomposition", _check_decomposition),
    ("engine.second_moment", _check_second_moment),
    ("bounds.azuma_enumeration", _check_azuma_enumeration),
]


def run_suites() -> list[SuiteResult]:
    results = []
    for name, check in SUITES:
        try:
            failure = check()
        except Exception as exc:  # a crash is a failure, not an abort
            failure = f"raised {type(exc).__name__}: {exc}"
        results.append(
            SuiteResult(name=name, passed=failure is None, detail=failure or "ok")
        )
    return results

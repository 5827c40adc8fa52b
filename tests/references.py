"""Independent references that tests compare the program against."""

import numpy as np

from sapprox import engine


def weighted_sums_over_signs(spec, n: int, signs: np.ndarray) -> np.ndarray:
    """Weighted-sum statistic for explicit sign patterns: the per-pattern
    reference that the enumeration oracles in sapprox.mdp match bitwise.

    signs has shape (m, n+1) with entries +-1; returns the m statistics for
    Rademacher noise U_{k+1} = sigma * signs[:, k], evaluated by the forward
    recurrence of the weighted_sum target with its factors spelled out here, so
    it also checks weights.recurrence_factors.
    """
    spec.require_mdp_regime()
    if signs.ndim != 2 or signs.shape[1] != n + 1:
        raise ValueError(f"signs must have shape (m, {n + 1})")
    c = spec.c
    sigma = spec.noise.sigma
    s = np.zeros(signs.shape[0])
    for k in range(n + 1):
        fk = 1.0 + c / (k + 1.0)
        ck = spec.b / (k + 1.0)
        s = fk * s + ck * (sigma * signs[:, k])
    return s


def sign_pattern_sums(factors, steps) -> np.ndarray:
    """s_m of s_{k+1} = f_k s_k + xi_k a_k, s_0 = 0, for each of the 2^(m-1)
    sign patterns xi in {-1, +1}^m with xi_0 = +1 (m = len(steps) >= 1), by
    doubling: level k+1 holds f_k s + a_k in its first half and f_k s - a_k
    in its second, so entry i has xi_k = -1 exactly when bit k-1 of i is set.

    Each value takes the two roundings per step of the pattern evaluated on
    its own; this is the bitwise reference for the enumeration oracles.
    """
    m = len(steps)
    s = np.empty(1 << (m - 1))
    s[0] = steps[0]  # f_0 * 0 + a_0
    size = 1
    for k in range(1, m):
        lo, hi = s[:size], s[size:2 * size]
        np.multiply(lo, factors[k], out=hi)
        hi -= steps[k]
        lo *= factors[k]
        lo += steps[k]
        size *= 2
    return s


def drift_condition_failures(drift, halfwidth: float, points: int) -> list[str]:
    """Names of the drift conditions that fail on a uniform grid of points
    around x*: "lower_envelope" and "upper_envelope" (K1|u| <= |g| <= K2|u|),
    "curvature" (|g''| <= Ka by a central second difference with step 1e-4,
    to 1e-4) and "push_back_sign" (u g <= 0), with u = x - x*."""
    xs = drift.x_star + np.linspace(-halfwidth, halfwidth, points)
    u = xs - drift.x_star
    g = drift(xs)
    # slack for float rounding only; the inequalities themselves are exact
    slack = 1e-12 * np.maximum(1.0, np.abs(u))
    h = 1e-4
    gpp = (drift(xs + h) - 2.0 * g + drift(xs - h)) / (h * h)
    failed = {
        "lower_envelope": np.abs(g) < drift.K1 * np.abs(u) - slack,
        "upper_envelope": np.abs(g) > drift.K2 * np.abs(u) + slack,
        "curvature": np.abs(gpp) > drift.Ka + 1e-4,
        "push_back_sign": u * g > slack,
    }
    return [name for name, bad in failed.items() if bad.any()]


def batch_final_deviations(spec, target: str, n: int, seed: int, replicas: int) -> np.ndarray:
    """Final deviations of replicas 0..replicas-1 in replica order, from the
    block loop that the tail counts run, block by block as they split the
    replicas: the rows that tests compare with engine.final_deviation."""
    stat = engine._target(spec, target)
    return np.concatenate(engine._map_blocks(
        lambda rng: engine._run_block(spec, stat, (n,), seed, *rng)[0][0], replicas, 1))

"""Moderate-deviation experiments: Monte Carlo tail estimation at speed
b_n^2, exact small-horizon enumeration oracles, the exact Gaussian
reference tail, and rate curves approaching -r^2 / (2 sigma^2).

Both enumeration oracles run one doubling kernel (_sign_pattern_sums) over
the recurrence s_{k+1} = f_k s_k + xi_k a_k: 2^(m-1) values and 8 * 2^(m-1)
bytes for m sign terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from scipy import stats

from sapprox.engine import count_tail_hits
from sapprox.model import ParameterError, ProblemSpec, Rademacher
from sapprox.weights import h_norm, recurrence_factors

ENUMERATION_MAX_N = 22


def horizon_grid(n_grid: Sequence[int]) -> tuple[int, ...]:
    """n_grid as a tuple, checked non-empty, >= 1 and strictly increasing."""
    grid = tuple(n_grid)
    if not grid:
        raise ParameterError("n_grid must not be empty", "n_grid")
    if any(n < 1 for n in grid):
        raise ParameterError(f"horizons must be >= 1, got {grid}", "n_grid")
    if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
        raise ParameterError(f"n_grid must be strictly increasing, got {grid}", "n_grid")
    return grid


@dataclass(frozen=True)
class Schedule:
    """Deviation schedule: speed b_n = n^(1/(2(1+gamma))), grid of horizons,
    and the deviation level r."""

    gamma: float
    n_grid: tuple[int, ...]
    r: float

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ParameterError(f"gamma must be positive, got {self.gamma}", "gamma")
        if not self.r > 0:
            raise ParameterError(f"r must be positive, got {self.r}", "r")
        object.__setattr__(self, "n_grid", horizon_grid(self.n_grid))

    def b(self, n: int) -> float:
        return float(n) ** (1.0 / (2.0 * (1.0 + self.gamma)))

    def limit_rate(self, sigma: float) -> float:
        return -self.r * self.r / (2.0 * sigma * sigma)


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo estimate of P(h_n |statistic| > r b_n) with exact 95%
    binomial interval and the implied rate log(p_hat) / b_n^2.

    rate is -inf when no replica hit (distinct from any numeric rate);
    reference_rate is the exact Gaussian tail rate at the same (r, b_n).
    """

    n: int
    b_n: float
    threshold: float
    hits: int
    replicas: int
    p_hat: float
    ci_low: float
    ci_high: float
    rate: float
    reference_rate: float


def clopper_pearson(hits: int, total: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval for hits/total."""
    if not 0 <= hits <= total:
        raise ValueError(f"need 0 <= hits <= total, got {hits}/{total}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    lo = 0.0 if hits == 0 else float(stats.beta.ppf(alpha / 2.0, hits, total - hits + 1))
    hi = 1.0 if hits == total else float(stats.beta.ppf(1.0 - alpha / 2.0, hits + 1, total - hits))
    return lo, hi


def binomial_band(p: float, total: int, confidence: float = 0.999) -> tuple[int, int]:
    """Central acceptance region on counts for Binomial(total, p)."""
    alpha = 1.0 - confidence
    lo = int(stats.binom.ppf(alpha / 2.0, total, p)) if p > 0 else 0
    hi = int(stats.binom.ppf(1.0 - alpha / 2.0, total, p)) if p < 1 else total
    return lo, hi


class GaussianReference(NamedTuple):
    tail: float
    rate: float


def gaussian_reference(r: float, b_n: float, sigma: float) -> GaussianReference:
    """Exact tail of the normalized statistic under Gaussian noise.

    By construction of h_n the normalized statistic is exactly
    N(0, sigma^2), so tail = 2 (1 - Phi(r b_n / sigma)); the rate uses the
    log survival function and stays finite far past float underflow.
    """
    if not (r > 0 and b_n > 0 and sigma > 0):
        raise ValueError("r, b_n and sigma must all be positive")
    z = r * b_n / sigma
    tail = 2.0 * float(stats.norm.sf(z))
    rate = (math.log(2.0) + float(stats.norm.logsf(z))) / (b_n * b_n)
    return GaussianReference(tail=tail, rate=rate)


def estimate_tail(
    target: str,
    spec: ProblemSpec,
    n: int,
    r: float,
    b_n: float,
    replicas: int,
    seed: int,
    workers: int = 1,
) -> TailEstimate:
    """Monte Carlo estimate of P(h_n |statistic| > r b_n).

    target is "recursion" (final deviation of the full recursion) or
    "weighted_sum".  The event is evaluated in raw deviation units against
    threshold = r b_n / h_n.  Deterministic given all arguments.
    """
    spec.require_mdp_regime()
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if r < 0 or not b_n > 0:
        raise ValueError(f"need r >= 0 and b_n > 0, got r={r}, b_n={b_n}")
    h = h_norm(spec.b, spec.c, n)
    threshold = r * b_n / h
    result = count_tail_hits(
        spec, target, n, seed, replicas, threshold, inclusive=False, workers=workers
    )
    p_hat = result.hits / replicas
    ci_low, ci_high = clopper_pearson(result.hits, replicas)
    rate = -math.inf if result.hits == 0 else math.log(p_hat) / (b_n * b_n)
    reference = gaussian_reference(r, b_n, spec.noise.sigma) if r > 0 else GaussianReference(1.0, 0.0)
    return TailEstimate(
        n=n,
        b_n=b_n,
        threshold=threshold,
        hits=result.hits,
        replicas=replicas,
        p_hat=p_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        rate=rate,
        reference_rate=reference.rate,
    )


def _sign_pattern_sums(factors: Sequence[float], steps: Sequence[float]) -> np.ndarray:
    """s_m of s_{k+1} = f_k s_k + xi_k a_k, s_0 = 0, for each of the 2^(m-1)
    sign patterns xi in {-1, +1}^m with xi_0 = +1 (m = len(steps) >= 1).

    The patterns with xi_0 = -1 give exactly the negated sums, because
    round-to-nearest is symmetric in sign, so this half fixes every |s_m|.
    Level k+1 is built in place by doubling: the first `size` entries
    become f_k s + a_k and the next `size` become f_k s - a_k.  Each value
    takes the same two roundings per step as the pattern evaluated on its
    own, so results are bitwise those of the per-pattern recurrence.
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


def _pattern_tail(factors: Sequence[float], steps: Sequence[float], threshold: float) -> Fraction:
    """Exact fraction of the 2^m sign patterns with |s_m| > threshold."""
    m = len(steps)
    if m == 0:
        return Fraction(int(0.0 > threshold))  # the one empty sum
    s = _sign_pattern_sums(factors, steps)
    hits = np.count_nonzero(np.abs(s, out=s) > threshold)
    return Fraction(2 * int(hits), 1 << m)


def enumerate_signed_sum_tail(weights: Sequence[float], threshold: float) -> Fraction:
    """Exact P(|sum_k w_k xi_k| > t) for independent fair signs xi_k.

    Enumerates all 2^m sign patterns, each summed left to right in float64
    (the doubling kernel with f_k = 1 and a_k = w_k); the count over 2^m is
    returned as an exact dyadic fraction.
    """
    w = np.asarray(weights, dtype=np.float64)
    if len(w) > ENUMERATION_MAX_N + 1:
        raise ValueError(f"too many terms for enumeration: {len(w)}")
    return _pattern_tail(np.ones(len(w)), w, threshold)


def exact_tail_enumeration(spec: ProblemSpec, n: int, threshold: float) -> Fraction:
    """Exact P(|weighted sum| > threshold) for Rademacher noise by full
    enumeration of the 2^(n+1) sign patterns.

    The recurrence runs on (f_k, a_k sigma) from weights.recurrence_factors,
    so every pattern's statistic is bitwise the value of the forward
    recurrence that the Monte Carlo path evaluates, and enumeration and
    estimate agree at float level, not just in distribution.  Costs 2^n
    float64 values (8 * 2^n bytes) and O(2^n) flops.  Requires n <= 22.
    """
    if not isinstance(spec.noise, Rademacher):
        raise ValueError("enumeration oracle requires Rademacher noise")
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"n={n} too large for enumeration (max {ENUMERATION_MAX_N})")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    spec.require_mdp_regime()
    factors, steps = recurrence_factors(spec.b, spec.c, n)
    return _pattern_tail(factors, steps * spec.noise.sigma, threshold)


@dataclass(frozen=True)
class RateCurve:
    points: tuple[TailEstimate, ...]
    limit_rate: float


def rate_curve(
    target: str,
    spec: ProblemSpec,
    schedule: Schedule,
    replicas: int,
    seed: int,
    workers: int = 1,
) -> RateCurve:
    """One TailEstimate per grid horizon plus the limit -r^2/(2 sigma^2).

    -inf rates (zero hits) are reported as such, never dropped.
    """
    points = tuple(
        estimate_tail(
            target, spec, n, schedule.r, schedule.b(n), replicas, seed, workers=workers
        )
        for n in schedule.n_grid
    )
    return RateCurve(points=points, limit_rate=schedule.limit_rate(spec.noise.sigma))

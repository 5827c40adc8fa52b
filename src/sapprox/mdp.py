"""Moderate-deviation experiments: Monte Carlo tail estimation at speed
b_n^2, exact small-horizon enumeration oracles, the exact Gaussian
reference tail, and rate curves approaching -r^2 / (2 sigma^2).

Both enumeration oracles count the sign patterns of the recurrence
s_{k+1} = f_k s_k + xi_k a_k by one split count (_split_tail, Horowitz and
Sahni's meet in the middle): the signed sums of each half of the closed-form
weights are listed and sorted, and |a + b| > t is counted with
searchsorted.  Every pair within a proven rounding guard of +-t is
re-evaluated by the per-pattern recurrence, so the counts are bitwise those
of the forward recurrence, in about 2^(m/2) time and memory for m terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import special

from sapprox.engine import UNIT_ROUNDOFF, count_tail_hits, recurrence_error
from sapprox.model import ParameterError, ProblemSpec, Rademacher
from sapprox.weights import h_norm, recurrence_factors, recursion_weights

ENUMERATION_MAX_N = 40
# left sums and undecided pairs are handled this many at a time
_SPLIT_CHUNK = 1 << 16


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
    lo = 0.0 if hits == 0 else float(special.betaincinv(hits, total - hits + 1, alpha / 2.0))
    hi = 1.0 if hits == total else float(special.betaincinv(hits + 1, total - hits, 1.0 - alpha / 2.0))
    return lo, hi


def _binomial_quantile(q: float, total: int, p: float) -> int:
    """Smallest k with P(Binomial(total, p) <= k) >= q, for 0 < q < 1 and
    0 < p < 1: an integer bisection on special.bdtr.  P(X <= -1) = 0 < q
    and P(X <= total) = 1 >= q bracket the answer."""
    below, at_least = -1, total
    while at_least - below > 1:
        k = (below + at_least) // 2
        if special.bdtr(k, total, p) >= q:
            at_least = k
        else:
            below = k
    return at_least


def binomial_band(p: float, total: int, confidence: float = 0.999) -> tuple[int, int]:
    """Central acceptance region on counts for Binomial(total, p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    lo = _binomial_quantile(alpha / 2.0, total, p) if p > 0 else 0
    hi = _binomial_quantile(1.0 - alpha / 2.0, total, p) if p < 1 else total
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
    tail = 2.0 * float(special.ndtr(-z))
    rate = (math.log(2.0) + float(special.log_ndtr(-z))) / (b_n * b_n)
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
    if not (r >= 0 and 0 < b_n < math.inf):  # written so that NaN fails
        raise ValueError(f"need r >= 0 and finite b_n > 0, got r={r}, b_n={b_n}")
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


def _pattern_values(factors: Sequence[float], steps: Sequence[float],
                    patterns: np.ndarray) -> np.ndarray:
    """s_m of s_{k+1} = f_k s_k + xi_k a_k, s_0 = 0 (m = len(steps) >= 1),
    for each sign pattern: xi_0 = +1, and xi_k = -1 exactly when bit k-1 of
    the pattern is set.

    Each value takes the same two roundings per step as the pattern
    evaluated on its own, so results are bitwise those of the per-pattern
    recurrence.  The patterns with xi_0 = -1 give exactly the negated sums,
    because round-to-nearest is symmetric in sign.
    """
    s = np.full(len(patterns), float(steps[0]))  # f_0 * 0 + a_0
    for k in range(1, len(steps)):
        s *= factors[k]
        s += np.where((patterns >> (k - 1)) & 1, -steps[k], steps[k])
    return s


def _signed_sums(first: float, weights: np.ndarray) -> np.ndarray:
    """first + sum_r xi_r w_r, summed left to right, for every sign pattern:
    xi_r = -1 exactly when bit r of the entry's index is set."""
    s = np.array([first])
    for w in weights:
        s = np.concatenate((s + w, s - w))
    return s


def _split_guard(weights: np.ndarray, error: float, threshold: float) -> float:
    """Twice a bound on |a + b - s_m| (error plus m ulps of sum |w_k| for
    the two left-to-right sums), plus 4 ulps of t + sum |w_k| for the
    rounding of t +- guard - a.  FloatingPointError when not finite."""
    total = float(np.sum(np.abs(weights)))
    guard = (2.0 * (error + len(weights) * UNIT_ROUNDOFF * total)
             + 4.0 * UNIT_ROUNDOFF * (threshold + total))
    if not math.isfinite(guard):
        raise FloatingPointError("the signed sums overflow float64")
    return guard


def _window_pairs(rows: np.ndarray, first: np.ndarray, count: np.ndarray):
    """(row, position) index arrays of every pair in the windows
    [first_r, first_r + count_r) of rows r, _SPLIT_CHUNK pairs at a time."""
    ends = np.cumsum(count)
    total = int(ends[-1])
    for p in range(0, total, _SPLIT_CHUNK):
        pos = np.arange(p, min(p + _SPLIT_CHUNK, total))
        w = np.searchsorted(ends, pos, "right")
        yield rows[w], first[w] + pos - (ends[w] - count[w])


def _split_tail(weights: np.ndarray, factors: Sequence[float], steps: Sequence[float],
                error: float, threshold: float) -> Fraction:
    """Exact fraction of the 2^m sign patterns whose per-pattern recurrence
    (_pattern_values) has |s_m| > threshold, counted by meet in the middle.

    s_m is within `error` of the exact sum_k xi_k w_k.  The patterns with
    xi_0 = +1 are split into a left half a (terms 0..h-1, 2^(h-1) sums) and
    a right half b (terms h..m-1, 2^(m-h) sums, sorted), and each a counts
    the b with |a + b| beyond the threshold by `searchsorted`.  The guard
    bounds |a + b - s_m|: `error`, the rounding of the two left-to-right
    sums, and that of the bounds t +- guard - a.  Every pair within the
    guard of +-t is re-evaluated by _pattern_values, so the count is that
    of the forward recurrence, ties included.  Time and memory are about
    2^(m/2) plus the number of such pairs.
    """
    m = len(steps)
    if m == 0:
        return Fraction(int(0.0 > threshold))  # the one empty sum
    if not 0.0 <= threshold < math.inf:  # NaN hits nothing, t < 0 everything
        return Fraction(int(threshold < 0.0))
    half = (m + 1) // 2
    left = _signed_sums(weights[0], weights[1:half])
    right = _signed_sums(0.0, weights[half:])
    # the left sums descending, so that every searchsorted key ascends
    left_order = np.argsort(left)[::-1]
    left = left[left_order]
    order = np.argsort(right)
    right = right[order]
    guard = _split_guard(weights, error, threshold)
    outer, inner = threshold + guard, threshold - guard
    hits = 0
    for lo in range(0, len(left), _SPLIT_CHUNK):
        a = left[lo:lo + _SPLIT_CHUNK]
        # sorted positions: hits below `below` and from `above` on, misses
        # in [mid_lo, mid_hi) (none when t <= guard), undecided pairs between
        below = np.searchsorted(right, -outer - a, "left")
        above = np.searchsorted(right, outer - a, "right")
        mid_lo = np.searchsorted(right, -inner - a, "right")
        mid_hi = np.maximum(mid_lo, np.searchsorted(right, inner - a, "left"))
        hits += int(np.sum(below)) + len(a) * len(right) - int(np.sum(above))
        rows = left_order[lo:lo + len(a)]
        for first, stop in ((below, mid_lo), (mid_hi, above)):
            for i, j in _window_pairs(rows, first, stop - first):
                values = _pattern_values(factors, steps, i | (order[j] << (half - 1)))
                hits += int(np.count_nonzero(np.abs(values) > threshold))
    return Fraction(2 * hits, 1 << m)


def enumerate_signed_sum_tail(weights: Sequence[float], threshold: float) -> Fraction:
    """Exact P(|sum_k w_k xi_k| > t) for independent fair signs xi_k.

    Counts all 2^m sign patterns, each summed left to right in float64
    (the recurrence with f_k = 1 and a_k = w_k), by the split count; the
    count over 2^m is returned as an exact dyadic fraction.  The weights
    must be finite; FloatingPointError if their sums overflow float64.
    """
    w = np.asarray(weights, dtype=np.float64)
    if len(w) > ENUMERATION_MAX_N + 1:
        raise ValueError(f"too many terms for enumeration: {len(w)}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    # a sum of m terms taken left to right is within (m - 1) ulps of
    # sum |w_k| of the exact sum (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., eq. 4.4)
    error = len(w) * UNIT_ROUNDOFF * float(np.sum(np.abs(w)))
    return _split_tail(w, np.ones(len(w)), w, error, threshold)


def exact_tail_enumeration(spec: ProblemSpec, n: int, threshold: float) -> Fraction:
    """Exact P(|weighted sum| > threshold) for Rademacher noise over all
    2^(n+1) sign patterns.

    Each pattern's statistic is the forward recurrence on
    (f_k, a_k sigma) from weights.recurrence_factors, bitwise the value that
    the Monte Carlo path evaluates, so enumeration and estimate agree at
    float level, not just in distribution.  The split count runs on the
    weights sigma w_k of weights.recursion_weights, within
    engine.recurrence_error of every such value, in about 2^(n/2) time and
    memory.  Requires n <= ENUMERATION_MAX_N; FloatingPointError if the
    weights overflow float64.
    """
    if not isinstance(spec.noise, Rademacher):
        raise ValueError("enumeration oracle requires Rademacher noise")
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"n={n} too large for enumeration (max {ENUMERATION_MAX_N})")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    spec.require_mdp_regime()
    sigma = spec.noise.sigma
    factors, steps = recurrence_factors(spec.b, spec.c, n)
    weights = recursion_weights(spec, n)[1] * sigma
    error = recurrence_error(spec, "weighted_sum", n)
    return _split_tail(weights, factors, steps * sigma, error, threshold)


def oracle_tail(spec: ProblemSpec, target: str, n: int, threshold: float) -> Optional[Fraction]:
    """exact_tail_enumeration's P(|statistic| > threshold) where it covers
    the row (weighted_sum target, Rademacher noise, n <= ENUMERATION_MAX_N),
    else None."""
    if target != "weighted_sum" or not isinstance(spec.noise, Rademacher) or n > ENUMERATION_MAX_N:
        return None
    return exact_tail_enumeration(spec, n, threshold)


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

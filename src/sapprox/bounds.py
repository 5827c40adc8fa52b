"""Analytic tail bounds for the recursion deviation.

The exponential inequality is assembled from three pieces: a deterministic
envelope term (zero, because the envelope supremum F pathwise-dominates the
recursion), one sub-Gaussian block bound on the weighted noise sum over
[floor(delta*n), n], and a sum of sub-Gaussian bounds over suffix sums.
Everything is explicit: no opaque constants, partial sums of 1/(i+1)^2
evaluated exactly rather than via integral comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from sapprox.engine import envelope_bound
from sapprox.model import ProblemSpec


def azuma_tail(t: float, ranges: Sequence[tuple[float, float]]) -> float:
    """Two-sided sub-Gaussian tail bound min(1, 2 exp(-2 t^2 / sum (b_k - a_k)^2))
    for a sum of martingale differences with Y_k in [a_k, b_k].

    Degenerate ranges (all a_k = b_k, including the empty sum) give 0 for
    t > 0 and 1 for t = 0.
    """
    if not t >= 0:  # NaN fails too
        raise ValueError(f"t must be >= 0, got {t}")
    ssq = 0.0
    for a, b in ranges:
        if not a <= b:
            raise ValueError(f"invalid range ({a}, {b}): lower end above upper")
        w = b - a
        ssq += w * w
    return _azuma_from_ssq(t, ssq)


def _azuma_from_ssq(t: float, ssq: float) -> float:
    if ssq == 0.0:
        return 1.0 if t == 0.0 else 0.0
    return min(1.0, 2.0 * math.exp(-2.0 * t * t / ssq))


@dataclass(frozen=True)
class DeltaChoice:
    """A block fraction delta for the tail decomposition, plus the envelope
    supremum F it was built against.

    feasible_from is the smallest horizon (within the probed range) from
    which the margin F - (b K1 eps/2) * sum_{i=[delta n]}^{n} 1/(i+1) < -eps
    holds through the end of the probe; None when no such horizon exists.
    """

    delta: float
    F: float
    epsilon: float
    feasible_from: Optional[int]
    n_probe: int

    @property
    def feasible(self) -> bool:
        return self.feasible_from is not None


def delta_upper_limit(spec: ProblemSpec, F: float, epsilon: float) -> float:
    """Supremum exp(-2(F + eps) / (b K1 eps)) of admissible deltas."""
    return math.exp(-2.0 * (F + epsilon) / (spec.b * spec.drift.K1 * epsilon))


def select_delta(spec: ProblemSpec, epsilon: float, n_probe: int) -> DeltaChoice:
    """Pick delta = half the admissible supremum and scan for feasibility.

    F is the envelope supremum at horizon n_probe.  Infeasibility within
    the probe is reported through feasible_from = None, never by returning
    an invalid delta.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if n_probe < 1:
        raise ValueError(f"n_probe must be >= 1, got {n_probe}")
    _, F = envelope_bound(spec, n_probe)
    delta = 0.5 * delta_upper_limit(spec, F, epsilon)
    need = 2.0 * (F + epsilon) / (spec.b * spec.drift.K1 * epsilon)

    # H[m] = sum_{i=0}^{m-1} 1/(i+1); margin at n needs
    # H[n+1] - H[floor(delta n)] > need
    inv = 1.0 / (np.arange(n_probe + 1, dtype=np.float64) + 1.0)
    H = np.concatenate(([0.0], np.cumsum(inv)))
    ns = np.arange(1, n_probe + 1)
    starts = np.floor(delta * ns).astype(np.int64)
    margin_ok = (H[ns + 1] - H[starts]) > need

    feasible_from: Optional[int] = None
    for idx in range(len(ns) - 1, -1, -1):
        if not margin_ok[idx]:
            break
        feasible_from = int(ns[idx])
    return DeltaChoice(
        delta=delta, F=F, epsilon=epsilon, feasible_from=feasible_from, n_probe=n_probe
    )


@dataclass(frozen=True)
class TailBound:
    """An assembled exponential bound value with its named contributions."""

    value: float
    envelope_term: float
    block_term: float
    sum_term: float


def exp_inequality_bound(
    spec: ProblemSpec, epsilon: float, n: int, choice: DeltaChoice
) -> TailBound:
    """Explicit bound on P(|X_{n+1} - x*| >= eps) at horizon n.

    With i0 = floor(delta n) and per-term ranges +-b Ku/(i+1):

      block = azuma(2 eps, ranges over i in [i0, n])
      sum   = sum_{k=i0}^{n} azuma(eps/4, ranges over i in [k+1, n])

    The envelope term P(|X_{i0} - x*| > F) is exactly zero because F
    dominates the deterministic envelope.  Requires epsilon ==
    choice.epsilon (delta and F are chosen for one epsilon) and
    n >= feasible_from (the decomposition needs the margin condition).
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if epsilon != choice.epsilon:
        raise ValueError(
            f"epsilon={epsilon} differs from the epsilon={choice.epsilon} that "
            "the delta choice was made for"
        )
    if choice.feasible_from is None:
        raise ValueError("delta choice is infeasible within its probed range")
    if n < choice.feasible_from:
        raise ValueError(
            f"n={n} is below feasible_from={choice.feasible_from}; the "
            "decomposition needs the margin condition"
        )
    b, ku = spec.b, spec.noise.Ku
    i0 = int(math.floor(choice.delta * n))
    # widths^2 of b*U_{i+1}/(i+1): (2 b Ku / (i+1))^2; suffix sums over i
    w2 = (2.0 * b * ku / (np.arange(i0, n + 1, dtype=np.float64) + 1.0)) ** 2
    suffix = np.concatenate((np.cumsum(w2[::-1])[::-1], [0.0]))
    block = _azuma_from_ssq(2.0 * epsilon, float(suffix[0]))
    t = epsilon / 4.0
    inner = suffix[1:]  # ssq over i in [k+1, n] for k = i0..n
    terms = np.minimum(1.0, 2.0 * np.exp(-2.0 * t * t / np.maximum(inner, 1e-300)))
    terms[inner == 0.0] = 0.0
    sum_term = float(np.sum(terms))
    value = min(1.0, block + sum_term)
    return TailBound(
        value=value, envelope_term=0.0, block_term=block, sum_term=sum_term
    )


def paper_form_bound(C: float, epsilon: float, delta: float, n: int) -> float:
    """Closed-form bound shape

        2 exp(-C eps^2 delta n / (1-delta)) * (1 + 1/(1 - exp(-C eps^2/(1-delta))))

    with a caller-supplied constant C; reported alongside the explicit
    bound, never used in its place (C is not derivable here).  When
    C eps^2/(1-delta) is too small for exp to tell it from 0, the
    denominator rounds to 0 and the result is inf, the bound's limit.
    """
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    lead = 2.0 * math.exp(-C * epsilon * epsilon * delta * n / (1.0 - delta))
    gap = 1.0 - math.exp(-C * epsilon * epsilon / (1.0 - delta))
    if gap == 0.0:
        return math.inf
    return lead * (1.0 + 1.0 / gap)

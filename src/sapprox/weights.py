"""Product weights and normalizers for the linearized recursion.

Linearizing X_{n+1} = X_n + b/(n+1) * (g(X_n) + U_{n+1}) around the root
x* turns the deviation into sums weighted by products of the contraction
factors 1 + c/(j+1), where c = b * g'(x*) < 0.  This module evaluates

    beta(c, k, n)   = prod_{j=k}^{n} (1 + c/(j+1))        (empty product = 1)
    recursion_weights(spec, n) = (beta(c, 0, n), b beta(c, k+1, n)/(k+1))
    weight_sum(...) = sum_{k=0}^{n} (k+1)^{-2} beta(c, k+1, n)^2
    h_norm(b, c, n) = (b^2 * weight_sum)^{-1/2}

together with the closed-form sandwich bounds on beta and the large-n
reference sqrt((-2c-1)*n)/b for h_norm.

For c < -1 the first few factors are zero or negative, so products are
carried in sign-and-log-magnitude form rather than assuming positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Factors are consumed in chunks so horizons up to ~1e8 stay fast and
# memory-bounded.
_CHUNK = 1 << 20


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as (sign, log|x|) so huge products never
    overflow or underflow.

    sign is 0 exactly when the value is zero, in which case log_magnitude
    is -inf.
    """

    log_magnitude: float
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if (self.sign == 0) != (self.log_magnitude == -math.inf):
            raise ValueError(
                "sign = 0 exactly when log_magnitude = -inf; got "
                f"sign={self.sign}, log_magnitude={self.log_magnitude}"
            )

    @classmethod
    def from_value(cls, x: float) -> "SignedLogValue":
        if x == 0.0:
            return cls(-math.inf, 0)
        return cls(math.log(abs(x)), 1 if x > 0 else -1)

    def value(self) -> float:
        """Materialize to a float (may overflow to +-inf for huge magnitudes)."""
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)


def beta(c: float, k: int, n: int) -> SignedLogValue:
    """Product of (1 + c/(j+1)) over j = k..n in sign/log space.

    The empty product (k > n) is 1.  Total on c < 0, k >= 0, n >= 0.
    """
    if not c < 0:
        raise ValueError(f"c must be negative, got {c}")
    if k < 0 or n < 0:
        raise ValueError(f"k and n must be nonnegative, got k={k}, n={n}")
    if k > n:
        return SignedLogValue(0.0, 1)
    log_mag = 0.0
    sign = 1
    lo = k
    while lo <= n:
        hi = min(lo + _CHUNK, n + 1)
        j = np.arange(lo, hi, dtype=np.float64)
        f = 1.0 + c / (j + 1.0)
        if np.any(f == 0.0):
            return SignedLogValue(-math.inf, 0)
        if np.count_nonzero(f < 0.0) % 2:
            sign = -sign
        log_mag += float(np.sum(np.log(np.abs(f))))
        lo = hi
    return SignedLogValue(log_mag, sign)


def beta_value(c: float, k: int, n: int) -> float:
    """beta(c, k, n) materialized to a float."""
    return beta(c, k, n).value()


def beta_bounds(c: float, k: int, n: int) -> tuple[float, float]:
    """Closed-form sandwich lower/upper bounds on beta(c, k, n).

    Valid only for n >= 1 and (-2c-1) v 1 <= k <= n, where every factor
    lies in (0, 1); k outside that range is rejected rather than
    extrapolated.
    """
    if not c < 0:
        raise ValueError(f"c must be negative, got {c}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k_min = max(-2.0 * c - 1.0, 1.0)
    if k < k_min or k > n:
        raise ValueError(
            f"k={k} outside the proven range [{k_min}, {n}] for c={c}"
        )
    lower = math.exp(-c * c / k_min) * ((n + 1.0) / k) ** c
    upper = (float(n) / (k + 1.0)) ** c
    return lower, upper


def recursion_weights(spec, n: int) -> tuple[float, np.ndarray]:
    """(beta(c, 0, n), w) with w_k = b * beta(c, k+1, n) / (k+1), k = 0..n.

    spec supplies b and c = b g'(x*).  For linear drift the recursion is
    exactly X_{n+1} - x* = beta(c, 0, n) (x0 - x*) + sum_k w_k U_{k+1}.
    Evaluated with one backward cumulative product of the float factors
    1 + c/(j+1), O(n) time and memory.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    j = np.arange(n + 1, dtype=np.float64)
    f = 1.0 + spec.c / (j + 1.0)
    suffix = np.ones(n + 1)
    suffix[:n] = np.cumprod(f[:0:-1])[::-1]
    return float(f[0] * suffix[0]), spec.b * suffix / (j + 1.0)


def weight_sum(c: float, n: int) -> float:
    """sum_{k=0}^{n} (k+1)^{-2} * beta(c, k+1, n)^2.

    Computed as a single backward sweep with a running product, O(n) time
    and O(1) memory.  The k = n term is (n+1)^{-2} since beta(c, n+1, n) is
    the empty product, so the sum is strictly positive; it overflows to inf
    when the products pass float64's range.
    """
    if not c < 0:
        raise ValueError(f"c must be negative, got {c}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    total = 0.0
    prod = 1.0  # beta(c, m+1, n) for the current m
    for m in range(n, -1, -1):
        term = prod / (m + 1.0)
        total += term * term
        prod *= 1.0 + c / (m + 1.0)
    return total


def h_norm(b: float, c: float, n: int) -> float:
    """Normalizer (b^2 * weight_sum(c, n))^{-1/2}.

    Scales the martingale part of the deviation to second moment sigma^2.
    Raises FloatingPointError when the weight sum overflows float64.
    """
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    total = weight_sum(c, n)
    if not math.isfinite(total):
        raise FloatingPointError(f"the product weights overflow float64 (c={c}, n={n})")
    return 1.0 / math.sqrt(b * b * total)


def h_asymptotic(b: float, c: float, n: int) -> float:
    """Large-n reference sqrt((-2c-1) * n) / b for h_norm.

    Requires c < -1/2; the reference diverges from h_norm otherwise.
    """
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    if not c < -0.5:
        raise ValueError(f"c must be < -1/2, got {c}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return math.sqrt((-2.0 * c - 1.0) * n) / b

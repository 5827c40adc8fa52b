"""Product weights and normalizers for the linearized recursion.

Linearizing X_{n+1} = X_n + b/(n+1) * (g(X_n) + U_{n+1}) around the root
x* turns the deviation into sums weighted by products of the contraction
factors 1 + c/(j+1), where c = b * g'(x*) < 0.  This module evaluates

    recurrence_factors(b, c, n) = (f, a), f_k = 1 + c/(k+1), a_k = b/(k+1)
    beta(c, k, n)   = prod_{j=k}^{n} f_j                  (empty product = 1)
    recursion_weights(spec, n) = (beta(c, 0, n), b beta(c, k+1, n)/(k+1))
    weight_sum(...) = sum_{k=0}^{n} (k+1)^{-2} beta(c, k+1, n)^2
    h_norm(b, c, n) = (b^2 * weight_sum)^{-1/2}

together with the closed-form sandwich bounds on beta and the large-n
reference sqrt((-2c-1)*n)/b for h_norm.  Each product of the factors, beta
included, multiplies the floats of recurrence_factors from the last factor
backwards (suffix_products) in O(n) time and memory, and the one kernel of
the linearized step d <- f_k d + a_k U_{k+1} (sapprox.engine) steps on
them.  For c < -1 the first factors are zero or negative, so products may
be zero or change sign; for large -c they overflow float64 to +-inf.
"""

from __future__ import annotations

import math

import numpy as np


def beta(c: float, k: int, n: int) -> float:
    """Product f_n * ... * f_k of the factors f_j = 1 + c/(j+1).

    Bitwise the product that recursion_weights and weight_sum multiply by.
    The empty product (k > n) is 1.  Total on c < 0, k >= 0, n >= 0.
    """
    if not c < 0:
        raise ValueError(f"c must be negative, got {c}")
    if k < 0 or n < 0:
        raise ValueError(f"k and n must be nonnegative, got k={k}, n={n}")
    if k > n:
        return 1.0
    # f_n, ..., f_k as recurrence_factors builds them, in one array, then
    # their running product from the last factor backwards, as
    # suffix_products multiplies
    f = np.arange(n + 1.0, k, -1.0)
    np.divide(c, f, out=f)
    f += 1.0
    return float(np.cumprod(f, out=f)[-1])


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


def recurrence_factors(b: float, c: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(f, a) with f_k = 1 + c/(k+1) and a_k = b/(k+1) for k = 0..n.

    These are the floats of the linearized step d <- f_k d + a_k U_{k+1};
    each recurrence's one kernel (engine._target) steps on them, and one
    replica's path takes them from _factors a chunk of steps at a time, so
    paths, weights and enumerated sums agree bitwise.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _factors(b, c, np.arange(1.0, n + 2.0))


def _factors(b: float, c: float, k1):
    """(1 + c/k1, b/k1) for a float or an array k1, rounded alike."""
    return 1.0 + c / k1, b / k1


def suffix_products(f: np.ndarray) -> np.ndarray:
    """s with s_k = prod_{j>k} f_j (s_last = 1), multiplied from the last
    factor backwards."""
    s = np.ones(len(f))
    s[:-1] = np.cumprod(f[:0:-1])[::-1]
    return s


def recursion_weights(spec, n: int) -> tuple[float, np.ndarray]:
    """(beta(c, 0, n), w) with w_k = b * beta(c, k+1, n) / (k+1), k = 0..n.

    spec supplies b and c = b g'(x*).  For linear drift the recursion is
    exactly X_{n+1} - x* = beta(c, 0, n) (x0 - x*) + sum_k w_k U_{k+1}.
    O(n) time and memory.
    """
    f, _ = recurrence_factors(spec.b, spec.c, n)
    suffix = suffix_products(f)
    return float(f[0] * suffix[0]), spec.b * suffix / np.arange(1.0, n + 2.0)


def weight_sum(c: float, n: int) -> float:
    """sum_{k=0}^{n} (k+1)^{-2} * beta(c, k+1, n)^2.

    The terms are summed from k = n down to 0, in O(n) time and memory.
    The k = n term is (n+1)^{-2} since beta(c, n+1, n) is the empty
    product, so the sum is strictly positive; it overflows to inf when the
    products pass float64's range (h_norm reports that).
    """
    if not c < 0:
        raise ValueError(f"c must be negative, got {c}")
    f, _ = recurrence_factors(1.0, c, n)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = suffix_products(f) / np.arange(1.0, n + 2.0)
        return float(np.cumsum(np.square(terms[::-1]))[-1])


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

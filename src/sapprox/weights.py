"""Product weights and normalizers for the linearized recursion.

Linearizing X_{n+1} = X_n + b/(n+1) * (g(X_n) + U_{n+1}) around the root
x* turns the deviation into sums weighted by products of the contraction
factors 1 + c/(j+1), where c = b * g'(x*) < 0.  This module evaluates

    recurrence_factors(b, c, n) = (f, a), f_k = 1 + c/(k+1), a_k = b/(k+1)
    beta(c, k, n)   = prod_{j=k}^{n} f_j                  (empty product = 1)
    recursion_weights(spec, n) = (beta(c, 0, n), b beta(c, k+1, n)/(k+1))
    weight_sum(...) = sum_{k=0}^{n} (k+1)^{-2} beta(c, k+1, n)^2
    h_norm(b, c, n) = (b^2 * weight_sum)^{-1/2}

together with the closed-form sandwich bounds on beta.  Each factor is
rounded by one expression (f_k by _contraction, a_k by _factors, which
pairs them; beta and the weights take f_k alone), and each product of the
factors is multiplied from the last factor backwards (suffix_products), in
O(n) time and memory, or a chunk of factors at a time in O(1) memory for
beta.  The one kernel of the linearized step d <- f_k d + a_k U_{k+1}
(sapprox.engine) steps on the same floats.  For c < -1 the first factors
are zero or negative, so products may be zero or change sign; for large
-c they overflow float64 to +-inf.
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
    # f_n, ..., f_k from _contraction, _CHUNK at a time (O(1) memory), in one
    # running product from the last factor backwards, as suffix_products does
    product = 1.0
    for top in range(n + 1, k, -_CHUNK):
        f = _contraction(c, np.arange(top, max(top - _CHUNK, k), -1.0))
        f[0] *= product
        product = float(np.cumprod(f, out=f)[-1])
    return product


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


def recurrence_factors(b: float, c: float, n: int, lo: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(f, a) with f_k = 1 + c/(k+1) and a_k = b/(k+1) for k = lo..n.

    These are the floats of the linearized step d <- f_k d + a_k U_{k+1};
    each recurrence's one kernel (engine._target) steps on them, and one
    replica's path takes them a chunk of steps at a time, so paths, weights
    and enumerated sums agree bitwise.
    """
    return _factors(b, c, _indices(n, lo))


def _indices(n: int, lo: int = 0) -> np.ndarray:
    """k + 1 for k = lo..n, as floats."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return np.arange(lo + 1.0, n + 2.0)


def _contraction(c: float, k1):
    """1 + c/k1 for a float or an array k1: the factor f_k at k1 = k + 1."""
    return 1.0 + c / k1


def _factors(b: float, c: float, k1):
    """(1 + c/k1, b/k1) for a float or an array k1, rounded alike."""
    return _contraction(c, k1), b / k1


_CHUNK = 4096  # steps whose factors a path or beta computes at once


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
    k1 = _indices(n)
    f = _contraction(spec.c, k1)
    suffix = suffix_products(f)
    return float(f[0] * suffix[0]), spec.b * suffix / k1


def weight_sum(c: float, n: int) -> float:
    """sum_{k=0}^{n} (k+1)^{-2} * beta(c, k+1, n)^2.

    The terms are summed from k = n down to 0, in O(n) time and memory.
    The k = n term is (n+1)^{-2} since beta(c, n+1, n) is the empty
    product, so the sum is strictly positive; it overflows to inf when the
    products pass float64's range (h_norm reports that).
    """
    if not c < 0:
        raise ValueError(f"c must be negative, got {c}")
    k1 = _indices(n)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = suffix_products(_contraction(c, k1)) / k1
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


"""Independent references that tests compare the program against."""

import numpy as np


def weighted_sums_over_signs(spec, n: int, signs: np.ndarray) -> np.ndarray:
    """Weighted-sum statistic for explicit sign patterns: the per-pattern
    reference that the enumeration oracles in sapprox.mdp match bitwise.

    signs has shape (m, n+1) with entries +-1; returns the m statistics for
    Rademacher noise U_{k+1} = sigma * signs[:, k], evaluated by the forward
    recurrence of engine.weighted_sum with its factors spelled out here, so
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

"""Correctness checks on the outputs of one sapprox command.

Every expected value is recomputed here from the experiment config alone,
without importing sapprox: the normalizer h_n as a log-space suffix
product, the envelope supremum F and the Azuma block and suffix sums from
their recurrences, and the exact enumeration tail by meet-in-the-middle.
Statistical properties of the paper are gated as well: the Monte Carlo
rate interval against the Gaussian reference (the MDP) and the empirical
tail against the explicit exponential bound.

Each row of output is one checked operation; a check returns the list of
its errors, empty when the row is right.
"""

from __future__ import annotations

import csv
import io
import math
import re
from fractions import Fraction

import numpy as np
from scipy import stats

REL_TOL = 1e-9
CP_CONFIDENCE = 0.95
BAND_CONFIDENCE = 0.999
MDP_SLACK = 0.1

_ORACLE_LINE = re.compile(
    r"oracle n=(\d+): exact_p=(\S+) hits=(\d+) band=\[(\d+), (\d+)\] (\S+)$"
)


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want))


def _want(errors: list, what: str, got, want, rel: float = REL_TOL) -> None:
    if not _close(got, want, rel):
        errors.append(f"{what}={got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# Independent recomputations
# ---------------------------------------------------------------------------


def gprime_star(drift: dict) -> float:
    p = drift["parameters"]
    if drift["kind"] == "linear":
        return p["alpha1"]
    return -(p["c1"] + p["c2"])


def drift_k1_k2(drift: dict) -> tuple[float, float]:
    p = drift["parameters"]
    if drift["kind"] == "linear":
        return abs(p["alpha1"]), abs(p["alpha1"])
    return p["c1"] - p["c2"], p["c1"] + p["c2"]


def noise_bound(noise: dict) -> float:
    """Largest |U|: sigma for Rademacher, the larger outcome of the two
    extreme two-point laws otherwise."""
    sigma = noise["sigma"]
    if noise["kind"] == "rademacher":
        return sigma
    p_min, p_max = noise["p_min"], noise["p_max"]
    return sigma * max(math.sqrt((1 - p_min) / p_min), math.sqrt(p_max / (1 - p_max)))


def h_norm(b: float, c: float, n: int) -> float:
    """(b^2 sum_k (k+1)^-2 beta(c,k+1,n)^2)^(-1/2), with beta carried as a
    suffix sum of log|1 + c/(j+1)| (a zero factor gives log 0 = -inf)."""
    j = np.arange(n + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_f = np.log(np.abs(1.0 + c / (j + 1.0)))
    # log|beta(c, k+1, n)| = sum_{j=k+1}^{n} log_f[j]
    log_beta = np.append(np.cumsum(log_f[::-1])[::-1][1:], 0.0)
    terms = np.exp(2.0 * (log_beta - np.log(j + 1.0)))
    return 1.0 / math.sqrt(b * b * math.fsum(terms))


def speed(n: int, gamma: float) -> float:
    return n ** (1.0 / (2.0 * (1.0 + gamma)))


def clopper_pearson(hits: int, total: int) -> tuple[float, float]:
    a = (1.0 - CP_CONFIDENCE) / 2.0
    lo = 0.0 if hits == 0 else float(stats.beta.ppf(a, hits, total - hits + 1))
    hi = 1.0 if hits == total else float(stats.beta.ppf(1.0 - a, hits + 1, total - hits))
    return lo, hi


def gaussian_rate(r: float, b_n: float, sigma: float) -> float:
    """log(2 (1 - Phi(r b_n / sigma))) / b_n^2."""
    return (math.log(2.0) + float(stats.norm.logsf(r * b_n / sigma))) / (b_n * b_n)


def envelope_sup(b: float, k1: float, k2: float, ku: float, start: float, n: int) -> float:
    """sup_k B_k of B_{k+1} = q_k B_k + b Ku/(k+1), B_0 = |x0 - x*|."""
    cur = best = abs(start)
    for k in range(n + 1):
        q = max(abs(1.0 - b * k1 / (k + 1)), abs(1.0 - b * k2 / (k + 1)))
        cur = q * cur + b * ku / (k + 1)
        best = max(best, cur)
    return best


def azuma(t: float, ssq: float) -> float:
    if ssq == 0.0:
        return 0.0
    return min(1.0, 2.0 * math.exp(-2.0 * t * t / ssq))


def exp_bound(b: float, ku: float, epsilon: float, delta: float, n: int) -> float:
    """min(1, azuma(2 eps, S_{i0}) + sum_{k=i0}^{n} azuma(eps/4, S_{k+1}))
    with S_k = sum_{i=k}^{n} (2 b Ku/(i+1))^2 and i0 = floor(delta n)."""
    i0 = math.floor(delta * n)
    suffix = [0.0]  # S_{n+1}, S_n, ..., S_{i0}
    for i in range(n, i0 - 1, -1):
        suffix.append(suffix[-1] + (2.0 * b * ku / (i + 1)) ** 2)
    suffix.reverse()  # suffix[k - i0] = S_k
    block = azuma(2.0 * epsilon, suffix[0])
    sum_term = math.fsum(azuma(epsilon / 4.0, s) for s in suffix[1:])
    return min(1.0, block + sum_term)


def weighted_sum_weights(b: float, c: float, sigma: float, n: int) -> list[float]:
    """w_k = b sigma beta(c, k+1, n)/(k+1): the statistic is sum_k w_k xi_k."""
    beta = [1.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        beta[k] = beta[k + 1] * (1.0 + c / (k + 2.0))
    return [b * sigma * beta[k] / (k + 1.0) for k in range(n + 1)]


def _all_sums(weights) -> np.ndarray:
    sums = np.zeros(1)
    for w in weights:
        sums = np.concatenate((sums + w, sums - w))
    return sums


def signed_sum_tail(weights: list[float], threshold: float) -> Fraction:
    """Exact P(|sum_k w_k xi_k| > t) over fair signs, by meet in the middle:
    the sums of each half are listed and the halves are paired by a sorted
    search instead of enumerating all 2^m patterns."""
    half = len(weights) // 2
    left = _all_sums(weights[:half])
    right = np.sort(_all_sums(weights[half:]))
    above = len(right) - np.searchsorted(right, threshold - left, side="right")
    below = np.searchsorted(right, -threshold - left, side="left")
    return Fraction(int(above.sum() + below.sum()), 1 << len(weights))


def binomial_band(p: float, total: int) -> tuple[int, int]:
    a = (1.0 - BAND_CONFIDENCE) / 2.0
    return int(stats.binom.ppf(a, total, p)), int(stats.binom.ppf(1.0 - a, total, p))


# ---------------------------------------------------------------------------
# Row checks
# ---------------------------------------------------------------------------


def read_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def rate_row_errors(row: dict, n: int, cfg: dict, mdp_gate: bool) -> list[str]:
    errors: list[str] = []
    block = cfg["rate"]
    b, sigma, r, replicas = cfg["b"], cfg["noise"]["sigma"], block["r"], block["replicas"]
    if row.get("n") != str(n) or int(row["replicas"]) != replicas:
        return [f"row is n={row.get('n')!r} replicas={row.get('replicas')!r}, "
                f"expected n={n} replicas={replicas}"]
    hits = int(row["hits"])
    p_hat = float(row["p_hat"])
    b_n = speed(n, block["gamma"])
    _want(errors, "b_n", float(row["b_n"]), b_n)
    h_n = h_norm(b, b * gprime_star(cfg["drift"]), n)
    _want(errors, "threshold", float(row["threshold"]), r * b_n / h_n)
    if p_hat != hits / replicas:
        errors.append(f"p_hat={p_hat!r} != hits/replicas={hits}/{replicas}")
    if hits <= 0:
        errors.append("no replica hit the tail")
        return errors
    lo, hi = clopper_pearson(hits, replicas)
    _want(errors, "ci_low", float(row["ci_low"]), lo)
    _want(errors, "ci_high", float(row["ci_high"]), hi)
    _want(errors, "rate", float(row["rate"]), math.log(hits / replicas) / (b_n * b_n))
    g = gaussian_rate(r, b_n, sigma)
    _want(errors, "gaussian_rate", float(row["gaussian_rate"]), g)
    _want(errors, "limit_rate", float(row["limit_rate"]), -r * r / (2.0 * sigma * sigma))
    if mdp_gate:
        b2 = b_n * b_n
        rate_lo, rate_hi = math.log(lo) / b2, math.log(hi) / b2
        if not (rate_hi >= g - MDP_SLACK and rate_lo <= g + MDP_SLACK):
            errors.append(
                f"rate interval [{rate_lo}, {rate_hi}] misses the Gaussian "
                f"reference {g} +-{MDP_SLACK}"
            )
    return errors


def limit_row_errors(row: dict, cfg: dict) -> list[str]:
    sigma, r = cfg["noise"]["sigma"], cfg["rate"]["r"]
    want = -r * r / (2.0 * sigma * sigma)
    if row.get("n") != "limit" or float(row["limit_rate"]) != want:
        return [f"footer row {row!r} should be limit with limit_rate={want!r}"]
    return []


def bound_row_errors(row: dict, n: int, cfg: dict) -> list[str]:
    errors: list[str] = []
    block = cfg["bound"]
    b, epsilon, replicas = cfg["b"], block["epsilon"], block["replicas"]
    if (row.get("n") != str(n) or int(row["replicas"]) != replicas
            or float(row["epsilon"]) != epsilon):
        return [f"row is n={row.get('n')!r} epsilon={row.get('epsilon')!r} "
                f"replicas={row.get('replicas')!r}, expected n={n} "
                f"epsilon={epsilon} replicas={replicas}"]
    k1, k2 = drift_k1_k2(cfg["drift"])
    ku = noise_bound(cfg["noise"])
    start = cfg["x0"] - cfg["drift"]["x_star"]
    F = envelope_sup(b, k1, k2, ku, start, max(block["n_grid"]))
    delta = 0.5 * math.exp(-2.0 * (F + epsilon) / (b * k1 * epsilon))
    _want(errors, "delta", float(row["delta"]), delta)
    if not row["bound"]:
        errors.append("bound is empty at a horizon where it is feasible")
        return errors
    bound = float(row["bound"])
    _want(errors, "bound", bound, exp_bound(b, ku, epsilon, delta, n))
    if block.get("paper_c") is None and row["paper_form"]:
        errors.append(f"paper_form={row['paper_form']!r} without paper_c")
    empirical = float(row["empirical"])
    hits = round(empirical * replicas)
    if hits / replicas != empirical:
        errors.append(f"empirical={empirical!r} is not a count over {replicas} replicas")
    lo, hi = clopper_pearson(hits, replicas)
    _want(errors, "ci_low", float(row["ci_low"]), lo)
    _want(errors, "ci_high", float(row["ci_high"]), hi)
    if empirical > bound + 3.0 * math.sqrt(bound / replicas):
        errors.append(f"empirical tail {empirical} exceeds the bound {bound}")
    return errors


def oracle_line_errors(line: str, n: int, row: dict, cfg: dict) -> list[str]:
    m = _ORACLE_LINE.match(line.strip())
    if m is None or int(m.group(1)) != n:
        return [f"oracle line for n={n} is {line!r}"]
    exact_p, hits = float(m.group(2)), int(m.group(3))
    band = (int(m.group(4)), int(m.group(5)))
    errors: list[str] = []
    b, sigma = cfg["b"], cfg["noise"]["sigma"]
    weights = weighted_sum_weights(b, b * gprime_star(cfg["drift"]), sigma, n)
    exact = float(signed_sum_tail(weights, float(row["threshold"])))
    if exact_p != exact:
        errors.append(f"exact_p={exact_p!r}, meet-in-the-middle gives {exact!r}")
    if hits != int(row["hits"]):
        errors.append(f"oracle hits={hits} but the row has hits={row['hits']}")
    want_band = binomial_band(exact, cfg["rate"]["replicas"])
    if band != want_band:
        errors.append(f"band={band}, expected {want_band}")
    if not (want_band[0] <= hits <= want_band[1]) or m.group(6) != "ok":
        errors.append(f"hits={hits} outside the 99.9% band {want_band} "
                      f"(verdict {m.group(6)!r})")
    return errors


def _guarded(check, *args) -> list[str]:
    try:
        return check(*args)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def check_outputs(workload, cfg: dict, output: str, stdout: str) -> list[list[str]]:
    """Errors of each row operation of one command, in a fixed order and
    number, so that a missing row counts as a failed operation."""
    rows = read_rows(output)
    n_grid = cfg[workload.command]["n_grid"]
    results = []
    for i, n in enumerate(n_grid):
        if i >= len(rows):
            results.append([f"row for n={n} is missing"])
        elif workload.command == "rate":
            results.append(_guarded(rate_row_errors, rows[i], n, cfg, workload.mdp_gate))
        else:
            results.append(_guarded(bound_row_errors, rows[i], n, cfg))
    if workload.command == "rate":
        footer = rows[len(n_grid)] if len(rows) > len(n_grid) else {}
        results.append(_guarded(limit_row_errors, footer, cfg))
    if len(rows) > len(results):
        results[-1] = results[-1] + [f"{len(rows)} rows, expected {len(results)}"]
    lines = [ln for ln in stdout.splitlines() if ln.startswith("oracle ")]
    for i, n in enumerate(workload.oracle_ns()):
        if i >= len(lines) or i >= len(rows):
            results.append([f"oracle line for n={n} is missing"])
        else:
            results.append(_guarded(oracle_line_errors, lines[i], n, rows[i], cfg))
    return results


def operation_count(workload) -> int:
    """Row operations per command: the grid rows, the rate footer and the
    oracle lines."""
    n_rows = len(workload.block["n_grid"]) + (workload.command == "rate")
    return n_rows + len(workload.oracle_ns())

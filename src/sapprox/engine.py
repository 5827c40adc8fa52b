"""Path simulation, weighted martingale sums, the exact three-term
deviation decomposition, and the deterministic boundedness envelope.

Reproducible parallel noise
---------------------------
Every replica derives its noise from (experiment seed, replica index)
through a fixed counter-based mixing function, so results are bit-identical
however replicas are scheduled across workers:

    key(seed, i)   = mix64(mix64(seed) XOR i * 0x9E3779B97F4A7C15)
    z(i, j; D)     = mix64(key XOR mix64(D + j * 0xD1B54A32D192ED03))

where mix64 is the SplitMix64 finalizer and D is a domain constant that
separates the two draw kinds:

  * Rademacher sign at step k: bit (k mod 64) of z(i, k // 64; D_SIGN),
    mapped 1 -> +1, 0 -> -1.
  * Uniform at step k: the top 53 bits of z(i, k; D_UNIF) scaled to [0, 1).

The scalar ReplicaStream and the vectorized batch runner evaluate the same
functions, so a batch row equals the corresponding single-replica run.
count_tail_hits sums linear-drift Rademacher paths in closed form instead
(_LinearRademacherTail), with the hit counts of the sequential recurrence.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from sapprox.model import (
    LinearDrift,
    ProblemSpec,
    Rademacher,
    eval_g,
    sample_noise,
)
from sapprox.weights import recursion_weights

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STEP = 0xD1B54A32D192ED03
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_D_SIGN = 0x8BADF00D5EED0001
_D_UNIF = 0x5EEDFACE00000002
_INV53 = 2.0**-53

# Replicas are processed in fixed-width blocks; the width never affects
# results (all batch operations are elementwise), only memory locality.
BLOCK = 1 << 15

FORCED_MODES = (None, "zero", "plus_sigma")


def _mix64(z: int) -> int:
    z &= _MASK
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    z ^= z >> 31
    return z


def replica_key(seed: int, replica: int) -> int:
    return _mix64(_mix64(seed & _MASK) ^ ((replica * _GOLDEN) & _MASK))


def _step_key(domain: int, j: int) -> int:
    return _mix64((domain + j * _STEP) & _MASK)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def replica_keys_array(seed: int, lo: int, hi: int) -> np.ndarray:
    """Vector of replica_key(seed, i) for i in [lo, hi)."""
    base = np.uint64(_mix64(seed & _MASK))
    idx = np.arange(lo, hi, dtype=np.uint64)
    z = np.bitwise_xor(base, idx * np.uint64(_GOLDEN))
    return _mix64_array(z)


class ReplicaStream:
    """Scalar view of one replica's noise stream."""

    def __init__(self, seed: int, replica: int = 0):
        self.seed = seed
        self.replica = replica
        self._key = replica_key(seed, replica)
        self._sign_block = -1
        self._sign_bits = 0

    def rademacher_sign(self, k: int) -> float:
        j, r = divmod(k, 64)
        if j != self._sign_block:
            self._sign_bits = _mix64(self._key ^ _step_key(_D_SIGN, j))
            self._sign_block = j
        return 1.0 if (self._sign_bits >> r) & 1 else -1.0

    def uniform(self, k: int) -> float:
        z = _mix64(self._key ^ _step_key(_D_UNIF, k))
        return (z >> 11) * _INV53


@dataclass(frozen=True)
class Trajectory:
    """One recorded path: X_0..X_{n+1} and the noise U_1..U_{n+1}."""

    xs: np.ndarray
    us: np.ndarray
    spec: ProblemSpec
    fingerprint: str
    seed: int
    replica: int
    forced: Optional[str]

    @property
    def horizon(self) -> int:
        return len(self.us) - 1

    @property
    def final_deviation(self) -> float:
        return float(self.xs[-1]) - self.spec.drift.x_star

    def write_csv(self, fh) -> None:
        """Rows k, x_k, u_k; u_0 is empty (no noise enters X_0)."""
        fh.write("k,x_k,u_k\n")
        fh.write(f"0,{self.xs[0]:.17g},\n")
        for k in range(1, len(self.xs)):
            fh.write(f"{k},{self.xs[k]:.17g},{self.us[k - 1]:.17g}\n")


@dataclass(frozen=True)
class Decomposition:
    """The three exact contributions to X_{n+1} - x*:

    i1: contracted start offset, i2: weighted Taylor remainders,
    i3: weighted noise sum.  i1 + i2 + i3 equals the final deviation
    up to float rounding.
    """

    i1: float
    i2: float
    i3: float

    @property
    def total(self) -> float:
        return self.i1 + self.i2 + self.i3


def step(spec: ProblemSpec, x: float, k: int, u: float) -> float:
    """One recursion update: x + b/(k+1) * (g(x) + u)."""
    return x + (spec.b / (k + 1.0)) * (eval_g(spec.drift, x) + u)


def _forced_value(spec: ProblemSpec, forced: str) -> float:
    if forced == "zero":
        return 0.0
    if forced == "plus_sigma":
        return spec.noise.sigma
    raise ValueError(f"forced must be one of {FORCED_MODES}, got {forced!r}")


def simulate(
    spec: ProblemSpec,
    n: int,
    seed: int,
    record: bool = True,
    replica: int = 0,
    forced: Optional[str] = None,
):
    """Run the recursion to X_{n+1}.

    Returns a Trajectory when record is on, else only the final deviation
    X_{n+1} - x* in O(1) memory.  forced="zero" / "plus_sigma" replaces
    every noise draw with the constant (debug mode for deterministic
    cross-checks).  Deterministic given (spec, n, seed, replica).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    stream = ReplicaStream(seed, replica)
    state = spec.noise.initial_state()
    x = spec.x0
    if record:
        xs = np.empty(n + 2)
        us = np.empty(n + 1)
        xs[0] = x
    for k in range(n + 1):
        if forced is None:
            u, state = sample_noise(spec.noise, state, stream, k)
        else:
            u = _forced_value(spec, forced)
        x = x + (spec.b / (k + 1.0)) * (eval_g(spec.drift, x) + u)
        if record:
            xs[k + 1] = x
            us[k] = u
    if record:
        return Trajectory(
            xs=xs,
            us=us,
            spec=spec,
            fingerprint=spec.fingerprint(),
            seed=seed,
            replica=replica,
            forced=forced,
        )
    return x - spec.drift.x_star


def weighted_sum(
    spec: ProblemSpec,
    n: int,
    seed: int,
    replica: int = 0,
    forced: Optional[str] = None,
) -> float:
    """b * sum_{k=0}^{n} beta(c, k+1, n) / (k+1) * U_{k+1} with c = b g'(x*).

    Evaluated by the forward recurrence s <- (1 + c/(k+1)) s + b/(k+1) U,
    one sweep, O(1) memory; this is the noise part of the linearized
    recursion started at the root.  Requires b g'(x*) < -1.
    """
    spec.require_mdp_regime()
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    c = spec.c
    stream = ReplicaStream(seed, replica)
    state = spec.noise.initial_state()
    s = 0.0
    for k in range(n + 1):
        if forced is None:
            u, state = sample_noise(spec.noise, state, stream, k)
        else:
            u = _forced_value(spec, forced)
        fk = 1.0 + c / (k + 1.0)
        ck = spec.b / (k + 1.0)
        s = fk * s + ck * u
    return s


def taylor_decompose(traj: Trajectory) -> Decomposition:
    """Split X_{n+1} - x* into start, remainder and noise contributions.

    i1 = beta(c, 0, n) (x0 - x*)
    i2 = b sum_k beta(c, k+1, n)/(k+1) * R_k,  R_k = g(X_k) - g'(x*)(X_k - x*)
    i3 = b sum_k beta(c, k+1, n)/(k+1) * U_{k+1}

    R_k is the exact Taylor remainder, so the identity i1 + i2 + i3 =
    X_{n+1} - x* holds without any unobservable intermediate point.
    """
    if traj.xs is None or len(traj.xs) != len(traj.us) + 1:
        raise ValueError("taylor_decompose needs a fully recorded trajectory")
    spec = traj.spec
    drift = spec.drift
    beta0, coef = recursion_weights(spec, traj.horizon)
    dev = traj.xs[:-1] - drift.x_star
    g_vals = eval_g(drift, traj.xs[:-1])
    remainder = g_vals - drift.gprime_star * dev
    i1 = beta0 * (traj.xs[0] - drift.x_star)
    i2 = float(np.sum(coef * remainder))
    i3 = float(np.sum(coef * traj.us))
    return Decomposition(i1=i1, i2=i2, i3=i3)


def envelope_bound(spec: ProblemSpec, n: int) -> tuple[np.ndarray, float]:
    """Deterministic pathwise envelope B_0..B_{n+1} with |X_k - x*| <= B_k.

    B_{k+1} = q_k B_k + b Ku/(k+1) where q_k is the worst contraction
    factor over slopes in [-K2, -K1]; F is the envelope supremum.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    b = spec.b
    k1 = spec.drift.K1
    k2 = spec.drift.K2
    ku = spec.noise.Ku
    ks = np.arange(n + 1, dtype=np.float64)
    q = np.maximum(np.abs(1.0 - b * k1 / (ks + 1.0)), np.abs(1.0 - b * k2 / (ks + 1.0)))
    drive = b * ku / (ks + 1.0)
    env = np.empty(n + 2)
    env[0] = abs(spec.x0 - spec.drift.x_star)
    cur = env[0]
    for k in range(n + 1):
        cur = q[k] * cur + drive[k]
        env[k + 1] = cur
    return env, float(np.max(env))


# ---------------------------------------------------------------------------
# Vectorized batch execution (replica blocks)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchResult:
    hits: int
    replicas: int
    envelope_violations: int


def _rademacher_u(zbuf, bitbuf, r, sigma, ubuf):
    """ubuf <- sigma * (+-1) from bit r of the hash block; exact via
    2*sigma*bit - sigma."""
    np.right_shift(zbuf, np.uint64(r), out=bitbuf)
    np.bitwise_and(bitbuf, np.uint64(1), out=bitbuf)
    np.multiply(bitbuf, 2.0 * sigma, out=ubuf, casting="unsafe")
    ubuf -= sigma
    return ubuf


def _check_target(spec: ProblemSpec, target: str) -> None:
    if target not in ("recursion", "weighted_sum"):
        raise ValueError(f"unknown target {target!r}")
    if target == "weighted_sum":
        spec.require_mdp_regime()


class _BlockRunner:
    """Simulates one block of replicas [lo, hi) step-synchronously."""

    def __init__(self, spec: ProblemSpec, target: str, n: int, seed: int,
                 lo: int, hi: int):
        _check_target(spec, target)
        self.spec = spec
        self.target = target
        self.n = n
        self.seed = seed
        self.lo = lo
        self.hi = hi
        self.width = hi - lo

    def run(self, envelope: Optional[np.ndarray] = None) -> tuple[np.ndarray, int]:
        """Returns (final deviations, envelope violation count)."""
        spec = self.spec
        noise = spec.noise
        n = self.n
        w = self.width
        keys = replica_keys_array(self.seed, self.lo, self.hi)
        zbuf = np.empty(w, dtype=np.uint64)
        tbuf = np.empty(w, dtype=np.uint64)
        ubuf = np.empty(w)
        gbuf = np.empty(w)
        bk = spec.b / (np.arange(n + 1, dtype=np.float64) + 1.0)
        is_rademacher = isinstance(noise, Rademacher)
        if not is_rademacher:
            p_table = np.array(
                [noise.p_for_state(0), noise.p_for_state(1), noise.p_for_state(-1)]
            )
            pos_table = np.array([noise.outcomes(p)[0] for p in p_table])
            neg_table = np.array([noise.outcomes(p)[1] for p in p_table])
            state = np.zeros(w, dtype=np.intp)
        if self.target == "recursion":
            x = np.full(w, spec.x0)
            x_star = spec.drift.x_star
        else:
            s = np.zeros(w)
            c = spec.c
            fk = 1.0 + c / (np.arange(n + 1, dtype=np.float64) + 1.0)
        violations = 0
        sigma = noise.sigma
        for k in range(n + 1):
            if is_rademacher:
                j, r = divmod(k, 64)
                if r == 0:
                    np.bitwise_xor(keys, np.uint64(_step_key(_D_SIGN, j)), out=zbuf)
                    _mix64_array(zbuf)
                _rademacher_u(zbuf, tbuf, r, sigma, ubuf)
            else:
                np.bitwise_xor(keys, np.uint64(_step_key(_D_UNIF, k)), out=zbuf)
                _mix64_array(zbuf)
                np.right_shift(zbuf, np.uint64(11), out=tbuf)
                np.multiply(tbuf, _INV53, out=ubuf, casting="unsafe")
                p = p_table[state]
                went_up = ubuf < p
                ubuf[:] = np.where(went_up, pos_table[state], neg_table[state])
                state = np.where(went_up, 1, -1)
            if self.target == "recursion":
                np.subtract(x, x_star, out=gbuf)
                self._apply_drift(gbuf)
                gbuf += ubuf
                gbuf *= bk[k]
                x += gbuf
                if envelope is not None:
                    np.abs(np.subtract(x, x_star, out=gbuf), out=gbuf)
                    violations += int(np.count_nonzero(gbuf > envelope[k + 1]))
            else:
                s *= fk[k]
                ubuf *= bk[k]
                s += ubuf
        if self.target == "recursion":
            return x - x_star, violations
        return s, violations

    def _apply_drift(self, dev: np.ndarray) -> None:
        """dev <- g(x) given dev = x - x_star on entry."""
        drift = self.spec.drift
        if isinstance(drift, LinearDrift):
            dev *= drift.alpha1
        else:
            # -c1*u - c2*sin(u)
            t = np.sin(dev)
            t *= drift.c2
            dev *= drift.c1
            dev += t
            np.negative(dev, out=dev)


def _map_blocks(one, replicas: int, workers: int) -> list:
    """one((lo, hi)) for each replica block in order, on up to `workers`
    threads."""
    ranges = [(lo, min(lo + BLOCK, replicas)) for lo in range(0, replicas, BLOCK)]
    if workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(one, ranges))
    return [one(r) for r in ranges]


def _count_beyond(mags: np.ndarray, threshold: float, inclusive: bool) -> int:
    # a NaN compares false and an inf beyond any threshold: either would
    # turn an overflowed recursion into a silent miss or hit
    bad = np.count_nonzero(~np.isfinite(mags))
    if bad:
        raise FloatingPointError(
            f"{bad} of {mags.size} final deviations are not finite "
            "(the recursion overflowed float64)"
        )
    return int(np.count_nonzero(mags >= threshold if inclusive else mags > threshold))


def batch_final_deviations(
    spec: ProblemSpec,
    target: str,
    n: int,
    seed: int,
    replicas: int,
    workers: int = 1,
) -> np.ndarray:
    """Final deviations for replicas 0..replicas-1, in replica order.

    Row i is bit-identical to the single-replica run with the same seed,
    independent of worker count.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")

    def one(rng: tuple[int, int]) -> np.ndarray:
        lo, hi = rng
        return _BlockRunner(spec, target, n, seed, lo, hi).run()[0]

    return np.concatenate(_map_blocks(one, replicas, workers))


# ---------------------------------------------------------------------------
# Closed-form tail counting (linear drift, Rademacher noise)
# ---------------------------------------------------------------------------

_UNIT_ROUNDOFF = 2.0**-53
# Rounding allowance per step in unit roundoffs.  One step of the sequential
# recurrence and one factor of the closed-form weights each round fewer than
# ten times.
_GUARD_ULPS = 16.0

# _BYTE_SIGNS[r, v] is +1 when bit r of byte v is set, else -1.
_BYTE_SIGNS = 2.0 * ((np.arange(256) >> np.arange(8)[:, None]) & 1) - 1.0
# Column of a uint64's uint8 view holding its bits 8m..8m+7, for m = 0..7.
_BYTE_COLUMNS = tuple(range(8)) if sys.byteorder == "little" else tuple(range(7, -1, -1))


class _LinearRademacherTail:
    """Tail counts for linear drift under Rademacher noise, in closed form.

    With g(x) = alpha1 (x - x*) the final deviation is exactly
    beta(c, 0, n) d0 + sigma sum_k w_k s_k (weights.recursion_weights),
    where s_k = +-1 is the step-k sign and d0 = x0 - x* for the recursion
    target, 0 for weighted_sum.  Bits 8m..8m+7 of the 64-step hash word j
    are the signs of steps 64j+8m..64j+8m+7, so word j adds
    T_j[m, byte_m] for m < 8, with the 8x256 table
    T_j[m, v] = sigma sum_r w_{64j+8m+r} (+-1 by bit r of v).

    The result is not bitwise equal to the sequential recurrence, so
    `guard` bounds |closed form - recurrence| for every replica: it is
    twice the sum of two bounds on the distance to the exact value.  The
    first is the forward error recurrence
    E_{k+1} = |f_k| E_k + ulps (|x*| + B_{k+1} + (1 + |c|/(k+1)) B_k + b sigma/(k+1)),
    f_k = 1 + c/(k+1), with B the pathwise envelope of |d_k| (the partial
    sum bound for weighted_sum); it covers the rounding of the recurrence
    and of the weights.  The second is the rounding of the table entries
    and their running sum.  A replica whose |deviation| lies within guard
    of the threshold is recomputed by the scalar reference, which equals
    the batch row bitwise, so hit counts equal the recurrence's exactly.
    """

    def __init__(self, spec: ProblemSpec, target: str, n: int):
        _check_target(spec, target)
        self.spec = spec
        self.target = target
        self.n = n
        beta0, w = recursion_weights(spec, n)
        sigma = spec.noise.sigma
        self.words = n // 64 + 1
        padded = np.zeros(64 * self.words)
        padded[: n + 1] = sigma * w
        self._word_weights = padded.reshape(self.words, 8, 8)
        if target == "recursion":
            self.start = beta0 * (spec.x0 - spec.drift.x_star)
            env, _ = envelope_bound(spec, n)
            x_star = abs(spec.drift.x_star)
        else:
            self.start = 0.0
            env, _ = envelope_bound(replace(spec, x0=spec.drift.x_star), n)
            x_star = 0.0
        j = np.arange(n + 1, dtype=np.float64)
        spread = 1.0 + abs(spec.c) / (j + 1.0)
        tol = _GUARD_ULPS * _UNIT_ROUNDOFF
        local = tol * (x_star + env[1:] + spread * env[:-1] + spec.b * sigma / (j + 1.0))
        # E_k feeds the next step's rounding through |d_k| <= B_k + E_k
        growth = np.abs(1.0 + spec.c / (j + 1.0)) + tol * spread
        carry = np.ones(n + 1)
        carry[:n] = np.cumprod(growth[:0:-1])[::-1]
        recurrence = float(carry @ local)
        # the start plus 8 entries per word are summed, each entry a sum of 8
        terms = 8 * self.words + 9
        summation = terms * _UNIT_ROUNDOFF * (
            abs(self.start) + float(np.sum(np.abs(padded)))
        )
        self.guard = 2.0 * (recurrence + summation)

    def deviations(self, seed: int, lo: int, hi: int) -> np.ndarray:
        """Closed-form final deviations of replicas [lo, hi)."""
        w = hi - lo
        keys = replica_keys_array(seed, lo, hi)
        zbuf = np.empty(w, dtype=np.uint64)
        byte_rows = zbuf.view(np.uint8).reshape(w, 8)
        part = np.empty(w)
        dev = np.full(w, self.start)
        for j in range(self.words):
            table = self._word_weights[j] @ _BYTE_SIGNS
            np.bitwise_xor(keys, np.uint64(_step_key(_D_SIGN, j)), out=zbuf)
            _mix64_array(zbuf)
            for m, col in enumerate(_BYTE_COLUMNS):
                # a byte never exceeds 255, so "clip" only skips the bounds check
                np.take(table[m], byte_rows[:, col], out=part, mode="clip")
                dev += part
        return dev

    def hits(self, seed: int, lo: int, hi: int, threshold: float,
             inclusive: bool) -> int:
        mags = np.abs(self.deviations(seed, lo, hi))
        for i in np.flatnonzero(np.abs(mags - threshold) <= self.guard):
            mags[i] = abs(self._reference(seed, lo + int(i)))
        return _count_beyond(mags, threshold, inclusive)

    def _reference(self, seed: int, replica: int) -> float:
        if self.target == "recursion":
            return simulate(self.spec, self.n, seed, record=False, replica=replica)
        return weighted_sum(self.spec, self.n, seed, replica=replica)


def count_tail_hits(
    spec: ProblemSpec,
    target: str,
    n: int,
    seed: int,
    replicas: int,
    threshold: float,
    inclusive: bool = False,
    workers: int = 1,
    envelope: Optional[np.ndarray] = None,
) -> BatchResult:
    """Count replicas whose final |deviation| exceeds the threshold.

    inclusive selects >= instead of >.  When an envelope array is given,
    |X_k - x*| <= B_k is also checked at every step of every path and the
    number of violating (path, step) pairs is returned.  Hit counts are
    exact integers accumulated in replica-block order, so the result does
    not depend on worker count.  Without an envelope, linear drift with
    Rademacher noise is counted in closed form (_LinearRademacherTail) with
    the same hits as the sequential recurrence.  Raises FloatingPointError
    if any final deviation is NaN or infinite.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    closed_form = None
    if (envelope is None and isinstance(spec.drift, LinearDrift)
            and isinstance(spec.noise, Rademacher)):
        closed_form = _LinearRademacherTail(spec, target, n)
        if not math.isfinite(closed_form.guard):
            closed_form = None  # overflowing weights: only the recurrence is usable

    def one(rng: tuple[int, int]) -> tuple[int, int]:
        lo, hi = rng
        if closed_form is not None:
            return closed_form.hits(seed, lo, hi, threshold, inclusive), 0
        devs, violations = _BlockRunner(spec, target, n, seed, lo, hi).run(
            envelope=envelope
        )
        return _count_beyond(np.abs(devs), threshold, inclusive), violations

    parts = _map_blocks(one, replicas, workers)
    hits = sum(p[0] for p in parts)
    violations = sum(p[1] for p in parts)
    return BatchResult(hits=hits, replicas=replicas, envelope_violations=violations)


def weighted_sums_over_signs(
    spec: ProblemSpec, n: int, signs: np.ndarray
) -> np.ndarray:
    """Weighted-sum statistic for explicit sign patterns: the per-pattern
    reference that the enumeration oracles in mdp match bitwise.

    signs has shape (m, n+1) with entries +-1; returns the m statistics for
    Rademacher noise U_{k+1} = sigma * signs[:, k], evaluated by the same
    forward recurrence as weighted_sum.
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

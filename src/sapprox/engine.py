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

  * Sign bit at step k: bit (k mod 64) of z(i, k // 64; D_SIGN).
  * Uniform at step k: the top 53 bits of z(i, k; D_UNIF) scaled to [0, 1).

The scalar ReplicaStream and its block twin BlockStream hand out the same
bits and uniforms, and a noise model's scalar and block samplers (sapprox.model)
map them to draws through its one value table.  Each target (TARGETS) is
one kernel for floats and arrays, x + a_k (g(x) + u) for the recursion and
f_k s + a_k u for the weighted sum, on the factors of
weights.recurrence_factors.  final_deviation (one replica), simulate (its
recorded path), the tail counts' block loop and the enumeration oracle
all step it, so a block row equals final_deviation bit for bit with linear
drift, and to a relative 1e-12 with sine drift (np.sin may round apart).
count_tail_hits sums linear-drift Rademacher paths in closed form instead
(_LinearRademacherTail), with the hit counts of the sequential recurrence.

Because noise does not depend on the horizon, the path to a horizon n passes
through the path to every earlier horizon.  count_tail_hits_grid (which
`sapprox bound` uses) therefore steps each replica block once to the last
horizon of its grid and counts hits at every grid horizon on the way, with
the same counts, and so the same output bytes, as one call per horizon.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from sapprox.model import LinearDrift, ProblemSpec, Rademacher
from sapprox.weights import _factors, recurrence_factors, recursion_weights, suffix_products

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
        self._key = replica_key(seed, replica)
        self._sign_block = -1
        self._sign_bits = 0

    def sign_bit(self, k: int) -> int:
        """The step-k sign bit, 0 or 1."""
        j, r = divmod(k, 64)
        if j != self._sign_block:
            self._sign_bits = _mix64(self._key ^ _step_key(_D_SIGN, j))
            self._sign_block = j
        return (self._sign_bits >> r) & 1

    def uniform(self, k: int) -> float:
        z = _mix64(self._key ^ _step_key(_D_UNIF, k))
        return (z >> 11) * _INV53


class BlockStream:
    """ReplicaStream of every replica in [lo, hi) at once: element i of each
    draw is the draw of replica lo + i.  Hash words are computed into one
    buffer, so a returned word is valid until the next call."""

    def __init__(self, seed: int, lo: int, hi: int):
        self.width = hi - lo
        self._keys = replica_keys_array(seed, lo, hi)
        self._word = np.empty(self.width, dtype=np.uint64)
        self._sign_block = -1

    def _hash(self, domain: int, j: int) -> np.ndarray:
        np.bitwise_xor(self._keys, np.uint64(_step_key(domain, j)), out=self._word)
        return _mix64_array(self._word)

    def sign_word(self, j: int) -> np.ndarray:
        """Hash word j of the signs: bit r is the sign bit of step 64 j + r."""
        if j != self._sign_block:
            self._hash(_D_SIGN, j)
            self._sign_block = j
        return self._word

    def sign_bits(self, k: int, out: np.ndarray) -> None:
        """out <- the step-k sign bits, 0 or 1, into an int64 array, which
        indexes a value table without a cast."""
        bits = out.view(np.uint64)
        j, r = divmod(k, 64)
        np.right_shift(self.sign_word(j), np.uint64(r), out=bits)
        np.bitwise_and(bits, np.uint64(1), out=bits)

    def uniforms(self, k: int, out: np.ndarray) -> None:
        """out <- the step-k uniforms in [0, 1)."""
        self._sign_block = -1  # the word buffer no longer holds a sign word
        word = self._hash(_D_UNIF, k)
        np.right_shift(word, np.uint64(11), out=word)
        np.multiply(word, _INV53, out=out, casting="unsafe")


@dataclass(frozen=True)
class Trajectory:
    """One recorded path: X_0..X_{n+1} and the noise U_1..U_{n+1}."""

    xs: np.ndarray
    us: np.ndarray
    spec: ProblemSpec

    @property
    def horizon(self) -> int:
        return len(self.us) - 1

    @property
    def final_deviation(self) -> float:
        return float(self.xs[-1]) - self.spec.drift.x_star


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


class _Recursion:
    """X_k from x0, with deviation X_k - x*, which an envelope bounds."""

    symbol, bounded = "X", True

    def __init__(self, spec: ProblemSpec):
        self.drift, self.start, self.origin = spec.drift, spec.x0, spec.drift.x_star

    def kernel(self, x, f, a, u):
        """x + a (g(x) + u), f unused: an array x is updated in place."""
        t = self.drift(x)
        t += u
        t *= a
        x += t
        return x


class _WeightedSum:
    """S_k from 0, the noise part of the linearization; needs b g'(x*) < -1."""

    symbol, bounded, start, origin = "S", False, 0.0, 0.0

    def __init__(self, spec: ProblemSpec):
        spec.require_mdp_regime()

    @staticmethod
    def kernel(s, f, a, u):
        """f s + a u: an array s is updated in place, and an array u overwritten."""
        s *= f
        u *= a
        s += u
        return s


# what a tail count follows: the recursion, or its linearization's noise sum
_TARGETS = {"recursion": _Recursion, "weighted_sum": _WeightedSum}
TARGETS = tuple(_TARGETS)


def _target(spec: ProblemSpec, target: str):
    """The statistic of spec that the target name of TARGETS follows."""
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    return _TARGETS[target](spec)


_CHUNK = 4096  # steps whose factors _scalar_path computes at once


def _scalar_path(spec: ProblemSpec, stat, n: int, seed: int, replica: int,
                 record: bool = False):
    """(final deviation, states, draws) of one replica of the statistic stat
    (_target), stepped by its kernel on floats with step k's factors, in
    O(1) memory unless record asks for the state and draw arrays."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    draw = spec.noise.sampler(ReplicaStream(seed, replica))
    kernel, state = stat.kernel, stat.start
    xs, us = (np.full(n + 2, state), np.empty(n + 1)) if record else (None, None)
    for lo in range(0, n + 1, _CHUNK):
        fs, as_ = _factors(spec.b, spec.c, np.arange(lo + 1.0, min(lo + _CHUNK, n + 1) + 1.0))
        for k, f, a in zip(range(lo, n + 1), fs.tolist(), as_.tolist()):
            u = draw(k)
            state = kernel(state, f, a, u)
            if record:
                xs[k + 1], us[k] = state, u
    if not math.isfinite(state):  # once a state is NaN or inf, every later one is
        raise FloatingPointError(
            f"{stat.symbol}_{n + 1} is not finite (the recursion overflowed float64)"
        )
    return float(state - stat.origin), xs, us


def simulate(spec: ProblemSpec, n: int, seed: int, replica: int = 0) -> Trajectory:
    """The recorded recursion X_0..X_{n+1} with its noise.  Deterministic
    given (spec, n, seed, replica)."""
    _, xs, us = _scalar_path(spec, _target(spec, "recursion"), n, seed, replica, True)
    return Trajectory(xs=xs, us=us, spec=spec)


def final_deviation(spec: ProblemSpec, target: str, n: int, seed: int,
                    replica: int = 0) -> float:
    """One replica's final deviation of the target (TARGETS) in O(1) memory:
    X_{n+1} - x*, or S_{n+1} for "weighted_sum", which needs b g'(x*) < -1.
    Bitwise simulate(...).final_deviation for the recursion.  Raises
    FloatingPointError when the statistic overflows float64."""
    return _scalar_path(spec, _target(spec, target), n, seed, replica)[0]


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
    g_vals = drift(traj.xs[:-1])
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
    # past float64 the envelope is inf, and stays inf past a zero factor
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n + 1):
            cur = q[k] * cur + drive[k]
            env[k + 1] = cur
    env[np.isnan(env)] = np.inf
    return env, float(np.max(env))


# ---------------------------------------------------------------------------
# Vectorized batch execution (replica blocks)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchResult:
    hits: int
    replicas: int
    envelope_violations: int


def _run_block(spec: ProblemSpec, stat, horizons: Sequence[int], seed: int,
               lo: int, hi: int, envelope: Optional[np.ndarray] = None
               ) -> list[tuple[np.ndarray, int]]:
    """Steps stat (_target) on replicas [lo, hi) to the last of the
    increasing horizons; returns, for each horizon n, the deviations after
    step n and the envelope violations through step n."""
    w = hi - lo
    stops = set(horizons)
    draw = spec.noise.block_sampler(BlockStream(seed, lo, hi))
    u = np.empty(w)
    f, a = recurrence_factors(spec.b, spec.c, horizons[-1])
    state = np.full(w, stat.start)
    if envelope is not None:
        beyond = np.empty(w, dtype=bool)
    violations = 0
    results = []
    for k in range(horizons[-1] + 1):
        draw(k, u)
        state = stat.kernel(state, f[k], a[k], u)
        if envelope is not None:  # u is free until the next draw
            np.abs(np.subtract(state, stat.origin, out=u), out=u)
            np.greater(u, envelope[k + 1], out=beyond)
            violations += int(np.count_nonzero(beyond))
        if k in stops:
            results.append((state - stat.origin, violations))
    return results


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


# ---------------------------------------------------------------------------
# Closed-form tail counting (linear drift, Rademacher noise)
# ---------------------------------------------------------------------------

UNIT_ROUNDOFF = 2.0**-53
# Rounding allowance per step in unit roundoffs.  One step of the sequential
# recurrence and one factor of the closed-form weights each round fewer than
# ten times.
_GUARD_ULPS = 16.0

# _BYTE_BITS[r, v] is bit r of byte v, 0 or 1: a step's index into the
# Rademacher value table (-sigma, sigma).
_BYTE_BITS = (np.arange(256) >> np.arange(8)[:, None]) & 1
# Column of a uint64's uint8 view holding its bits 8m..8m+7, for m = 0..7.
_BYTE_COLUMNS = tuple(range(8)) if sys.byteorder == "little" else tuple(range(7, -1, -1))


def recurrence_error(spec: ProblemSpec, target: str, n: int) -> float:
    """A bound on |computed - exact| for the final deviation that the
    target's kernel (_target) computes, on every noise path, for any drift
    under "weighted_sum" and linear drift under "recursion": the exact value
    is beta(c, 0, n) d0 + sum_k w_k U_{k+1} over the floats of
    weights.recursion_weights, with d0 = start - origin.

    The bound is E_{n+1} of the forward error recurrence
    E_{k+1} = |f_k| E_k + ulps (|origin| + B_{k+1} + (1 + |c|/(k+1)) B_k + b Ku/(k+1)),
    with B the pathwise envelope of |d_k| (the partial sum bound for
    weighted_sum); it covers the rounding of the recurrence and of the
    weights.
    """
    stat = _target(spec, target)
    # the envelope of the path whose deviation starts at start - origin
    env, _ = envelope_bound(replace(spec, x0=stat.start + (spec.drift.x_star - stat.origin)), n)
    f, _ = recurrence_factors(spec.b, spec.c, n)
    k1 = np.arange(1.0, n + 2.0)
    spread = 1.0 + abs(spec.c) / k1
    tol = _GUARD_ULPS * UNIT_ROUNDOFF
    local = tol * (abs(stat.origin) + env[1:] + spread * env[:-1] + spec.b * spec.noise.Ku / k1)
    # E_k feeds the next step's rounding through |d_k| <= B_k + E_k
    return float(suffix_products(np.abs(f) + tol * spread) @ local)


class _LinearRademacherTail:
    """Tail counts for linear drift under Rademacher noise, in closed form.

    With g(x) = alpha1 (x - x*) the final deviation is exactly
    beta(c, 0, n) d0 + sum_k w_k U_{k+1} (weights.recursion_weights), where
    U_{k+1} = values[bit] is the noise's value table indexed by the step-k
    sign bit and d0 = start - origin of the target (_target).
    Bits 8m..8m+7 of the 64-step hash word j are the sign bits of steps
    64j+8m..64j+8m+7, so word j adds T_j[m, byte_m] with the 8x256 table
    T_j[m, v] = sum_r w_{64j+8m+r} values[bit r of v], for the columns m
    with 64j + 8m <= n; the other columns hold no step and add nothing.

    The result is not bitwise equal to the sequential recurrence, so
    `guard` bounds |closed form - recurrence| for every replica: it is
    twice the sum of two bounds on the distance to the exact value.  The
    first is recurrence_error, which covers the rounding of the recurrence
    and of the weights.  The second is the rounding of the table entries
    and their running sum.  A replica whose |deviation| lies within guard
    of the threshold is recomputed by the scalar reference, which equals
    the batch row bitwise, so hit counts equal the recurrence's exactly.
    """

    def __init__(self, spec: ProblemSpec, target: str, n: int):
        self.spec, self.n, self._stat = spec, n, _target(spec, target)
        beta0, w = recursion_weights(spec, n)
        self.words = n // 64 + 1
        padded = np.zeros(64 * self.words)
        padded[: n + 1] = w
        self._word_weights = padded.reshape(self.words, 8, 8)
        self._columns = [min(8, (n - 64 * j) // 8 + 1) for j in range(self.words)]
        self._byte_values = np.asarray(spec.noise.values)[_BYTE_BITS]
        self.start = beta0 * (self._stat.start - self._stat.origin)
        # the start plus 8 entries per word are summed, each entry a sum of 8
        terms = 8 * self.words + 9
        summation = terms * UNIT_ROUNDOFF * (
            abs(self.start) + spec.noise.Ku * float(np.sum(np.abs(padded)))
        )
        self.guard = 2.0 * (recurrence_error(spec, target, n) + summation)

    def deviations(self, seed: int, lo: int, hi: int) -> np.ndarray:
        """Closed-form final deviations of replicas [lo, hi)."""
        w = hi - lo
        stream = BlockStream(seed, lo, hi)
        part = np.empty(w)
        dev = np.full(w, self.start)
        for j, columns in enumerate(self._columns):
            table = self._word_weights[j] @ self._byte_values
            byte_rows = stream.sign_word(j).view(np.uint8).reshape(w, 8)
            for m in range(columns):
                # a byte never exceeds 255, so "clip" only skips the bounds check
                np.take(table[m], byte_rows[:, _BYTE_COLUMNS[m]], out=part, mode="clip")
                dev += part
        return dev

    def hits(self, seed: int, lo: int, hi: int, threshold: float,
             inclusive: bool) -> int:
        mags = np.abs(self.deviations(seed, lo, hi))
        for i in np.flatnonzero(np.abs(mags - threshold) <= self.guard):
            mags[i] = abs(_scalar_path(self.spec, self._stat, self.n, seed, lo + int(i))[0])
        return _count_beyond(mags, threshold, inclusive)


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

    inclusive selects >= instead of >.  When an envelope array B_0..B_{n+1}
    is given (target "recursion" only), |X_k - x*| <= B_k is also checked at
    every step of every path and the number of violating (path, step) pairs
    is returned.  Hit counts are exact integers accumulated in replica-block
    order, so the result does not depend on worker count.  Without an
    envelope, linear drift with Rademacher noise is counted in closed form
    (_LinearRademacherTail) with the same hits as the sequential recurrence.
    Raises FloatingPointError if any final deviation is NaN or infinite.
    """
    return count_tail_hits_grid(spec, target, (n,), (threshold,), seed, replicas,
                                inclusive, workers, envelope)[0]


def count_tail_hits_grid(
    spec: ProblemSpec,
    target: str,
    horizons: Sequence[int],
    thresholds: Sequence[float],
    seed: int,
    replicas: int,
    inclusive: bool = False,
    workers: int = 1,
    envelope: Optional[np.ndarray] = None,
) -> tuple[BatchResult, ...]:
    """count_tail_hits at each of the strictly increasing horizons, with
    thresholds[i] for horizons[i]; result i equals that single-horizon call.

    Paths are nested (noise depends on the step, not on the horizon), so
    each replica block is stepped once to the last horizon and counted at
    every horizon on the way.  Envelope violations of result i are those
    through step horizons[i].  The closed form shares nothing across
    horizons (its weights depend on n) and is evaluated per horizon.
    """
    horizons, thresholds = tuple(horizons), tuple(thresholds)
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if not horizons:
        raise ValueError("horizons must not be empty")
    if horizons[0] < 0:
        raise ValueError(f"horizons must be nonnegative, got {horizons}")
    if any(a >= b for a, b in zip(horizons, horizons[1:])):
        raise ValueError(f"horizons must be strictly increasing, got {horizons}")
    if len(thresholds) != len(horizons):
        raise ValueError(
            f"need one threshold per horizon, got {len(thresholds)} for "
            f"{len(horizons)} horizons"
        )
    stat = _target(spec, target)
    if envelope is not None:
        if not stat.bounded:
            raise ValueError(f"an envelope bounds |X_k - x*|; target {target!r} has none")
        if len(envelope) < horizons[-1] + 2:
            raise ValueError(
                f"envelope needs B_0..B_{{n+1}}, {horizons[-1] + 2} entries for "
                f"horizon {horizons[-1]}, got {len(envelope)}"
            )
    closed_forms = None
    if (envelope is None and isinstance(spec.drift, LinearDrift)
            and isinstance(spec.noise, Rademacher)):
        closed_forms = [_LinearRademacherTail(spec, target, n) for n in horizons]
        if not all(math.isfinite(form.guard) for form in closed_forms):
            closed_forms = None  # overflowing weights: only the recurrence is usable

    def one(rng: tuple[int, int]) -> list[tuple[int, int]]:
        lo, hi = rng
        if closed_forms is not None:
            return [(form.hits(seed, lo, hi, t, inclusive), 0)
                    for form, t in zip(closed_forms, thresholds)]
        rows = _run_block(spec, stat, horizons, seed, lo, hi, envelope)
        return [(_count_beyond(np.abs(devs), t, inclusive), violations)
                for (devs, violations), t in zip(rows, thresholds)]

    parts = _map_blocks(one, replicas, workers)
    return tuple(BatchResult(hits=sum(p[i][0] for p in parts), replicas=replicas,
                             envelope_violations=sum(p[i][1] for p in parts))
                 for i in range(len(horizons)))


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
bits and uniforms, and a noise model's scalar and block samplers
(sapprox.model) map them to the same draws through its chain table
(start_state, up_probability, values, next_state).  Each target (TARGETS) is
one kernel for floats and arrays, x + a_k (g(x) + u) for the recursion and
f_k s + a_k u for the weighted sum, on the factors of
weights.recurrence_factors.  final_deviation (one replica), simulate (its
recorded path), the tail counts' block loop and the enumeration oracle
all step it, so a block row equals final_deviation bit for bit with linear
drift, and to a relative 1e-12 with sine drift (np.sin may round apart).
Where the noise model's `fair_signs` says each draw is its value table at
the step's sign bit, count_tail_hits sums a statistic affine in the noise
(its `affine`: the weighted sum always, the recursion under linear drift) in
closed form instead (_AffineTail, guarded by sum_error), with the hit counts
of the sequential recurrence.  The count is a cascade of estimates, each
within a proven margin of the recurrence.  Past one sign word, and when the
horizon's slack lies below its threshold, a screen comes first: one
popcount per sign word (the last word's bits past step n cleared), times
the word's mean weight over its own steps, bounds each replica's closed
form within the slack.  The byte tables follow, within the guard, and the
scalar recurrence last.  Each stage decides the replicas
whose estimate lies beyond its margin of the threshold and hands the global
indices of the rest to the next, which takes them in full-width chunks.

Because noise does not depend on the horizon, the path to a horizon n passes
through the path to every earlier horizon.  count_tail_hits_grid (which
`sapprox bound` uses) therefore steps each replica block once to the last
horizon of its grid and counts hits at every grid horizon on the way, with
the same counts, and so the same output bytes, as one call per horizon.

The envelope dominates every path, so a tail count can be decided with no
path at all.  A horizon's reach is B_{n+1} + E_{n+1} (_Reach): the
statistic's pathwise envelope, plus a forward bound on the rounding of its
kernel.  No computed deviation lies beyond it, so a threshold beyond the
reach has 0 hits at every seed, and count_tail_hits_grid steps no replica
for that horizon (it settles it).  Both terms are built once per grid, at
its last horizon, and sliced for every horizon and every closed-form guard.
The envelope is envelope_bound's read-only array, which keeps the last
(spec, n) asked for: `sapprox bound` shares one with bounds.select_delta.

Each closed-form stage task borrows a BLOCK-wide workspace from a pool
kept for the life of the process (_borrowed) and puts it back when done;
the pool holds at most as many as ran at once.  The task's BlockStream keeps
its keys and hashes its words there, and the estimate writes its float64
deviations and products there, so after the first block a count allocates
nothing block-wide.  A word stays valid until its workspace goes back to
the pool.  Nothing pooled is returned: deviations() and the open replicas'
indices are arrays of their own.  A stepped block (_run_block) runs its n
steps on buffers of its own, allocated once per block.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from sapprox.model import ProblemSpec
from sapprox.weights import _CHUNK, _contraction, _indices, recurrence_factors, recursion_weights, suffix_products

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


def _mix64_array(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """mix64 of each element of the uint64 array z, in place, each shift
    written into scratch."""
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def replica_keys_array(seed: int, replicas: np.ndarray, out: np.ndarray,
                       scratch: np.ndarray) -> np.ndarray:
    """Vector of replica_key(seed, i) for each replica index i of the
    integer array replicas, into out (replicas itself may be out), mixed
    with scratch as _mix64_array's."""
    # the cast to uint64 is astype's, done in the loop's buffer
    z = np.multiply(replicas, np.uint64(_GOLDEN), out=out, dtype=np.uint64, casting="unsafe")
    z ^= np.uint64(_mix64(seed & _MASK))
    return _mix64_array(z, scratch)


# 0, 1, ..., BLOCK - 1: the replica indices of a range are its start plus these
_OFFSETS = np.arange(BLOCK, dtype=np.uint64)
_OFFSETS.flags.writeable = False


def _workspace(width: int) -> tuple:
    """The buffers of a block of `width` replicas: a stream's keys, hash word
    and shift scratch (uint64 rows), and an estimate's deviations `dev` and
    product row `part` (float64).  40 bytes per replica, 1.25 MB at
    BLOCK."""
    return np.empty((3, width), dtype=np.uint64), np.empty(width), np.empty(width)


# The free BLOCK-wide workspaces, kept for the life of the process.  A task
# takes one, or makes one when every workspace is out, and puts it back, so
# the pool never holds more workspaces than blocks ran at once.  list.pop
# and list.append are atomic, so threads share the pool without a lock.
_pool: list = []


@contextmanager
def _borrowed():
    """A BLOCK-wide _workspace of the pool, returned to it on exit."""
    try:
        space = _pool.pop()
    except IndexError:
        space = _workspace(BLOCK)
    try:
        yield space
    finally:
        _pool.append(space)


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
    """ReplicaStream of each of at most BLOCK replicas at once, a range or an
    index array: element i of each draw is the draw of replica replicas[i].

    Keys and hash words live in the first `width` columns of `space`, a
    _workspace (a borrowed one of the pool, _borrowed) or a new one, whose
    `dev` and `part` an estimate of the closed form uses for its block-wide
    intermediates.  A returned word is valid until the next call, and only
    while its workspace is borrowed: it goes back to the pool with it."""

    def __init__(self, seed: int, replicas, space: Optional[tuple] = None):
        self.replicas, w = replicas, len(replicas)
        words, dev, part = _workspace(w) if space is None else space
        self.keys, self.word, self.scratch = words[:, :w]
        self.width, self.dev, self.part = w, dev[:w], part[:w]
        self._sign_block = -1
        if isinstance(replicas, range):  # keys <- start, start + 1, ..., stop - 1
            replicas = np.add(_OFFSETS[:w], np.uint64(replicas.start), out=self.keys)
        replica_keys_array(seed, replicas, self.keys, self.scratch)

    def _hash(self, domain: int, j: int) -> np.ndarray:
        np.bitwise_xor(self.keys, np.uint64(_step_key(domain, j)), out=self.word)
        return _mix64_array(self.word, self.scratch)

    def sign_word(self, j: int) -> np.ndarray:
        """Hash word j of the signs: bit r is the sign bit of step 64 j + r."""
        if j != self._sign_block:
            self._hash(_D_SIGN, j)
            self._sign_block = j
        return self.word

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
        self.affine = spec.drift.c2 == 0  # affine in the noise iff the drift is

    def kernel(self, x, f, a, u):
        """x + a (g(x) + u), f unused: an array x is updated in place."""
        t = self.drift(x)
        t += u
        t *= a
        x += t
        return x

    @staticmethod
    def lipschitz(spec: ProblemSpec, k1: np.ndarray) -> np.ndarray:
        """A Lipschitz factor of step k in the state, at k1 = k + 1: the
        worst contraction factor q_k = max |f_k| = |1 + c/(k+1)| over
        c = -b K1 and c = -b K2, since the slope 1 + a_k g' lies between
        1 - a_k K2 and 1 - a_k K1.  Bitwise |f_k| under linear drift."""
        b, drift = spec.b, spec.drift
        return np.maximum(np.abs(_contraction(-b * drift.K1, k1)), np.abs(_contraction(-b * drift.K2, k1)))


class _WeightedSum:
    """S_k from 0, the noise part of the linearization; needs b g'(x*) < -1."""

    # affine in the noise under every drift: its factors need only b and c
    symbol, bounded, affine, start, origin = "S", False, True, 0.0, 0.0

    def __init__(self, spec: ProblemSpec):
        spec.require_mdp_regime()

    @staticmethod
    def kernel(s, f, a, u):
        """f s + a u: an array s is updated in place, and an array u overwritten."""
        s *= f
        u *= a
        s += u
        return s

    @staticmethod
    def lipschitz(spec: ProblemSpec, k1: np.ndarray) -> np.ndarray:
        """The Lipschitz factor |f_k| of step k in the state."""
        return np.abs(_contraction(spec.c, k1))


# what a tail count follows: the recursion, or its linearization's noise sum
_TARGETS = {"recursion": _Recursion, "weighted_sum": _WeightedSum}
TARGETS = tuple(_TARGETS)


def _target(spec: ProblemSpec, target: str):
    """The statistic of spec that the target name of TARGETS follows."""
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    return _TARGETS[target](spec)


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
        fs, as_ = recurrence_factors(spec.b, spec.c, min(lo + _CHUNK - 1, n), lo)
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
    factor, the recursion's Lipschitz factor (_Recursion.lipschitz), since
    g(x*) = 0; F is the envelope supremum.

    The array is read-only and shared: the last (spec, n) asked for is kept,
    so `sapprox bound` builds it once for bounds.select_delta's F and the
    reach of count_tail_hits_grid (_Reach).
    """
    global _last_envelope
    key, env, sup = _last_envelope
    if key != (spec, n):
        env = _build_envelope(spec, n)
        env.flags.writeable = False
        sup = float(np.max(env))
        _last_envelope = ((spec, n), env, sup)
    return env, sup


# ((spec, n), B, F) of the last call, replaced whole: two threads that miss
# at once each build the same array, and neither can read a torn entry
_last_envelope: tuple = (None, None, None)


def _build_envelope(spec: ProblemSpec, n: int) -> np.ndarray:
    """envelope_bound's B, stepped on Python floats (which round as float64
    does and raise no warning) _CHUNK steps at a time, in O(n) memory."""
    k1 = _indices(n)
    env = np.empty(n + 2)
    env[0] = abs(spec.x0 - spec.drift.x_star)
    cur = float(env[0])
    for lo in range(0, n + 1, _CHUNK):
        chunk = k1[lo: lo + _CHUNK]
        q, drive = _Recursion.lipschitz(spec, chunk), spec.b * spec.noise.Ku / chunk
        steps = []
        for q_k, drive_k in zip(q.tolist(), drive.tolist()):
            cur = q_k * cur + drive_k
            steps.append(cur)
        env[lo + 1: lo + 1 + len(chunk)] = steps
    # past float64 the envelope is inf, and stays inf past a zero factor
    env[np.isnan(env)] = np.inf
    return env


# ---------------------------------------------------------------------------
# Vectorized batch execution (replica blocks)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchResult:
    hits: int
    envelope_violations: int


def _run_block(spec: ProblemSpec, stat, horizons: Sequence[int], seed: int,
               lo: int, hi: int, envelope: Optional[np.ndarray] = None
               ) -> list[tuple[np.ndarray, int]]:
    """Steps stat (_target) on replicas [lo, hi) to the last of the
    increasing horizons; returns, for each horizon n, the deviations after
    step n and the envelope violations through step n."""
    w = hi - lo
    stops = set(horizons)
    draw = spec.noise.block_sampler(BlockStream(seed, range(lo, hi)))
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
# Closed-form tail counting (affine statistics, fair-sign noise)
# ---------------------------------------------------------------------------

UNIT_ROUNDOFF = 2.0**-53
# Rounding allowance per step in unit roundoffs.  One step of the sequential
# recurrence and one factor of the closed-form weights each round fewer than
# ten times.
_GUARD_ULPS = 16.0

# _BYTE_BITS[r, v] is bit r of byte v, 0 or 1: a step's index into the
# value table of a noise with fair_signs.
_BYTE_BITS = (np.arange(256) >> np.arange(8)[:, None]) & 1


def sum_error(terms, magnitude: float) -> float:
    """Higham's bound on the rounding of a float sum of `terms` terms whose
    magnitudes add up to `magnitude`, in any order, while terms^2 u <= 1
    (Accuracy and Stability of Numerical Algorithms, 2nd ed., eq. 4.4)."""
    return terms * UNIT_ROUNDOFF * magnitude


class _Reach:
    """How far a statistic's computed deviation d_{n+1} (the state after
    step n, minus its origin) can lie from 0, for each horizon n <= last, on
    every noise path: |d_{n+1}| <= B_{n+1} + E_{n+1}, the reach of n.

    B is the pathwise envelope (envelope_bound) with x0 moved to the
    statistic's start, so that it bounds |d_k| of the recursion and of the
    weighted sum alike: |f_k| <= q_k.  E is the forward error recurrence
    E_{k+1} = L_k E_k + ulps (|origin| + B_{k+1} + (1 + |c|/(k+1)) B_k + b Ku/(k+1)),
    with L_k the statistic's Lipschitz factor (its `lipschitz`) and ulps
    = _GUARD_ULPS unit roundoffs: it bounds |computed - exact| for the
    statistic's kernel, the rounding of the factors and of B included.
    This assumes np.sin faithful to a few ulps, which leaves one step of the
    sine recursion, like one of the linear ones, under ten roundings.  E_k
    feeds the next step's rounding through |d_k| <= B_k + E_k, and the
    allowance left at the last step covers the final subtraction of the
    origin and the rounding of B + E.

    Both are built once, for the last horizon; the envelope is a sequential
    loop and E_{n+1} a dot product over the first n + 1 steps, so each
    horizon's values are bitwise those built for that horizon alone.  For
    the recursion the moved x0 is x0 itself, so the envelope is the one
    that bounds.select_delta took at that horizon, read-only and not rebuilt.
    Past float64 B is inf, and B + E is inf or NaN: it bounds nothing.
    """

    def __init__(self, spec: ProblemSpec, stat, last: int):
        # the envelope of the path whose deviation starts at start - origin
        self.envelope, _ = envelope_bound(
            replace(spec, x0=stat.start + (spec.drift.x_star - stat.origin)), last)
        env = self.envelope
        k1 = _indices(last)
        spread = 1.0 + abs(spec.c) / k1
        tol = _GUARD_ULPS * UNIT_ROUNDOFF
        with np.errstate(over="ignore", invalid="ignore"):
            self._local = tol * (abs(stat.origin) + env[1:] + spread * env[:-1]
                                 + spec.b * spec.noise.Ku / k1)
            self._growth = stat.lipschitz(spec, k1) + tol * spread

    def error(self, n: int) -> float:
        """E_{n+1}, the rounding bound of d_{n+1}."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(suffix_products(self._growth[: n + 1]) @ self._local[: n + 1])


def recurrence_error(spec: ProblemSpec, target: str, n: int) -> float:
    """A bound on |computed - exact| for the final deviation that the
    target's kernel (_target) computes, on every noise path, where that
    statistic is affine in the noise (ValueError otherwise): the exact value
    is beta(c, 0, n) d0 + sum_k w_k U_{k+1} over the floats of
    weights.recursion_weights, with d0 = start - origin.

    The bound is E_{n+1} of _Reach's forward error recurrence, whose
    Lipschitz factor is |f_k| for an affine statistic; it covers the
    rounding of the recurrence and of the weights.
    """
    stat = _target(spec, target)
    if not stat.affine:
        raise ValueError(f"target {target!r} is not affine in the noise ({spec.drift.kind} drift)")
    return _Reach(spec, stat, n).error(n)


class _AffineTail:
    """Tail counts of a statistic affine in the noise (_target's `affine`)
    under noise with fair_signs (sapprox.model), in closed form.

    Its final deviation is exactly beta(c, 0, n) d0 + sum_k w_k U_{k+1}
    (weights.recursion_weights), where U_{k+1} = values[bit] is the noise's
    value table indexed by the step-k sign bit and d0 = start - origin.
    The weighted sum steps on f_k and a_k alone, so its weights need only b
    and c = b g'(x*) whatever the drift; the recursion has them under
    linear drift.
    Byte m of the 64-step hash word j, read little-endian, holds the sign
    bits of steps 64j+8m..64j+8m+7: word j adds T_j[m, byte_m] with the table
    T_j[m, v] = sum_r w_{64j+8m+r} values[bit r of v], for the columns m
    with 64j + 8m <= n; the other columns hold no step and add nothing.

    The result is not bitwise equal to the sequential recurrence, so
    `guard` bounds |closed form - recurrence| for every replica: it is
    twice the sum of two bounds on the distance to the exact value.  The
    first is `error`, recurrence_error(spec, target, n) unless the caller
    has that float already (a _Reach's error(n)); it covers the rounding of
    the recurrence and of the weights.  The second is sum_error of the start
    plus 8 table entries per word, each a sum of 8.  A replica whose
    |deviation| lies within guard of the threshold is recomputed by the
    scalar reference (bitwise the batch row), so hit counts equal the
    recurrence's exactly.

    The screen.  Word j of the weights (steps 64j..64j+63) holds
    c_j = min(64, n + 1 - 64j) steps, the weight sum S_j, the mean
    m_j = fl(S_j) / c_j and the popcount P_j of its sign word, whose bits
    past step n are cleared first in the last word, so P_j <= c_j.  With
    v0, v1 the values of a down and an up step and D = v1 - v0, the closed
    form is exactly
        M + v0 sum_j (S_j - fl(S_j)) + D sum_j e_j,
        M = base + sum_j (D m_j) P_j,   base = start + v0 sum_j fl(S_j),
    with e_j = sum_{k in j} (w_k - m_j) bit_k over the word's c_j steps.
    The identity holds for every m_j, so the division's rounding (a last
    word's c_j need not be a power of two) adds no term: it only moves m_j,
    and the spread is built from the m_j computed.
    |e_j| is at most the larger of sum (w_k - m_j)^+ and sum (m_j - w_k)^+
    over the word's steps, since each bit is 0 or 1, and the spread is |D|
    times the sum of those maxima over the W words.  Its computed value is
    raised by sum_error(2 (W + 65), .): its W + 65 roundings are the
    differences w_k - m_j (1), the 63 additions of each word's sum, the
    W - 1 of the sum over the words, D (1) and the product (1), all on
    nonnegative parts, and the factor 2 covers the bound's second order and
    the raise's own rounding.  The rest is sum_error of 8 W + 9 + 4 W + 72
    terms on the guard's magnitude, a sum of m terms counted m times as in
    sum_error: the table sums (8 W + 9, as in the guard), the sums S_j (64:
    each of 64 terms, on sum |w| in all, times |v0| <= Ku), the base
    (W + 2: its sum of W, the product by v0 and the addition of start), the
    coefficients D m_j (4: two roundings on at most twice the magnitude, as
    P_j |m_j| <= c_j |m_j| is |fl(S_j)| to a rounding), their products with
    P_j (2) and the W additions of M (3 W, on partial sums of at most three
    times the magnitude).  So the computed closed form lies within
    `slack` - guard of the computed M, and |recurrence - M| <= slack.  A
    replica with |M| - threshold > slack is a hit, and one with
    threshold - |M| > slack a miss, under > and >= alike.  Forming the
    slack and |M| - threshold rounds by at most 3 u slack, within the half
    of the guard that |recurrence - closed form| leaves unused.  A horizon
    that fits in one word, or whose slack is not below the threshold it is
    built for, builds no screen.

    The count (hits) is a cascade of estimates: the screen M within `slack`
    of the recurrence where it is built, then the table sums within
    `guard`.  Each stage runs over full-width chunks of its replicas, on up
    to `workers` threads: the first over the blocks of [lo, hi), the table
    stage over the global indices that the screen left open, so that a few
    open replicas per block do not each pay a block's table pass.  A stage
    counts as hits the replicas whose |estimate| lies more than its margin
    beyond the threshold, drops those more than its margin below, and hands
    on the rest; the scalar reference, bitwise the batch row, recomputes
    what the tables leave open.  A decided replica is a hit or a miss under
    > and >= alike, so hit counts equal the recurrence's exactly.
    """

    def __init__(self, spec: ProblemSpec, target: str, n: int,
                 error: Optional[float] = None, threshold: Optional[float] = None):
        self.spec, self.n, self._stat = spec, n, _target(spec, target)
        beta0, w = recursion_weights(spec, n)
        self.words = n // 64 + 1
        padded = np.zeros(64 * self.words)
        padded[: n + 1] = w
        self._word_weights = padded.reshape(self.words, 8, 8)
        self._columns = [min(8, (n - 64 * j) // 8 + 1) for j in range(self.words)]
        values = spec.noise.values
        self._byte_values = np.asarray(values)[_BYTE_BITS]
        self.start = beta0 * (self._stat.start - self._stat.origin)
        magnitude = abs(self.start) + spec.noise.Ku * float(np.sum(np.abs(padded)))
        summation = sum_error(8 * self.words + 9, magnitude)
        if error is None:
            error = recurrence_error(spec, target, n)
        self.guard = 2.0 * (error + summation)
        self.slack, self._word_coefs = math.inf, None
        if self.words == 1:
            return
        groups = padded.reshape(self.words, 64)
        sums = np.sum(groups, axis=1)
        means = sums / np.minimum(n + 1 - 64.0 * np.arange(self.words), 64.0)
        step = values[1] - values[0]
        above = groups - means[:, None]
        above.reshape(-1)[n + 1:] = 0.0  # the last word's padding holds no step
        below = np.maximum(-above, 0.0)
        np.maximum(above, 0.0, out=above)
        spread = abs(step) * float(np.sum(np.maximum(np.sum(above, axis=1), np.sum(below, axis=1))))
        spread += sum_error(2 * (self.words + 65), spread)
        self.slack = self.guard + spread + sum_error(
            8 * self.words + 9 + 4 * self.words + 72, magnitude)
        if threshold is not None and self.slack < threshold:
            self._base = self.start + values[0] * float(np.sum(sums))
            self._word_coefs = (step * means).tolist()  # D m_j of each word
            # the steps 64 (words - 1) .. n of the last word
            self._last_bits = np.uint64((1 << (n % 64 + 1)) - 1)

    def deviations(self, seed: int, lo: int, hi: int) -> np.ndarray:
        """Closed-form final deviations of replicas [lo, hi), in a workspace
        of their own."""
        return self._table_sum(BlockStream(seed, range(lo, hi)))

    def _table_sum(self, stream: BlockStream) -> np.ndarray:
        """The closed-form final deviations of the replicas of stream, in its
        dev."""
        w, part, dev = stream.width, stream.part, stream.dev
        # np.take would cast uint8 indices into a new intp array, so each
        # byte column is cast into the scratch, free until the next word
        index = stream.scratch.view(np.intp)
        dev.fill(self.start)
        for j, columns in enumerate(self._columns):
            table = self._word_weights[j] @ self._byte_values
            byte_rows = stream.sign_word(j).astype("<u8", copy=False).view(np.uint8).reshape(w, 8)
            for m in range(columns):
                np.copyto(index, byte_rows[:, m])
                # a byte never exceeds 255, so "clip" only skips the bounds check
                np.take(table[m], index, out=part, mode="clip")
                dev += part
        return dev

    def _screen(self, stream: BlockStream) -> np.ndarray:
        """M of the replicas of stream, in its dev: the base plus, for each
        sign word, the word's coefficient times its popcount."""
        part, estimate = stream.part, stream.dev
        estimate.fill(self._base)
        for j, coef in enumerate(self._word_coefs):
            word = stream.sign_word(j)
            if j == self.words - 1:  # into the scratch, free until the next word
                word = np.bitwise_and(word, self._last_bits, out=stream.scratch)
            np.bitwise_count(word, out=part)
            part *= coef
            estimate += part
        return estimate

    def hits(self, seed: int, lo: int, hi: int, threshold: float, inclusive: bool,
             workers: int = 1) -> int:
        """Tail hits of replicas [lo, hi), on up to `workers` threads: each
        stage of the cascade over full-width chunks of the replicas the one
        before left open, then the scalar reference on what the tables leave.

        The open replicas of a horizon usually fit one chunk, which then
        runs on one thread.  Splitting it would not help: the table stage is
        many short numpy calls, each holding the GIL briefly, so a second
        thread mostly waits.  On rate-linear's spec (seed 808, in process,
        40 alternations, 2 vCPUs) one chunk took 5.09 ms against 10.3 ms
        for two halves on two threads at n = 1000 (17,034 open replicas),
        and 4.30 against 20.3 ms at n = 4000 (2,134).
        """
        def stage(rng: tuple[int, int]) -> tuple[int, np.ndarray]:
            """(hits decided, global indices of the replicas left open) of a
            chunk of the open replicas, a range or an index array, by this
            stage's estimate (a stream's _screen or _table_sum) within its
            margin of the recurrence."""
            chunk = open_[rng[0]: rng[1]]
            with _borrowed() as space:
                gap = estimate(BlockStream(seed, chunk, space))
                np.abs(gap, out=gap)
                gap -= threshold
                decided = int(np.count_nonzero(gap > margin))
                np.abs(gap, out=gap)
                rows = np.flatnonzero(~(gap > margin))  # a NaN stays open
            if isinstance(chunk, range):
                return decided, np.add(rows, chunk.start, dtype=kind, casting="unsafe")
            return decided, chunk[rows]

        kind = np.min_scalar_type(hi)  # the open indices' type, 4 bytes while hi < 2^32
        hits, open_ = 0, range(lo, hi)
        stages = [(self._screen, self.slack)] if self._word_coefs is not None else []
        for estimate, margin in stages + [(self._table_sum, self.guard)]:
            parts = _map_blocks(stage, len(open_), workers)
            hits += sum(decided for decided, _ in parts)
            open_ = np.concatenate([np.empty(0, kind), *(rows for _, rows in parts)])
            del parts  # the chunks' arrays, not kept through the next stage
        for replica in open_.tolist():
            dev = abs(_scalar_path(self.spec, self._stat, self.n, seed, replica)[0])
            hits += int(dev >= threshold if inclusive else dev > threshold)
        return hits


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
    envelope, an affine target under noise with fair_signs is counted in
    closed form (_AffineTail) with the same hits as the recurrence, and a
    threshold beyond the horizon's reach is settled with no path stepped
    (count_tail_hits_grid).  Raises ValueError for a NaN threshold, and
    FloatingPointError if any final deviation is NaN or infinite.
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
    each replica block is stepped once to the last horizon it counts and
    counted at every horizon on the way.  Envelope violations of result i
    are those through step horizons[i].  The closed form shares nothing
    across horizons (its weights depend on n) and counts each horizon on
    its own, by one cascade of estimates over all its replicas
    (_AffineTail.hits).

    Settled horizons.  Without an envelope, a horizon n whose threshold
    lies beyond its reach B_{n+1} + E_{n+1} (_Reach: the statistic's
    pathwise envelope plus the rounding bound of its kernel, built once for
    the last horizon) has 0 hits on every path, for > and >= alike, so
    no replica is stepped for it: blocks run only to the last unsettled
    horizon, no closed form is built for a settled one, and a grid that is
    settled throughout runs no block.  A reach that is not finite settles
    nothing, so an overflowing statistic still raises.  A given envelope
    asks for the violations of every path, and turns settling off.
    """
    horizons, thresholds = tuple(horizons), tuple(thresholds)
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
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
    if any(math.isnan(t) for t in thresholds):
        raise ValueError(f"thresholds must not be NaN, got {thresholds}")
    stat = _target(spec, target)
    if envelope is not None:
        if not stat.bounded:
            raise ValueError(f"an envelope bounds |X_k - x*|; target {target!r} has none")
        if len(envelope) < horizons[-1] + 2:
            raise ValueError(
                f"envelope needs B_0..B_{{n+1}}, {horizons[-1] + 2} entries for "
                f"horizon {horizons[-1]}, got {len(envelope)}"
            )
        live = list(range(len(horizons)))  # violations need every path
    else:
        reach = _Reach(spec, stat, horizons[-1])
        errors = [reach.error(n) for n in horizons]
        # the unsettled horizons: not (t > reach), so a NaN reach settles none
        live = [i for i, (n, t, e) in enumerate(zip(horizons, thresholds, errors))
                if not t > reach.envelope[n + 1] + e]
    results = [BatchResult(hits=0, envelope_violations=0)] * len(horizons)
    if not live:
        return tuple(results)
    ns, ts = [horizons[i] for i in live], [thresholds[i] for i in live]
    closed_forms = None
    if envelope is None and stat.affine and spec.noise.fair_signs:
        closed_forms = [_AffineTail(spec, target, horizons[i], errors[i], thresholds[i])
                        for i in live]
        if not all(math.isfinite(form.guard) for form in closed_forms):
            closed_forms = None  # overflowing weights: only the recurrence is usable

    if closed_forms is not None:
        for i, form, t in zip(live, closed_forms, ts):
            results[i] = BatchResult(hits=form.hits(seed, 0, replicas, t, inclusive, workers),
                                     envelope_violations=0)
        return tuple(results)

    def one(rng: tuple[int, int]) -> list[tuple[int, int]]:
        rows = _run_block(spec, stat, ns, seed, *rng, envelope)
        return [(_count_beyond(np.abs(devs), t, inclusive), violations)
                for (devs, violations), t in zip(rows, ts)]

    parts = _map_blocks(one, replicas, workers)
    for j, i in enumerate(live):
        results[i] = BatchResult(hits=sum(p[j][0] for p in parts),
                                 envelope_violations=sum(p[j][1] for p in parts))
    return tuple(results)

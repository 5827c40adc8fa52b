"""The closed form's screen (engine._AffineTail): two popcounts per sign
word give an estimate M of each replica's closed-form deviation, the slack
bounds how far the recurrence can lie from M, and only the replicas whose
|M| lies within the slack of the threshold take the byte tables.

M is written out here from the weights and from the halves of each sign
word, read as word & 0xFFFFFFFF and word >> 32; the slack is pinned bitwise
against its terms, as tests/test_rounding_guards.py pins the guard.
"""

import itertools
import math

import numpy as np
import pytest
from references import closed_form_hits
from test_rounding_guards import CASES as GUARD_CASES

from sapprox import engine
from sapprox.engine import BlockStream, _AffineTail, count_tail_hits, envelope_bound, final_deviation
from sapprox.model import LinearDrift, ProblemSpec, Rademacher
from sapprox.weights import recursion_weights

U = 2.0**-53
NS = (64, 127, 1000, 4000)
SEED, REPLICAS = 31, 400
# c = b g'(x*) = -2.3: at an integer c = -m the factor f_{m-1} is 0 and
# the recursion equals the weighted sum
NON_INTEGER_C = ProblemSpec(LinearDrift(-1.15, 0.0), Rademacher(1.0), 2.0, 1.0)
CASES = GUARD_CASES + [(NON_INTEGER_C, "recursion"), (NON_INTEGER_C, "weighted_sum")]
# a start far from x* that every path keeps beyond twice the slack, so a
# threshold can leave every replica a certain hit
FAR_START = ProblemSpec(LinearDrift(-0.5, 0.0), Rademacher(0.3), 0.5, 100.0)


def halves_of(spec, target, n):
    """(start, the padded weights of each 32-step half that holds a step)."""
    stat = engine._target(spec, target)
    beta0, w = recursion_weights(spec, n)
    padded = np.zeros(64 * (n // 64 + 1))
    padded[: n + 1] = w
    return beta0 * (stat.start - stat.origin), padded.reshape(-1, 32)[: n // 32 + 1]


def steps_of(n, halves):
    """c_h, the steps k <= n of each half h, as floats."""
    return np.array([min(32, n + 1 - 32 * h) for h in range(len(halves))], dtype=float)


def estimate(spec, target, n, seed, lo, hi):
    """M = start + v0 sum_h S_h + sum_h ((v1 - v0) m_h) P_h, in the screen's
    operation order, with S_h the sum of half h, m_h = S_h / c_h its mean
    over its c_h steps and P_h the popcount of its bits of steps <= n."""
    start, halves = halves_of(spec, target, n)
    v0, v1 = spec.noise.values
    sums = np.sum(halves, axis=1)
    means = sums / steps_of(n, halves)
    m = np.full(hi - lo, start + v0 * float(np.sum(sums)))
    stream = BlockStream(seed, range(lo, hi))
    for h, mean in enumerate(means):
        word = stream.sign_word(h // 2)
        if h // 2 == n // 64:  # the last word holds steps 64 (n // 64) .. n
            word = word & np.uint64(2 ** (n % 64 + 1) - 1)
        half = word & np.uint64(0xFFFFFFFF) if h % 2 == 0 else word >> np.uint64(32)
        m += ((v1 - v0) * mean) * np.bitwise_count(half)
    return m


def test_the_grid_holds_a_non_integer_c():
    assert NON_INTEGER_C.c == -2.3 and NON_INTEGER_C.c != round(NON_INTEGER_C.c)


@pytest.mark.parametrize("n", NS)
def test_slack(n):
    for spec, target in CASES:
        start, halves = halves_of(spec, target, n)
        words = n // 64 + 1
        v0, v1 = spec.noise.values
        means = np.sum(halves, axis=1) / steps_of(n, halves)
        # the spread is over the steps k <= n only
        step = np.arange(halves.size).reshape(halves.shape) <= n
        above = np.sum(np.where(step, np.maximum(halves - means[:, None], 0.0), 0.0), axis=1)
        below = np.sum(np.where(step, np.maximum(means[:, None] - halves, 0.0), 0.0), axis=1)
        spread = abs(v1 - v0) * float(np.sum(np.maximum(above, below)))
        spread += 2 * (len(halves) + 33) * U * spread
        magnitude = abs(start) + spec.noise.Ku * float(np.sum(np.abs(halves)))
        terms = 8 * words + 9 + 4 * len(halves) + 40
        form = _AffineTail(spec, target, n)
        want = form.guard + spread + terms * U * magnitude
        assert form.slack.hex() == want.hex(), (spec, target, n)


@pytest.mark.parametrize("n", NS)
def test_every_closed_form_lies_within_the_slack_of_m(n):
    for spec, target in CASES:
        form = _AffineTail(spec, target, n, None, np.inf)  # builds the screen
        m = estimate(spec, target, n, SEED, 0, REPLICAS)
        assert np.array_equal(form._screen(BlockStream(SEED, range(REPLICAS))), m)
        off = np.abs(form.deviations(SEED, 0, REPLICAS) - m)
        assert np.max(off) <= form.slack - form.guard, (spec, target, n)


@pytest.mark.parametrize("n", (0, 63))
def test_a_horizon_within_one_word_builds_no_screen(n):
    for spec, target in CASES[:4]:
        form = _AffineTail(spec, target, n, None, 1.0)
        assert form.slack == np.inf and form._half_coefs is None


def test_a_threshold_within_the_slack_builds_no_screen():
    for spec, target in CASES[:4]:
        slack = _AffineTail(spec, target, 1000).slack
        assert _AffineTail(spec, target, 1000, None, slack)._half_coefs is None
        assert _AffineTail(spec, target, 1000, None, 2.0 * slack)._half_coefs is not None


def thresholds(spec, target, n, form):
    """Thresholds that leave the open set (|M| within the slack of the
    threshold) total, small and empty where the draws allow it: just past
    the slack; the recurrence's |deviation| of the replica with the median
    |M| (a tie, so > and >= differ); mid-gap between two order statistics
    of |M| more than twice the slack apart; below every |M| by more than
    the slack; beyond every |M|."""
    mags = np.abs(estimate(spec, target, n, SEED, 0, REPLICAS))
    order = np.argsort(mags)
    a = mags[order]
    median = int(order[REPLICAS // 2])
    out = [form.slack + a[0] / 2.0,
           abs(final_deviation(spec, target, n, SEED, median)),
           a[-1] + 2.0 * form.slack]
    gaps = np.flatnonzero((np.diff(a) > 2.5 * form.slack) & (a[:-1] > form.slack))
    if gaps.size:
        i = int(gaps[-1])
        out.append((a[i] + a[i + 1]) / 2.0)
    if a[0] > 2.5 * form.slack:
        out.append(a[0] - 1.25 * form.slack)
    return mags, out


def test_hits_equal_the_single_pass():
    seen = set()
    cases = CASES[::3] + [(FAR_START, "recursion")]
    for (spec, target), n in itertools.product(cases, NS):
        plain = _AffineTail(spec, target, n)
        mags, ts = thresholds(spec, target, n, plain)
        for t in ts:
            form = _AffineTail(spec, target, n, None, t)
            opened = int(np.count_nonzero(np.abs(mags - t) <= form.slack))
            for inclusive in (False, True):
                got = form.hits(SEED, 0, REPLICAS, t, inclusive)
                want = closed_form_hits(plain, target, SEED, 0, REPLICAS, t, inclusive)
                assert got == want, (spec, target, n, t, inclusive)
                if form._half_coefs is not None:
                    kind = ("empty" if opened == 0 else
                            "total" if opened == REPLICAS else "small")
                    seen.add((kind, inclusive, got > 0))
    for inclusive in (False, True):
        assert {("total", inclusive, True), ("small", inclusive, True),
                ("empty", inclusive, True), ("empty", inclusive, False)} <= seen


def test_a_tie_counts_under_inclusive_only():
    spec, target, n = NON_INTEGER_C, "recursion", 1000
    top = int(np.argmax(np.abs(estimate(spec, target, n, SEED, 0, REPLICAS))))
    t = abs(final_deviation(spec, target, n, SEED, top))
    form = _AffineTail(spec, target, n, None, t)
    assert form._half_coefs is not None
    assert form.hits(SEED, 0, REPLICAS, t, True) == form.hits(SEED, 0, REPLICAS, t, False) + 1


@pytest.mark.parametrize("n", (1000, 4000, 10000))
def test_bits_past_the_horizon_do_not_move_the_screen(n, monkeypatch):
    # the last half that holds a step holds 9, 1 and 17 of them
    sign_word = BlockStream.sign_word
    past = ~np.uint64(2 ** (n % 64 + 1) - 1)  # the bits of steps past n

    def set_past(self, j):
        word = sign_word(self, j)
        return word | past if j == n // 64 else word

    for spec, target in CASES:
        plain = _AffineTail(spec, target, n)
        t = float(np.median(np.abs(plain.deviations(SEED, 0, REPLICAS)))) + plain.slack
        form = _AffineTail(spec, target, n, None, t)
        screen = form._screen(BlockStream(SEED, range(REPLICAS)))
        hits = form.hits(SEED, 0, REPLICAS, t, False)
        with monkeypatch.context() as patch:
            patch.setattr(BlockStream, "sign_word", set_past)
            assert np.array_equal(form._screen(BlockStream(SEED, range(REPLICAS))), screen), (spec, target)
            assert form.hits(SEED, 0, REPLICAS, t, False) == hits, (spec, target)


def test_the_settle_pass_spans_blocks(monkeypatch):
    # rate-linear's spec; three blocks, the last of 37 replicas
    spec = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 2.0, 1.0)
    target, n, seed = "recursion", 1000, 5
    replicas = 2 * engine.BLOCK + 37
    blocks = [(lo, min(lo + engine.BLOCK, replicas)) for lo in range(0, replicas, engine.BLOCK)]
    plain = _AffineTail(spec, target, n)
    second = np.abs(plain.deviations(seed, *blocks[1]))
    tie = blocks[1][0] + int(np.argsort(second)[len(second) // 2])
    # most |M| lie within the slack of 1.25 slack; the tie is a replica of
    # the second block, open since |recurrence - M| <= slack
    wide, tied = 1.25 * plain.slack, abs(final_deviation(spec, target, n, seed, tie))
    table_sum, chunks = _AffineTail._table_sum, []

    def spy(self, stream):
        chunks.append((stream.width, int(stream.replicas[0]), int(stream.replicas[-1])))
        return table_sum(self, stream)

    monkeypatch.setattr(_AffineTail, "_table_sum", spy)
    for t in (wide, tied):
        assert _AffineTail(spec, target, n, None, t)._half_coefs is not None
        want = [sum(closed_form_hits(plain, target, seed, lo, hi, t, inclusive) for lo, hi in blocks)
                for inclusive in (False, True)]
        for workers, inclusive in itertools.product((1, 2, 3), (False, True)):
            chunks.clear()
            got = count_tail_hits(spec, target, n, seed, replicas, t, inclusive, workers).hits
            assert got == want[inclusive], (t, workers, inclusive)
            # one pass over the open replicas of every block, in full-width chunks
            chunks.sort(key=lambda chunk: chunk[1])
            assert chunks[0][1] < blocks[0][1] and chunks[-1][2] >= blocks[-1][0], (t, chunks)
            assert [size for size, _, _ in chunks[:-1]] == [engine.BLOCK] * (len(chunks) - 1)
        if t == wide:
            assert len(chunks) > 1
    assert want[1] == want[0] + 1  # the tie, recomputed at its global index


def tie_of_the_second_block(spec, target, n, seed, replicas):
    """A threshold that a replica of the second block attains: the
    recurrence's |deviation| of the one with the median closed form."""
    lo, hi = engine.BLOCK, min(2 * engine.BLOCK, replicas)
    second = np.abs(_AffineTail(spec, target, n).deviations(seed, lo, hi))
    return abs(final_deviation(spec, target, n, seed, lo + int(np.argsort(second)[len(second) // 2])))


# (spec, target, n, seed, replicas, threshold): the n = 1 tie of
# tests/test_settled_horizons.py, one word and no screen, whose threshold
# 1212 paths attain one ulp above the float envelope; and the screened tie
# of test_the_settle_pass_spans_blocks, over three blocks
ONE_WORD = ProblemSpec(LinearDrift(-0.8, 0.5), Rademacher(0.9), 2.0, 1.25)
SCREENED = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 2.0, 1.0)
HAND_OFFS = {
    "one_word": (ONE_WORD, "recursion", 1, 2718, 5000,
                 lambda: math.nextafter(float(envelope_bound(ONE_WORD, 1)[0][2]), math.inf)),
    "screened": (SCREENED, "recursion", 1000, 5, 2 * engine.BLOCK + 37,
                 lambda: tie_of_the_second_block(SCREENED, "recursion", 1000, 5, 2 * engine.BLOCK + 37)),
}


@pytest.mark.parametrize("case", HAND_OFFS)
def test_the_scalar_reference_recomputes_the_replicas_within_the_guard(case, monkeypatch):
    # the stages hand each undecided replica on by its global index, and
    # the scalar reference recomputes exactly those whose table sum lies
    # within the guard of the threshold, once each
    spec, target, n, seed, replicas, threshold = HAND_OFFS[case]
    t = threshold()
    plain = _AffineTail(spec, target, n)
    assert (_AffineTail(spec, target, n, None, t)._half_coefs is None) == (case == "one_word")
    near = []
    for lo in range(0, replicas, engine.BLOCK):
        mags = np.abs(plain.deviations(seed, lo, min(lo + engine.BLOCK, replicas)))
        near += (lo + np.flatnonzero(np.abs(mags - t) <= plain.guard)).tolist()
    assert near
    scalar_path, seen = engine._scalar_path, []

    def spy(spec, stat, n, seed, replica, *args):
        seen.append(replica)
        return scalar_path(spec, stat, n, seed, replica, *args)

    monkeypatch.setattr(engine, "_scalar_path", spy)
    hits = {}
    for workers, inclusive in itertools.product((1, 3), (False, True)):
        seen.clear()
        hits.setdefault(inclusive, set()).add(
            count_tail_hits(spec, target, n, seed, replicas, t, inclusive, workers).hits)
        assert sorted(seen) == near, (workers, inclusive)
    (strict,), (inclusive,) = hits[False], hits[True]  # the same at every worker count
    assert inclusive > strict  # the tie, recomputed at its global index

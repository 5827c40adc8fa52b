"""The pool of block workspaces (engine._borrowed): every closed-form
block task borrows one BLOCK-wide workspace and puts it back, so the
closed form's block-wide intermediates reuse the same buffers from block
to block.  A stepped block borrows none.

Nothing pooled may escape: a deviations() result, a _run_block row and
the open replicas' indices are arrays of their own, which later counts
leave unchanged.  After one warm-up count, a count allocates nothing
block-wide, which tracemalloc sees as a peak below one BLOCK-wide float64
array.
"""

import itertools
import sys
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from sapprox import engine
from sapprox.engine import BLOCK, _AffineTail, count_tail_hits
from sapprox.mdp import Schedule
from sapprox.model import LinearDrift, ProblemSpec, Rademacher, SineLinearDrift, TwoPointAdaptive
from sapprox.weights import h_norm

SEED = 41
# rate-linear's spec: its recursion takes the closed form and, past one
# sign word, the screen
LINEAR = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 2.0, 1.0)
# oracle-weighted-sum's spec: horizons within one sign word, no screen
ORACLE = ProblemSpec(LinearDrift(-2.0, 0.0), Rademacher(1.0), 1.0, 0.0)
# no fair signs: the recursion is stepped block by block
STEPPED = ProblemSpec(SineLinearDrift(3.0, 1.0), TwoPointAdaptive(1.0, 0.4, 0.6), 1.0, 0.5)
WIDTHS = (1, 37, 2 * BLOCK + 37)


def rate_threshold(spec, n):
    """rate's threshold r b_n / h_n at r = 1 and gamma = 3."""
    return Schedule(gamma=3.0, n_grid=(n,), r=1.0).b(n) / h_norm(spec.b, spec.c, n)


# (spec, target, n, threshold): the screen, the tables alone, the stepped path
COUNTS = [
    (LINEAR, "recursion", 1000, rate_threshold(LINEAR, 1000)),
    (ORACLE, "weighted_sum", 20, rate_threshold(ORACLE, 20)),
    (STEPPED, "recursion", 40, 0.01),
]


def pooled_buffers():
    return [buffer for space in engine._pool for buffer in space]


def test_the_counts_take_each_path():
    linear = _AffineTail(LINEAR, "recursion", 1000, None, COUNTS[0][3])
    single = _AffineTail(ORACLE, "weighted_sum", 20, None, COUNTS[1][3])
    assert linear._word_coefs is not None and single._word_coefs is None
    assert not STEPPED.noise.fair_signs


@contextmanager
def tracked_pool(monkeypatch):
    """A fresh pool, and a dict whose "peak" is the largest number of
    workspaces out at once since it was last set to 0.  Set "together" to a
    threading.Barrier of m parties, and the next m borrowers each wait at it
    holding their workspace, until all m hold one."""
    monkeypatch.setattr(engine, "_pool", [])
    borrowed, lock = engine._borrowed, threading.Lock()
    seen = {"out": 0, "peak": 0, "together": None, "waiting": 0}

    @contextmanager
    def counted():
        with lock:
            seen["out"] += 1
            seen["peak"] = max(seen["peak"], seen["out"])
            together = seen["together"]
            if together is not None:
                seen["waiting"] += 1
                if seen["waiting"] == together.parties:
                    seen["together"], seen["waiting"] = None, 0
        try:
            with borrowed() as space:
                if together is not None:
                    together.wait()
                yield space
        finally:
            with lock:
                seen["out"] -= 1

    monkeypatch.setattr(engine, "_borrowed", counted)
    yield seen
    assert seen["out"] == 0


def test_no_pooled_buffer_escapes(monkeypatch):
    with tracked_pool(monkeypatch) as seen:
        form = _AffineTail(LINEAR, "recursion", 1000)
        devs = form.deviations(SEED, 0, 37)
        stat = engine._target(STEPPED, "recursion")
        rows = [row for row, _ in engine._run_block(STEPPED, stat, (20, 40), SEED, 0, 37)]
        screened = _AffineTail(LINEAR, "recursion", 1000, None, COUNTS[0][3])
        stages, map_blocks = [], engine._map_blocks

        def spy(one, replicas, workers):
            stages.append(map_blocks(one, replicas, workers))
            return stages[-1]

        with monkeypatch.context() as patch:
            patch.setattr(engine, "_map_blocks", spy)
            screened.hits(SEED, 0, 37, COUNTS[0][3], False)
        open_ = stages[0][0][1]  # the indices that the screen left open
        kept = [array.copy() for array in (devs, *rows, open_)]
        hits, most = {}, seen["peak"]
        # three blocks on three workers, whose first three borrowers wait
        # for each other, so that three workspaces are out at once
        seen.update(peak=0, together=threading.Barrier(3, timeout=60))
        spec, target, n, t = COUNTS[0]
        replicas = 2 * BLOCK + 37
        got = count_tail_hits(spec, target, n, SEED, replicas, t, False, 3).hits
        hits.setdefault((target, n, replicas), set()).add(got)
        assert seen["together"] is None
        most = max(most, seen["peak"])
        for (spec, target, n, t), replicas, workers, _ in itertools.product(
                COUNTS, WIDTHS, (1, 2, 3), range(2)):
            seen["peak"] = 0
            got = count_tail_hits(spec, target, n, SEED, replicas, t, False, workers).hits
            hits.setdefault((target, n, replicas), set()).add(got)
            # at most one borrow per block that ran at once (none for a
            # stepped count), and every workspace made is back in the pool,
            # once.  A workspace is made only when every other one is out,
            # and each counted borrow spans the time its task holds the
            # workspace, so the pool is no larger than the most borrows
            # counted at once
            if spec is STEPPED:
                assert seen["peak"] == 0
            else:
                assert 1 <= seen["peak"] <= min(workers, -(-replicas // BLOCK))
            most = max(most, seen["peak"])
            assert len({id(space) for space in engine._pool}) == len(engine._pool) <= most
        assert most == 3
        for before, after in zip(kept, (devs, *rows, open_)):
            assert np.array_equal(before, after)
            assert not any(np.shares_memory(after, buffer) for buffer in pooled_buffers())
    # hits equal across workers and across repeated calls in one process
    assert all(len(counts) == 1 for counts in hits.values()), hits


def test_threads_never_share_a_workspace(monkeypatch):
    # more threads than cores, switching often: a workspace handed to two
    # borrowers at once, or lost on its way back, breaks the invariants
    monkeypatch.setattr(engine, "_pool", [])
    lock, holders, clashes, threads = threading.Lock(), {}, [], 6

    def borrow(name):
        for _ in range(300):
            with engine._borrowed() as space:
                with lock:
                    if id(space) in holders:
                        clashes.append((name, holders[id(space)]))
                    holders[id(space)] = name
                space[1][:1] = 0.0  # its dev
                with lock:
                    del holders[id(space)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=borrow, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not clashes
    assert 1 <= len(engine._pool) <= threads
    assert len({id(space) for space in engine._pool}) == len(engine._pool)


@pytest.mark.parametrize("case", COUNTS[:2], ids=("screen", "single_pass"))
def test_a_warm_count_allocates_nothing_block_wide(case):
    spec, target, n, t = case

    def count():
        return count_tail_hits(spec, target, n, SEED, 4 * BLOCK, t).hits

    tracemalloc.start()
    try:
        want = count()  # the warm-up: the pool holds a workspace from here on
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = count()
        rise = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got == want
    assert rise < BLOCK * np.dtype(np.float64).itemsize, rise

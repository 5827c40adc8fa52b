"""Settled horizons: the reach B_{n+1} + E_{n+1} of a horizon (the
statistic's pathwise envelope plus the rounding bound of its kernel,
engine._Reach) bounds every computed path, so a threshold beyond it has 0
hits, and count_tail_hits_grid decides it without stepping a replica.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from model_strategies import specs
from references import batch_final_deviations

from sapprox import engine
from sapprox.engine import (
    BatchResult,
    _Reach,
    _target,
    count_tail_hits,
    count_tail_hits_grid,
    envelope_bound,
)
from sapprox.model import (
    DRIFTS,
    NOISES,
    LinearDrift,
    ProblemSpec,
    Rademacher,
    SineLinearDrift,
    TwoPointAdaptive,
)


def envelope_and_reach(spec, target, n):
    """(B_{n+1}, B_{n+1} + E_{n+1}): the envelope and the reach of horizon n."""
    reach = _Reach(spec, _target(spec, target), n)
    return float(reach.envelope[n + 1]), float(reach.envelope[n + 1]) + reach.error(n)


def reach_of(spec, target, n):
    return envelope_and_reach(spec, target, n)[1]


def reach_steps(spec, target, n):
    """B_k + E_k for k = 0..n+1, with E_0 = 0: an envelope array whose
    step k + 1 is the reach of horizon k."""
    reach = _Reach(spec, _target(spec, target), n)
    return reach.envelope + np.array([0.0] + [reach.error(k) for k in range(n + 1)])


def stepped_hits(spec, target, n, seed, replicas, threshold, inclusive):
    """The tail count of every replica's stepped path, which settles nothing:
    the recursion's through a count with an envelope, the weighted sum's
    from the reference block rows."""
    if target == "recursion":
        return count_tail_hits(spec, target, n, seed, replicas, threshold, inclusive,
                               envelope=np.full(n + 2, np.inf)).hits
    mags = np.abs(batch_final_deviations(spec, target, n, seed, replicas))
    return int(np.count_nonzero(mags >= threshold if inclusive else mags > threshold))


def fail(*args, **kwargs):
    raise AssertionError("a replica was stepped")


def no_stepping(patch):
    patch.setattr(engine, "_run_block", fail)
    patch.setattr(engine, "BlockStream", fail)


LINEAR = ProblemSpec(LinearDrift(-0.8, 0.5), Rademacher(0.9), 2.0, 1.25)
SINE_TWO_POINT = ProblemSpec(SineLinearDrift(3.0, 1.0, 0.0), TwoPointAdaptive(1.0, 0.4, 0.6),
                             1.0, 0.5)
# the closed form (affine statistic, fair signs) and the stepped kernel
CASES = [(LINEAR, "recursion"), (LINEAR, "weighted_sum"),
         (SINE_TWO_POINT, "recursion"), (SINE_TWO_POINT, "weighted_sum")]


class TestTheReachIsSound:
    # Linear drift attains its envelope on worst-case sign paths, so the
    # envelope alone counts 1218 float violations on the Rademacher grid
    # (tests/test_recurrence_bits.py); its reach counts none.
    @pytest.mark.parametrize("noise, want", [
        (Rademacher(0.9), [(5000, 0), (5, 0), (3, 0), (0, 0)]),
        (TwoPointAdaptive(1.1, 0.3, 0.7), [(5000, 0), (29, 0), (30, 0), (0, 0)]),
    ])
    def test_no_violation_of_the_reach_on_the_pinned_grid(self, noise, want):
        spec = ProblemSpec(LinearDrift(-0.8, 0.5), noise, 2.0, 1.25)
        got = count_tail_hits_grid(spec, "recursion", (0, 63, 64, 300), (0.5,) * 4, 2718,
                                   5000, envelope=reach_steps(spec, "recursion", 300))
        assert [(r.hits, r.envelope_violations) for r in got] == want

    def test_the_lipschitz_factors(self):
        # q_k is |f_k| bitwise under linear drift, and at least |f_k| under sine
        k1 = np.arange(1.0, 2002.0)
        for spec, _ in CASES:
            q = engine._Recursion.lipschitz(spec, k1)
            f = engine._WeightedSum.lipschitz(spec, k1)
            if spec.drift.c2 == 0:
                assert q.tobytes() == f.tobytes()
            else:
                assert np.all(q >= f) and np.any(q > f)

    def test_the_recursion_envelope_is_the_reach_envelope(self):
        for spec, _ in CASES:
            reach = _Reach(spec, _target(spec, "recursion"), 300)
            assert reach.envelope.tobytes() == envelope_bound(spec, 300)[0].tobytes()

    @pytest.mark.parametrize("drift_kind", sorted(DRIFTS))
    @pytest.mark.parametrize("noise_kind", sorted(NOISES))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_no_path_leaves_its_reach(self, drift_kind, noise_kind, data):
        spec = data.draw(specs(drift_kind, noise_kind))
        n = data.draw(st.one_of(st.sampled_from([0, 1, 63, 64]), st.integers(0, 200)))
        seed = data.draw(st.integers(0, 2**64 - 1))
        # the recursion at every step, through the envelope check
        steps = reach_steps(spec, "recursion", n)
        assume(np.all(np.isfinite(steps)))
        got = count_tail_hits(spec, "recursion", n, seed, 1000, 0.0, envelope=steps)
        assert got.envelope_violations == 0, spec
        # the weighted sum at the final step, on the block rows
        if spec.c < -1.0:
            rows = batch_final_deviations(spec, "weighted_sum", n, seed, 1000)
            assert np.max(np.abs(rows)) <= reach_of(spec, "weighted_sum", n), spec


class TestSettlingIsExact:
    @pytest.mark.parametrize("drift_kind", sorted(DRIFTS))
    @pytest.mark.parametrize("noise_kind", sorted(NOISES))
    @pytest.mark.parametrize("target", ["recursion", "weighted_sum"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_settled_hits_equal_the_stepped_count(self, drift_kind, noise_kind, target, data):
        spec = data.draw(specs(drift_kind, noise_kind))
        assume(target == "recursion" or spec.c < -1.0)
        horizons = sorted(data.draw(st.sets(
            st.one_of(st.sampled_from([0, 1, 63, 64]), st.integers(0, 200)),
            min_size=1, max_size=3)))
        seed = data.draw(st.integers(0, 2**64 - 1))
        replicas = data.draw(st.sampled_from([1, 37, 300]))
        inclusive = data.draw(st.booleans())
        thresholds = []
        for n in horizons:
            bound, reach = envelope_and_reach(spec, target, n)
            assume(math.isfinite(reach))
            thresholds.append(data.draw(st.sampled_from([
                reach, math.nextafter(reach, math.inf), math.nextafter(reach, -math.inf),
                bound, math.nextafter(bound, math.inf),
                0.25 * reach, 2.0 * reach + 1.0, math.inf])))
        got = count_tail_hits_grid(spec, target, horizons, thresholds, seed, replicas,
                                   inclusive=inclusive)
        for n, t, res in zip(horizons, thresholds, got):
            want = stepped_hits(spec, target, n, seed, replicas, t, inclusive)
            assert res == BatchResult(hits=want, envelope_violations=0), (spec, n, t)

    def test_paths_beyond_the_float_envelope_are_counted(self):
        # 1212 of these paths end at 1.35, one ulp above the float B_2, so
        # a threshold there lies beyond the envelope but not beyond the reach
        bound, reach = envelope_and_reach(LINEAR, "recursion", 1)
        t = math.nextafter(bound, math.inf)
        assert bound < t < reach
        assert count_tail_hits(LINEAR, "recursion", 1, 2718, 5000, t, inclusive=True).hits == 1212
        got = count_tail_hits_grid(LINEAR, "recursion", (0, 1), (2.0, t), 2718, 5000,
                                   inclusive=True)
        assert [r.hits for r in got] == [2527, 1212]


class TestSettlingSkipsWork:
    @pytest.mark.parametrize("spec, target", CASES)
    def test_a_settled_grid_runs_no_block(self, spec, target, monkeypatch):
        horizons = (1, 64, 2000)
        beyond = [math.nextafter(reach_of(spec, target, n), math.inf) for n in horizons]
        no_stepping(monkeypatch)
        for inclusive in (False, True):
            got = count_tail_hits_grid(spec, target, horizons, beyond, 3, 5000,
                                       inclusive=inclusive, workers=2)
            assert got == (BatchResult(hits=0, envelope_violations=0),) * 3
            assert count_tail_hits(spec, target, 64, 3, 5000, beyond[1],
                                   inclusive=inclusive).hits == 0

    @pytest.mark.parametrize("spec, target", CASES)
    def test_only_unsettled_horizons_are_stepped(self, spec, target, monkeypatch):
        horizons = (5, 50, 400)
        thresholds = (0.2, 0.1, 2.0 * reach_of(spec, target, 400))
        stepped, built = [], []
        run_block, affine_tail = engine._run_block, engine._AffineTail

        def spy_block(spec, stat, horizons, *args):
            stepped.append(tuple(horizons))
            return run_block(spec, stat, horizons, *args)

        def spy_tail(spec, target, n, *args):
            built.append(n)
            return affine_tail(spec, target, n, *args)

        monkeypatch.setattr(engine, "_run_block", spy_block)
        monkeypatch.setattr(engine, "_AffineTail", spy_tail)
        got = count_tail_hits_grid(spec, target, horizons, thresholds, 8, 700)
        if spec.noise.fair_signs:  # the closed form, one per counted horizon
            assert (built, stepped) == ([5, 50], [])
        else:  # one block, stepped to n = 50
            assert (built, stepped) == ([], [(5, 50)])
        assert got[2] == BatchResult(hits=0, envelope_violations=0)
        monkeypatch.undo()
        for n, t, res in zip(horizons[:2], thresholds, got):
            assert res.hits == stepped_hits(spec, target, n, 8, 700, t, False)
            assert 0 < res.hits < 700  # a count that needs the paths

    def test_a_given_envelope_turns_settling_off(self, monkeypatch):
        spec = SINE_TWO_POINT
        beyond = 2.0 * reach_of(spec, "recursion", 100)
        env, _ = envelope_bound(spec, 100)
        stepped = []
        run_block = engine._run_block
        monkeypatch.setattr(engine, "_run_block",
                            lambda *args: stepped.append(args[2]) or run_block(*args))
        for envelope, violated in ((env, False), (0.5 * env, True)):
            got = count_tail_hits(spec, "recursion", 100, 4, 300, beyond, envelope=envelope)
            assert got.hits == 0 and (got.envelope_violations > 0) == violated
        assert stepped == [[100], [100]]

    def test_an_infinite_reach_settles_nothing(self):
        # c = -2000: the envelope passes float64, so its reach bounds
        # nothing and the overflowing paths still raise
        spec = ProblemSpec(LinearDrift(-1000.0, 0.0), Rademacher(1.0), 2.0, 1.0)
        for target in ("recursion", "weighted_sum"):
            assert not math.isfinite(reach_of(spec, target, 1500))
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(FloatingPointError, match="not finite"):
                    count_tail_hits(spec, target, 1500, 1, 100, 1e300)


@pytest.mark.parametrize("spec, target", CASES)
def test_a_nan_threshold_is_rejected_before_stepping(spec, target, monkeypatch):
    no_stepping(monkeypatch)
    with pytest.raises(ValueError, match="NaN"):
        count_tail_hits(spec, target, 50, 1, 100, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        count_tail_hits_grid(spec, target, (5, 50), (0.5, math.nan), 1, 100)

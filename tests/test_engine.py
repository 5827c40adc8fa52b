import ast
import inspect
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from model_strategies import specs
from references import batch_final_deviations, weighted_sums_over_signs

from sapprox import engine as engine_mod
from sapprox.engine import (
    BLOCK,
    BlockStream,
    ReplicaStream,
    Trajectory,
    _LinearRademacherTail,
    count_tail_hits,
    count_tail_hits_grid,
    envelope_bound,
    final_deviation,
    replica_key,
    replica_keys_array,
    simulate,
    taylor_decompose,
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
from sapprox.weights import _factors, beta, h_norm, recurrence_factors


def linear_spec(alpha1=-1.0, b=2.0, sigma=1.0, x0=1.0, x_star=0.0):
    return ProblemSpec(LinearDrift(alpha1, x_star), Rademacher(sigma), b, x0)


def sine_spec(c1=2.0, c2=1.0, b=1.6, sigma=1.0, x0=0.7):
    return ProblemSpec(SineLinearDrift(c1, c2, 0.0), Rademacher(sigma), b, x0)


def step(spec, x, k, u):
    """One recursion update x + b/(k+1) (g(x) + u), by the recursion's kernel."""
    return engine_mod._target(spec, "recursion").kernel(x, *_factors(spec.b, spec.c, k + 1.0), u)


def test_every_public_engine_name_is_used_in_src():
    # a public function or class that only tests call belongs in tests/
    used = set()
    for path in Path(engine_mod.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "engine"):
                used.add(node.attr)
    public = {name for name, obj in vars(engine_mod).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == engine_mod.__name__}
    assert sorted(public - used) == []


class TestStreams:
    def test_scalar_matches_vector_keys(self):
        keys = replica_keys_array(42, 0, 64)
        for i in (0, 1, 17, 63):
            assert int(keys[i]) == replica_key(42, i)

    def test_uniforms_in_range(self):
        st = ReplicaStream(7, 3)
        us = [st.uniform(k) for k in range(5000)]
        assert all(0.0 <= u < 1.0 for u in us)
        assert abs(np.mean(us) - 0.5) < 0.02

    def test_sign_bits_balanced(self):
        st = ReplicaStream(7, 3)
        bits = [st.sign_bit(k) for k in range(5000)]
        assert set(bits) == {0, 1}
        assert abs(np.mean(bits) - 0.5) < 0.025

    def test_block_sign_bits_match_scalar(self):
        stream = BlockStream(11, 40, 77)
        bits = np.empty(37, dtype=np.int64)
        for k in (0, 1, 63, 64, 200):
            stream.sign_bits(k, bits)
            assert bits.tolist() == [ReplicaStream(11, i).sign_bit(k) for i in range(40, 77)]

    def test_streams_differ_across_replicas_and_seeds(self):
        a = [ReplicaStream(1, 0).uniform(k) for k in range(32)]
        b = [ReplicaStream(1, 1).uniform(k) for k in range(32)]
        c = [ReplicaStream(2, 0).uniform(k) for k in range(32)]
        assert a != b and a != c

    def test_nonsequential_access_consistent(self):
        st1 = ReplicaStream(5, 2)
        forward = [st1.sign_bit(k) for k in range(130)]
        st2 = ReplicaStream(5, 2)
        backward = [st2.sign_bit(k) for k in reversed(range(130))]
        assert forward == backward[::-1]


class TestStep:
    def test_hand_example(self):
        # 0.5 + (2/5)(-0.5 + 0.1) = 0.34
        assert step(linear_spec(), 0.5, 4, 0.1) == pytest.approx(0.34, rel=1e-15)

    def test_fixed_point(self):
        spec = sine_spec(x0=0.0)
        assert step(spec, 0.0, 12, 0.0) == 0.0

    def test_contraction_factor(self):
        spec = linear_spec(alpha1=-1.0, b=1.0)
        for k in (0, 3, 9):
            x = 0.8
            assert step(spec, x, k, 0.0) == pytest.approx(
                x * (1.0 - 1.0 / (k + 1)), rel=1e-15
            )


class TestSimulate:
    def test_single_step_horizon(self):
        spec = linear_spec()
        traj = simulate(spec, 0, 11)
        u1 = traj.us[0]
        want = spec.x0 + spec.b * (-spec.x0 + u1)
        assert traj.xs[1] == pytest.approx(want, rel=1e-15)
        assert len(traj.xs) == 2 and len(traj.us) == 1

    def test_bit_identical_reruns(self):
        spec = sine_spec()
        a = simulate(spec, 300, 123)
        b = simulate(spec, 300, 123)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.us, b.us)

    def test_recursion_consistency(self):
        for spec in (linear_spec(), sine_spec()):
            traj = simulate(spec, 500, 77)
            for k in range(501):
                want = step(spec, float(traj.xs[k]), k, float(traj.us[k]))
                err = abs(traj.xs[k + 1] - want) / max(1e-300, abs(want))
                assert err <= 1e-12

    def test_noise_free_steps_match_weight_product(self):
        # cross-module oracle: the noise-free recursion equals the product
        spec = linear_spec(alpha1=-0.75, b=2.0)  # c = -1.5, no zero factor
        x = spec.x0
        for k in range(201):
            x = step(spec, x, k, 0.0)
        want = beta(spec.c, 0, 200) * spec.x0
        assert x == pytest.approx(want, rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_record_off_matches_final(self, data):
        for drift_kind, noise_kind in itertools.product(sorted(DRIFTS), sorted(NOISES)):
            spec = data.draw(specs(drift_kind, noise_kind))
            # both sides of a chunk of factors
            n = data.draw(st.one_of(st.sampled_from([0, 4095, 4096]), st.integers(0, 5000)))
            seed = data.draw(st.integers(0, 2**64 - 1))
            dev = final_deviation(spec, "recursion", n, seed, replica=3)
            assert dev.hex() == simulate(spec, n, seed, replica=3).final_deviation.hex()

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            simulate(linear_spec(), -1, 0)


class TestWeightedSum:
    def test_single_term(self):
        spec = linear_spec()
        s = final_deviation(spec, "weighted_sum", 0, 99)
        u1 = (2 * ReplicaStream(99, 0).sign_bit(0) - 1) * spec.noise.sigma
        assert s == spec.b * u1

    def test_all_plus_hand_expansion(self):
        # n=2, b=1, alpha1=-2, sigma=1, all U = +1 -> 0.5
        spec = ProblemSpec(LinearDrift(-2.0, 0.0), Rademacher(1.0), 1.0, 0.0)
        s = weighted_sums_over_signs(spec, 2, np.ones((1, 3)))
        assert s[0] == pytest.approx(0.5, rel=1e-15)

    def test_rejects_weak_contraction(self):
        weak = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 0.9, 0.0)
        with pytest.raises(ValueError):
            final_deviation(weak, "weighted_sum", 5, 0)

    def test_deterministic(self):
        spec = linear_spec()
        assert final_deviation(spec, "weighted_sum", 64, 3) == final_deviation(
            spec, "weighted_sum", 64, 3)

    def test_matches_explicit_weights(self):
        # independent oracle: dot product against materialized products
        spec = linear_spec(alpha1=-0.9)  # c = -1.8
        n = 40
        traj_stream = ReplicaStream(4, 0)
        us = np.array(
            [spec.noise.sigma * (2 * traj_stream.sign_bit(k) - 1) for k in range(n + 1)]
        )
        w = np.array(
            [spec.b * beta(spec.c, k + 1, n) / (k + 1) for k in range(n + 1)]
        )
        assert final_deviation(spec, "weighted_sum", n, 4) == pytest.approx(
            float(w @ us), rel=1e-12)

    def test_overflow_raises(self):
        # c = -1e4: the first factors overflow the sum, which ends NaN; the
        # recursion and the tail counts raise on this spec too
        spec = ProblemSpec(LinearDrift(-1e4), Rademacher(1.0), 1.0, 0.0)
        with pytest.raises(FloatingPointError, match="S_20001 is not finite"):
            final_deviation(spec, "weighted_sum", 20000, 0)
        with pytest.raises(FloatingPointError, match="X_20001 is not finite"):
            final_deviation(spec, "recursion", 20000, 0)

    def test_rejects_unknown_target(self):
        spec = linear_spec()
        with pytest.raises(ValueError) as got:
            final_deviation(spec, "sum", 5, 0)
        with pytest.raises(ValueError) as want:
            count_tail_hits(spec, "sum", 5, 0, 10, 1.0)
        assert str(got.value) == str(want.value) == "unknown target 'sum'"


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


class TestRecurrenceKernels:
    """Each target's update is one kernel for floats and arrays: on floats
    it is bitwise the written-out formula, and on an array it updates the
    array in place and matches the float results, bitwise except for sine
    drift under the recursion (a vectorized sin may round differently)."""

    @pytest.mark.parametrize("drift_kind", sorted(DRIFTS))
    @pytest.mark.parametrize("target", ["recursion", "weighted_sum"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_kernel_is_the_written_out_formula(self, drift_kind, target, data):
        spec = data.draw(specs(drift_kind, "rademacher"))
        assume(target == "recursion" or spec.c < -1.0)
        kernel = engine_mod._target(spec, target).kernel
        k = data.draw(st.integers(0, 5000))
        f, a = (v.tolist()[k] for v in recurrence_factors(spec.b, spec.c, k))
        assert _bits(_factors(spec.b, spec.c, k + 1.0)) == _bits((f, a))
        size = data.draw(st.integers(1, 40))
        xs = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=size, max_size=size))
        us = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=size, max_size=size))
        if target == "recursion":
            def formula(x, u):
                return x + (spec.b / (k + 1.0)) * (float(spec.drift(x)) + u)
        else:
            def formula(s, u):
                return f * s + a * u
        floats = []
        for x, u in zip(xs, us):
            got = kernel(x, f, a, u)
            assert isinstance(got, float)
            assert _bits(got) == _bits(formula(x, u))
            floats.append(got)
        arr = np.array(xs)
        assert kernel(arr, f, a, np.array(us)) is arr
        if target == "recursion" and drift_kind == SineLinearDrift.kind:
            scale = max(1.0, float(np.max(np.abs(xs))))
            assert np.allclose(arr, floats, rtol=1e-12, atol=1e-14 * scale)
        else:
            assert _bits(arr) == _bits(floats)


class TestBatchEngine:
    def test_recursion_rows_match_scalar_bitwise(self):
        spec = linear_spec()
        batch = batch_final_deviations(spec, "recursion", 64, 2024, 16)
        scalar = np.array(
            [final_deviation(spec, "recursion", 64, 2024, replica=i) for i in range(16)]
        )
        assert np.array_equal(batch, scalar)

    def test_weighted_sum_rows_match_scalar_bitwise(self):
        spec = linear_spec()
        batch = batch_final_deviations(spec, "weighted_sum", 64, 2024, 16)
        scalar = np.array(
            [final_deviation(spec, "weighted_sum", 64, 2024, replica=i) for i in range(16)]
        )
        assert np.array_equal(batch, scalar)

    def test_two_point_rows_match_scalar_bitwise(self):
        spec = ProblemSpec(
            LinearDrift(-1.0, 0.0), TwoPointAdaptive(1.0, 0.3, 0.7), 2.0, 1.0
        )
        batch = batch_final_deviations(spec, "recursion", 48, 9, 12)
        scalar = np.array(
            [final_deviation(spec, "recursion", 48, 9, replica=i) for i in range(12)]
        )
        assert np.array_equal(batch, scalar)

    def test_sine_rows_match_scalar_closely(self):
        spec = sine_spec()
        batch = batch_final_deviations(spec, "recursion", 48, 9, 12)
        scalar = np.array(
            [final_deviation(spec, "recursion", 48, 9, replica=i) for i in range(12)]
        )
        assert np.allclose(batch, scalar, rtol=1e-12, atol=1e-14)

    def test_worker_count_is_invisible(self):
        spec = linear_spec()
        a = count_tail_hits(spec, "recursion", 300, 8, 200_000, 0.1, workers=1)
        b = count_tail_hits(spec, "recursion", 300, 8, 200_000, 0.1, workers=4)
        assert a == b

    def test_inclusive_vs_strict(self):
        spec = linear_spec()
        devs = batch_final_deviations(spec, "weighted_sum", 10, 5, 4096)
        t = float(np.abs(devs)[17])  # an attained value
        strict = count_tail_hits(spec, "weighted_sum", 10, 5, 4096, t).hits
        incl = count_tail_hits(
            spec, "weighted_sum", 10, 5, 4096, t, inclusive=True
        ).hits
        assert incl > strict
        assert incl == int(np.count_nonzero(np.abs(devs) >= t))
        assert strict == int(np.count_nonzero(np.abs(devs) > t))


class TestModelKernels:
    """Each registered drift and noise kind's vector kernels against its
    scalar ones: batch rows equal the scalar run bitwise, except sine drift
    under the recursion, which agrees to 1e-12 (platform-dependent SIMD sin)."""

    @pytest.mark.parametrize("drift_kind", sorted(DRIFTS))
    @pytest.mark.parametrize("noise_kind", sorted(NOISES))
    @pytest.mark.parametrize("target", ["recursion", "weighted_sum"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_batch_rows_match_scalar(self, drift_kind, noise_kind, target, data):
        spec = data.draw(specs(drift_kind, noise_kind))
        assume(target == "recursion" or spec.c < -1.0)
        n = data.draw(st.one_of(st.sampled_from([0, 63, 64]), st.integers(0, 150)))
        seed = data.draw(st.integers(0, 2**64 - 1))
        replicas = data.draw(st.sampled_from([1, 37, BLOCK + 5]))
        devs = batch_final_deviations(spec, target, n, seed, replicas)
        rows = {0, replicas - 1, data.draw(st.integers(0, replicas - 1))}
        if replicas > BLOCK:
            rows |= {BLOCK - 1, BLOCK}  # both sides of the block boundary
        for i in sorted(rows):
            want = final_deviation(spec, target, n, seed, replica=i)
            if target == "recursion" and drift_kind == SineLinearDrift.kind:
                scale = max(1.0, envelope_bound(spec, n)[1])
                assert devs[i] == pytest.approx(want, rel=1e-12, abs=1e-14 * scale)
            else:
                assert devs[i] == want, (spec, n, seed, i)


def reference_two_point_sampler(noise, stream):
    """The two-point block sampler as a state-table gather plus np.where,
    from the law spelled out in p, kept as the reference for the
    index-free TwoPointAdaptive.block_sampler."""
    # indexed by state 0 (no draw yet), 1 (last draw up) and -1 (the last
    # entry: last draw down)
    p_table = np.array([0.5 * (noise.p_min + noise.p_max), noise.p_min, noise.p_max])
    pos_table = noise.sigma * np.sqrt((1.0 - p_table) / p_table)
    neg_table = -noise.sigma * np.sqrt(p_table / (1.0 - p_table))
    state = np.zeros(stream.width, dtype=np.intp)

    def draw(k, out):
        nonlocal state
        stream.uniforms(k, out)
        went_up = out < p_table[state]
        out[:] = np.where(went_up, pos_table[state], neg_table[state])
        state = np.where(went_up, 1, -1)

    return draw


class TestTwoPointBlockSampler:
    @settings(max_examples=40, deadline=None)
    @given(
        sigma=st.floats(0.1, 3.0),
        p_min=st.floats(0.01, 0.99),
        upper=st.one_of(st.none(), st.floats(0.0, 1.0)),
        width=st.sampled_from([1, 37]),
        seed=st.integers(0, 2**64 - 1),
        lo=st.integers(0, 1000),
    )
    def test_draws_match_reference_bitwise(self, sigma, p_min, upper, width, seed, lo):
        # upper None: p_min == p_max, else p_max anywhere in [p_min, 0.99]
        p_max = p_min if upper is None else p_min + upper * (0.99 - p_min)
        noise = TwoPointAdaptive(sigma, p_min, p_max)
        draw = noise.block_sampler(BlockStream(seed, lo, lo + width))
        want = reference_two_point_sampler(noise, BlockStream(seed, lo, lo + width))
        got, ref = np.empty(width), np.empty(width)
        for k in range(200):  # step 0 draws at the midpoint, later steps by state
            draw(k, got)
            want(k, ref)
            assert np.array_equal(got, ref), (noise, k)


class TestClosedFormTail:
    """Linear drift with Rademacher noise counts tails in closed form; hit
    counts must equal the count over the sequential batch rows."""

    @staticmethod
    def reference_hits(devs, t, inclusive):
        mags = np.abs(devs)
        return int(np.count_nonzero(mags >= t if inclusive else mags > t))

    @settings(max_examples=60, deadline=None)
    @given(
        alpha1=st.floats(-3.0, -0.05),
        b=st.floats(0.2, 3.0),
        x_star=st.sampled_from([0.0, 1.5, -40.0]),
        x0=st.floats(-5.0, 5.0),
        n=st.one_of(st.sampled_from([0, 1, 63, 64, 65]), st.integers(0, 3000)),
        replicas=st.integers(1, 700),
        seed=st.integers(0, 2**64 - 1),
        weighted=st.booleans(),
        pick=st.integers(0, 10**6),
        attained=st.booleans(),
    )
    def test_hits_match_recurrence(self, alpha1, b, x_star, x0, n, replicas, seed,
                                   weighted, pick, attained):
        spec = ProblemSpec(LinearDrift(alpha1, x_star), Rademacher(1.0), b, x0)
        target = "weighted_sum" if weighted and spec.c < -1.0 else "recursion"
        devs = batch_final_deviations(spec, target, n, seed, replicas)
        mags = np.abs(devs)
        if attained:
            t = float(mags[pick % replicas])
        else:
            t = float(np.quantile(mags, (pick % 1000) / 1000.0))
        for inclusive in (False, True):
            got = count_tail_hits(spec, target, n, seed, replicas, t,
                                  inclusive=inclusive).hits
            assert got == self.reference_hits(devs, t, inclusive)

    def test_hits_match_across_blocks_and_workers(self):
        spec = linear_spec(alpha1=-1.3, x_star=0.25)
        replicas = BLOCK + 17
        for target in ("recursion", "weighted_sum"):
            devs = batch_final_deviations(spec, target, 150, 61, replicas)
            t = float(np.abs(devs)[BLOCK + 3])
            want = self.reference_hits(devs, t, False)
            for workers in (1, 2):
                res = count_tail_hits(spec, target, 150, 61, replicas, t,
                                      workers=workers)
                assert res.hits == want

    def test_error_well_inside_guard(self):
        worst = 0.0
        grid = itertools.product(
            (-0.3, -1.0, -2.5), (0.5, 2.0, 3.0), (0.0, 7.5), (0, 64, 1000),
            ("recursion", "weighted_sum"),
        )
        for alpha1, b, x_star, n, target in grid:
            spec = ProblemSpec(
                LinearDrift(alpha1, x_star), Rademacher(0.7), b, x_star + 1.2
            )
            if target == "weighted_sum" and not spec.c < -1.0:
                continue
            kernel = _LinearRademacherTail(spec, target, n)
            fast = kernel.deviations(5, 0, 200)
            ref = batch_final_deviations(spec, target, n, 5, 200)
            err = float(np.max(np.abs(fast - ref)))
            assert err <= kernel.guard / 10, (spec, target, n)
            worst = max(worst, err / kernel.guard)
        assert worst > 0.0  # the rows differ, so the guard is exercised

    def test_rejects_negative_horizon(self):
        for spec in (linear_spec(), sine_spec()):
            with pytest.raises(ValueError):
                count_tail_hits(spec, "recursion", -1, 0, 10, 1.0)

    def test_envelope_calls_still_report_violations(self):
        spec = linear_spec()
        res = count_tail_hits(spec, "recursion", 100, 3, 500, 0.2,
                              envelope=np.zeros(102))
        assert res.envelope_violations > 0
        assert res.hits == count_tail_hits(spec, "recursion", 100, 3, 500, 0.2).hits


    def test_overflowed_recursion_raises(self):
        # c = -2000: the early factors 1 + c/(k+1) overflow float64 within
        # a few hundred steps, so every row ends NaN (recursion) or inf
        spec = ProblemSpec(LinearDrift(-1000.0, 0.0), Rademacher(1.0), 2.0, 1.0)
        for target in ("recursion", "weighted_sum"):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(FloatingPointError, match="not finite"):
                    count_tail_hits(spec, target, 1500, 1, 1000, 1.0)


class TestTailGrid:
    """count_tail_hits_grid steps each block once to the last horizon; each
    result must equal the single-horizon count_tail_hits call."""

    @pytest.mark.parametrize("drift_kind", sorted(DRIFTS))
    @pytest.mark.parametrize("noise_kind", sorted(NOISES))
    @pytest.mark.parametrize("target", ["recursion", "weighted_sum"])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_each_horizon_matches_single_call(self, drift_kind, noise_kind, target, data):
        spec = data.draw(specs(drift_kind, noise_kind))
        assume(target == "recursion" or spec.c < -1.0)
        horizons = sorted(data.draw(st.sets(
            st.one_of(st.sampled_from([0, 1, 63, 64, 65]), st.integers(0, 300)),
            min_size=1, max_size=4,
        )))
        seed = data.draw(st.integers(0, 2**64 - 1))
        replicas = data.draw(st.sampled_from([1, 37, BLOCK + 5]))
        workers = data.draw(st.sampled_from([1, 2]))
        inclusive = data.draw(st.booleans())
        thresholds = []
        for n in horizons:
            if data.draw(st.booleans()):  # a value some replica attains
                i = data.draw(st.integers(0, min(replicas, 37) - 1))
                dev = batch_final_deviations(spec, target, n, seed, i + 1)[i]
                thresholds.append(abs(float(dev)))
            else:
                thresholds.append(data.draw(st.floats(0.0, 3.0)))
        envelope = None
        scale = None  # an envelope bounds the recursion only
        if target == "recursion":
            scale = data.draw(st.sampled_from([None, 0.0, 0.3, 1.0]))
        if scale is not None:  # scaled down, so violations occur
            envelope = scale * envelope_bound(spec, horizons[-1])[0]
        got = count_tail_hits_grid(spec, target, horizons, thresholds, seed, replicas,
                                   inclusive=inclusive, workers=workers,
                                   envelope=envelope)
        assert len(got) == len(horizons)
        for n, t, res in zip(horizons, thresholds, got):
            want = count_tail_hits(spec, target, n, seed, replicas, t,
                                   inclusive=inclusive, workers=workers,
                                   envelope=envelope)
            assert res == want, (spec, target, n, t)

    def test_violations_accumulate_through_each_horizon(self):
        spec = sine_spec()
        got = count_tail_hits_grid(spec, "recursion", (5, 50), (0.5, 0.5), 3, 200,
                                   envelope=np.zeros(52))
        assert 0 < got[0].envelope_violations < got[1].envelope_violations

    @pytest.mark.parametrize("horizons, thresholds", [
        ((), ()),
        ((5, 5), (1.0, 1.0)),
        ((10, 5), (1.0, 1.0)),
        ((-1, 5), (1.0, 1.0)),
        ((5, 10), (1.0,)),
        ((5,), (1.0, 2.0)),
    ])
    def test_rejects_bad_grids(self, horizons, thresholds):
        for spec in (linear_spec(), sine_spec()):
            with pytest.raises(ValueError):
                count_tail_hits_grid(spec, "recursion", horizons, thresholds, 0, 10)

    def test_rejects_no_replicas(self):
        with pytest.raises(ValueError):
            count_tail_hits_grid(sine_spec(), "recursion", (5,), (1.0,), 0, 0)

    def test_rejects_short_envelope_before_stepping(self, monkeypatch):
        spec = sine_spec()
        env, _ = envelope_bound(spec, 1000)

        def no_block(*args, **kwargs):
            raise AssertionError("a block ran")

        monkeypatch.setattr(engine_mod, "_run_block", no_block)
        with pytest.raises(ValueError, match="52 entries for horizon 50, got 10"):
            count_tail_hits(spec, "recursion", 50, 1, 1000, 0.5, envelope=env[:10])
        with pytest.raises(ValueError, match="52 entries"):
            count_tail_hits_grid(spec, "recursion", (5, 50), (0.5, 0.5), 1, 1000,
                                 envelope=env[:51])

    def test_rejects_envelope_on_weighted_sum(self):
        # the weighted sum has no |X_k - x*| to bound
        spec = linear_spec()
        with pytest.raises(ValueError, match="weighted_sum"):
            count_tail_hits(spec, "weighted_sum", 50, 1, 1000, 0.5,
                            envelope=np.zeros(52))


class TestTaylorDecompose:
    def test_linear_remainder_exactly_zero(self):
        traj = simulate(linear_spec(), 200, 5)
        dec = taylor_decompose(traj)
        assert dec.i2 == 0.0
        dev = traj.final_deviation
        assert abs(dec.i1 + dec.i3 - dev) / max(1.0, abs(dev)) < 1e-10

    def test_fixed_point_all_zero(self):
        # the noise-free path started at the root stays there
        traj = Trajectory(xs=np.zeros(52), us=np.zeros(51), spec=sine_spec(x0=0.0))
        dec = taylor_decompose(traj)
        assert (dec.i1, dec.i2, dec.i3) == (0.0, 0.0, 0.0)

    def test_sine_identity_small_horizon(self):
        spec = sine_spec()
        traj = simulate(spec, 10, 42)
        dec = taylor_decompose(traj)
        dev = traj.final_deviation
        assert abs(dec.total - dev) / max(1.0, abs(dev)) < 1e-10

    def test_identity_random_sample(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            seed = int(rng.integers(0, 2**62))
            spec = sine_spec(x0=float(rng.normal()))
            traj = simulate(spec, n, seed)
            dec = taylor_decompose(traj)
            dev = traj.final_deviation
            assert abs(dec.total - dev) / max(1.0, abs(dev)) < 1e-10

    def test_remainder_bounded_by_curvature(self):
        spec = sine_spec()
        ka = spec.drift.Ka
        for seed in range(5):
            traj = simulate(spec, 400, seed)
            dev = traj.xs[:-1] - spec.drift.x_star
            g_vals = spec.drift(traj.xs[:-1])
            rem = g_vals - spec.drift.gprime_star * dev
            assert np.all(np.abs(rem) <= 0.5 * ka * dev * dev + 1e-15)


class TestEnvelope:
    def test_one_step_value(self):
        # q_0 = |1 - 2| = 1, drive = 2: B_1 = 1*1 + 2 = 3
        env, sup = envelope_bound(linear_spec(), 5)
        assert env[0] == 1.0
        assert env[1] == 3.0
        assert sup == 3.0

    def test_no_noise_at_root_is_zero(self):
        spec = ProblemSpec(
            LinearDrift(-1.0, 0.0), TwoPointAdaptive(1e-12, 0.5, 0.5), 2.0, 0.0
        )
        # Ku ~ 1e-12: envelope collapses towards zero with x0 = x*
        env, sup = envelope_bound(spec, 100)
        assert sup <= 1e-9

    def test_domination_monte_carlo(self):
        spec = linear_spec()
        env, _ = envelope_bound(spec, 2000)
        res = count_tail_hits(
            spec, "recursion", 2000, 31, 5000, math.inf, envelope=env
        )
        assert res.envelope_violations == 0

    def test_domination_recorded_paths_every_step(self):
        spec = sine_spec()
        env, _ = envelope_bound(spec, 500)
        for seed in range(20):
            traj = simulate(spec, 500, seed)
            assert np.all(np.abs(traj.xs - spec.drift.x_star) <= env)

    def test_shape_bound(self):
        # B_k <= C (|x0-x*| k^{-b K1} + 1) with C fit on the first 100 steps
        spec = linear_spec()
        env, _ = envelope_bound(spec, 5000)
        ks = np.arange(1, 5001 + 1, dtype=np.float64)
        shape = abs(spec.x0) * ks ** (-spec.b * spec.drift.K1) + 1.0
        fit = np.max(env[1:101] / shape[:100])
        assert np.all(env[1:] <= fit * shape * (1.0 + 1e-12))

    def test_overflow_is_inf_without_warning(self):
        # q_k = |1 - 2000/(k+1)| overflows float64 early and is 0 at k = 1999;
        # the tests run with RuntimeWarning as an error
        env, sup = envelope_bound(linear_spec(alpha1=-1000.0), 2500)
        assert sup == math.inf
        assert not np.any(np.isnan(env))
        assert np.all(env[1999:] == math.inf)


class TestSecondMomentIdentity:
    def test_enumerated_small_horizons(self):
        spec = ProblemSpec(LinearDrift(-2.0, 0.0), Rademacher(1.0), 1.0, 0.0)
        for n in (0, 1, 2, 5):
            m = n + 1
            idx = np.arange(1 << m, dtype=np.uint64)[:, None]
            bits = (idx >> np.arange(m, dtype=np.uint64)[None, :]) & np.uint64(1)
            signs = 2.0 * bits.astype(np.float64) - 1.0
            s = weighted_sums_over_signs(spec, n, signs)
            h = h_norm(spec.b, spec.c, n)
            assert abs(float(np.mean((h * s) ** 2)) - 1.0) <= 1e-12

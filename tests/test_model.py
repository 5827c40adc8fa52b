import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from model_strategies import DRIFT_MODELS, NOISE_MODELS
from references import batch_final_deviations, drift_condition_failures

from sapprox.engine import BlockStream, ReplicaStream
from sapprox.model import (
    NOISES,
    LinearDrift,
    ProblemSpec,
    Rademacher,
    SineLinearDrift,
    TwoPointAdaptive,
)


class TestDriftConstruction:
    def test_linear_rejects_nonnegative_slope(self):
        with pytest.raises(ValueError):
            LinearDrift(0.0)
        with pytest.raises(ValueError):
            LinearDrift(1.0)

    def test_sine_linear_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SineLinearDrift(1.0, 2.0)  # c2 >= c1
        with pytest.raises(ValueError):
            SineLinearDrift(2.0, 2.0)
        with pytest.raises(ValueError):
            SineLinearDrift(2.0, 0.0)
        with pytest.raises(ValueError):
            SineLinearDrift(-1.0, -2.0)

    def test_derived_constants(self):
        lin = LinearDrift(-1.5, 0.3)
        assert (lin.gprime_star, lin.K1, lin.K2, lin.Ka) == (-1.5, 1.5, 1.5, 0.0)
        sl = SineLinearDrift(2.0, 1.0)
        assert (sl.gprime_star, sl.K1, sl.K2, sl.Ka) == (-3.0, 1.0, 3.0, 1.0)


class TestEvalG:
    """g evaluated by calling the drift."""

    def test_linear_value(self):
        assert LinearDrift(-1.0, 0.0)(0.5) == -0.5

    def test_sine_linear_at_root(self):
        assert SineLinearDrift(2.0, 1.0, 0.0)(0.0) == 0.0

    def test_sine_linear_at_pi(self):
        got = SineLinearDrift(2.0, 1.0, 0.0)(math.pi)
        assert got == pytest.approx(-2.0 * math.pi, rel=1e-15)

    def test_exact_zero_at_stable_point(self):
        assert LinearDrift(-2.7, 1.25)(1.25) == 0.0
        assert SineLinearDrift(3.0, 0.5, -4.5)(-4.5) == 0.0

    def test_array_input(self):
        xs = np.linspace(-3, 3, 7)
        got = SineLinearDrift(2.0, 1.0, 0.0)(xs)
        want = -2.0 * xs - np.sin(xs)
        assert np.array_equal(got, want)


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


class TestDriftLaw:
    @pytest.mark.parametrize("kind", sorted(DRIFT_MODELS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_of_deviation_is_the_written_out_formula(self, kind, data):
        # floats against floats and arrays against arrays: a vectorized sin
        # may round differently from the scalar one
        drift = data.draw(DRIFT_MODELS[kind])
        us = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40))
        if kind == "linear":
            def formula(u):
                return drift.alpha1 * u
        else:
            def formula(u):
                return -drift.c1 * u - drift.c2 * np.sin(u)
        for u in us:
            got = drift.of_deviation(u)
            assert isinstance(got, float)
            assert _bits(got) == _bits(formula(u))
        arr = np.array(us)
        want = formula(arr.copy())
        out = arr.copy()
        assert drift.of_deviation(out) is out
        assert _bits(out) == _bits(want)
        xs = drift.x_star + arr
        before = xs.copy()
        assert _bits(drift(xs)) == _bits(formula(xs - drift.x_star))
        assert _bits(xs) == _bits(before)  # calling the drift leaves x alone

    @settings(max_examples=40, deadline=None)
    @given(alpha1=st.floats(-1e6, -1e-6), x_star=st.floats(-5.0, 5.0))
    def test_linear_constants_bitwise(self, alpha1, x_star):
        lin = LinearDrift(alpha1, x_star)
        got = (lin.gprime_star, lin.K1, lin.K2, lin.Ka)
        assert _bits(got) == _bits((alpha1, -alpha1, -alpha1, 0.0))

    def test_describe_and_fingerprint_pinned(self):
        lin = ProblemSpec(LinearDrift(-1.3, 0.4), TwoPointAdaptive(1.1, 0.3, 0.7), 1.5, 1.0)
        assert lin.drift.describe() == {"kind": "linear", "alpha1": -1.3, "x_star": 0.4}
        assert lin.fingerprint() == "bac62481497c2114"
        sine = ProblemSpec(SineLinearDrift(2.0, 0.5, -0.25), Rademacher(0.8), 1.5, 1.0)
        assert sine.drift.describe() == {
            "kind": "sine_linear", "c1": 2.0, "c2": 0.5, "x_star": -0.25
        }
        assert sine.fingerprint() == "05a97d5f8020a2e5"


class TestDriftConditions:
    def test_linear_clean(self):
        assert drift_condition_failures(LinearDrift(-1.0, 0.0), 10.0, 1001) == []

    def test_sine_linear_clean_wide_grid(self):
        assert drift_condition_failures(SineLinearDrift(2.0, 1.0, 0.0), 20.0, 4001) == []

    def test_shifted_root_clean(self):
        assert drift_condition_failures(SineLinearDrift(3.0, 1.2, 2.5), 15.0, 2001) == []

    @pytest.mark.parametrize("kind", sorted(DRIFT_MODELS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_analytic_constants_hold(self, kind, data):
        # every registered kind's K1, K2 and Ka against its g on a grid
        drift = data.draw(DRIFT_MODELS[kind])
        assert drift_condition_failures(drift, 10.0, 2001) == []

    def test_detects_planted_violation(self):
        # a drift whose claimed K1 exceeds the true lower envelope
        class Bad(SineLinearDrift):
            @property
            def K1(self):
                return self.c1  # claims sin never cancels anything

        assert "lower_envelope" in drift_condition_failures(Bad(2.0, 1.0, 0.0), 10.0, 2001)

    def test_detects_curvature_violation(self):
        class Flat(SineLinearDrift):
            @property
            def Ka(self):
                return 0.0

        assert "curvature" in drift_condition_failures(Flat(2.0, 1.0, 0.0), 10.0, 2001)


class TestNoiseModels:
    def test_rademacher_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            Rademacher(0.0)

    def test_two_point_requires_valid_probs(self):
        with pytest.raises(ValueError):
            TwoPointAdaptive(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            TwoPointAdaptive(1.0, 0.7, 0.3)
        with pytest.raises(ValueError):
            TwoPointAdaptive(1.0, 0.3, 1.0)

    def test_two_point_values_at_p08(self):
        # state 0 goes up with p_max = 0.8, sigma = 1: +0.5 w.p. 0.8, -2 w.p. 0.2
        noise = TwoPointAdaptive(1.0, 0.2, 0.8)
        down, up = noise.values[:2]
        assert up == pytest.approx(0.5, rel=1e-15)
        assert down == pytest.approx(-2.0, rel=1e-15)

    def test_symmetric_case_reduces_to_rademacher(self):
        assert TwoPointAdaptive(1.0, 0.5, 0.5).values == (-1.0, 1.0) * 3
        assert Rademacher(1.0).values == (-1.0, 1.0)

    @pytest.mark.parametrize("kind", sorted(NOISE_MODELS))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_exact_conditional_moments_every_state(self, kind, data):
        # algebraic check on the two-point law, not a statistical one
        noise = data.draw(NOISE_MODELS[kind])
        assert len(noise.values) == 2 * len(noise.up_probability)
        for state, p in enumerate(noise.up_probability):
            down, up = noise.values[2 * state:2 * state + 2]
            mean = p * up + (1.0 - p) * down
            second = p * up * up + (1.0 - p) * down * down
            # each term carries about five roundings
            assert abs(mean) <= 10 * math.ulp(p * up)
            assert second == pytest.approx(noise.sigma**2, rel=1e-14)
            assert abs(up) <= noise.Ku and abs(down) <= noise.Ku

    def test_ku_formula(self):
        noise = TwoPointAdaptive(2.0, 0.1, 0.6)
        worst_pos = 2.0 * math.sqrt(0.9 / 0.1)
        worst_neg = 2.0 * math.sqrt(0.6 / 0.4)
        assert noise.Ku == max(worst_pos, worst_neg)

    @pytest.mark.parametrize("kind", sorted(NOISE_MODELS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_ku_is_the_closed_form_bitwise(self, kind, data):
        # the largest up value is at p_min and the largest down value at p_max
        noise = data.draw(NOISE_MODELS[kind])
        sigma = noise.sigma
        if isinstance(noise, Rademacher):
            want = sigma
        else:
            want = max(sigma * math.sqrt((1.0 - noise.p_min) / noise.p_min),
                       sigma * math.sqrt(noise.p_max / (1.0 - noise.p_max)))
        assert noise.Ku == want

    def test_rademacher_bound(self):
        assert Rademacher(2.0).Ku == 2.0


class TestSampleNoise:
    def test_rademacher_values(self):
        draw = Rademacher(2.0).sampler(ReplicaStream(123, 0))
        assert {draw(k) for k in range(200)} == {2.0, -2.0}

    def test_two_point_state_transitions(self):
        # the state rule spelled out in p: the midpoint first, then p_min
        # after an up draw and p_max after a down draw
        noise = TwoPointAdaptive(1.0, 0.3, 0.7)
        draw = noise.sampler(ReplicaStream(9, 0))
        uniforms = ReplicaStream(9, 0)
        p = 0.5
        for k in range(300):
            went_up = uniforms.uniform(k) < p
            want = math.sqrt((1.0 - p) / p) if went_up else -math.sqrt(p / (1.0 - p))
            assert draw(k) == want
            p = 0.3 if went_up else 0.7

    @pytest.mark.parametrize("kind", sorted(NOISE_MODELS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_draws_bounded_by_ku(self, kind, data):
        noise = data.draw(NOISE_MODELS[kind])
        draw = noise.sampler(ReplicaStream(data.draw(st.integers(0, 2**64 - 1)), 0))
        states = len(noise.up_probability)
        s = states - 1  # two-point noise starts in state 2, with no draw yet
        for k in range(300):
            u = draw(k)
            # one of the two values of the state the previous draw left
            assert u in noise.values[2 * s:2 * s + 2]
            assert abs(u) <= noise.Ku
            s = int(u > 0) if states > 1 else 0

    @pytest.mark.parametrize("kind", sorted(NOISE_MODELS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_block_draws_equal_scalar_draws(self, kind, data):
        noise = data.draw(NOISE_MODELS[kind])
        self.check_block_equals_scalar(noise, data.draw(st.integers(0, 2**64 - 1)))

    @pytest.mark.parametrize("noise", [Rademacher(1e308), TwoPointAdaptive(1e308, 0.3, 0.7)])
    def test_block_draws_equal_scalar_draws_at_huge_sigma(self, noise):
        # 2 sigma overflows here, so a draw must not be formed through it
        self.check_block_equals_scalar(noise, 20240801)

    @staticmethod
    def check_block_equals_scalar(noise, seed, lo=5, width=37):
        block = noise.block_sampler(BlockStream(seed, range(lo, lo + width)))
        scalars = [noise.sampler(ReplicaStream(seed, lo + i)) for i in range(width)]
        out = np.empty(width)
        for k in range(130):  # past two 64-step sign words
            block(k, out)
            assert np.array_equal(out, [draw(k) for draw in scalars]), (noise, k)

    def test_bounded_over_many_draws(self):
        # 1e6 draws through the batch path; adversarial states arise from
        # the draws themselves
        spec = ProblemSpec(
            LinearDrift(-1.0, 0.0), TwoPointAdaptive(1.0, 0.15, 0.85), 2.0, 0.0
        )
        devs = batch_final_deviations(spec, "weighted_sum", 9, 77, 100_000)
        ku = spec.noise.Ku
        # every statistic is a convex-ish combination of bounded draws;
        # crude sanity: no NaN, no runaway magnitudes
        assert np.all(np.isfinite(devs))
        assert np.max(np.abs(devs)) <= spec.b * ku * 10


def chain_draws(noise, seed, replica, steps=130):
    """The draws of one replica, walked through the noise's chain table from
    its start state, with d read from a stream of its own."""
    stream = ReplicaStream(seed, replica)
    s, draws = noise.start_state, []
    for k in range(steps):
        if noise.fair_signs:
            d = stream.sign_bit(k)
        else:
            d = int(stream.uniform(k) < noise.up_probability[s])
        draws.append(noise.values[2 * s + d])
        s = noise.next_state[2 * s + d]
    return draws


class TestNoiseChain:
    @pytest.mark.parametrize("kind", sorted(NOISES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_table_shape(self, kind, data):
        noise = data.draw(NOISE_MODELS[kind])
        assert type(noise) is NOISES[kind]
        states = range(len(noise.up_probability))
        assert len(noise.values) == len(noise.next_state) == 2 * len(states)
        assert all(type(s) is int and s in states
                   for s in (noise.start_state, *noise.next_state))
        if noise.fair_signs:
            # one state, never left, with p = 1/2: what the closed-form tail
            # count and the split-count oracle assume of a sign bit
            assert noise.up_probability == (0.5,) and noise.next_state == (0, 0)

    @pytest.mark.parametrize("kind", sorted(NOISES))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_draws_walk_the_chain(self, kind, data):
        noise = data.draw(NOISE_MODELS[kind])
        seed, lo = data.draw(st.integers(0, 2**64 - 1)), 5
        draw = noise.sampler(ReplicaStream(seed, lo))
        assert [draw(k) for k in range(130)] == chain_draws(noise, seed, lo), noise
        for width in (1, 37):
            block = noise.block_sampler(BlockStream(seed, range(lo, lo + width)))
            want = np.array([chain_draws(noise, seed, lo + i) for i in range(width)])
            out = np.empty(width)
            for k in range(130):  # past two 64-step sign words
                block(k, out)
                assert np.array_equal(out, want[:, k]), (noise, width, k)


class TestProblemSpec:
    def test_c_product(self):
        spec = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 2.0, 1.0)
        assert spec.c == -2.0

    def test_mdp_regime_gate(self):
        ok = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 2.0, 1.0)
        ok.require_mdp_regime()
        bad = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 0.5, 1.0)
        with pytest.raises(ValueError):
            bad.require_mdp_regime()

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            ProblemSpec(LinearDrift(-1.0), Rademacher(1.0), 0.0, 0.0)

    def test_fingerprint_stability(self):
        a = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 2.0, 1.0)
        b = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 2.0, 1.0)
        c = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 2.0, 1.5)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

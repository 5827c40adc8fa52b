import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from model_strategies import DRIFT_MODELS, NOISE_MODELS
from references import drift_condition_failures

from sapprox.engine import ReplicaStream, batch_final_deviations
from sapprox.model import (
    LinearDrift,
    ProblemSpec,
    Rademacher,
    SineLinearDrift,
    TwoPointAdaptive,
    eval_g,
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
    def test_linear_value(self):
        assert eval_g(LinearDrift(-1.0, 0.0), 0.5) == -0.5

    def test_sine_linear_at_root(self):
        assert eval_g(SineLinearDrift(2.0, 1.0, 0.0), 0.0) == 0.0

    def test_sine_linear_at_pi(self):
        got = eval_g(SineLinearDrift(2.0, 1.0, 0.0), math.pi)
        assert got == pytest.approx(-2.0 * math.pi, rel=1e-15)

    def test_exact_zero_at_stable_point(self):
        assert eval_g(LinearDrift(-2.7, 1.25), 1.25) == 0.0
        assert eval_g(SineLinearDrift(3.0, 0.5, -4.5), -4.5) == 0.0

    def test_array_input(self):
        xs = np.linspace(-3, 3, 7)
        got = eval_g(SineLinearDrift(2.0, 1.0, 0.0), xs)
        want = -2.0 * xs - np.sin(xs)
        assert np.array_equal(got, want)


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

    def test_two_point_outcomes_at_p08(self):
        # p = 0.8, sigma = 1: outcomes +0.5 w.p. 0.8 and -2 w.p. 0.2
        noise = TwoPointAdaptive(1.0, 0.2, 0.8)
        pos, neg = noise.outcomes(0.8)
        assert pos == pytest.approx(0.5, rel=1e-15)
        assert neg == pytest.approx(-2.0, rel=1e-15)

    def test_symmetric_case_reduces_to_rademacher(self):
        noise = TwoPointAdaptive(1.0, 0.5, 0.5)
        pos, neg = noise.outcomes(0.5)
        assert pos == 1.0 and neg == -1.0

    def test_exact_conditional_moments_every_state(self):
        # algebraic check on the two-point law, not a statistical one
        noise = TwoPointAdaptive(1.7, 0.25, 0.65)
        for state in (0, 1, -1):
            p = noise.p_for_state(state)
            pos, neg = noise.outcomes(p)
            mean = p * pos + (1.0 - p) * neg
            second = p * pos * pos + (1.0 - p) * neg * neg
            assert mean == pytest.approx(0.0, abs=1e-15)
            assert second == pytest.approx(noise.sigma**2, rel=1e-14)
            assert abs(pos) <= noise.Ku and abs(neg) <= noise.Ku

    def test_ku_formula(self):
        noise = TwoPointAdaptive(2.0, 0.1, 0.6)
        worst_pos = 2.0 * math.sqrt(0.9 / 0.1)
        worst_neg = 2.0 * math.sqrt(0.6 / 0.4)
        assert noise.Ku == max(worst_pos, worst_neg)

    def test_rademacher_bound(self):
        assert Rademacher(2.0).Ku == 2.0


class TestSampleNoise:
    def test_rademacher_values(self):
        noise = Rademacher(2.0)
        stream = ReplicaStream(123, 0)
        values = {noise.sample(0, stream, k)[0] for k in range(200)}
        assert values == {2.0, -2.0}

    def test_two_point_state_transitions(self):
        noise = TwoPointAdaptive(1.0, 0.3, 0.7)
        stream = ReplicaStream(9, 0)
        state = noise.initial_state()
        for k in range(300):
            u, next_state = noise.sample(state, stream, k)
            assert next_state == (1 if u > 0 else -1)
            p = noise.p_for_state(state)
            assert u in noise.outcomes(p)
            assert abs(u) <= noise.Ku
            state = next_state

    @pytest.mark.parametrize("kind", sorted(NOISE_MODELS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_draws_bounded_by_ku(self, kind, data):
        noise = data.draw(NOISE_MODELS[kind])
        stream = ReplicaStream(data.draw(st.integers(0, 2**64 - 1)), 0)
        state = noise.initial_state()
        for k in range(300):
            if isinstance(noise, TwoPointAdaptive):
                support = noise.outcomes(noise.p_for_state(state))
            else:
                support = (noise.sigma, -noise.sigma)
            u, state = noise.sample(state, stream, k)
            assert u in support
            assert abs(u) <= noise.Ku

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

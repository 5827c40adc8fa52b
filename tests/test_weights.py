import math
import tracemalloc

import numpy as np
import pytest
from references import h_asymptotic

from sapprox.model import LinearDrift, ProblemSpec, Rademacher
from sapprox.weights import (
    beta,
    beta_bounds,
    h_norm,
    recurrence_factors,
    recursion_weights,
    suffix_products,
    weight_sum,
)


def beta_direct(c, k, n):
    """Oracle: plain sequential float product, multiplied forwards."""
    p = 1.0
    for j in range(k, n + 1):
        p *= 1.0 + c / (j + 1.0)
    return p


def weight_sum_naive(c, n):
    """Oracle: O(n^2) double loop, every product recomputed from scratch."""
    return sum(beta_direct(c, k + 1, n) ** 2 / (k + 1) ** 2 for k in range(n + 1))


class TestBeta:
    def test_single_factor(self):
        assert beta(-1.5, 2, 2) == pytest.approx(0.5, rel=1e-15)

    def test_empty_product(self):
        assert beta(-1.5, 3, 2) == 1.0

    def test_zero_factor(self):
        assert beta(-2.0, 1, 1) == 0.0

    def test_nine_factor_product(self):
        # oracle: beta_direct(-1.5, 2, 10) = 0.0640716552734375
        assert beta(-1.5, 2, 10) == pytest.approx(0.0640716552734375, rel=1e-12)

    def test_negative_sign_region(self):
        # c = -3.5: factor at j = 0 is 1 - 3.5 = -2.5, j = 1 is -0.75, ...
        val = beta(-3.5, 0, 5)
        assert val == pytest.approx(beta_direct(-3.5, 0, 5), rel=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            beta(0.5, 0, 4)
        with pytest.raises(ValueError):
            beta(-1.0, -1, 4)

    def test_matches_forward_product_small_n(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            c = float(-rng.uniform(0.01, 5.0))
            n = int(rng.integers(0, 31))
            k = int(rng.integers(0, n + 1))
            want = beta_direct(c, k, n)
            got = beta(c, k, n)
            if want == 0.0:
                assert got == 0.0
            else:
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_recurrence_exact(self):
        # one more factor in front is one more float multiplication
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = float(-rng.uniform(0.01, 5.0))
            n = int(rng.integers(1, 400))
            k = int(rng.integers(0, n))
            assert beta(c, k, n) == (1.0 + c / (k + 1)) * beta(c, k + 1, n)

    def test_same_floats_as_the_kernels(self):
        # beta is the product recursion_weights and weight_sum multiply by
        rng = np.random.default_rng(8)
        for _ in range(200):
            c = float(-rng.uniform(0.0, 8.0))
            n = int(rng.integers(0, 401))
            got = np.array([beta(c, k + 1, n) for k in range(n + 1)])
            want = suffix_products(recurrence_factors(1.0, c, n)[0])
            assert got.tobytes() == want.tobytes(), (c, n)
            spec = ProblemSpec(LinearDrift(c / 2.0, 0.0), Rademacher(1.0), 2.0, 0.0)
            assert beta(spec.c, 0, n).hex() == recursion_weights(spec, n)[0].hex(), (spec.c, n)

    def test_monotone_in_horizon(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            c = float(-rng.uniform(0.01, 5.0))
            k_min = math.ceil(max(-2.0 * c - 1.0, 1.0))
            n = int(rng.integers(k_min, k_min + 500))
            k = int(rng.integers(k_min, n + 1))
            assert beta(c, k, n + 1) < beta(c, k, n)

    def test_large_horizon_no_overflow(self):
        assert 0.0 < beta(-2.0, 10, 10**7) < 1.0

    def test_memory_is_one_array_of_factors(self):
        # one chunk of factors at a time: 0.13 MiB at n = 10^7, where
        # f_10..f_n in one array are 76 MiB, and the factors of
        # recurrence_factors with their suffix products peaked at 229 MiB
        tracemalloc.start()
        try:
            beta(-2.0, 10, 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


class TestBetaBounds:
    def test_frozen_example(self):
        lower, upper = beta_bounds(-1.5, 2, 10)
        assert lower == pytest.approx(0.02516950494815149, rel=1e-12)
        assert upper == pytest.approx(0.1643167672515498, rel=1e-12)
        assert lower <= beta(-1.5, 2, 10) <= upper

    def test_single_factor_at_k_equals_n(self):
        for n in (1, 5, 40):
            lower, upper = beta_bounds(-0.5, n, n)
            val = 1.0 - 0.5 / (n + 1.0)
            assert lower <= val <= upper

    def test_boundary_k(self):
        # (-2c-1) v 1 = 5 exactly for c = -3
        lower, upper = beta_bounds(-3.0, 5, 5)
        assert lower == pytest.approx(0.09565907883193665, rel=1e-12)
        assert upper == pytest.approx(1.7279999999999998, rel=1e-12)
        assert lower <= 0.5 <= upper

    def test_rejects_outside_proven_range(self):
        with pytest.raises(ValueError):
            beta_bounds(-3.0, 4, 10)  # below (-2c-1) v 1 = 5
        with pytest.raises(ValueError):
            beta_bounds(-1.5, 11, 10)  # above n
        with pytest.raises(ValueError):
            beta_bounds(-1.5, 1, 0)  # n < 1

    def test_sandwich_random_sample(self):
        rng = np.random.default_rng(314159)
        checked = 0
        while checked < 1000:
            c = float(-rng.uniform(0.01, 5.0))
            k_min = math.ceil(max(-2.0 * c - 1.0, 1.0))
            n = int(rng.integers(1, 2000))
            if k_min > n:
                continue
            k = int(rng.integers(k_min, n + 1))
            lower, upper = beta_bounds(c, k, n)
            val = beta(c, k, n)
            assert lower <= val <= upper, (c, k, n)
            checked += 1


class TestWeightSum:
    def test_two_term_sum(self):
        assert weight_sum(-2.0, 1) == 0.25

    def test_empty_product_term_only(self):
        assert weight_sum(-2.0, 0) == 1.0

    def test_against_naive_oracle(self):
        # oracle: weight_sum_naive(-1.5, 10) = 0.046668079268697926
        assert weight_sum(-1.5, 10) == pytest.approx(
            0.046668079268697926, rel=1e-14
        )
        for c, n in [(-0.7, 25), (-4.5, 40), (-1.01, 63)]:
            assert weight_sum(c, n) == pytest.approx(
                weight_sum_naive(c, n), rel=1e-13
            )

    def test_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = float(-rng.uniform(0.01, 5.0))
            n = int(rng.integers(0, 500))
            assert weight_sum(c, n) > 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            h_norm(0.0, -2.0, 1)
        with pytest.raises(ValueError):
            weight_sum(0.0, 1)
        with pytest.raises(ValueError):
            weight_sum(-2.0, -1)


class TestRecursionWeights:
    def test_match_direct_products(self):
        # c = -2.6: the first factors are negative and exceed 1 in magnitude
        spec = ProblemSpec(LinearDrift(-1.3, 0.0), Rademacher(1.0), 2.0, 0.0)
        for n in (0, 1, 5, 40):
            beta0, w = recursion_weights(spec, n)
            assert beta0 == pytest.approx(beta_direct(spec.c, 0, n), rel=1e-13)
            want = [spec.b * beta_direct(spec.c, k + 1, n) / (k + 1) for k in range(n + 1)]
            np.testing.assert_allclose(w, want, rtol=1e-13)

    def test_rejects_negative_horizon(self):
        spec = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1.0), 2.0, 0.0)
        with pytest.raises(ValueError):
            recursion_weights(spec, -1)


class TestHNorm:
    def test_frozen_examples(self):
        assert h_norm(1.0, -2.0, 1) == pytest.approx(2.0, rel=1e-15)
        assert h_norm(2.0, -2.0, 1) == pytest.approx(1.0, rel=1e-15)
        assert h_norm(1.0, -2.0, 0) == pytest.approx(1.0, rel=1e-15)

    def test_overflowing_weights_raise(self):
        # c = -2000: the running product passes 2^1024 within n = 1500
        assert weight_sum(-2000.0, 1500) == math.inf
        with pytest.raises(FloatingPointError, match="product weights overflow float64"):
            h_norm(2.0, -2000.0, 1500)

    def test_scaling_in_b(self):
        for b in (0.5, 2.0, 7.0):
            assert h_norm(b, -1.7, 50) == pytest.approx(
                h_norm(1.0, -1.7, 50) / b, rel=1e-14
            )


class TestHAsymptotic:
    def test_formula_values(self):
        assert h_asymptotic(1.0, -1.5, 10**6) == pytest.approx(
            1414.213562373095, rel=1e-14
        )
        assert h_asymptotic(1.0, -0.6, 10**6) == pytest.approx(
            447.2135954999579, rel=1e-14
        )
        assert h_asymptotic(2.0, -1.5, 10**6) == pytest.approx(
            707.1067811865476, rel=1e-14
        )

    def test_rejects_c_at_least_minus_half(self):
        with pytest.raises(ValueError):
            h_asymptotic(1.0, -0.5, 100)
        with pytest.raises(ValueError):
            h_asymptotic(1.0, -0.2, 100)

    def test_matches_h_norm_at_moderate_n(self):
        # full-grid version runs in the acceptance suite at n = 1e6
        for c in (-1.2, -1.5, -2.0, -3.0):
            ratio = h_norm(1.0, c, 10**4) / h_asymptotic(1.0, c, 10**4)
            assert abs(ratio - 1.0) < 0.01

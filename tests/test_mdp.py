import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import weighted_sums_over_signs

from sapprox.mdp import (
    Schedule,
    binomial_band,
    clopper_pearson,
    enumerate_signed_sum_tail,
    estimate_tail,
    exact_tail_enumeration,
    gaussian_reference,
    rate_curve,
)
from sapprox.model import (
    LinearDrift,
    ProblemSpec,
    Rademacher,
    TwoPointAdaptive,
)
from sapprox.weights import beta_value, h_norm


def rad_spec(b=1.0, alpha1=-2.0, sigma=1.0, x0=0.0):
    return ProblemSpec(LinearDrift(alpha1, 0.0), Rademacher(sigma), b, x0)


def all_signs(m):
    """The full 2^m x m table of +-1 sign patterns."""
    idx = np.arange(1 << m, dtype=np.uint64)[:, None]
    bits = (idx >> np.arange(m, dtype=np.uint64)[None, :]) & np.uint64(1)
    return 2.0 * bits.astype(np.float64) - 1.0


def support_midpoints(spec, n, count):
    """Thresholds strictly inside real gaps of the attainable |statistic|
    values, so float boundary effects cannot flip a comparison."""
    mags = np.unique(np.abs(weighted_sums_over_signs(spec, n, all_signs(n + 1))))
    scale = max(1.0, float(mags[-1]))
    gaps = np.flatnonzero(np.diff(mags) > 1e-9 * scale)
    mids = 0.5 * (mags[gaps] + mags[gaps + 1])
    pick = np.linspace(0, len(mids) - 1, count).astype(int)
    return mids[pick]


class TestSchedule:
    def test_speed_formula(self):
        sched = Schedule(gamma=3.0, n_grid=(10**4,), r=1.0)
        assert sched.b(10**4) == pytest.approx(10.0**0.5, rel=1e-14)

    def test_limit_rates(self):
        assert Schedule(3.0, (10,), 1.0).limit_rate(1.0) == -0.5
        assert Schedule(3.0, (10,), 2.0).limit_rate(1.0) == -2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(0.0, (10,), 1.0)
        with pytest.raises(ValueError):
            Schedule(3.0, (), 1.0)
        with pytest.raises(ValueError):
            Schedule(3.0, (10, 10), 1.0)
        with pytest.raises(ValueError):
            Schedule(3.0, (20, 10), 1.0)
        with pytest.raises(ValueError):
            Schedule(3.0, (10,), 0.0)


class TestClopperPearson:
    def test_edge_cases(self):
        lo, hi = clopper_pearson(0, 100)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - 0.025 ** (1.0 / 100.0), rel=1e-10)
        lo, hi = clopper_pearson(100, 100)
        assert hi == 1.0
        assert lo == pytest.approx(0.025 ** (1.0 / 100.0), rel=1e-10)

    def test_interval_orders(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            total = int(rng.integers(1, 10**6))
            hits = int(rng.integers(0, total + 1))
            lo, hi = clopper_pearson(hits, total)
            p = hits / total
            assert 0.0 <= lo <= p <= hi <= 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 4)
        with pytest.raises(ValueError):
            clopper_pearson(-1, 4)

    def test_band_contains_mean(self):
        lo, hi = binomial_band(0.3, 1000)
        assert lo <= 300 <= hi


class TestGaussianReference:
    def test_two_sided_quantile(self):
        ref = gaussian_reference(1.0, 1.959964, 1.0)
        assert ref.tail == pytest.approx(0.049999998192884795, rel=1e-12)

    def test_small_threshold_degenerates(self):
        ref = gaussian_reference(1e-9, 1e-6, 1.0)
        assert ref.tail == pytest.approx(1.0, rel=1e-9)
        assert abs(ref.rate) < 1e-3 / 1e-12 * 0 + 1e12  # finite
        assert ref.rate <= 0.0

    def test_rate_limit_at_large_speed(self):
        ref = gaussian_reference(1.0, 30.0, 1.0)
        assert ref.rate == pytest.approx(-0.5040312186397592, rel=1e-10)
        assert abs(ref.rate / -0.5 - 1.0) <= 0.01

    def test_rate_monotone_toward_limit(self):
        rates = [gaussian_reference(1.0, b, 1.0).rate for b in np.linspace(2, 50, 25)]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert all(r < -0.5 for r in rates)

    def test_scales_with_sigma(self):
        a = gaussian_reference(1.0, 5.0, 1.0)
        b = gaussian_reference(2.0, 5.0, 2.0)
        assert a.tail == b.tail and a.rate == b.rate

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gaussian_reference(0.0, 1.0, 1.0)


class TestEnumeration:
    def test_generic_two_term(self):
        assert enumerate_signed_sum_tail([0.6, 0.8], 1.0) == Fraction(1, 2)

    def test_negative_threshold_certain(self):
        assert enumerate_signed_sum_tail([0.6, 0.8], -2.0) == 1

    def test_above_total_impossible(self):
        assert enumerate_signed_sum_tail([0.6, 0.8], 1.4) == 0

    def test_returns_exact_dyadic(self):
        out = enumerate_signed_sum_tail([0.3, 0.4, 0.5], 0.35)
        assert isinstance(out, Fraction)
        assert out.denominator in (1, 2, 4, 8)

    def test_spec_wrapper_matches_weight_dot_enumeration(self):
        spec = rad_spec()
        n = 8
        w = np.array(
            [spec.b * beta_value(spec.c, k + 1, n) / (k + 1) for k in range(n + 1)]
        )
        for t in support_midpoints(spec, n, 7):
            assert exact_tail_enumeration(spec, n, float(t)) == enumerate_signed_sum_tail(
                spec.noise.sigma * w, float(t)
            )

    def test_rejects_wrong_noise_and_size(self):
        tpa = ProblemSpec(
            LinearDrift(-2.0, 0.0), TwoPointAdaptive(1.0, 0.4, 0.6), 1.0, 0.0
        )
        with pytest.raises(ValueError):
            exact_tail_enumeration(tpa, 5, 0.1)
        with pytest.raises(ValueError):
            exact_tail_enumeration(rad_spec(), 23, 0.1)


def around(values):
    """Each value with its two float neighbours, so ties and the thresholds
    just off them are all compared."""
    out = []
    for v in values:
        out += [v, float(np.nextafter(v, -np.inf)), float(np.nextafter(v, np.inf))]
    return out


class TestEnumerationKernel:
    """The doubling kernel against per-pattern references built here."""

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.floats(-6.0, -1.01),
        b=st.floats(0.2, 3.0),
        sigma=st.floats(0.1, 3.0),
        x_star=st.floats(-50.0, 50.0),
        n=st.integers(0, 14),
        picks=st.lists(st.integers(0, 2**15 - 1), min_size=1, max_size=6),
    )
    def test_spec_oracle_matches_sign_matrix(self, c, b, sigma, x_star, n, picks):
        spec = ProblemSpec(LinearDrift(c / b, x_star), Rademacher(sigma), b, x_star)
        mags = np.abs(weighted_sums_over_signs(spec, n, all_signs(n + 1)))
        for t in around(float(mags[p % len(mags)]) for p in picks):
            want = Fraction(int(np.count_nonzero(mags > t)), len(mags))
            assert exact_tail_enumeration(spec, n, t) == want

    @settings(max_examples=60, deadline=None)
    @given(
        w=st.lists(
            st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, 0.1, 0.5, -1.0])),
            max_size=11,
        ),
        picks=st.lists(st.integers(0, 2**11 - 1), min_size=1, max_size=6),
    )
    def test_signed_sum_matches_left_to_right_sums(self, w, picks):
        mags = []
        for signs in itertools.product((1.0, -1.0), repeat=len(w)):
            acc = 0.0
            for wk, xk in zip(w, signs):
                acc += wk * xk
            mags.append(abs(acc))
        attained = [mags[p % len(mags)] for p in picks]
        for t in around(attained) + [-1.0, math.nan]:
            want = Fraction(sum(x > t for x in mags), len(mags))
            assert enumerate_signed_sum_tail(w, t) == want

    def test_empty_sum(self):
        assert enumerate_signed_sum_tail([], 0.0) == 0
        assert enumerate_signed_sum_tail([], -0.5) == 1
        assert enumerate_signed_sum_tail([], math.nan) == 0

    def test_negative_threshold_counts_each_pattern_once(self):
        # count(s > t) + count(s < -t) would count every pattern twice here
        assert enumerate_signed_sum_tail([0.6, 0.8, 0.0], -0.1) == 1
        assert exact_tail_enumeration(rad_spec(), 6, -0.1) == 1

    def test_nan_threshold_hits_nothing(self):
        assert enumerate_signed_sum_tail([0.6, 0.8], math.nan) == 0
        assert exact_tail_enumeration(rad_spec(), 6, math.nan) == 0

    def test_memory_is_one_value_per_pattern_pair(self):
        # 2^20 float64 values are 8 MiB; a sign matrix of the 2^21 patterns
        # of n = 20 would peak above 500 MiB
        tracemalloc.start()
        try:
            exact_tail_enumeration(rad_spec(), 20, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


class TestEstimateTail:
    def test_impossible_threshold(self):
        spec = rad_spec()
        n = 10
        max_stat = sum(
            abs(spec.b * beta_value(spec.c, k + 1, n) / (k + 1)) for k in range(n + 1)
        )
        h = h_norm(spec.b, spec.c, n)
        b_n = 2.0
        r = 1.1 * max_stat * h / b_n
        est = estimate_tail("weighted_sum", spec, n, r, b_n, 2000, 3)
        assert est.hits == 0 and est.p_hat == 0.0
        assert est.rate == -math.inf

    def test_zero_threshold_certain(self):
        # c = -2 zeroes the k=0 weight; remaining support never hits 0
        spec = rad_spec()
        est = estimate_tail("weighted_sum", spec, 1, 0.0, 1.5, 500, 3)
        assert est.p_hat == 1.0
        assert est.rate == 0.0

    def test_monte_carlo_inside_band_around_enumeration(self):
        spec = rad_spec()
        n = 10
        replicas = 10**5
        h = h_norm(spec.b, spec.c, n)
        b_n = 1.7
        for t in support_midpoints(spec, n, 5):
            exact = float(exact_tail_enumeration(spec, n, float(t)))
            est = estimate_tail(
                "weighted_sum", spec, n, float(t) * h / b_n, b_n, replicas, 41
            )
            lo, hi = binomial_band(exact, replicas, confidence=0.999)
            assert lo <= est.hits <= hi

    def test_oracle_equivalence_every_small_horizon(self):
        # 10-threshold grid at every enumerable horizon up to 18; gap
        # midpoints, padded with certain/impossible thresholds when the
        # support is too coarse to supply ten
        spec = rad_spec()
        replicas = 10**5
        b_n = 1.7
        for n in range(0, 19):
            h = h_norm(spec.b, spec.c, n)
            mids = list(support_midpoints(spec, n, 10)) if n >= 2 else []
            top = sum(
                abs(spec.b * beta_value(spec.c, k + 1, n) / (k + 1))
                for k in range(n + 1)
            )
            thresholds = ([0.5 * top, 1.1 * top] + mids)[:10]
            for t in thresholds:
                exact = float(exact_tail_enumeration(spec, n, float(t)))
                est = estimate_tail(
                    "weighted_sum", spec, n, float(t) * h / b_n, b_n, replicas, 43
                )
                lo, hi = binomial_band(exact, replicas, confidence=0.999)
                assert lo <= est.hits <= hi, (n, t, exact, est.hits, lo, hi)

    def test_deterministic_and_worker_invariant(self):
        spec = rad_spec()
        a = estimate_tail("weighted_sum", spec, 64, 1.0, 1.5, 30000, 5, workers=1)
        b = estimate_tail("weighted_sum", spec, 64, 1.0, 1.5, 30000, 5, workers=4)
        assert a == b

    def test_scale_equivariance_power_of_two(self):
        # sigma -> 2 sigma and r -> 2 r: exact float scaling, identical hits
        base = rad_spec(sigma=1.0)
        scaled = rad_spec(sigma=2.0)
        for r in (0.5, 1.0, 2.0):
            a = estimate_tail("weighted_sum", base, 32, r, 1.5, 20000, 9)
            b = estimate_tail("weighted_sum", scaled, 32, 2.0 * r, 1.5, 20000, 9)
            assert a.hits == b.hits

    def test_rate_nonpositive_and_monotone_in_r(self):
        spec = rad_spec()
        ests = [
            estimate_tail("recursion", spec, 200, r, 1.8, 20000, 13)
            for r in (0.25, 0.5, 1.0, 1.5)
        ]
        assert all(e.rate <= 0.0 for e in ests)
        phats = [e.p_hat for e in ests]
        assert all(b <= a for a, b in zip(phats, phats[1:]))

    def test_invariants(self):
        spec = rad_spec()
        est = estimate_tail("recursion", spec, 100, 0.9, 1.6, 5000, 21)
        assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0
        assert est.rate <= 0.0
        assert est.threshold == pytest.approx(
            0.9 * 1.6 / h_norm(spec.b, spec.c, 100), rel=1e-14
        )

    def test_rejects_weak_contraction(self):
        weak = ProblemSpec(LinearDrift(-0.5, 0.0), Rademacher(1.0), 1.0, 0.0)
        with pytest.raises(ValueError):
            estimate_tail("weighted_sum", weak, 10, 1.0, 1.5, 100, 0)


class TestRateCurve:
    def test_grid_and_limit(self):
        spec = rad_spec()
        sched = Schedule(gamma=3.0, n_grid=(20, 50, 120), r=1.0)
        curve = rate_curve("weighted_sum", spec, sched, 20000, 77)
        assert [p.n for p in curve.points] == [20, 50, 120]
        assert curve.limit_rate == -0.5
        for p in curve.points:
            assert p.b_n == pytest.approx(sched.b(p.n), rel=1e-14)
            assert p.reference_rate == pytest.approx(
                gaussian_reference(1.0, p.b_n, 1.0).rate, rel=1e-12
            )

    def test_limit_rate_scales(self):
        spec = rad_spec()
        sched = Schedule(gamma=3.0, n_grid=(20,), r=2.0)
        assert rate_curve("weighted_sum", spec, sched, 100, 0).limit_rate == -2.0

    def test_minus_inf_reported(self):
        spec = rad_spec()
        sched = Schedule(gamma=0.5, n_grid=(4,), r=50.0)
        curve = rate_curve("weighted_sum", spec, sched, 500, 1)
        assert curve.points[0].rate == -math.inf

    def test_bit_identical_across_runs_and_workers(self):
        spec = rad_spec()
        sched = Schedule(gamma=3.0, n_grid=(30, 80), r=1.0)
        a = rate_curve("recursion", spec, sched, 40000, 5, workers=1)
        b = rate_curve("recursion", spec, sched, 40000, 5, workers=4)
        assert a == b

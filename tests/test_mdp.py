import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import sign_pattern_sums, weighted_sums_over_signs

from sapprox import mdp
from sapprox.engine import UNIT_ROUNDOFF, recurrence_error
from sapprox.mdp import (
    Schedule,
    binomial_band,
    clopper_pearson,
    enumerate_signed_sum_tail,
    estimate_tail,
    exact_tail_enumeration,
    gaussian_reference,
    oracle_tail,
    rate_curve,
)
from sapprox.model import (
    LinearDrift,
    ProblemSpec,
    Rademacher,
    TwoPointAdaptive,
)
from sapprox.weights import beta, h_norm, recurrence_factors, recursion_weights


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
            [spec.b * beta(spec.c, k + 1, n) / (k + 1) for k in range(n + 1)]
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
            exact_tail_enumeration(rad_spec(), 41, 0.1)
        with pytest.raises(ValueError):
            enumerate_signed_sum_tail(np.ones(42), 0.1)


class TestOracleTail:
    """Which rows the exact oracle covers, decided in one place."""

    def test_covered_row_is_the_enumeration(self):
        spec = rad_spec(b=2.0, alpha1=-1.0, sigma=0.7)
        for t in support_midpoints(spec, 10, 5):
            got = oracle_tail(spec, "weighted_sum", 10, float(t))
            assert got == exact_tail_enumeration(spec, 10, float(t))
            assert isinstance(got, Fraction)

    def test_uncovered_rows_are_none(self):
        tpa = ProblemSpec(
            LinearDrift(-2.0, 0.0), TwoPointAdaptive(1.0, 0.4, 0.6), 1.0, 0.0
        )
        assert oracle_tail(rad_spec(), "recursion", 10, 0.1) is None
        assert oracle_tail(tpa, "weighted_sum", 10, 0.1) is None
        # 0.1001 lies between the sums k / 1640 that c = -2 gives at n = 40
        assert oracle_tail(rad_spec(), "weighted_sum", 41, 0.1001) is None
        assert oracle_tail(rad_spec(), "weighted_sum", 40, 0.1001) is not None


def around(values):
    """Each value with its two float neighbours, so ties and the thresholds
    just off them are all compared."""
    out = []
    for v in values:
        out += [v, float(np.nextafter(v, -np.inf)), float(np.nextafter(v, np.inf))]
    return out


class TestEnumerationKernel:
    """The enumeration oracles against per-pattern references built here."""

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
        # at most 2^20 float64 values, 8 MiB; a sign matrix of the 2^21
        # patterns of n = 20 would peak above 500 MiB
        tracemalloc.start()
        try:
            exact_tail_enumeration(rad_spec(), 20, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


def tail_of(mags, threshold):
    """Exact tail over 2 * len(mags) patterns whose other half are the
    negations of the doubling kernel's values."""
    return Fraction(2 * int(np.count_nonzero(mags > threshold)), 2 * len(mags))


SPECIAL_THRESHOLDS = [0.0, -0.0, -0.5, -math.inf, math.inf, math.nan]


class TestSplitCount:
    """The split count of both oracles against the doubling kernel of
    tests/references.py, whose values are bitwise the forward recurrence."""

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.one_of(st.floats(-6.0, -1.01), st.sampled_from([-1.5, -2.0, -3.0, -5.0])),
        b=st.floats(0.2, 3.0),
        sigma=st.floats(0.1, 3.0),
        n=st.integers(0, 22),
        picks=st.lists(st.integers(0, 2**22 - 1), min_size=1, max_size=4),
    )
    def test_spec_oracle_matches_doubling(self, c, b, sigma, n, picks):
        spec = ProblemSpec(LinearDrift(c / b, 0.0), Rademacher(sigma), b, 0.0)
        f, a = recurrence_factors(spec.b, spec.c, n)
        mags = np.abs(sign_pattern_sums(f, a * sigma))
        for t in around(float(mags[p % len(mags)]) for p in picks) + SPECIAL_THRESHOLDS:
            assert exact_tail_enumeration(spec, n, t) == tail_of(mags, t), t

    @settings(max_examples=60, deadline=None)
    @given(
        w=st.one_of(
            st.lists(
                st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, 0.1, 0.5, -1.0])),
                min_size=1, max_size=23,
            ),
            # one magnitude with random signs: many patterns tie at each sum
            st.tuples(
                st.sampled_from([0.1, 0.5, 1.0, 3.0, 1e-3]),
                st.lists(st.sampled_from([1.0, -1.0]), min_size=1, max_size=23),
            ).map(lambda p: [p[0] * x for x in p[1]]),
        ),
        picks=st.lists(st.integers(0, 2**22 - 1), min_size=1, max_size=4),
    )
    def test_signed_sum_matches_doubling(self, w, picks):
        mags = np.abs(sign_pattern_sums(np.ones(len(w)), np.array(w)))
        for t in around(float(mags[p % len(mags)]) for p in picks) + SPECIAL_THRESHOLDS:
            assert enumerate_signed_sum_tail(w, t) == tail_of(mags, t), t

    @pytest.mark.parametrize("n", range(23))
    def test_every_horizon_matches_doubling(self, n):
        rng = np.random.default_rng(n)
        # c = -2 puts the sums on the multiples of 1/(n(n+1)): ties
        for spec in (rad_spec(), rad_spec(b=1.9, alpha1=-1.35, sigma=0.8)):
            f, a = recurrence_factors(spec.b, spec.c, n)
            mags = np.abs(sign_pattern_sums(f, a * spec.noise.sigma))
            picks = rng.integers(0, len(mags), size=4)
            for t in around(mags[picks].tolist()) + SPECIAL_THRESHOLDS:
                assert exact_tail_enumeration(spec, n, t) == tail_of(mags, t), t
        for w in (rng.uniform(-1.0, 1.0, n + 1), np.full(n + 1, 0.1)):
            mags = np.abs(sign_pattern_sums(np.ones(n + 1), w))
            picks = rng.integers(0, len(mags), size=4)
            for t in around(mags[picks].tolist()) + SPECIAL_THRESHOLDS:
                assert enumerate_signed_sum_tail(w, t) == tail_of(mags, t), t

    def test_split_sums_well_inside_guard(self):
        worst = 0.0
        cases = []
        for c, b, sigma, n in itertools.product(
            (-1.01, -2.0, -2.7, -6.0), (0.5, 1.0, 2.5), (0.3, 1.0, 2.0), (0, 1, 5, 12, 20)
        ):
            spec = ProblemSpec(LinearDrift(c / b, 0.0), Rademacher(sigma), b, 0.0)
            f, a = recurrence_factors(spec.b, spec.c, n)
            w = recursion_weights(spec, n)[1] * sigma
            cases.append((w, f, a * sigma, recurrence_error(spec, "weighted_sum", n)))
        rng = np.random.default_rng(7)
        for m in (1, 2, 9, 21):
            # left-to-right sums: the error bound enumerate_signed_sum_tail uses
            w = rng.uniform(-5.0, 5.0, m)
            error = m * UNIT_ROUNDOFF * float(np.sum(np.abs(w)))
            cases.append((w, np.ones(m), w, error))
        for w, f, steps, error in cases:
            half = (len(w) + 1) // 2
            left = mdp._signed_sums(w[0], w[1:half])
            right = mdp._signed_sums(0.0, w[half:])
            # pattern i + 2^(half-1) j pairs left sum i with right sum j
            split = (right[:, None] + left[None, :]).ravel()
            err = float(np.max(np.abs(split - sign_pattern_sums(f, steps))))
            guard = mdp._split_guard(w, error, 0.0)
            assert err <= guard / 10, (w, err, guard)
            worst = max(worst, err / guard)
        assert worst > 0.0  # the sums differ, so the guard is exercised

    def test_pattern_values_are_the_doubling_kernel(self):
        for n in (0, 1, 6, 13):
            f, a = recurrence_factors(1.3, -2.7, n)
            got = mdp._pattern_values(f, 0.7 * a, np.arange(1 << n))
            assert got.tobytes() == sign_pattern_sums(f, 0.7 * a).tobytes()

    def test_memory_at_forty(self):
        # 2^20 sums per half, 8 MiB each; the split count holds five such
        # arrays, where the doubling kernel would need 2^40 values (8 TiB)
        spec = rad_spec(b=1.7, alpha1=-1.3)
        tracemalloc.start()
        try:
            p = exact_tail_enumeration(spec, 40, 0.25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < p < 1 and p.denominator > 2**30
        assert peak <= 64 * 2**20

    def test_rejects_non_finite_and_overflowing_weights(self):
        with pytest.raises(ValueError):
            enumerate_signed_sum_tail([1.0, math.inf], 0.5)
        with pytest.raises(ValueError):
            enumerate_signed_sum_tail([1.0, math.nan], 0.5)
        # numpy's own overflow warning is silenced; the error is the oracle's
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                enumerate_signed_sum_tail([1e308, 1e308, 1e308], 0.5)
            with pytest.raises(FloatingPointError):
                exact_tail_enumeration(rad_spec(alpha1=-1e200), 3, 0.5)


class TestEstimateTail:
    def test_impossible_threshold(self):
        spec = rad_spec()
        n = 10
        max_stat = sum(
            abs(spec.b * beta(spec.c, k + 1, n) / (k + 1)) for k in range(n + 1)
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
                abs(spec.b * beta(spec.c, k + 1, n) / (k + 1))
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

    @pytest.mark.parametrize("r, b_n", [
        (-0.5, 1.5), (math.nan, 1.5), (1.0, 0.0), (1.0, -1.0), (1.0, math.nan),
        (1.0, math.inf),
    ])
    def test_rejects_out_of_range_r_and_b_n(self, r, b_n):
        with pytest.raises(ValueError):
            estimate_tail("weighted_sum", rad_spec(), 10, r, b_n, 100, 0)


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

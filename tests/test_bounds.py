import math

import numpy as np
import pytest

from sapprox.bounds import (
    azuma_tail,
    delta_upper_limit,
    exp_inequality_bound,
    paper_form_bound,
    select_delta,
)
from sapprox.engine import count_tail_hits, envelope_bound
from sapprox.mdp import enumerate_signed_sum_tail
from sapprox.model import LinearDrift, ProblemSpec, Rademacher


def linear_spec(b=2.0, x0=1.0, sigma=1.0):
    return ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(sigma), b, x0)


class TestAzumaTail:
    def test_zero_threshold_clips_to_one(self):
        assert azuma_tail(0.0, [(-1.0, 1.0)]) == 1.0
        assert azuma_tail(0.0, []) == 1.0

    def test_single_range_frozen(self):
        # 2 exp(-2*4 / 4) = 2 e^{-2}
        got = azuma_tail(2.0, [(-1.0, 1.0)])
        assert got == pytest.approx(0.2706705664732254, rel=1e-14)

    def test_degenerate_ranges_give_zero(self):
        assert azuma_tail(1.0, [(0.5, 0.5), (-2.0, -2.0)]) == 0.0
        assert azuma_tail(1e-12, []) == 0.0

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            azuma_tail(1.0, [(1.0, -1.0)])
        with pytest.raises(ValueError):
            azuma_tail(-0.5, [(-1.0, 1.0)])

    def test_dominates_exact_same_sign_tail(self):
        # n symmetric unit ranges at t = n: exact tail is 2 * 2^{-n}
        for n in range(1, 21):
            bound = azuma_tail(float(n), [(-1.0, 1.0)] * n)
            exact = 2.0 * 2.0**-n
            assert exact <= bound

    def test_nonincreasing_in_t(self):
        ranges = [(-1.0, 1.0), (-0.5, 2.0), (0.0, 3.0)]
        vals = [azuma_tail(t, ranges) for t in np.linspace(0, 8, 40)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_nondecreasing_in_width(self):
        for w in np.linspace(0.1, 4.0, 20):
            narrow = azuma_tail(1.0, [(-w / 2, w / 2)])
            wide = azuma_tail(1.0, [(-w, w)])
            assert narrow <= wide + 1e-15

    def test_never_exceeded_by_enumeration(self):
        rng = np.random.default_rng(31)
        for m in (2, 5, 9, 12):
            w = rng.uniform(0.05, 1.5, size=m)
            ranges = [(-x, x) for x in w]
            for t in np.linspace(0.0, 1.05 * w.sum(), 30):
                exact = float(enumerate_signed_sum_tail(w, float(t)))
                assert exact <= azuma_tail(float(t), ranges)


class TestSelectDelta:
    def test_upper_limit_formula(self):
        # F = 2, eps = 0.5, b = 2, K1 = 1: exp(-5)
        spec = linear_spec()
        assert delta_upper_limit(spec, 2.0, 0.5) == pytest.approx(
            0.006737946999085467, rel=1e-14
        )

    def test_delta_is_half_the_limit(self):
        spec = linear_spec()
        choice = select_delta(spec, 1.0, 5000)
        _, F = envelope_bound(spec, 5000)
        assert choice.F == F
        assert choice.delta == pytest.approx(
            0.5 * delta_upper_limit(spec, F, 1.0), rel=1e-14
        )
        assert 0.0 < choice.delta < delta_upper_limit(spec, F, 1.0)

    def test_limit_monotone_in_epsilon(self):
        spec = linear_spec()
        cap = math.exp(-2.0 / (spec.b * spec.drift.K1))
        vals = [delta_upper_limit(spec, 2.0, e) for e in (0.1, 0.5, 2.0, 50.0, 1e6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < cap for v in vals)
        assert vals[-1] == pytest.approx(cap, rel=1e-5)

    def test_vanishing_envelope_limit(self):
        # Ku ~ 0 and x0 = x*: F ~ 0, limit e^{-2/(b K1)} = e^{-1}
        spec = ProblemSpec(LinearDrift(-1.0, 0.0), Rademacher(1e-13), 2.0, 0.0)
        choice = select_delta(spec, 1.0, 100)
        assert choice.F <= 1e-10
        assert 2.0 * choice.delta == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_margin_holds_at_feasible_from(self):
        spec = linear_spec()
        for eps in (0.5, 1.0, 2.0):
            choice = select_delta(spec, eps, 20000)
            assert choice.feasible
            n0 = choice.feasible_from
            i0 = math.floor(choice.delta * n0)
            margin = choice.F + spec.b * sum(
                -spec.drift.K1 * eps / 2.0 / (i + 1.0) for i in range(i0, n0 + 1)
            )
            assert margin < -eps

    def test_infeasible_reported_not_raised(self):
        spec = linear_spec()
        choice = select_delta(spec, 0.01, 50)
        assert not choice.feasible
        assert choice.feasible_from is None

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            select_delta(linear_spec(), 0.0, 100)
        with pytest.raises(ValueError):
            select_delta(linear_spec(), 1.0, 0)


class TestExpInequalityBound:
    def test_empty_suffix_term_is_zero(self):
        # the k = n inner term has no ranges left
        assert azuma_tail(0.25, []) == 0.0

    def test_value_in_unit_interval(self):
        spec = linear_spec()
        choice = select_delta(spec, 1.0, 5000)
        tb = exp_inequality_bound(spec, 1.0, 5000, choice)
        assert 0.0 < tb.value <= 1.0
        assert tb.envelope_term == 0.0
        assert tb.value == min(1.0, tb.block_term + tb.sum_term)

    def test_matches_direct_assembly_small_n(self):
        # dual route: suffix-sum internals vs literal azuma_tail calls
        spec = linear_spec()
        eps = 3.0
        choice = select_delta(spec, eps, 300)
        n = 300
        tb = exp_inequality_bound(spec, eps, n, choice)
        i0 = math.floor(choice.delta * n)
        ranges = [
            (-spec.b * spec.noise.Ku / (i + 1.0), spec.b * spec.noise.Ku / (i + 1.0))
            for i in range(i0, n + 1)
        ]
        block = azuma_tail(2.0 * eps, ranges)
        total = sum(
            azuma_tail(eps / 4.0, ranges[k - i0 + 1 :]) for k in range(i0, n + 1)
        )
        assert tb.block_term == pytest.approx(block, rel=1e-12)
        assert tb.sum_term == pytest.approx(total, rel=1e-12)

    def test_rejects_below_feasible_from(self):
        spec = linear_spec()
        choice = select_delta(spec, 0.5, 5000)
        assert choice.feasible_from > 1
        with pytest.raises(ValueError):
            exp_inequality_bound(spec, 0.5, choice.feasible_from - 1, choice)

    def test_rejects_choice_for_another_epsilon(self):
        # delta and F chosen for eps = 3 would give 5.2e-23 at eps = 1,
        # against 0.183 from eps = 1's own choice
        spec = linear_spec()
        choice = select_delta(spec, 3.0, 10**5)
        with pytest.raises(ValueError, match="epsilon"):
            exp_inequality_bound(spec, 1.0, 10**5, choice)

    def test_rejects_infeasible_choice(self):
        spec = linear_spec()
        bad = select_delta(spec, 0.01, 50)
        with pytest.raises(ValueError):
            exp_inequality_bound(spec, 0.01, 50, bad)

    def test_nonincreasing_in_n(self):
        spec = linear_spec()
        eps = 3.0
        choice = select_delta(spec, eps, 10**5)
        grid = [500, 1000, 2000, 4000, 10000, 10**5]
        vals = [exp_inequality_bound(spec, eps, n, choice).value for n in grid]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0  # the tail of the scan is nontrivial

    def test_monte_carlo_domination(self):
        spec = linear_spec()
        eps = 3.0
        n = 2000
        replicas = 20000
        choice = select_delta(spec, eps, n)
        tb = exp_inequality_bound(spec, eps, n, choice)
        assert tb.value < 1.0
        res = count_tail_hits(
            spec, "recursion", n, 17, replicas, eps, inclusive=True
        )
        empirical = res.hits / replicas
        assert empirical <= tb.value + 3.0 * math.sqrt(tb.value / replicas)


class TestPaperFormBound:
    def test_frozen_value(self):
        got = paper_form_bound(1.0, 1.0, 0.5, 10)
        assert got == pytest.approx(0.00019581149902478848, rel=1e-13)

    def test_no_decay_at_n_zero(self):
        got = paper_form_bound(1.0, 1.0, 0.5, 0)
        assert got == pytest.approx(4.313035285499332, rel=1e-13)

    def test_exponent_linear_in_n(self):
        # doubling n multiplies by exp(-C eps^2 delta n / (1 - delta))
        c, eps, delta, n = 0.7, 1.3, 0.25, 40
        ratio = paper_form_bound(c, eps, delta, 2 * n) / paper_form_bound(
            c, eps, delta, n
        )
        assert ratio == pytest.approx(
            math.exp(-c * eps * eps * delta * n / (1.0 - delta)), rel=1e-12
        )

    def test_vanishing_denominator_gives_inf(self):
        # exp(-1e-17/0.9) rounds to 1, so 1 - exp(...) is 0: the bound's limit
        assert math.exp(-1e-17 / 0.9) == 1.0
        assert paper_form_bound(1e-17, 1.0, 0.1, 100) == math.inf

    @pytest.mark.parametrize("c", [1e-16, 0.7])
    def test_expression_unchanged_elsewhere(self, c):
        eps, delta, n = 1.0, 0.1, 100
        lead = 2.0 * math.exp(-c * eps * eps * delta * n / (1.0 - delta))
        want = lead * (1.0 + 1.0 / (1.0 - math.exp(-c * eps * eps / (1.0 - delta))))
        assert paper_form_bound(c, eps, delta, n) == want

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            paper_form_bound(0.0, 1.0, 0.5, 10)
        with pytest.raises(ValueError):
            paper_form_bound(1.0, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            paper_form_bound(1.0, 0.0, 0.5, 10)

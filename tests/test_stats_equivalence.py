"""The interval and reference helpers of sapprox.mdp are computed with public
scipy.special functions.  These tests pin their bytes to the scipy.stats
forms they replace (beta.ppf, binom.ppf, norm.sf and norm.logsf), against the
installed scipy, so a scipy upgrade that changes either side shows up here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from sapprox.mdp import _binomial_quantile, binomial_band, clopper_pearson, gaussian_reference

CONFIDENCES = (0.5, 0.9, 0.95, 0.99, 0.999)
TOTALS = (1, 2, 3, 7, 10, 100, 1000, 12345, 10**5, 999_983, 10**6)


def stats_clopper_pearson(hits, total, confidence):
    alpha = 1.0 - confidence
    lo = 0.0 if hits == 0 else float(stats.beta.ppf(alpha / 2.0, hits, total - hits + 1))
    hi = 1.0 if hits == total else float(stats.beta.ppf(1.0 - alpha / 2.0, hits + 1, total - hits))
    return lo, hi


def stats_binomial_band(p, total, confidence):
    alpha = 1.0 - confidence
    lo = int(stats.binom.ppf(alpha / 2.0, total, p)) if p > 0 else 0
    hi = int(stats.binom.ppf(1.0 - alpha / 2.0, total, p)) if p < 1 else total
    return lo, hi


def test_clopper_pearson_equals_beta_ppf_bitwise():
    rng = np.random.default_rng(20260601)
    cases = 0
    for total in TOTALS + tuple(int(t) for t in rng.integers(1, 10**6, 8)):
        hits = set(range(min(total, 50) + 1)) | {total - 1, total}
        hits |= {int(h) for h in rng.integers(0, total + 1, 12)}
        for h in sorted(hits):
            for confidence in CONFIDENCES:
                got = clopper_pearson(h, total, confidence)
                assert got == stats_clopper_pearson(h, total, confidence), (h, total, confidence)
                cases += 1
    assert cases > 3000


def test_gaussian_reference_equals_norm_sf_and_logsf_bitwise():
    rng = np.random.default_rng(20260602)
    zs = np.concatenate([np.geomspace(1e-6, 40.0, 2000), rng.uniform(1e-6, 40.0, 2000)])
    for z in zs.tolist():
        for r, b_n, sigma in ((z, 1.0, 1.0), (1.0, z, 1.0), (2.0 * z, 3.0, 6.0)):
            ref = gaussian_reference(r, b_n, sigma)
            zz = r * b_n / sigma
            assert ref.tail == 2.0 * float(stats.norm.sf(zz)), (r, b_n, sigma)
            want_rate = (math.log(2.0) + float(stats.norm.logsf(zz))) / (b_n * b_n)
            assert ref.rate == want_rate, (r, b_n, sigma)


# p = k / 2^m is what the enumeration oracle yields: an exact tail over 2^(n+1)
# sign patterns.
dyadic_p = st.integers(1, 52).flatmap(
    lambda m: st.integers(1, (1 << m) - 1).map(lambda k: k / (1 << m))
)
near_zero_p = st.floats(0.0, 1e-12, exclude_min=True)
near_one_p = near_zero_p.map(lambda d: 1.0 - d)
probabilities = st.one_of(
    dyadic_p,
    near_zero_p,
    near_one_p,
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, 5e-324, 2.0**-53, 1.0 - 2.0**-53, 0.5]),
)
totals = st.one_of(st.integers(0, 1000), st.integers(1, 10**6), st.sampled_from(TOTALS))


@settings(max_examples=400, deadline=None)
@given(p=probabilities, total=totals, confidence=st.sampled_from([0.95, 0.999]))
def test_binomial_band_equals_binom_ppf(p, total, confidence):
    # alpha / 2 is 0.025 and 0.0005 up to rounding; its complement 0.975 / 0.9995
    assert binomial_band(p, total, confidence) == stats_binomial_band(p, total, confidence)


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(dyadic_p, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
       total=st.one_of(st.integers(1, 100), st.integers(1, 10**6)),
       where=st.floats(0.0, 1.0))
def test_binomial_quantile_is_smallest_count_reaching_q(p, total, where):
    # at q equal to a CDF value, the quantile is that count itself, not the next
    j = min(int(where * (total + 1)), total)
    q = float(special.bdtr(j, total, p))
    below = float(special.bdtr(j - 1, total, p)) if j > 0 else 0.0
    if not (0.0 < q < 1.0 and below < q):
        return
    assert _binomial_quantile(q, total, p) == j


class TestBinomialBandRejects:
    @pytest.mark.parametrize("p", [math.nan, 1.5, -0.1, math.inf, -math.inf])
    def test_probability_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match="p must be in"):
            binomial_band(p, 100)

    def test_negative_total(self):
        with pytest.raises(ValueError, match="total must be"):
            binomial_band(0.3, -5)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_confidence_outside_open_unit_interval(self, confidence):
        with pytest.raises(ValueError, match="confidence must be"):
            binomial_band(0.3, 100, confidence=confidence)

    def test_ends_of_the_ranges_accepted(self):
        assert binomial_band(0.0, 100) == (0, 0)
        assert binomial_band(1.0, 100) == (100, 100)
        assert binomial_band(0.3, 0) == (0, 0)

"""Pins of the closed-form counts' rounding guards, and of the byte order in
which the Monte Carlo closed form and its screen read sign words.

Each guard is built from engine.sum_error; the pins compare it bitwise with
the guard written out term by term, as terms * 2^-53 * magnitude in that
operation order, over a grid of targets, drifts, horizons, b, c and sigma.
"""

import itertools

import numpy as np
import pytest

from sapprox import engine, mdp
from sapprox.engine import BlockStream, _AffineTail, recurrence_error
from sapprox.model import LinearDrift, ProblemSpec, Rademacher, SineLinearDrift
from sapprox.weights import recursion_weights

U = 2.0**-53
NS = (0, 63, 64, 1000)


def affine_cases():
    """(spec, target) for each target under every drift where it is affine
    in the noise: the recursion under linear drift, the weighted sum under
    both drifts (which needs c = b g'(x*) < -1)."""
    for slope, b, sigma in itertools.product((1.0, 2.5, 6.0), (0.5, 1.6, 3.0), (0.3, 1.0, 2.5)):
        x_star = 0.25
        linear = ProblemSpec(LinearDrift(-slope, x_star), Rademacher(sigma), b, x_star + 1.2)
        sine = ProblemSpec(SineLinearDrift(0.75 * slope, 0.25 * slope, x_star),
                           Rademacher(sigma), b, x_star - 0.8)
        yield linear, "recursion"
        for spec in (linear, sine):
            if spec.c < -1.0:
                yield spec, "weighted_sum"


CASES = list(affine_cases())


def bits(x: float) -> str:
    return float(x).hex()


def test_the_grid_holds_both_targets_and_drifts():
    kinds = {(spec.drift.kind, target) for spec, target in CASES}
    assert kinds == {("linear", "recursion"), ("linear", "weighted_sum"),
                     ("sine_linear", "weighted_sum")}


@pytest.mark.parametrize("n", NS)
def test_closed_form_guard(n):
    for spec, target in CASES:
        stat = engine._target(spec, target)
        beta0, w = recursion_weights(spec, n)
        words = n // 64 + 1
        padded = np.zeros(64 * words)
        padded[: n + 1] = w
        start = beta0 * (stat.start - stat.origin)
        terms = 8 * words + 9
        summation = terms * U * (abs(start) + spec.noise.Ku * float(np.sum(np.abs(padded))))
        want = 2.0 * (recurrence_error(spec, target, n) + summation)
        assert bits(_AffineTail(spec, target, n).guard) == bits(want), (spec, target, n)


@pytest.mark.parametrize("n", NS)
def test_split_guard(n):
    for spec, target in CASES:
        if target != "weighted_sum":
            continue
        weights = recursion_weights(spec, n)[1] * spec.noise.sigma
        error = recurrence_error(spec, target, n)
        total = float(np.sum(np.abs(weights)))
        for t in (0.0, 0.37 * total, 3.0):
            want = 2.0 * (error + len(weights) * U * total) + 4.0 * U * (t + total)
            assert bits(mdp._split_guard(weights, error, t)) == bits(want), (spec, n, t)


def test_enumerated_signed_sum_error(monkeypatch):
    seen = []
    monkeypatch.setattr(mdp, "_split_tail", lambda w, f, a, error, t: seen.append(error))
    rng = np.random.default_rng(19)
    cases = [rng.uniform(-5.0, 5.0, m) for m in (1, 2, 9, 41)]
    cases += [recursion_weights(spec, n)[1] * spec.noise.sigma
              for spec, target in CASES if target == "weighted_sum" for n in (0, 40)]
    for w in cases:
        seen.clear()
        mdp.enumerate_signed_sum_tail(w, 0.5)
        assert [bits(e) for e in seen] == [bits(len(w) * U * float(np.sum(np.abs(w))))]


def test_byte_swapped_sign_words_give_the_same_closed_form(monkeypatch):
    # the closed form reads byte m of a sign word as steps 8m..8m+7, so the
    # same words stored in the other byte order must give the same sums
    sign_word = BlockStream.sign_word

    def swapped(self, j):
        word = sign_word(self, j)
        other = word.byteswap().view(word.dtype.newbyteorder())
        assert np.array_equal(other, word) and other.tobytes() != word.tobytes()
        return other

    for spec, target in CASES[:6]:
        for n in NS:
            form = _AffineTail(spec, target, n)
            native = form.deviations(11, 0, 300)
            # past one word the screen reads each sign word's popcount
            t = float(np.median(np.abs(native))) + (form.slack if n >= 64 else 0.0)
            screened = _AffineTail(spec, target, n, None, t)
            assert (screened._word_coefs is not None) == (n >= 64)
            hits = screened.hits(11, 0, 300, t, False)
            with monkeypatch.context() as patch:
                patch.setattr(BlockStream, "sign_word", swapped)
                assert np.array_equal(form.deviations(11, 0, 300), native), (spec, target, n)
                assert screened.hits(11, 0, 300, t, False) == hits, (spec, target, n)

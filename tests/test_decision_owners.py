"""Each decision has one owner, and moving it there changed no bit.

- The envelope's factors, select_delta's harmonic terms and
  exp_inequality_bound's widths take k + 1 and the contraction factor from
  sapprox.weights; the pins compare them bitwise with the expressions they
  replaced, written out here in their old operation order.
- The noise model says when a closed form applies (`fair_signs`), so
  sapprox.engine and sapprox.mdp import no drift or noise class.
- A noise kind is its chain table: the one scalar sampler on the shared
  base reads it, and no kind draws scalars for itself.
- An argument is checked by the function that uses it: the checks that a
  caller used to repeat still fire, with the same message.
"""

import ast
import itertools
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sapprox import engine, mdp, model
from sapprox.bounds import exp_inequality_bound, select_delta
from sapprox.engine import envelope_bound
from sapprox.mdp import estimate_tail, exact_tail_enumeration
from sapprox.model import LinearDrift, ProblemSpec, Rademacher, SineLinearDrift, TwoPointAdaptive
from sapprox.weights import _contraction, _indices

SRC = Path(__file__).resolve().parents[1] / "src" / "sapprox"
NS = (0, 1, 63, 1000)


def bits(x: float) -> str:
    return float(x).hex()


def written_out_envelope(spec, n):
    """The envelope recurrence with q_k = max |1 - b K / (k + 1)| spelled
    out, as envelope_bound computed it before taking f_k from weights."""
    b, ku = spec.b, spec.noise.Ku
    ks = np.arange(n + 1)
    q = np.maximum(np.abs(1.0 - b * spec.drift.K1 / (ks + 1.0)),
                   np.abs(1.0 - b * spec.drift.K2 / (ks + 1.0)))
    drive = b * ku / (ks + 1.0)
    env = np.empty(n + 2)
    env[0] = cur = abs(spec.x0 - spec.drift.x_star)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n + 1):
            cur = q[k] * cur + drive[k]
            env[k + 1] = cur
    env[np.isnan(env)] = np.inf
    return env, float(np.max(env))


def envelope_specs():
    """Both drift kinds under both noise kinds, with b K1 or b K2 an integer
    (a factor of exactly 0 from that step on), with b K below 1, and with a
    start so far out that the envelope overflows before a zero factor."""
    drifts = (
        (LinearDrift(-2.0, 0.25), 1.5),  # b K = 3
        (LinearDrift(-25.0, 0.0), 2.0),  # b K = 50
        (LinearDrift(-0.7, -1.0), 0.3),  # b K = 0.21
        (SineLinearDrift(2.0, 0.5, 0.25), 2.0),  # b K1 = 3, b K2 = 5
        (SineLinearDrift(30.0, 20.0, 0.0), 1.0),  # b K1 = 10, b K2 = 50
        (SineLinearDrift(1.3, 0.4, 0.0), 0.7),
    )
    noises = (Rademacher(0.8), TwoPointAdaptive(1.3, 0.2, 0.9))
    for (drift, b), noise, offset in itertools.product(drifts, noises, (1.2, 1e300)):
        yield ProblemSpec(drift, noise, b, drift.x_star + offset)


ENVELOPE_SPECS = list(envelope_specs())


def zero_factors(spec, n):
    """Whether some step's worst factor q_k is exactly 0."""
    k1 = _indices(n)
    return bool(np.any((_contraction(-spec.b * spec.drift.K1, k1) == 0)
                       & (_contraction(-spec.b * spec.drift.K2, k1) == 0)))


def test_the_envelope_grid_covers_zero_factors_and_overflow():
    kinds = {(spec.drift.kind, spec.noise.kind) for spec in ENVELOPE_SPECS}
    assert len(kinds) == 4
    assert any(zero_factors(spec, 1000) for spec in ENVELOPE_SPECS)
    assert any(np.any(_contraction(-spec.b * spec.drift.K1, _indices(1000)) == 0)
               and spec.drift.kind == "sine_linear" for spec in ENVELOPE_SPECS)
    # inf, then a zero factor: inf * 0 is NaN, which the envelope reports as inf
    overflowed = [spec for spec in ENVELOPE_SPECS
                  if zero_factors(spec, 63) and np.isinf(envelope_bound(spec, 63)[1])]
    assert overflowed


@pytest.mark.parametrize("n", NS)
def test_envelope_is_bitwise_the_written_out_recurrence(n):
    for spec in ENVELOPE_SPECS:
        env, sup = envelope_bound(spec, n)
        want, want_sup = written_out_envelope(spec, n)
        assert env.tobytes() == want.tobytes(), (spec, n)
        assert bits(sup) == bits(want_sup), (spec, n)


def written_out_select_delta(spec, epsilon, n_probe):
    """(delta, F, feasible_from) with the harmonic terms 1/(k + 1) spelled out."""
    _, F = written_out_envelope(spec, n_probe)
    delta = 0.5 * math.exp(-2.0 * (F + epsilon) / (spec.b * spec.drift.K1 * epsilon))
    need = 2.0 * (F + epsilon) / (spec.b * spec.drift.K1 * epsilon)
    inv = 1.0 / (np.arange(n_probe + 1, dtype=np.float64) + 1.0)
    H = np.concatenate(([0.0], np.cumsum(inv)))
    ns = np.arange(1, n_probe + 1)
    margin_ok = (H[ns + 1] - H[np.floor(delta * ns).astype(np.int64)]) > need
    feasible_from = None
    for idx in range(len(ns) - 1, -1, -1):
        if not margin_ok[idx]:
            break
        feasible_from = int(ns[idx])
    return delta, F, feasible_from


def written_out_bound(spec, epsilon, n, delta):
    """(value, block_term, sum_term) with the widths 2 b Ku/(i + 1) spelled out."""
    i0 = int(math.floor(delta * n))
    w2 = (2.0 * spec.b * spec.noise.Ku / (np.arange(i0, n + 1, dtype=np.float64) + 1.0)) ** 2
    suffix = np.concatenate((np.cumsum(w2[::-1])[::-1], [0.0]))
    t = 2.0 * epsilon  # the widths are positive, so their sum is too
    block = min(1.0, 2.0 * math.exp(-2.0 * t * t / float(suffix[0])))
    t = epsilon / 4.0
    inner = suffix[1:]
    terms = np.minimum(1.0, 2.0 * np.exp(-2.0 * t * t / np.maximum(inner, 1e-300)))
    terms[inner == 0.0] = 0.0
    sum_term = float(np.sum(terms))
    return min(1.0, block + sum_term), block, sum_term


def bound_specs():
    for drift, b, sigma, x0 in itertools.product(
            (LinearDrift(-1.0, 0.0), LinearDrift(-3.0, 0.5), SineLinearDrift(2.0, 0.5, 0.25)),
            (0.7, 2.0), (0.3, 1.0), (0.0, 1.5)):
        for noise in (Rademacher(sigma), TwoPointAdaptive(sigma, 0.3, 0.6)):
            yield ProblemSpec(drift, noise, b, x0)


BOUND_SPECS = list(bound_specs())
PROBES = (1, 63, 1000, 3000)
EPSILONS = (0.5, 2.0, 3.0)


@pytest.mark.parametrize("n_probe", PROBES)
def test_select_delta_and_bound_are_bitwise_the_written_out_terms(n_probe):
    feasible = 0
    for spec, epsilon in itertools.product(BOUND_SPECS, EPSILONS):
        choice = select_delta(spec, epsilon, n_probe)
        delta, F, feasible_from = written_out_select_delta(spec, epsilon, n_probe)
        assert (bits(choice.delta), bits(choice.F)) == (bits(delta), bits(F)), spec
        assert choice.feasible_from == feasible_from, spec
        if feasible_from is None:
            continue
        feasible += 1
        for n in sorted({feasible_from, (feasible_from + n_probe) // 2, n_probe}):
            got = exp_inequality_bound(spec, epsilon, n, choice)
            want = written_out_bound(spec, epsilon, n, delta)
            assert (bits(got.value), bits(got.block_term), bits(got.sum_term)) == tuple(
                map(bits, want)), (spec, epsilon, n)
    if n_probe >= 1000:  # short probes are infeasible everywhere
        assert feasible


def mdp_spec(slope=1.0, b=2.0, noise=None):
    return ProblemSpec(LinearDrift(-slope, 0.0), noise or Rademacher(1.0), b, 0.0)


class TestCheckedWhereUsed:
    """Each check fires from the callee that uses the value, with the
    message the caller used to raise first."""

    def test_enumeration_negative_n(self):
        with pytest.raises(ValueError, match=r"^n must be nonnegative, got -1$"):
            exact_tail_enumeration(mdp_spec(), -1, 0.5)

    def test_enumeration_weak_contraction(self):
        spec = mdp_spec(slope=0.25)  # c = -0.5
        message = "b * g'(x*) = -0.5 must be < -1 for deviation-rate operations"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            exact_tail_enumeration(spec, 5, 0.5)

    def test_enumeration_noise_checked_first(self):
        spec = mdp_spec(slope=0.25, noise=TwoPointAdaptive(1.0, 0.3, 0.7))
        with pytest.raises(ValueError, match=r"^enumeration oracle requires Rademacher noise$"):
            exact_tail_enumeration(spec, -1, 0.5)

    def test_estimate_tail_no_replicas(self):
        with pytest.raises(ValueError, match=r"^replicas must be >= 1, got 0$"):
            estimate_tail("weighted_sum", mdp_spec(), 10, 1.0, 1.5, 0, seed=1)

    def test_envelope_negative_n(self):
        with pytest.raises(ValueError, match=r"^n must be nonnegative, got -1$"):
            envelope_bound(mdp_spec(), -1)

    # only counts below 1, so that no thread is started
    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize("count", [
        lambda spec, workers: engine.count_tail_hits(
            spec, "recursion", 10, 1, 100, 0.5, workers=workers),
        lambda spec, workers: engine.count_tail_hits_grid(
            spec, "weighted_sum", [5, 10], [0.5, 0.5], 1, 100, workers=workers),
        lambda spec, workers: estimate_tail(
            "weighted_sum", spec, 10, 1.0, 1.5, 100, seed=1, workers=workers),
        lambda spec, workers: mdp.rate_curve(
            "recursion", spec, mdp.Schedule(3.0, (5, 10), 1.0), 100, 1, workers=workers),
    ], ids=["count_tail_hits", "count_tail_hits_grid", "estimate_tail", "rate_curve"])
    def test_workers_below_one(self, count, workers):
        with pytest.raises(ValueError, match=f"^workers must be >= 1, got {workers}$"):
            count(mdp_spec(), workers)


def model_imports(module: str) -> set[str]:
    """The names a sapprox module imports from sapprox.model."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            assert "sapprox.model" not in {alias.name for alias in node.names}, module
        elif isinstance(node, ast.ImportFrom):
            if node.module == "sapprox.model":
                names |= {alias.name for alias in node.names}
            elif node.module == "sapprox":
                assert "model" not in {alias.name for alias in node.names}, module
    return names


@pytest.mark.parametrize("module", [engine, mdp], ids=lambda m: m.__name__)
def test_no_drift_or_noise_class_imported(module):
    assert model_imports(module.__name__.rsplit(".", 1)[1]) <= {"ProblemSpec", "ParameterError"}
    classes = [name for name, value in vars(module).items()
               if isinstance(value, type) and issubclass(value, model._Model)]
    assert classes == []


def test_fair_signs_is_a_class_attribute_of_rademacher_only():
    assert {kind: cls.fair_signs for kind, cls in model.NOISES.items()} == {
        "rademacher": True, "two_point_adaptive": False}
    # not a dataclass field: describe(), fingerprints and configs are unchanged
    assert Rademacher(1.0).describe() == {"kind": "rademacher", "sigma": 1.0}


def test_noise_kinds_are_tables_drawn_by_one_scalar_sampler():
    for kind, cls in model.NOISES.items():
        assert "sampler" not in vars(cls), kind
        # class data, not dataclass fields: describe() and fingerprints keep
        # naming the parameters only
        assert not {"start_state", "next_state"} & {f.name for f in fields(cls)}, kind

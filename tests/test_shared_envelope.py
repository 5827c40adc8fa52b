"""The envelope is built once per `bound` run, read-only, never stale, and
bitwise the written-out recurrence across the chunks it is stepped in.

envelope_bound steps B_{k+1} = q_k B_k + b Ku/(k+1) on Python floats, a
weights._CHUNK of steps at a time, and keeps the last (spec, n) it built;
select_delta's feasibility scan finds the last failing horizon with numpy.
The written-out references are those of tests/test_decision_owners.py.
"""

import functools
import itertools

import pytest
import test_decision_owners
from test_cli import write_config
from test_decision_owners import (BOUND_SPECS, ENVELOPE_SPECS, EPSILONS, bits,
                                  written_out_envelope, written_out_select_delta)

from sapprox import engine
from sapprox.bounds import select_delta
from sapprox.cli import main
from sapprox.engine import envelope_bound
from sapprox.model import LinearDrift, ProblemSpec, Rademacher, SineLinearDrift, TwoPointAdaptive
from sapprox.weights import _CHUNK

# one chunk less one step, exactly one, one step more, two and a step, many
CHUNK_NS = (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 10**5)


@pytest.fixture
def no_memo(monkeypatch):
    """Start with no envelope kept, and restore the kept one afterwards."""
    monkeypatch.setattr(engine, "_last_envelope", (None, None, None))


@pytest.mark.parametrize("n", CHUNK_NS)
def test_envelope_is_bitwise_the_written_out_recurrence_across_chunks(n, no_memo):
    for spec in ENVELOPE_SPECS:
        env, sup = envelope_bound(spec, n)
        want, want_sup = written_out_envelope(spec, n)
        assert env.tobytes() == want.tobytes(), (spec, n)
        assert bits(sup) == bits(want_sup), (spec, n)


def test_bound_builds_one_envelope_per_run(tmp_path, monkeypatch, no_memo):
    built = []
    build = engine._build_envelope

    def spy(spec, n):
        built.append(n)
        return build(spec, n)

    monkeypatch.setattr(engine, "_build_envelope", spy)
    path, cfg = write_config(tmp_path)
    assert len(cfg["bound"]["n_grid"]) == 2
    assert main(["bound", "--config", str(path), "--set", "bound.replicas=200"]) == 0
    # select_delta at max(n_grid), then the reach at the grid's last horizon
    assert built == [max(cfg["bound"]["n_grid"])]


def test_the_envelope_is_read_only():
    spec = ENVELOPE_SPECS[0]
    env, _ = envelope_bound(spec, 10)
    with pytest.raises(ValueError):
        env[0] = 1.0
    with pytest.raises(ValueError):
        env[1:] *= 2.0
    assert envelope_bound(spec, 10)[0].tobytes() == written_out_envelope(spec, 10)[0].tobytes()


BASE = ProblemSpec(SineLinearDrift(2.0, 0.5, 0.25), Rademacher(0.8), 1.5, 1.45)
VARIANTS = {
    "x0": ProblemSpec(BASE.drift, BASE.noise, BASE.b, 1.7),
    "b": ProblemSpec(BASE.drift, BASE.noise, 1.6, BASE.x0),
    "sigma": ProblemSpec(BASE.drift, Rademacher(0.9), BASE.b, BASE.x0),
    "c1": ProblemSpec(SineLinearDrift(2.1, 0.5, 0.25), BASE.noise, BASE.b, BASE.x0),
    "c2": ProblemSpec(SineLinearDrift(2.0, 0.6, 0.25), BASE.noise, BASE.b, BASE.x0),
    "x_star": ProblemSpec(SineLinearDrift(2.0, 0.5, 0.3), BASE.noise, BASE.b, BASE.x0),
}


@pytest.mark.parametrize("field", VARIANTS)
@pytest.mark.parametrize("n", (0, 5, _CHUNK + 1))
def test_specs_that_differ_get_their_own_envelope(field, n, no_memo):
    base, _ = envelope_bound(BASE, n)
    env, sup = envelope_bound(VARIANTS[field], n)
    want, want_sup = written_out_envelope(VARIANTS[field], n)
    assert env.tobytes() == want.tobytes()
    assert bits(sup) == bits(want_sup)
    assert env.tobytes() != base.tobytes()
    # and back: the base is not served the variant's envelope
    assert envelope_bound(BASE, n)[0].tobytes() == written_out_envelope(BASE, n)[0].tobytes()


def test_another_horizon_gets_its_own_envelope(no_memo):
    for n in (10, 11, 10, _CHUNK, 3):
        env, _ = envelope_bound(BASE, n)
        assert env.tobytes() == written_out_envelope(BASE, n)[0].tobytes()


def signed_zero_pairs():
    """Specs equal under == whose fields differ only in the sign of a zero."""
    for make_drift, noise in itertools.product(
            (lambda x_star: LinearDrift(-2.0, x_star),
             lambda x_star: SineLinearDrift(2.0, 0.5, x_star)),
            (Rademacher(0.8), TwoPointAdaptive(1.3, 0.2, 0.9))):
        for (s1, x1), (s2, x2) in itertools.combinations(
                itertools.product((0.0, -0.0), (0.0, -0.0)), 2):
            yield (ProblemSpec(make_drift(s1), noise, 1.5, x1),
                   ProblemSpec(make_drift(s2), noise, 1.5, x2))


@pytest.mark.parametrize("first, second", list(signed_zero_pairs()))
def test_specs_equal_under_eq_get_bitwise_equal_envelopes(first, second, no_memo):
    assert first == second
    n = _CHUNK + 1
    shared, _ = envelope_bound(first, n)
    kept, _ = envelope_bound(second, n)
    engine._last_envelope = (None, None, None)
    fresh, _ = envelope_bound(second, n)
    want = written_out_envelope(second, n)[0].tobytes()
    assert shared.tobytes() == kept.tobytes() == fresh.tobytes() == want
    assert written_out_envelope(first, n)[0].tobytes() == want


def test_select_delta_feasibility_is_the_written_out_scan(monkeypatch):
    # F does not depend on epsilon: write the envelope out once per (spec, n)
    monkeypatch.setattr(test_decision_owners, "written_out_envelope",
                        functools.lru_cache(maxsize=None)(written_out_envelope))
    seen = set()
    for n_probe, spec, epsilon in itertools.product((4096, 4097, 10**5), BOUND_SPECS, EPSILONS):
        choice = select_delta(spec, epsilon, n_probe)
        delta, F, feasible_from = written_out_select_delta(spec, epsilon, n_probe)
        assert (bits(choice.delta), bits(choice.F)) == (bits(delta), bits(F)), spec
        assert choice.feasible_from == feasible_from, (spec, epsilon, n_probe)
        seen.add("none" if feasible_from is None
                 else "first" if feasible_from == 1 else "interior")
    assert seen == {"none", "first", "interior"}


"""A float state stays a Python float: the drift kernel returns a float for
a float, and so every scalar state of simulate and final_deviation is one,
under both drift kinds."""

import numpy as np
import pytest

from sapprox import engine
from sapprox.model import LinearDrift, ProblemSpec, Rademacher, SineLinearDrift

DRIFTS = (LinearDrift(-1.5, 0.25), SineLinearDrift(1.0, 0.5, 0.25))


@pytest.mark.parametrize("drift", DRIFTS, ids=lambda d: d.kind)
def test_drift_of_a_float_is_a_float(drift):
    assert type(drift.of_deviation(0.3)) is float
    assert type(drift(-0.7)) is float
    u = np.array([0.3, -0.7])
    assert drift.of_deviation(u) is u  # an array is still updated in place


@pytest.mark.parametrize("drift", DRIFTS, ids=lambda d: d.kind)
def test_scalar_path_states_are_floats(drift, monkeypatch):
    seen = []

    def spy(kernel):
        def stepped(*args):
            state = kernel(*args)
            seen.append(type(state))
            return state
        return stepped

    monkeypatch.setattr(engine._Recursion, "kernel", spy(engine._Recursion.kernel))
    monkeypatch.setattr(engine._WeightedSum, "kernel", staticmethod(spy(engine._WeightedSum.kernel)))
    spec = ProblemSpec(drift, Rademacher(1.0), 2.0, 1.0)
    traj = engine.simulate(spec, 50, 3)
    assert len(seen) == 51 and set(seen) == {float}
    for target in engine.TARGETS:
        seen.clear()
        dev = engine.final_deviation(spec, target, 50, 3)
        assert len(seen) == 51 and set(seen) == {float}, target
        assert type(dev) is float
    assert type(traj.final_deviation) is float

"""Hypothesis strategies for valid models, one per registered drift and
noise kind, and for problem specs built from them."""

from hypothesis import strategies as st

from sapprox.model import (
    DRIFTS,
    NOISES,
    LinearDrift,
    ProblemSpec,
    Rademacher,
    SineLinearDrift,
    TwoPointAdaptive,
)

_x_star = st.floats(-5.0, 5.0)
_sigma = st.floats(0.1, 3.0)


@st.composite
def _sine_linear(draw):
    c2 = draw(st.floats(0.05, 2.0))
    return SineLinearDrift(c2 + draw(st.floats(0.05, 2.0)), c2, draw(_x_star))


@st.composite
def _two_point(draw):
    p_min = draw(st.floats(0.05, 0.9))
    return TwoPointAdaptive(draw(_sigma), p_min, draw(st.floats(p_min, 0.95)))


DRIFT_MODELS = {
    LinearDrift.kind: st.builds(LinearDrift, st.floats(-3.0, -0.05), _x_star),
    SineLinearDrift.kind: _sine_linear(),
}
NOISE_MODELS = {
    Rademacher.kind: st.builds(Rademacher, _sigma),
    TwoPointAdaptive.kind: _two_point(),
}
assert DRIFT_MODELS.keys() == DRIFTS.keys() and NOISE_MODELS.keys() == NOISES.keys()


def specs(drift_kind: str, noise_kind: str):
    return st.builds(ProblemSpec, DRIFT_MODELS[drift_kind], NOISE_MODELS[noise_kind],
                     st.floats(0.2, 3.0), st.floats(-5.0, 5.0))

"""Problem definitions: drift functions with a unique stable root and
bounded noise sequences with exact conditional moments.

Drifts satisfy, for all x,

    K1 |x - x*| <= |g(x)| <= K2 |x - x*|,   |g''(x)| <= Ka,
    (x - x*) g(x) <= 0,   g(x*) = 0,   g'(x*) < 0.

Every drift is one law, g(x) = -c1 u - c2 sin u with u = x - x* and
c1 > c2 >= 0, written once with its constants and its kernel; linear drift
is the member with c2 = 0.

Noise models are a two-point law per state, held as data: a value table
whose conditional mean is 0 and conditional second moment sigma^2 in every
state, with every value bounded by Ku, the largest magnitude in the table.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np


class ParameterError(ValueError):
    """A constructor argument outside its range; `fields` names the
    arguments of the violated constraint."""

    def __init__(self, message: str, *names: str):
        super().__init__(message)
        self.fields = names


class _Model:
    """A drift or noise model: `kind` names it in configs and fingerprints,
    and its dataclass fields are its parameters."""

    def describe(self) -> dict:
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}


class _Drift(_Model):
    """g(x) = -c1 * u - c2 * sin(u) with u = x - x_star: each kind supplies
    c1 and c2, and linear drift is the member with c2 = 0.

    Globally |sin u| <= |u| gives K1 = c1 - c2 and K2 = c1 + c2, while
    g''(u) = c2 sin(u) gives Ka = c2; the slope at the root is -(c1 + c2).
    """

    @property
    def gprime_star(self) -> float:
        return -(self.c1 + self.c2)

    @property
    def K1(self) -> float:
        return self.c1 - self.c2

    @property
    def K2(self) -> float:
        return self.c1 + self.c2

    @property
    def Ka(self) -> float:
        return self.c2

    def __call__(self, x):
        return self.of_deviation(x - self.x_star)

    def of_deviation(self, u):
        """g(x_star + u): a float for a float, while an array u is
        overwritten with the result and returned."""
        # c2 = 0 skips a sin per element, and 0 * sin(u) would make an
        # infinite u NaN; with c2 > 0, (-c1) u + (-c2) sin u is bitwise
        # -c1 u - c2 sin u: negation is exact and rounding symmetric
        if self.c2 == 0:
            u *= -self.c1
            return u
        t = np.sin(u)
        t *= -self.c2
        u *= -self.c1
        u += t
        return u


@dataclass(frozen=True)
class LinearDrift(_Drift):
    """g(x) = alpha1 * (x - x_star) with alpha1 < 0: c1 = -alpha1, c2 = 0.

    The boundary case with zero curvature: K1 = K2 = |alpha1|, Ka = 0, so
    the Taylor remainder vanishes identically.
    """

    kind = "linear"
    c2 = 0.0

    alpha1: float
    x_star: float = 0.0

    def __post_init__(self) -> None:
        if not self.alpha1 < 0:
            raise ParameterError(f"alpha1 must be negative, got {self.alpha1}", "alpha1")

    @property
    def c1(self) -> float:
        return -self.alpha1


@dataclass(frozen=True)
class SineLinearDrift(_Drift):
    """g(x) = -c1 * u - c2 * sin(u) with u = x - x_star and c1 > c2 > 0."""

    kind = "sine_linear"

    c1: float
    c2: float
    x_star: float = 0.0

    def __post_init__(self) -> None:
        if not (self.c1 > self.c2 > 0):
            raise ParameterError(
                f"need c1 > c2 > 0, got c1={self.c1}, c2={self.c2}", "c1", "c2"
            )


DriftFunction = Union[LinearDrift, SineLinearDrift]


@dataclass(frozen=True)
class _Noise(_Model):
    """A two-point law per state s: up with probability p = up_probability[s]
    to sigma*sqrt((1-p)/p), else down to -sigma*sqrt(p/(1-p)), which gives
    conditional mean 0 and conditional second moment sigma^2 in every state.

    values[2*s + d] is the draw from state s going down (d = 0) or up
    (d = 1).  Each kind's sampler(stream) and block_sampler(stream) pick d
    from the stream and index this one table, so both give the same floats.
    """

    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}", "sigma")

    @property
    def values(self) -> tuple[float, ...]:
        s = self.sigma
        return tuple(v for p in self.up_probability
                     for v in (-s * math.sqrt(p / (1.0 - p)), s * math.sqrt((1.0 - p) / p)))

    @property
    def Ku(self) -> float:
        """The bound on |u|: the largest magnitude in the value table."""
        return max(abs(v) for v in self.values)


@dataclass(frozen=True)
class Rademacher(_Noise):
    """u = +sigma or -sigma with probability 1/2 each, independent of the
    past: one state, going up when the step's sign bit is set."""

    kind = "rademacher"
    up_probability = (0.5,)

    def sampler(self, stream):
        """draw(k): the step-k value of a scalar engine.ReplicaStream."""
        values = self.values
        return lambda k: values[stream.sign_bit(k)]

    def block_sampler(self, stream):
        """draw(k, out): the step-k values of an engine.BlockStream, into out."""
        values = np.array(self.values)
        bits = np.empty(stream.width, dtype=np.int64)

        def draw(k: int, out: np.ndarray) -> None:
            stream.sign_bits(k, bits)
            np.take(values, bits, out=out, mode="clip")  # bits are 0 or 1: nothing to clip

        return draw


@dataclass(frozen=True)
class TwoPointAdaptive(_Noise):
    """Two-point noise whose up probability depends on the last draw, going
    up when the step's uniform is below it.

    The rule is mean-reverting: state 0 (the last draw went down) goes up
    with p_max, state 1 (it went up) with p_min and state 2 (no draw yet)
    with the midpoint.  The next state is d, so draws come in step order.
    """

    kind = "two_point_adaptive"

    p_min: float
    p_max: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 < self.p_min <= self.p_max < 1.0):
            raise ParameterError(
                f"need 0 < p_min <= p_max < 1, got p_min={self.p_min}, "
                f"p_max={self.p_max}",
                "p_min",
                "p_max",
            )

    @property
    def up_probability(self) -> tuple[float, float, float]:
        return (self.p_max, self.p_min, 0.5 * (self.p_min + self.p_max))

    def sampler(self, stream):
        """draw(k): the step-k value of a scalar engine.ReplicaStream."""
        values, up = self.values, self.up_probability
        state = 2

        def draw(k: int) -> float:
            nonlocal state
            i = 2 * state + (stream.uniform(k) < up[state])
            state = i & 1
            return values[i]

        return draw

    def block_sampler(self, stream):
        """draw(k, out): the step-k values of an engine.BlockStream, into out."""
        # (u < p) is both the step's d and the next state, so no step allocates
        up = np.array(self.up_probability)
        values = np.array(self.values)
        state = np.full(stream.width, 2, dtype=np.intp)
        went_up = np.empty_like(state)
        p = np.empty(stream.width)

        def draw(k: int, out: np.ndarray) -> None:
            nonlocal state, went_up
            stream.uniforms(k, out)
            # indices are always in range, so "clip" only skips the bounds check
            np.take(up, state, out=p, mode="clip")
            np.less(out, p, out=went_up)
            state += state
            state += went_up
            np.take(values, state, out=out, mode="clip")
            state, went_up = went_up, state

        return draw


NoiseModel = Union[Rademacher, TwoPointAdaptive]

DRIFTS = {cls.kind: cls for cls in (LinearDrift, SineLinearDrift)}
NOISES = {cls.kind: cls for cls in (Rademacher, TwoPointAdaptive)}


@dataclass(frozen=True)
class ProblemSpec:
    """A drift, a noise model, the gain b and the start point x0."""

    drift: DriftFunction
    noise: NoiseModel
    b: float
    x0: float

    def __post_init__(self) -> None:
        if not self.b > 0:
            raise ParameterError(f"b must be positive, got {self.b}", "b")

    @property
    def c(self) -> float:
        """b * g'(x*), the contraction exponent of the linearized recursion."""
        return self.b * self.drift.gprime_star

    def require_mdp_regime(self) -> None:
        """The moderate-deviation statements need b * g'(x*) < -1."""
        if not self.c < -1.0:
            raise ValueError(
                f"b * g'(x*) = {self.c} must be < -1 for deviation-rate "
                "operations"
            )

    def describe(self) -> dict:
        return {
            "drift": self.drift.describe(),
            "noise": self.noise.describe(),
            "b": self.b,
            "x0": self.x0,
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

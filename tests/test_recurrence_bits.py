"""Bit pins of the linearized recurrence and the paths built on it.

Every pinned value is built from IEEE-754 + - * / and sqrt only (linear
drift, Rademacher and two-point noise; no sin, exp, log or scipy), which
every conforming platform rounds identically.  So a pin holds on any
machine, and a refactor of the recurrence kernels that changes one bit
anywhere fails here.
"""

import hashlib
import json
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from references import batch_final_deviations

from sapprox.cli import main
from sapprox.engine import count_tail_hits_grid, envelope_bound, final_deviation
from sapprox.mdp import exact_tail_enumeration
from sapprox.model import LinearDrift, ProblemSpec, Rademacher, TwoPointAdaptive
from sapprox.weights import recursion_weights, weight_sum


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def le_bytes(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


class TestWeights:
    # zero factors where -c is an integer below n + 1; overflow at c = -2000
    CS = (-0.3, -0.5, -1.0, -1.5, -2.0, -2.7, -3.0, -7.0, -40.0, -2000.0)
    NS = (0, 1, 2, 5, 63, 64, 1000, 4000)

    def test_weight_sum_grid(self):
        lines = "\n".join(
            f"{c!r} {n} {weight_sum(c, n).hex()}" for c in self.CS for n in self.NS
        )
        assert sha256(lines.encode()) == (
            "cb98dfb3597009b457c811469cccf93a717bd180f8c657f745a5596fddde11b7"
        )

    @pytest.mark.parametrize("c, n, want", [
        (-2000.0, 1500, "inf"),
        (-3.0, 10, "0x1.48c88653a4d70p-6"),
        (-1.5, 1000, "0x1.05f29d7358172p-11"),
        (-0.3, 64, "0x1.e866cc5e3dfb2p-3"),
    ])
    def test_weight_sum_values(self, c, n, want):
        assert weight_sum(c, n).hex() == want

    def test_recursion_weights(self):
        h = hashlib.sha256()
        for alpha1, b, x_star in ((-1.0, 2.0, 0.0), (-0.75, 2.0, 0.5), (-2.0, 1.0, 0.0),
                                  (-1.5, 2.0, -3.25), (-0.9, 3.3, 1.0)):
            spec = ProblemSpec(LinearDrift(alpha1, x_star), Rademacher(1.0), b, x_star)
            for n in (0, 1, 7, 64, 999):
                beta0, w = recursion_weights(spec, n)
                h.update(le_bytes([beta0]))
                h.update(le_bytes(w))
        assert h.hexdigest() == (
            "6c9b8a18d27449f29f402c2b7ca6dc0da34b2250f4a75b52bc1e5150bbcce458"
        )


@pytest.mark.parametrize("b, alpha1, sigma, n, pins", [
    (1.0, -2.0, 1.0, 10, [("0x1.29e4129e41288p-7", "511/512"),
                          ("0x1.4f2094f2094f0p-4", "345/512"),
                          ("0x1.61bed61bed61dp-3", "165/512"),
                          ("0x1.6b0df6b0df6b0p-2", "19/512")]),
    (2.0, -0.75, 0.5, 14, [("0x1.6fcbec0492000p-16", "16383/16384"),
                           ("0x1.294abe3506392p-4", "11469/16384"),
                           ("0x1.4344d14d2646cp-3", "3277/8192"),
                           ("0x1.3764c5e8d0016p-2", "1639/16384")]),
    (0.7, -3.0, 1.3, 16, [("0x1.d9cfe8f910000p-18", "65535/65536"),
                          ("0x1.9777f2c076af4p-5", "45875/65536"),
                          ("0x1.babebf4ff9ecfp-4", "13107/32768"),
                          ("0x1.a8062074a9f72p-3", "3277/32768")]),
    (1.0, -2.0, 1.0, 0, [("0x1.0000000000000p+0", "0")]),
])
def test_exact_tail_enumeration(b, alpha1, sigma, n, pins):
    # each threshold is an attained |statistic|, so one bit of any pattern's
    # sum moves the count
    spec = ProblemSpec(LinearDrift(alpha1, 0.0), Rademacher(sigma), b, 0.0)
    for threshold, want in pins:
        assert exact_tail_enumeration(spec, n, float.fromhex(threshold)) == Fraction(want)


NOISES = {"rademacher": Rademacher(0.9), "two_point": TwoPointAdaptive(1.1, 0.3, 0.7)}
HORIZONS = (0, 63, 64, 300)
SEED = 2718


def linear_spec(noise: str) -> ProblemSpec:
    return ProblemSpec(LinearDrift(-0.8, 0.5), NOISES[noise], 2.0, 1.25)


# Thresholds are the |deviation| of the replica at the 90% rank at each
# horizon, so a tie decides strict against inclusive counts.  Rademacher
# rows run the closed form, two-point rows the stepped recurrence.
@pytest.mark.parametrize("noise, target, thresholds, strict, inclusive", [
    ("rademacher", "recursion",
     ["0x1.2000000000000p+1", "0x1.fe5832b4dd7ecp-3", "0x1.fbe26f06eab42p-3",
      "0x1.d6cdcbc114090p-4"], (0, 3999, 3999, 3999), (20103, 4000, 4000, 4000)),
    ("rademacher", "weighted_sum",
     ["0x1.ccccccccccccdp+0", "0x1.fe0d4db8e1996p-3", "0x1.fbe8ae3ba1fa0p-3",
      "0x1.d6c572c8895c4p-4"], (0, 3999, 3999, 3999), (40000, 4000, 4000, 4000)),
    ("two_point", "recursion",
     ["0x1.5333333333334p+1", "0x1.3641416e0f3bap-2", "0x1.34ea25eeffce4p-2",
      "0x1.1f02878ef8268p-3"], (0, 3999, 3999, 3999), (19871, 4000, 4000, 4000)),
    ("two_point", "weighted_sum",
     ["0x1.199999999999ap+1", "0x1.363708bf2f32ep-2", "0x1.34e0dd6e7de24p-2",
      "0x1.1ef9827d61fc1p-3"], (0, 3999, 3999, 3999), (40000, 4000, 4000, 4000)),
])
def test_tail_hits_grid(noise, target, thresholds, strict, inclusive):
    spec = linear_spec(noise)
    ts = [float.fromhex(t) for t in thresholds]
    for flag, want in ((False, strict), (True, inclusive)):
        got = count_tail_hits_grid(spec, target, HORIZONS, ts, SEED, 40000, inclusive=flag)
        assert tuple(r.hits for r in got) == want


@pytest.mark.parametrize("noise, target, want", [
    ("rademacher", "recursion",
     "41bc219434f7a30cf3e913453596cda0535d55bd565ac96ceb87d887b1e1632d"),
    ("rademacher", "weighted_sum",
     "e325a5e64ccb5f3bfdc3a02bf9a8f7fd4526e59b34893e319d079ea596284268"),
    ("two_point", "recursion",
     "3f6a27ec0231ee46dec11eae37566c5dbc0634593cc7c7674a23cb92bdf0b711"),
    ("two_point", "weighted_sum",
     "8ce93f567fae83667c437b05fb0084839325369c5025bac8aa388eef8d98b2cc"),
])
def test_batch_final_deviations(noise, target, want):
    devs = batch_final_deviations(linear_spec(noise), target, 300, SEED, 5000)
    assert sha256(le_bytes(devs)) == want


# Linear drift attains its envelope on worst-case sign paths, so the
# Rademacher violations are paths that meet the envelope within rounding.
@pytest.mark.parametrize("noise, want", [
    ("rademacher", [(5000, 0), (5, 1218), (3, 1218), (0, 1218)]),
    ("two_point", [(5000, 0), (29, 0), (30, 0), (0, 0)]),
])
def test_tail_hits_grid_with_envelope(noise, want):
    spec = linear_spec(noise)
    env, _ = envelope_bound(spec, HORIZONS[-1])
    got = count_tail_hits_grid(spec, "recursion", HORIZONS, (0.5,) * 4, SEED, 5000,
                               envelope=env)
    assert [(r.hits, r.envelope_violations) for r in got] == want


@pytest.mark.parametrize("noise, csv_sha, sums", [
    ("rademacher", "fa24b5b9f4b0203b7b1dd13b616f58bd1507ec01cabb545c0b4f025403577461",
     ["-0x1.ccccccccccccdp+0", "0x1.3949324689bfcp-4", "0x1.19710b27801cfp-5"]),
    ("two_point", "9042f7b85e8669474170961f605aba997c2184181bffd4efd255e955601dc164",
     ["0x1.199999999999ap+1", "-0x1.f290bdd37f370p-4", "0x1.890479f845785p-7"]),
])
def test_scalar_paths(noise, csv_sha, sums, tmp_path):
    spec = linear_spec(noise)
    # the recorded path of linear_spec(noise) as `sapprox simulate` writes it
    config = {
        "schema_version": 1, "seed": 99, "b": 2.0, "x0": 1.25,
        "drift": {"kind": "linear", "parameters": {"alpha1": -0.8}, "x_star": 0.5},
        "noise": {"kind": spec.noise.kind, **asdict(spec.noise)},
        "simulate": {"n": 200, "output": str(tmp_path / "path.csv")},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(tmp_path / "config.json")]) == 0
    assert sha256((tmp_path / "path.csv").read_bytes()) == csv_sha
    assert [final_deviation(spec, "weighted_sum", n, 99, replica=7).hex()
            for n in (0, 64, 300)] == sums

"""Every CDF of the package on an edge array, against the scalar formulas.

The references below are the per-point formulas written with math.*; the
array methods must reproduce them to 1e-15 at every point, including the
negative half, 0, the kinks, points beyond the support and every limit
member of the families.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from roskit import basedist as bd
from roskit import gridconv
from roskit import logconcave as lc
from roskit import verify as vf


def ref_base(law, x):
    if law.kind == "uniform":
        w = law.half_width
        return min(1.0, max(0.0, (x + w) / (2.0 * w)))
    if law.kind == "gaussian":
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    if x <= -1.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return 1.0 - math.acos(x) / math.pi


def ref_gaussian_source(law, x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def ref_logistic_source(law, x):
    return 1.0 / (1.0 + math.exp(-x / law.scale))


def ref_plateau(law, x):
    if x < 0.0:
        return 1.0 - ref_plateau(law, -x)
    c = law.normalizer()
    if law.limit == "uniform":
        return 0.5 + c * min(x, law.alpha)
    tail = 0.0
    if x > law.alpha:
        tail = c / law.gamma * (1.0 - math.exp(-law.gamma * (x - law.alpha)))
    return 0.5 + c * min(x, law.alpha) + tail


def ref_truncated(law, x):
    if x < 0.0:
        return 1.0 - ref_truncated(law, -x)
    if law.limit == "uniform":
        return 0.5 + min(x, law.alpha) / (2.0 * law.alpha)
    if law.limit == "exponential":
        return 1.0 - 0.5 * math.exp(-law.gamma * x)
    num = 1.0 - math.exp(-law.gamma * min(x, law.alpha))
    den = 1.0 - math.exp(-law.alpha * law.gamma)
    return 0.5 + 0.5 * num / den


def ref_tail_minus(law, x):
    if law.limit == "two_point":
        return 0.0
    if x < 0.0:
        return 1.0 - ref_tail_minus(law, -x)
    return 1.0 - 0.5 * math.exp(-law.rate * max(x - law.offset, 0.0))


def ref_tail_plus(law, x):
    if law.limit == "two_point":
        return 0.0
    cont = 1.0 - law.atom_mass()
    if x < 0.0:
        return cont - ref_tail_plus(law, -x)
    return 0.5 * cont + 0.5 * (1.0 - math.exp(-law.rate * min(x, law.cutoff)))


def laws_with_kinks(width, rate, scale):
    """(law, scalar reference, kinks) for every CDF and every limit member."""
    return [
        (bd.uniform(width), ref_base, [width]),
        (bd.gaussian(), ref_base, []),
        (bd.cosine_projection(), ref_base, [1.0]),
        (vf.GaussianSource(), ref_gaussian_source, []),
        (vf.LogisticSource(scale), ref_logistic_source, []),
        (lc.PlateauExpDensity(width, rate), ref_plateau, [width]),
        (lc.PlateauExpDensity(width, math.inf), ref_plateau, [width]),
        (lc.PlateauExpDensity(0.0, rate), ref_plateau, []),
        (lc.TruncatedExpDensity(width, rate), ref_truncated, [width]),
        (lc.TruncatedExpDensity(width, 0.0), ref_truncated, [width]),
        (lc.TruncatedExpDensity(math.inf, rate), ref_truncated, []),
        (lc.TailLawMinus(rate, width), ref_tail_minus, [width]),
        (lc.TailLawMinus(math.inf, width), ref_tail_minus, [width]),
        (lc.TailLawMinus(rate, 0.0), ref_tail_minus, []),
        (lc.TailLawPlus(rate, width), ref_tail_plus, [width]),
        (lc.TailLawPlus(0.0, width), ref_tail_plus, [width]),
        (lc.TailLawPlus(rate, math.inf), ref_tail_plus, []),
    ]


# 1 - exp(-width * rate) divides the truncated exponential's CDF, so an ulp
# of exp grows by its inverse; width * rate >= 0.25 keeps that below 1e-15
@settings(max_examples=40, deadline=None)
@given(
    width=st.floats(0.5, 6.0),
    rate=st.floats(0.5, 4.0),
    scale=st.floats(0.2, 3.0),
    inner=st.floats(0.0, 1.0),
)
def test_array_cdf_matches_scalar_formulas(width, rate, scale, inner):
    for law, ref, kinks in laws_with_kinks(width, rate, scale):
        points = [0.0, inner, 2.5, 10.0, 40.0]
        for k in kinks:
            points += [k, inner * k, k * (1.0 + 1e-9), k + 1.0, 3.0 * k]
        edges = np.array(sorted(points + [-x for x in points]))
        got = law.cdf(edges)
        assert got.shape == edges.shape
        want = np.array([ref(law, float(x)) for x in edges])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15, err_msg=repr(law))
        scalar = law.cdf(float(edges[-2]))
        assert np.ndim(scalar) == 0 and scalar == got[-2]


def test_from_cdf_calls_cdf_once():
    calls = []

    def cdf(edges):
        calls.append(edges.shape)
        return bd.uniform(1.0).cdf(edges)

    masses = gridconv.from_cdf(cdf, -1.0, 1.0, 64)
    assert calls == [(65,)]
    assert masses.sum() == 1.0

"""The Fourier route for sums of independent summands (fourier.plan_sum and
sum_abs_moment) against references that share nothing with it: the uniform
antiderivative oracle, exact even moments from the laws' own closed-form
moments, the log-convexity bracket between them, and the grid sum."""

import collections
import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roskit import basedist as bd
from roskit import constants as ct
from roskit import discrete as dc
from roskit import fourier, gridconv
from roskit import logconcave as lc
from roskit import specfun
from roskit import verify as vf
from roskit.errors import DomainError, InputError, RoskitError
from roskit.fourier import Term

EPS = sys.float_info.epsilon
UNIFORM = bd.uniform(1.0)


# ---------------------------------------------------------------------------
# the uniform oracle: the n-th antiderivative G_n(x) = sgn(x)^n |x|^(p+n) /
# ((p+1)...(p+n)) of |x|^p gives E|sum_j U[-c_j, c_j]|^p =
# sum_eps (prod_j eps_j) G_n(sum_j eps_j c_j) / prod_j (2 c_j), at 120 digits


def _antiderivative(x, n, p):
    return mpmath.sign(x) ** n * abs(x) ** (p + n) if x else mpmath.mpf(0)


def uniform_oracle(p, scales):
    """E|sum_j U[-c_j, c_j]|^p over the 2^n sign patterns."""
    with mpmath.workdps(120):
        p, cs = mpmath.mpf(p), [mpmath.mpf(c) for c in scales]
        n = len(cs)
        if not n:
            return mpmath.mpf(0)
        total = mpmath.fsum(mpmath.fprod(eps) * _antiderivative(mpmath.fsum(
            e * c for e, c in zip(eps, cs)), n, p) for eps in itertools.product((1, -1), repeat=n))
        return total / mpmath.fprod(p + i for i in range(1, n + 1)) / mpmath.fprod(2 * c for c in cs)


def uniform_equal_oracle(p, c, n):
    """E|sum of n copies of U[-c, c]|^p: the sign patterns grouped by a binomial."""
    with mpmath.workdps(120):
        p, c = mpmath.mpf(p), mpmath.mpf(c)
        total = mpmath.fsum(mpmath.binomial(n, m) * (-1) ** m * _antiderivative((n - 2 * m) * c, n, p)
                            for m in range(n + 1))
        return total / mpmath.fprod(p + i for i in range(1, n + 1)) / (2 * c) ** n


def thinned_uniform_oracle(p, scales, activations):
    """The oracle mixed over the 2^n activity patterns of the switches."""
    with mpmath.workdps(120):
        total = mpmath.mpf(0)
        for on in itertools.product((0, 1), repeat=len(scales)):
            weight = mpmath.fprod(mpmath.mpf(mu) if o else 1 - mpmath.mpf(mu)
                                  for o, mu in zip(on, activations))
            total += weight * uniform_oracle(p, [c for o, c in zip(on, scales) if o])
        return total


def fourier_sum(p, terms, tol=1e-9):
    plan = fourier.plan_sum(p, terms, tol)
    assert plan.route == "fourier"
    return fourier.sum_abs_moment(plan)


@pytest.mark.parametrize("p", [4.5, 5.0, 5.5, 7.3, 9.1])
@pytest.mark.parametrize("scales", [
    [1.0], [1.0, 0.37], [2.1, 0.4, 1.3], [0.5, 0.9, 1.7, 0.2], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
])
def test_unequal_uniforms_against_oracle(p, scales):
    res = fourier_sum(p, [Term(UNIFORM, c) for c in scales])
    want = uniform_oracle(p, scales)
    assert abs(res.value - want) <= res.error_bound
    assert res.error_bound <= 1e-9 * res.value


@pytest.mark.parametrize("p", [4.5, 5.0, 7.3])
@pytest.mark.parametrize("scales,activations", [
    ([1.0, 0.37], [0.3, 1.0]),
    ([2.1, 0.4, 1.3], [0.05, 0.6, 0.9]),
    ([0.5, 0.9, 1.7, 0.2, 1.1], [1e-3, 0.2, 0.01, 0.5, 0.7]),
])
def test_thinned_uniforms_against_oracle(p, scales, activations):
    res = fourier_sum(p, [Term(UNIFORM, c, mu) for c, mu in zip(scales, activations)])
    assert abs(res.value - thinned_uniform_oracle(p, scales, activations)) <= res.error_bound


def test_equal_summands_enter_once():
    # thirty equal uniforms: one term with count 30 against the binomial oracle
    res = fourier_sum(5.5, [Term(UNIFORM, 0.3, 1.0, 30)])
    assert abs(res.value - uniform_equal_oracle(5.5, 0.3, 30)) <= res.error_bound


@pytest.mark.parametrize("p", [4.5, 5.0, 5.5, 7.3])
def test_thirty_thinned_budgets_against_oracle(p):
    # thirty budgets a = 0.01, b = 1: thinned uniforms of activation near 4e-7
    res = ct.mixture_individual_sup(p, UNIFORM, ct.MomentBudget.per_pair(p, [0.01] * 30, [1.0] * 30))
    assert res.method == "fourier"
    c, mu = res.diagnostics["scales"][0], res.diagnostics["activations"][0]
    with mpmath.workdps(120):
        mu = mpmath.mpf(mu)
        want = mpmath.fsum(mpmath.binomial(30, j) * mu**j * (1 - mu) ** (30 - j)
                           * uniform_equal_oracle(p, c, j) for j in range(1, 31))
    assert abs(res.value - want) <= res.error_bound
    assert res.error_bound <= 1e-9 * res.value


# ---------------------------------------------------------------------------
# each law's characteristic function against 40-digit closed forms


def _phi_mp(law, t):
    """phi(t) in mpmath from the closed forms."""
    t = mpmath.mpf(t)
    if isinstance(law, vf.GaussianSource):
        return mpmath.exp(-t * t / 2)
    if isinstance(law, vf.LogisticSource):
        y = mpmath.pi * law.scale * t
        return y / mpmath.sinh(y) if y else mpmath.mpf(1)
    if isinstance(law, bd.BaseDistribution):
        if law.kind == "uniform":
            x = law.half_width * t
            return mpmath.sin(x) / x if x else mpmath.mpf(1)
        return mpmath.besselj(0, t) if law.kind == "cosine" else mpmath.exp(-t * t / 2)
    if isinstance(law, lc.PlateauExpDensity):
        a, g = mpmath.mpf(law.alpha), mpmath.mpf(law.gamma)
        if law.limit == "uniform":
            return mpmath.sin(a * t) / (a * t) if t else mpmath.mpf(1)
        head = mpmath.sin(a * t) / t if t else a
        return g / (a * g + 1) * (head + (g * mpmath.cos(a * t) - t * mpmath.sin(a * t)) / (g * g + t * t))
    if isinstance(law, lc.TruncatedExpDensity):
        a, g = mpmath.mpf(law.alpha), mpmath.mpf(law.gamma)
        if law.limit == "uniform":
            return mpmath.sin(a * t) / (a * t) if t else mpmath.mpf(1)
        m = 0 if law.limit == "exponential" else mpmath.exp(-a * g)
        cos_sin = 0 if law.limit == "exponential" else g * mpmath.cos(a * t) - t * mpmath.sin(a * t)
        return g * (g - m * cos_sin) / ((1 - m) * (g * g + t * t))
    if isinstance(law, lc.TailLawMinus):
        r, o = mpmath.mpf(law.rate), mpmath.mpf(law.offset)
        if law.limit == "two_point":
            return mpmath.cos(o * t)
        return r * (r * mpmath.cos(o * t) - t * mpmath.sin(o * t)) / (r * r + t * t)
    r, c = mpmath.mpf(law.rate), mpmath.mpf(law.cutoff)
    m = mpmath.exp(-r * c)
    return r * (r - m * (r * mpmath.cos(c * t) - t * mpmath.sin(c * t))) / (r * r + t * t) \
        + m * mpmath.cos(c * t)


CHAR_LAWS = [
    vf.GaussianSource(), vf.LogisticSource(0.8), vf.LogisticSource(2.3),
    bd.uniform(1.7), bd.gaussian(), bd.cosine_projection(),
    lc.PlateauExpDensity(0.7, 2.3), lc.PlateauExpDensity(0.0, 1.3), lc.PlateauExpDensity(1.5, math.inf),
    lc.PlateauExpDensity(4.0, 0.2),
    lc.TruncatedExpDensity(1.9, 1.7), lc.TruncatedExpDensity(0.4, 0.3), lc.TruncatedExpDensity(3.0, 20.0),
    lc.TruncatedExpDensity(math.inf, 0.9),
    lc._fplus_path(1e-12, 1.0),  # kappa = 1e-12 from the uniform end, the fplus bracket's reach
    lc.TailLawMinus(1.7, 0.6), lc.TailLawMinus(30.0, 2.0), lc.TailLawMinus(0.8, 0.0),
    lc.TailLawPlus(1.4, 1.1), lc.TailLawPlus(5.0, 3.0), lc.TailLawPlus(0.0, 1.2),
    # kappa = 699 and 701, either side of the switch to the plain exponential at _KUMMER_MAX
    lc.TruncatedExpDensity(349.5, 2.0), lc.TruncatedExpDensity(350.5, 2.0),
    lc.TailLawPlus(2.0, 349.5), lc.TailLawPlus(2.0, 350.5),
    # one of the two parts nearly vanishes
    lc.PlateauExpDensity(1e-12, 1.3), lc.TailLawMinus(1.3, 1e-12),
]


def _law_id(law):
    """A stable test id: the law's repr, but a logistic source by its scale (its
    repr carries the object's address)."""
    return f"logistic:{law.scale!r}" if isinstance(law, vf.LogisticSource) else repr(law)


def _moment_mp(law, r):
    """E|X|^r: closed forms for the Gaussian and the uniform law, quadrature of
    the density at 40 digits (plus atoms) for the rest."""
    kind = getattr(law, "kind", "")
    if isinstance(law, vf.GaussianSource) or kind == "gaussian":
        return 2 ** (mpmath.mpf(r) / 2) * mpmath.gamma((mpmath.mpf(r) + 1) / 2) / mpmath.sqrt(mpmath.pi)
    if kind == "uniform":
        return mpmath.mpf(law.half_width) ** r / (r + 1)
    if kind == "cosine":
        return mpmath.quad(lambda u: abs(mpmath.cos(2 * mpmath.pi * u)) ** r, [0, 0.25, 0.5, 0.75, 1])
    if isinstance(law, vf.LogisticSource):
        s = mpmath.mpf(law.scale)
        return mpmath.quad(lambda x: 2 * x**r * mpmath.exp(-x / s) / (s * (1 + mpmath.exp(-x / s)) ** 2),
                           [0, mpmath.inf])
    atoms = mpmath.fsum(m * mpmath.mpf(abs(loc)) ** r for loc, m in law.atoms().items())
    if law.limit == "two_point":
        return atoms
    bounded = law.limit == "uniform" or (isinstance(law, (lc.TruncatedExpDensity, lc.TailLawPlus))
                                         and law.limit == "interior")
    kinks = sorted({k for k in (getattr(law, name, 0.0) for name in ("alpha", "offset", "cutoff"))
                    if 0.0 < k < math.inf})
    edges = [0] + kinks + ([] if bounded else [mpmath.inf])
    return atoms + 2 * mpmath.quad(lambda x: _pdf_mp(law, x) * x**r, edges)


def _pdf_mp(law, x):
    """The density of the continuous part at x >= 0."""
    if isinstance(law, lc.PlateauExpDensity):
        a, g = mpmath.mpf(law.alpha), mpmath.mpf(law.gamma)
        if law.limit == "uniform":
            return 1 / (2 * a)
        return 1 / (2 * (a + 1 / g)) * (1 if x <= a else mpmath.exp(-g * (x - a)))
    if isinstance(law, lc.TruncatedExpDensity):
        a, g = mpmath.mpf(law.alpha), mpmath.mpf(law.gamma)
        if law.limit == "uniform":
            return 1 / (2 * a)
        norm = 1 if law.limit == "exponential" else 1 - mpmath.exp(-a * g)
        return g / (2 * norm) * mpmath.exp(-g * x)
    r = mpmath.mpf(law.rate)
    if isinstance(law, lc.TailLawMinus):
        return 0 if x < law.offset else r / 2 * mpmath.exp(-r * (x - law.offset))
    return r / 2 * mpmath.exp(-r * x)


@pytest.mark.parametrize("law", CHAR_LAWS, ids=_law_id)
def test_char_gap_within_its_rounding(law):
    # 1 - phi within _GAP_ULPS ulps up to the cap and _GAP_ABS ulps absolute
    # beyond, apart from the rounding of its argument: phi moves by at most
    # t E|X| per unit relative change of t, and a law rounds a product like
    # offset * t once more
    cap = law.char_cap()
    ts = np.concatenate([np.geomspace(1e-7, 3e3, 300),
                         [cap * x for x in (0.5, 1.0, 1.0 + 1e-9, 1.01) if math.isfinite(cap)]])
    gaps = law.char_gap(ts)
    first = law.abs_moment(1.0)
    with mpmath.workdps(40):
        for t, g in zip(ts, gaps):
            want = 1 - _phi_mp(law, float(t))
            allowed = 64 * EPS * abs(want) + 16 * EPS * (t > cap) + 4 * EPS * t * first
            assert abs(g - want) <= allowed, (t, g, want)


@pytest.mark.parametrize("law", CHAR_LAWS, ids=_law_id)
def test_char_envelope_bounds_phi_from_t_on(law):
    ts = np.geomspace(1e-3, 1e3, 120)
    env = law.char_envelope(ts)
    assert np.all(np.diff(env) <= 0.0)
    with mpmath.workdps(30):
        for t, e in zip(ts, env):
            for u in (t, 1.07 * t, 1.9 * t, 5.3 * t, 41.0 * t):
                assert abs(_phi_mp(law, u)) <= e * (1 + 1e-12) + 1e-300


@pytest.mark.parametrize("law", CHAR_LAWS, ids=_law_id)
def test_char_taylor_within_its_relative_bound(law):
    s = 0.7 * min(1.0, law.char_cap())
    coefs, rel = law.char_taylor(10, s)
    with mpmath.workdps(40):
        for i in range(11):
            want = _moment_mp(law, 2 * i) * mpmath.mpf(s) ** (2 * i) / mpmath.factorial(2 * i)
            assert abs(coefs[i] - want) <= rel * want + 1e-300, (i, coefs[i], want, rel)


def test_cosine_envelope_is_the_hankel_bound():
    # |J0(x)| <= sqrt(2 / (pi x)): x (J0^2 + Y0^2) increases to 2 / pi
    xs = np.geomspace(0.05, 500.0, 4000)
    with mpmath.workdps(30):
        assert all(float(xi * (mpmath.besselj(0, xi) ** 2 + mpmath.bessely(0, xi) ** 2)) <= 2 / math.pi
                   for xi in xs)


@pytest.mark.parametrize("scale", [0.8, 1.3])
@pytest.mark.parametrize("r", [1.0, 2.0, 4.41, 5.56, 8.0])
def test_logistic_moments_closed_form(scale, r):
    # E|X|^r = 2 s^r Gamma(r + 1) (1 - 2^(1 - r)) zeta(r), against 50-digit quadrature
    with mpmath.workdps(50):
        s = mpmath.mpf(scale)
        want = mpmath.quad(lambda x: 2 * x**r * mpmath.exp(-x / s) / (s * (1 + mpmath.exp(-x / s)) ** 2),
                           [0, mpmath.inf])
        assert abs(vf.LogisticSource(scale).abs_moment(r) - want) <= 8 * EPS * want


# ---------------------------------------------------------------------------
# the sweep: six laws, up to eight summands, p near 4, even p and p in (2, 10)


def _exact_even(p, terms):
    """E S^p, p even, from the laws' closed-form even moments: the cumulants
    of the summands add, every step at 50 digits."""
    with mpmath.workdps(50):
        kappa = [mpmath.mpf(0)] * (p + 1)
        for term in terms:
            m = [mpmath.mpf(1)] + [mpmath.mpf(term.activation) * mpmath.mpf(term.scale) ** r
                                   * mpmath.mpf(term.law.abs_moment(float(r))) if r % 2 == 0 else 0
                                   for r in range(1, p + 1)]
            cum = [mpmath.mpf(0)] * (p + 1)
            for n in range(1, p + 1):
                cum[n] = m[n] - mpmath.fsum(mpmath.binomial(n - 1, j - 1) * cum[j] * m[n - j]
                                            for j in range(1, n))
            kappa = [k + term.count * c for k, c in zip(kappa, cum)]
        out = [mpmath.mpf(1)]
        for n in range(1, p + 1):
            out.append(mpmath.fsum(mpmath.binomial(n - 1, j - 1) * kappa[j] * out[n - j]
                                   for j in range(1, n + 1)))
        return out[p]


def _member(draw, family, p):
    lo, hi = lc.feasibility_interval_density(p)
    if family in ("gminus", "gplus"):
        lo = 1.0
    a = draw(st.floats(0.5, 2.0))
    target = lc.MatchTarget(p, a, a * (lo + draw(st.floats(0.05, 0.95)) * (hi - lo)))
    return {"fminus": lc.match_density_minus, "fplus": lc.match_density_plus,
            "gminus": lambda t: lc.match_tail(t, "minus"),
            "gplus": lambda t: lc.match_tail(t, "plus")}[family](target)


@st.composite
def sums(draw):
    p = draw(st.one_of(st.floats(3.9, 4.1), st.sampled_from([4.0, 6.0, 8.0]), st.floats(2.05, 9.95)))
    laws = []
    for _ in range(draw(st.integers(1, 3))):
        family = draw(st.sampled_from(["fminus", "fplus", "gminus", "gplus", "gaussian", "logistic"]))
        if family == "gaussian":
            laws.append(vf.GaussianSource())
        elif family == "logistic":
            laws.append(vf.LogisticSource(draw(st.floats(0.5, 2.0))))
        else:
            laws.append(_member(draw, family, max(p, 4.5)))
    scales = [draw(st.floats(1.0, 50.0)) for _ in laws]
    counts = [draw(st.integers(1, 8 // len(laws))) for _ in laws]
    activations = [draw(st.sampled_from([1.0, 0.5, 0.05])) for _ in laws]
    return p, [Term(law, c, mu, k) for law, c, mu, k in zip(laws, scales, activations, counts)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sums())
def test_sweep_against_exact_moments_and_bracket(case):
    p, terms = case
    plan = fourier.plan_sum(p, terms, 1e-9)
    assume(plan.route == "fourier")
    res = fourier.sum_abs_moment(plan)
    if float(p).is_integer() and int(p) % 2 == 0:
        want = _exact_even(int(p), terms)
        # the reference carries the laws' moments, each within a few ulps
        assert abs(res.value - want) <= res.error_bound + 1e-13 * want
        return
    r0 = 2 * int(p // 2)
    m0, m1 = _exact_even(r0, terms), _exact_even(r0 + 2, terms)
    lo, hi = m0 ** (p / r0), m0 ** ((r0 + 2 - p) / 2) * m1 ** ((p - r0) / 2)
    assert lo * (1 - 1e-13) - res.error_bound <= res.value <= hi * (1 + 1e-13) + res.error_bound


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.sampled_from(["fminus", "fplus", "gminus", "gplus", "gaussian", "logistic"]),
       st.integers(1, 4), st.floats(4.2, 7.8), st.data())
def test_sweep_against_the_grid(family, n, p, data):
    if family == "gaussian":
        law = vf.GaussianSource()
    elif family == "logistic":
        law = vf.LogisticSource(data.draw(st.floats(0.5, 2.0)))
    else:
        law = _member(data.draw, family, p)
    res = vf.sum_moment(law, n, p)
    assert res.method == "sum_fourier"
    grid = vf.nfold_moment([vf.grid_density(law, 32768)] * n, p)
    assert abs(res.value - grid.value) <= res.error_bound + grid.error_bound


@st.composite
def thinned_sums(draw):
    p = draw(st.one_of(st.floats(2.05, 9.95), st.sampled_from([2.5, 3.0, 5.0])))
    laws = [UNIFORM, bd.gaussian(), bd.cosine_projection()]
    n = draw(st.integers(1, 4))
    scales = [10.0 ** draw(st.floats(-2.5, 2.5)) for _ in range(n)]  # ratios up to 1e5
    activations = [draw(st.one_of(st.just(1.0), st.floats(-10.0, -0.05).map(lambda e: 10.0**e)))
                   for _ in range(n)]
    return p, [Term(draw(st.sampled_from(laws)), c, mu, draw(st.integers(1, 3)))
               for c, mu in zip(scales, activations)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(thinned_sums())
def test_conditioned_sweep_against_the_unconditioned(case):
    # thinned sums with scale ratios up to 1e5 and activations down to 1e-10:
    # conditioned on summand activity, every sub-plan takes the Fourier route,
    # and the value agrees with the unconditioned plan's wherever that one fits
    p, terms = case
    plan = fourier.plan_sum(p, terms, 1e-9)
    try:
        cond = fourier.plan_conditioned(p, terms, 1e-9)
    except InputError as exc:
        assert plan.route == "grid" and "MAX_SUM_PANELS = 8192" in str(exc)
        return
    assert all(sub.route == "fourier" for *_, sub in cond.parts)
    res = fourier.conditioned_abs_moment(cond)
    assert res.error_bound < res.value
    if plan.route == "fourier":
        ref = fourier.sum_abs_moment(plan)
        assert abs(res.value - ref.value) <= res.error_bound + ref.error_bound


# ---------------------------------------------------------------------------
# the orderings and the routes


@pytest.mark.parametrize("n", [2, 32, 200, 5000])
@pytest.mark.parametrize("p", [4.41, 5.0, 6.0, 7.59])
def test_gaussian_ordering_values(n, p):
    rep = vf.ordering_report(n, vf.GaussianSource(), p)
    assert rep.method == "sum_fourier" and rep.holds
    want = n ** (p / 2) * specfun.gaussian_abs_moment(p)
    assert abs(rep.values[1] - want) <= rep.combined_error
    # both gaps stand out of the combined error
    assert rep.values[1] - rep.values[0] > rep.combined_error
    assert rep.values[2] - rep.values[1] > rep.combined_error


@pytest.mark.parametrize("family", ["density", "tail"])
@pytest.mark.parametrize("n", [1, 3])
def test_ordering_at_even_p_is_exact(family, n):
    source = vf.LogisticSource(1.3)
    rep = vf.ordering_report(n, source, 6.0, family)
    target = lc.MatchTarget(6.0, math.sqrt(source.abs_moment(2.0)), source.abs_moment(6.0) ** (1 / 6))
    minus, plus = vf._ORDERING_FAMILIES[family]
    for law, got in zip((minus(target), source, plus(target)), rep.values):
        assert abs(got - _exact_even(6, [Term(law, count=n)])) <= rep.combined_error


@pytest.mark.parametrize("n", [1, 2, 3, 10, 200])
@pytest.mark.parametrize("p", [4.5, 5.0, 7.3])
def test_two_point_sums_against_the_binomial(n, p):
    # atoms of mass 1: |phi| never decays, and the tail's half-width is R^-p / p
    res = vf.sum_moment(lc.TailLawMinus(math.inf, 1.0), n, p)
    assert res.method == "sum_fourier"
    want = mpmath.fsum(mpmath.binomial(n, i) * abs(2 * i - n) ** mpmath.mpf(p)
                       for i in range(n + 1)) / mpmath.mpf(2) ** n
    assert abs(res.value - want) <= res.error_bound


def test_law_without_char_gap_takes_the_grid():
    density = vf.grid_density(vf.GaussianSource(), 2048)
    assert fourier.plan_sum(5.0, [Term(density, count=2)]).route == "grid"
    res = vf.sum_moment(density, 2, 5.0, n_cells=2048)
    assert res.method == "nfold_grid"
    assert res.value == pytest.approx(2**2.5 * specfun.gaussian_abs_moment(5.0), rel=1e-4)


GRID_LAWS = [UNIFORM, bd.cosine_projection(), bd.symmetric_atoms([(0.0, 0.4), (1.0, 0.6)])]


@pytest.mark.parametrize("law", GRID_LAWS, ids=["uniform", "cosine", "three-point"])
@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("p", [4.0, 6.0, 8.0])
def test_grid_moment_against_even_moments(law, k, p):
    # the one grid estimate of every grid route, against (2k)! a_k at even p
    half = law.support_bound()
    proxy = law.variance_proxy()
    summand = (gridconv.Summand(None, half, law.signed_atoms(), k, proxy=proxy) if law.is_atomic
               else gridconv.Summand(law.cdf, half, count=k, proxy=proxy))
    grid = gridconv.grid_moment([summand], gridconv.edge_steps(half, 4096), p, 1e-9)
    exact = fourier.sum_abs_moment(fourier.plan_sum(p, [Term(law, count=k)]))
    assert abs(grid.value - exact.value) <= grid.error_bound
    assert grid.error_bound >= 3.0 * abs(grid.value - grid.coarse)


def _grid_reference(p, res):
    """The spectral grid reference on 8,192 cells for the uniform extremisers of res."""
    return ct._thinned_grid_result(p, UNIFORM, res.diagnostics["scales"],
                                   res.diagnostics["activations"], 1e-9, 8192)


def test_far_apart_scales_are_conditioned():
    # thirty rare summands 1,000 times wider than the one that carries the sum:
    # unconditioned, the sum keeps phi near 1 - mu far past the panel budget;
    # conditioned on the active count j of the thirty, against the oracle per j
    p = 5.0
    budget = ct.MomentBudget.per_pair(p, [1e-5] * 30 + [1.0], [1.0] * 30 + [1.5])
    res = ct.mixture_individual_sup(p, UNIFORM, budget)
    assert res.method == "fourier" and res.diagnostics["depth"] == 1
    assert res.diagnostics["fourier_panels"] <= fourier.SUBPLAN_PANELS
    (c, *_, cb), (mu, *_, mub) = res.diagnostics["scales"], res.diagnostics["activations"]
    with mpmath.workdps(120):
        mu = mpmath.mpf(mu)
        want = mpmath.fsum(mpmath.binomial(30, j) * mu**j * (1 - mu) ** (30 - j)
                           * thinned_uniform_oracle(p, [c] * j + [cb], [1.0] * j + [mub])
                           for j in range(4))
    assert abs(res.value - want) <= res.error_bound
    assert res.error_bound <= 1e-9 * res.value
    grid = _grid_reference(p, res)
    assert abs(res.value - grid.value) <= res.error_bound + grid.error_bound


def test_panel_budget_at_the_measured_crossover():
    # thirty rare summands with a = 3e-4: 6,865 panels, inside the budget, where
    # the grid's bound exceeds the value; the Fourier bound is far tighter, and
    # its panels are halved only up to the budget
    budget = ct.MomentBudget.per_pair(5.0, [3e-4] * 30 + [1.0], [1.0] * 30 + [1.5])
    res = ct.mixture_individual_sup(5.0, UNIFORM, budget)
    assert res.method == "fourier"
    assert res.diagnostics["fourier_panels"] <= fourier.MAX_SUM_PANELS
    grid = _grid_reference(5.0, res)
    assert res.error_bound < 1e-5 * res.value < grid.error_bound
    assert abs(res.value - grid.value) <= res.error_bound + grid.error_bound


# ---------------------------------------------------------------------------
# search candidates: thinned uniforms whose scales differ by up to four orders
# of magnitude at p = 3 (search seed 6), on the Fourier route, called by name,
# and on the program's route


@pytest.mark.parametrize("p", [3.0, 5.0])
@pytest.mark.parametrize("seed", [0, 1, 6, 1234])
def test_search_candidates_against_oracle(p, seed):
    # a plan past fourier.SUBPLAN_PANELS is conditioned on its widest thinned
    # summands, and every sub-plan then fits that cap: none takes the grid.  The
    # uniform summands are bounded, so most plans take panels wider than 1.  The
    # program takes the exact uniform route wherever its bound meets tol
    depths, wide, routes = set(), 0, collections.Counter()
    for _, scales, activations in vf._candidates(p, UNIFORM, 0.7, 1.0, 6, 30, seed):
        want = thinned_uniform_oracle(p, scales, activations)
        res = ct._thinned_fourier_result(p, UNIFORM, scales, activations, 1e-6)
        assert abs(res.value - want) <= res.error_bound
        assert res.method == "sum_fourier"
        groups = collections.Counter(zip(scales, activations))
        plan = fourier.plan_sum(p, [Term(UNIFORM, c, mu, k) for (c, mu), k in groups.items()],
                                1e-6)
        assert (res.diagnostics["depth"] > 0) == (plan.panels > fourier.SUBPLAN_PANELS)
        assert res.diagnostics["fourier_panels"] <= fourier.SUBPLAN_PANELS
        depths.add(res.diagnostics["depth"])
        wide += plan.width > 1.0
        chosen = ct._thinned_sum_moment(p, UNIFORM, scales, activations, 1e-6, 1_000_000)
        assert abs(chosen.value - want) <= chosen.error_bound <= 1e-6 * chosen.value
        assert abs(chosen.value - res.value) <= chosen.error_bound + res.error_bound
        routes[chosen.method] += 1
    if p == 3.0:  # the wide-ratio hazard: some candidates are conditioned
        assert max(depths) >= 1
    assert wide > 0
    assert routes["exact_uniform"] >= 35 and set(routes) <= {"exact_uniform", "sum_fourier"}


# ---------------------------------------------------------------------------
# the exact uniform route: discrete.uniform_sum, the signed sum over the 3^n
# activity and sign paths, against the oracle and the Fourier route


def _exact_or_fourier(p, scales, activations, tol):
    """What constants._thinned_sum_moment should return: the exact uniform sum
    where its bound meets tol, else the Fourier route, or the error it raises."""
    exact = dc.uniform_sum(scales, activations, p, 1.0, ct._UNIFORM_PATHS)
    if exact is not None and exact[1] <= tol * exact[0]:
        return "exact_uniform", exact[:2]
    try:
        res = ct._thinned_fourier_result(p, UNIFORM, scales, activations, tol)
    except RoskitError as exc:
        return "sum_fourier", repr(exc)
    return res.method, (res.value, res.error_bound)


def _chosen(p, scales, activations, tol):
    try:
        res = ct._thinned_sum_moment(p, UNIFORM, scales, activations, tol, 1_000_000)
    except RoskitError as exc:
        return "sum_fourier", repr(exc)
    return res.method, (res.value, res.error_bound)


@st.composite
def uniform_tuples(draw):
    p = draw(st.one_of(st.floats(2.0, 170.0, exclude_min=True),
                       st.sampled_from([3.0, 4.0, 5.0, 6.0, 170.0])))
    n = draw(st.integers(1, 8))
    scales = [10.0 ** draw(st.floats(-4.0, 0.0)) for _ in range(n)]
    top = max(scales)  # the widest summand at scale 1: no overflow at p = 170
    activations = [draw(st.one_of(st.just(1.0), st.floats(-6.0, 0.0).map(lambda e: 10.0**e)))
                   for _ in range(n)]
    return p, [c / top for c in scales], activations, draw(st.sampled_from([1e-12, 1e-9, 1e-6]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(uniform_tuples())
def test_exact_uniform_sweep(case):
    # up to eight thinned uniforms, scales up to 1e4 apart, activations down to
    # 1e-6, 2 < p <= 170: within its bound of the oracle, within both bounds of
    # the Fourier route wherever that one answers, and the program falls back to
    # the Fourier route exactly where the bound passes tol
    p, scales, activations, tol = case
    value, bound, paths = dc.uniform_sum(scales, activations, p)
    assert paths == math.prod(2 if mu == 1.0 else 3 for mu in activations)
    assert abs(value - thinned_uniform_oracle(p, scales, activations)) <= bound
    try:
        res = ct._thinned_fourier_result(p, UNIFORM, scales, activations, 1e-6)
    except (DomainError, InputError):
        pass
    else:
        assert abs(value - res.value) <= bound + res.error_bound
    assert _chosen(p, scales, activations, tol) == _exact_or_fourier(p, scales, activations, tol)


@pytest.mark.parametrize("p", [40.5, 60.5, 100.5, 150.5])
def test_exact_uniform_budgets_at_large_p(p):
    # b_j = 1.3 (||V||_p / ||V||_2) a_j, a = (1, 0.7, 0.5): past p = 45 the
    # Fourier route's Taylor sums cancel past all accuracy
    ratio = 1.3 * (p + 1.0) ** (-1.0 / p) * math.sqrt(3.0)
    a = [1.0, 0.7, 0.5]
    res = ct.mixture_individual_sup(p, UNIFORM, ct.MomentBudget.per_pair(
        p, a, [ratio * x for x in a]))
    assert res.method == "exact_uniform" and res.diagnostics["paths"] == 27
    assert res.error_bound <= 2e-13 * res.value
    want = thinned_uniform_oracle(p, res.diagnostics["scales"], res.diagnostics["activations"])
    assert abs(res.value - want) <= res.error_bound


def test_exact_uniform_falls_back_where_its_bound_passes_tol():
    # trial 2 of search seed 6 at p = 3: scales 3.5e4 apart, whose signed paths
    # cancel to a bound of 2.6e-5 of the value; the Fourier route meets 1e-6
    _, scales, activations = list(vf._candidates(3.0, UNIFORM, 0.7, 1.0, 6, 30, 6))[2]
    value, bound, _ = dc.uniform_sum(scales, activations, 3.0)
    assert 1e-6 * value < bound < 1e-4 * value
    res = ct._thinned_sum_moment(3.0, UNIFORM, scales, activations, 1e-6, 1_000_000)
    assert res.method == "sum_fourier" and res.error_bound <= 1e-6 * res.value
    assert abs(res.value - value) <= res.error_bound + bound
    assert abs(res.value - thinned_uniform_oracle(3.0, scales, activations)) <= res.error_bound


@pytest.mark.parametrize("n,mu,route", [
    (8, 0.5, "exact_uniform"),     # 3^8 = 6,561 paths: the cap
    (9, 0.5, "sum_fourier"),       # 19,683
    (12, 1.0, "exact_uniform"),    # unthinned: 2^12 = 4,096
])
def test_exact_uniform_up_to_its_path_cap(n, mu, route):
    assert ct._UNIFORM_PATHS == 3**8
    scales = [0.3 + 0.17 * j for j in range(n)]
    res = ct._thinned_sum_moment(5.0, UNIFORM, scales, [mu] * n, 1e-9, 1_000_000)
    assert res.method == route and res.error_bound <= 1e-9 * res.value
    ref = ct._thinned_fourier_result(5.0, UNIFORM, scales, [mu] * n, 1e-9)
    assert abs(res.value - ref.value) <= res.error_bound + ref.error_bound


def test_exact_uniform_scales_by_the_half_width():
    # E|sum c_j theta_j U[-w, w]|^p = w^p E|sum c_j theta_j U[-1, 1]|^p
    scales, activations = [1.0, 0.37, 2.2], [0.3, 1.0, 0.05]
    res = ct._thinned_sum_moment(7.3, bd.uniform(2.5), scales, activations, 1e-9, 1_000_000)
    assert res.method == "exact_uniform"
    want = thinned_uniform_oracle(7.3, [2.5 * c for c in scales], activations)
    assert abs(res.value - want) <= res.error_bound


@pytest.mark.parametrize("scales,activations,why", [
    ([1.0, 1e-310], [0.5, 0.5], "a scale below the normal floats"),
    ([1.0, 0.5], [1e-200, 1e-200], "a weight below the normal floats"),
])
def test_exact_uniform_leaves_what_floats_cannot_hold(scales, activations, why):
    assert dc.uniform_sum(scales, activations, 5.0) is None, why


def test_exact_uniform_drops_empty_summands():
    # a zero budget share gives scale and activation 0: no path
    assert dc.uniform_sum([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], 5.0) == dc.uniform_sum([1.0], [1.0], 5.0)
    assert dc.uniform_sum([], [], 5.0) == (0.0, 0.0, 1)


# ---------------------------------------------------------------------------
# the panel width: a sum of bounded summands, |X| <= B, takes panels
# fourier._PANEL_PHASE / B wide where that exceeds 1


def _at_unit_width(plan):
    """The plan on unit panels, whatever its panel count."""
    unit = fourier._edges(plan.reach, fourier._RATIO, 1.0).size - 1
    return plan._replace(route="fourier", width=1.0, panels=unit)


def test_width_from_the_support_bounds():
    terms = [Term(UNIFORM, 2.1, 0.05), Term(bd.uniform(0.5), 0.4, 0.6, 3),
             Term(bd.symmetric_atoms([(0.0, 0.5), (1.5, 0.5)]), 1.3)]
    plan = fourier.plan_sum(4.5, terms, 1e-9)
    band = plan.t0 * (2.1 * 1.0 + 3 * 0.4 * 0.5 + 1.3 * 1.5)
    assert plan.width == pytest.approx(fourier._PANEL_PHASE / band, rel=1e-15)
    assert plan.panels == fourier._edges(plan.reach, fourier._RATIO, plan.width).size - 1


@pytest.mark.parametrize("p", [3.0, 4.5, 7.3])
@pytest.mark.parametrize("scales,activations", [
    ([1.0], [1.0]),
    ([2.1, 0.4, 1.3], [0.05, 0.6, 1.0]),
    ([0.5, 0.9, 1.7, 0.2, 1.1], [1e-3, 0.2, 0.01, 0.5, 0.7]),
])
def test_wide_panels_against_oracle(p, scales, activations):
    plan = fourier.plan_sum(p, [Term(UNIFORM, c, mu) for c, mu in zip(scales, activations)], 1e-9)
    assert plan.width > 1.0
    res = fourier.sum_abs_moment(plan)
    assert res.diagnostics["fourier_width"] == plan.width
    assert abs(res.value - thinned_uniform_oracle(p, scales, activations)) <= res.error_bound
    assert res.error_bound <= 1e-9 * res.value
    unit = fourier.sum_abs_moment(_at_unit_width(plan))
    assert res.diagnostics["fourier_panels"] < unit.diagnostics["fourier_panels"]


@pytest.mark.parametrize("p", [3.0, 5.0])
def test_planned_panels_are_the_panels_that_run(p, monkeypatch):
    # without refinement, abs_moment integrates on the very edges plan_sum counts:
    # search candidates on wide panels, and sums with a Gaussian on unit panels
    monkeypatch.setattr(fourier, "_REFINE", 0)
    plans = [fourier.plan_sum(p, [Term(UNIFORM, c, mu, k) for (c, mu), k in
                                  collections.Counter(zip(scales, activations)).items()], 1e-6)
             for _, scales, activations in vf._candidates(p, UNIFORM, 0.7, 1.0, 6, 30, 0)]
    plans += [fourier.plan_sum(p, [Term(bd.gaussian(), c, mu), Term(UNIFORM, 1.0, 0.5)], 1e-9)
              for c, mu in ((0.3, 1.0), (2.0, 0.1), (40.0, 0.01))]
    for plan in plans:
        if plan.route == "fourier":
            assert fourier.sum_abs_moment(plan).diagnostics["fourier_panels"] == plan.panels
    assert {plan.width > 1.0 for plan in plans} == {False, True}


@pytest.mark.parametrize("p,terms,panels", [
    (5.0, [Term(bd.gaussian(), 1.0, 1.0, 3)], 8),
    (3.0, [Term(bd.gaussian(), 1.0, 0.3, 2), Term(UNIFORM, 2.0, 0.5)], 343),
    (7.3, [Term(vf.GaussianSource(), count=4)], 7),
    (4.5, [Term(lc.TruncatedExpDensity(1.9, 1.7), 1.0, 0.5, 2)], None),
], ids=["gaussian", "gaussian-and-uniform", "gaussian-source", "truncated-exponential"])
def test_unbounded_or_unknown_bounds_keep_unit_panels(p, terms, panels):
    # the Gaussian has no support bound, and a law without support_bound (the
    # sources, the family members) is not taken to have one: unit panels, as many
    # as before panels were sized by the band limit
    plan = fourier.plan_sum(p, terms, 1e-9)
    assert plan.width == 1.0
    assert plan.panels == (panels or fourier._edges(plan.reach, fourier._RATIO, 1.0).size - 1)
    res = fourier.sum_abs_moment(plan)
    assert res.diagnostics["fourier_width"] == 1.0
    assert res.diagnostics["fourier_panels"] == plan.panels


@st.composite
def bounded_thinned_sums(draw):
    p = draw(st.one_of(st.floats(2.05, 9.95), st.sampled_from([2.5, 3.0, 5.0])))
    laws = [bd.cosine_projection(), UNIFORM]
    n = draw(st.integers(1, 4))
    terms = []
    for _ in range(n):
        law = draw(st.sampled_from(laws + ["atoms"]))
        if law == "atoms":  # three points: 0 and +-a
            zero = draw(st.floats(0.05, 0.9))
            law = bd.symmetric_atoms([(0.0, zero), (draw(st.floats(0.3, 3.0)), 1.0 - zero)])
        scale = 10.0 ** draw(st.floats(-2.0, 2.0))
        mu = draw(st.one_of(st.just(1.0), st.floats(-8.0, -0.05).map(lambda e: 10.0**e)))
        terms.append(Term(law, scale, mu, draw(st.integers(1, 3))))
    return p, terms


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bounded_thinned_sums())
def test_conditioned_sweep_at_wide_panels(case):
    # cosine, uniform and three-point atomic summands on panels wider than 1:
    # conditioned or not, the value agrees with the same plan on unit panels
    # wherever that fits MAX_SUM_PANELS
    p, terms = case
    plan = fourier.plan_sum(p, terms, 1e-9)
    assume(plan.width > 1.0)
    try:
        cond = fourier.plan_conditioned(p, terms, 1e-9)
    except InputError as exc:
        assert plan.route == "grid" and "MAX_SUM_PANELS = 8192" in str(exc)
        return
    assert all(sub.route == "fourier" for *_, sub in cond.parts)
    res = fourier.conditioned_abs_moment(cond)
    assert res.error_bound < res.value
    unit = _at_unit_width(plan)
    if unit.panels <= fourier.MAX_SUM_PANELS:
        ref = fourier.sum_abs_moment(unit)
        assert abs(res.value - ref.value) <= res.error_bound + ref.error_bound

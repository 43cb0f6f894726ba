import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from roskit import logconcave as lc
from roskit import specfun
from roskit import verify as vf
from roskit.errors import DomainError, FeasibilityError


class TestFeasibilityInterval:
    def test_p4(self):
        lo, hi = lc.feasibility_interval_density(4.0)
        assert lo == pytest.approx(math.sqrt(3.0) * 5.0**-0.25, rel=1e-14)
        assert hi == pytest.approx(24.0**0.25 / math.sqrt(2.0), rel=1e-14)
        assert lo == pytest.approx(1.158292, abs=1e-6)
        assert hi == pytest.approx(1.565085, abs=1e-6)

    def test_p5(self):
        lo, hi = lc.feasibility_interval_density(5.0)
        assert lo == pytest.approx(math.sqrt(3.0) * 6.0 ** (-0.2), rel=1e-12)
        assert hi == pytest.approx(120.0**0.2 / math.sqrt(2.0), rel=1e-12)
        assert lo == pytest.approx(1.21040, abs=1e-5)
        assert hi == pytest.approx(1.84213, abs=2e-5)

    def test_degenerate_at_two(self):
        lo, hi = lc.feasibility_interval_density(2.0 + 1e-9)
        assert lo == pytest.approx(1.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("p", [4.5, 5.0, 7.0, 10.0])
    def test_gaussian_pair_strictly_inside(self, p):
        lo, hi = lc.feasibility_interval_density(p)
        ratio = specfun.gaussian_abs_moment(p) ** (1.0 / p)
        assert lo < ratio < hi

    def test_tail_interval(self):
        lo, hi = lc.feasibility_interval_tail(5.0)
        assert lo == 1.0
        assert hi == lc.feasibility_interval_density(5.0)[1]


class TestDensityMoments:
    def test_uniform_unit_variance(self):
        f = lc.PlateauExpDensity(math.sqrt(3.0), math.inf)
        assert f.abs_moment(2.0) == pytest.approx(1.0, rel=1e-14)
        assert f.abs_moment(4.0) == pytest.approx(math.sqrt(3.0) ** 4 / 5.0, rel=1e-13)

    def test_exponential_limits(self):
        f = lc.PlateauExpDensity(0.0, math.sqrt(2.0))
        assert f.abs_moment(2.0) == pytest.approx(1.0, rel=1e-13)
        assert f.abs_moment(4.0) == pytest.approx(6.0, rel=1e-13)

    def test_interior_closed_form(self):
        # (1/3 + int_0^inf (1+u)^2 e^-u du) / 2 = (1/3 + 5)/2 = 8/3
        f = lc.PlateauExpDensity(1.0, 1.0)
        assert f.abs_moment(2.0) == pytest.approx(8.0 / 3.0, rel=1e-13)

    @pytest.mark.parametrize(
        "member",
        [
            lc.PlateauExpDensity(1.0, 1.0),
            lc.PlateauExpDensity(0.3, 2.7),
            lc.TruncatedExpDensity(2.0, 1.5),
            lc.TruncatedExpDensity(0.9, 0.2),
        ],
    )
    @pytest.mark.parametrize("r", [2.0, 3.7, 5.0])
    def test_against_quadrature(self, member, r):
        hi = member.alpha if isinstance(member, lc.TruncatedExpDensity) else (
            member.alpha + 80.0 / member.gamma
        )
        oracle, _ = integrate.quad(
            lambda x: 2.0 * x**r * member.pdf(x), 0.0, hi, limit=400
        )
        assert member.abs_moment(r) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize(
        "member",
        [
            lc.PlateauExpDensity(1.0, 1.0),
            lc.TruncatedExpDensity(2.0, 1.5),
            lc.PlateauExpDensity(math.sqrt(3.0), math.inf),
        ],
    )
    def test_normalization(self, member):
        if isinstance(member, lc.TruncatedExpDensity) or math.isinf(member.gamma):
            hi = member.alpha
        else:
            hi = member.alpha + 80.0 / member.gamma
        total, _ = integrate.quad(
            member.pdf, -hi, hi, limit=400, points=[-member.alpha, 0.0, member.alpha]
        )
        assert total == pytest.approx(1.0, abs=1e-10)


class TestTailMoments:
    def test_exponential_tail(self):
        law = lc.TailLawMinus(2.0, 0.0)
        assert law.abs_moment(3.0) == pytest.approx(math.gamma(4.0) / 8.0, rel=1e-13)

    def test_two_point(self):
        law = lc.TailLawMinus(math.inf, 1.7)
        assert law.abs_moment(4.0) == pytest.approx(1.7**4, rel=1e-14)

    def test_plus_exponential_limit(self):
        assert lc.TailLawPlus(1.0, math.inf).abs_moment(2.0) == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize(
        "law",
        [lc.TailLawMinus(1.3, 0.8), lc.TailLawPlus(1.0, 2.5), lc.TailLawPlus(0.4, 6.0)],
    )
    @pytest.mark.parametrize("r", [2.0, 3.3, 5.0])
    def test_against_tail_quadrature(self, law, r):
        hi = law.cutoff if isinstance(law, lc.TailLawPlus) else law.offset + 90.0 / law.rate
        oracle, _ = integrate.quad(
            lambda t: r * t ** (r - 1.0) * law.survival(t), 0.0, hi, limit=400
        )
        assert law.abs_moment(r) == pytest.approx(oracle, rel=1e-9)

    def test_survival_basics(self):
        law = lc.TailLawMinus(2.0, 0.7)
        assert law.survival(0.0) == 1.0
        assert law.survival(0.5) == 1.0  # below the offset
        vals = [law.survival(t) for t in np.linspace(0, 5, 200)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        plus = lc.TailLawPlus(1.0, 2.0)
        assert plus.survival(0.0) == 1.0
        assert plus.survival(2.0) == 0.0
        assert plus.atom_mass() == pytest.approx(math.exp(-2.0), rel=1e-14)


def _truncated_exponential_mp(r, alpha, gamma):
    with mpmath.workdps(50):
        kappa = mpmath.mpf(alpha) * gamma
        return float(mpmath.gammainc(r + 1, 0, kappa) / mpmath.mpf(gamma) ** r
                     / -mpmath.expm1(-kappa))


def _tail_plus_mp(r, rate, cutoff):
    with mpmath.workdps(50):
        return float(r * mpmath.gammainc(r, 0, mpmath.mpf(rate) * cutoff) / mpmath.mpf(rate) ** r)


class TestMomentsPastTheFloatRange:
    # at large r, near the ends of the matchers' root brackets, Gamma(r + 1) /
    # rate^r passes the float range while the regularised gamma beside it
    # underflows: these moments come from their log-space forms

    @pytest.mark.parametrize("alpha,gamma", [(1.7, 1e-6), (5e4, 1e-5), (3.0, 2e-4)])
    def test_truncated_exponential(self, alpha, gamma):
        assert lc.TruncatedExpDensity(alpha, gamma).abs_moment(50.0) == pytest.approx(
            _truncated_exponential_mp(50.0, alpha, gamma), rel=1e-12)

    @pytest.mark.parametrize("rate,cutoff", [(1e-6, 2.0), (1e-5, 4e4), (1e-4, 3.0)])
    def test_tail_plus(self, rate, cutoff):
        assert lc.TailLawPlus(rate, cutoff).abs_moment(50.0) == pytest.approx(
            _tail_plus_mp(50.0, rate, cutoff), rel=1e-12)

    @pytest.mark.parametrize("r,offset,rate", [(60.0, 1.0, 1e7), (40.0, 3.0, 1e8), (59.0, 0.5, 1e6)])
    def test_offset_exponential_integral(self, r, offset, rate):
        # rate^(k + 1) passes the float range in the binomial sum
        with mpmath.workdps(50):
            x = mpmath.mpf(offset) * rate
            want = mpmath.exp(x) * mpmath.gammainc(r + 1, x) / mpmath.mpf(rate) ** (r + 1)
        assert lc._offset_exp_integral(r, offset, rate) == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("side", [1.0 + 1e-9, 1.0 - 1e-9])
    def test_both_sides_of_the_switch(self, side):
        # log Gamma(r + 1) / gamma^r and log Gamma(r) / rate^r just below and
        # just above _LOG_SAFE, at kappa = 2
        r = 40.0
        gamma = side * math.exp((math.lgamma(r + 1.0) - lc._LOG_SAFE) / r)
        assert lc.TruncatedExpDensity(2.0 / gamma, gamma).abs_moment(r) == pytest.approx(
            _truncated_exponential_mp(r, 2.0 / gamma, gamma), rel=1e-12)
        rate = side * math.exp((math.lgamma(r) - lc._LOG_SAFE) / r)
        assert lc.TailLawPlus(rate, 2.0 / rate).abs_moment(r) == pytest.approx(
            _tail_plus_mp(r, rate, 2.0 / rate), rel=1e-12)


# golden interior members, frozen from a dense-scan + bisection oracle on
# quadrature moments (scan of the pinned-second-moment path, 2000 log-spaced
# nodes, 200 bisection refinements)
GOLDEN_FMINUS = (4.0, 1.0, 1.35, 0.956011050958, 2.0248493824)
GOLDEN_FPLUS = (5.0, 1.0, 1.4486, 2.68990256183, 1.08801692212)
GOLDEN_GMINUS = (5.0, 1.0, 1.5, 2.01973601867, 0.373713692118)
GOLDEN_GPLUS = (5.0, 1.0, 1.5, 1.2923076493, 2.51377575128)


class TestMatchers:
    def test_minus_boundaries(self):
        p = 4.7
        lo, hi = lc.feasibility_interval_density(p)
        uni = lc.match_density_minus(lc.MatchTarget(p, 2.0, 2.0 * lo))
        assert uni.limit == "uniform"
        assert uni.alpha == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)
        exp = lc.match_density_minus(lc.MatchTarget(p, 2.0, 2.0 * hi))
        assert exp.limit == "exponential"
        assert exp.gamma == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)

    def test_plus_boundaries(self):
        p = 4.7
        lo, hi = lc.feasibility_interval_density(p)
        uni = lc.match_density_plus(lc.MatchTarget(p, 1.0, lo))
        assert uni.limit == "uniform"
        exp = lc.match_density_plus(lc.MatchTarget(p, 1.0, hi))
        assert exp.limit == "exponential"

    def test_tail_boundaries(self):
        p = 5.0
        lo, hi = lc.feasibility_interval_tail(p)
        two_m = lc.match_tail(lc.MatchTarget(p, 1.3, 1.3 * lo), "minus")
        assert two_m.limit == "two_point" and two_m.offset == pytest.approx(1.3)
        two_p = lc.match_tail(lc.MatchTarget(p, 1.3, 1.3 * lo), "plus")
        assert two_p.limit == "two_point" and two_p.cutoff == pytest.approx(1.3)
        exp_m = lc.match_tail(lc.MatchTarget(p, 1.0, hi), "minus")
        assert exp_m.limit == "exponential"
        exp_p = lc.match_tail(lc.MatchTarget(p, 1.0, hi), "plus")
        assert exp_p.limit == "exponential"

    def test_golden_fminus(self):
        p, a, b, alpha, gamma = GOLDEN_FMINUS
        m = lc.match_density_minus(lc.MatchTarget(p, a, b))
        assert m.alpha == pytest.approx(alpha, rel=1e-6)
        assert m.gamma == pytest.approx(gamma, rel=1e-6)
        assert m.abs_moment(2.0) == pytest.approx(a * a, rel=1e-8)
        assert m.abs_moment(p) == pytest.approx(b**p, rel=1e-8)

    def test_golden_fplus(self):
        p, a, b, alpha, gamma = GOLDEN_FPLUS
        m = lc.match_density_plus(lc.MatchTarget(p, a, b))
        assert m.alpha == pytest.approx(alpha, rel=1e-6)
        assert m.gamma == pytest.approx(gamma, rel=1e-6)
        assert m.abs_moment(p) == pytest.approx(b**p, rel=1e-8)

    def test_golden_gminus(self):
        p, a, b, rate, offset = GOLDEN_GMINUS
        m = lc.match_tail(lc.MatchTarget(p, a, b), "minus")
        assert m.rate == pytest.approx(rate, rel=1e-6)
        assert m.offset == pytest.approx(offset, rel=1e-6)

    def test_golden_gplus(self):
        p, a, b, rate, cutoff = GOLDEN_GPLUS
        m = lc.match_tail(lc.MatchTarget(p, a, b), "plus")
        assert m.rate == pytest.approx(rate, rel=1e-6)
        assert m.cutoff == pytest.approx(cutoff, rel=1e-6)

    def test_round_trip_random_targets(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            p = float(rng.uniform(4.0, 10.0))
            a = float(rng.uniform(0.5, 2.0))
            lo, hi = lc.feasibility_interval_density(p)
            b = a * float(rng.uniform(lo * 1.001, hi * 0.999))
            t = lc.MatchTarget(p, a, b)
            for m in (lc.match_density_minus(t), lc.match_density_plus(t)):
                assert m.abs_moment(2.0) == pytest.approx(a * a, rel=1e-7)
                assert m.abs_moment(p) == pytest.approx(b**p, rel=1e-7)
            lo_t, hi_t = lc.feasibility_interval_tail(p)
            bt = a * float(rng.uniform(lo_t * 1.001, hi_t * 0.999))
            t2 = lc.MatchTarget(p, a, bt)
            for m in (lc.match_tail(t2, "minus"), lc.match_tail(t2, "plus")):
                assert m.abs_moment(2.0) == pytest.approx(a * a, rel=1e-7)
                assert m.abs_moment(p) == pytest.approx(bt**p, rel=1e-7)

    def test_infeasible_ratio(self):
        lo, hi = lc.feasibility_interval_density(5.0)
        with pytest.raises(FeasibilityError, match="interval"):
            lc.match_density_minus(lc.MatchTarget(5.0, 1.0, 0.9 * lo))
        with pytest.raises(FeasibilityError, match="interval"):
            lc.match_density_plus(lc.MatchTarget(5.0, 1.0, 1.1 * hi))
        with pytest.raises(FeasibilityError):
            lc.match_tail(lc.MatchTarget(5.0, 1.0, 0.99), "minus")

    def test_bracket_end_past_the_float_range(self):
        # kappa = 500, the bracket's upper end, has E|X|^200 past the float
        # range, which raised OverflowError; the root member's moments fit
        m = lc.match_density_plus(lc.MatchTarget(200.0, 1.0, 30.0))
        assert m.limit == "interior"
        assert m.abs_moment(200.0) == pytest.approx(30.0**200, rel=1e-8)

    @pytest.mark.parametrize("p,a,b", [(1e6, 1.0, 1.3), (400.0, 1.0, 1e-2), (4.0, 1e-170, 1.0),
                                       (4.0, 1e160, 1e160)])
    def test_target_moments_past_the_float_range(self, p, a, b):
        with pytest.raises(DomainError, match="double precision"):
            lc.MatchTarget(p, a, b)

    @pytest.mark.parametrize("ratio", [1.3, 0.5, 3.0])
    def test_unknown_tail_family(self, ratio):
        # the family is checked before the ratio: feasible (1.3) or not, it is a DomainError
        with pytest.raises(DomainError, match="unknown tail family"):
            lc.match_tail(lc.MatchTarget(5.0, 1.0, ratio), "middle")

    def test_uniqueness_monotone_path(self):
        # p-th moment along the pinned-second-moment path moves one way
        p, a = 5.0, 1.0
        vals = []
        for rho in np.logspace(-4, 4, 60):
            gam = lc._gamma_of_rho(rho, a)
            vals.append(lc.PlateauExpDensity(rho / gam, gam).abs_moment(p))
        diffs = np.diff(vals)
        assert np.all(diffs < 0.0)


_MATCHERS = {
    "fminus": (lc.match_density_minus, lc.feasibility_interval_density),
    "fplus": (lc.match_density_plus, lc.feasibility_interval_density),
    "gminus": (lambda target: lc.match_tail(target, "minus"), lc.feasibility_interval_tail),
    "gplus": (lambda target: lc.match_tail(target, "plus"), lc.feasibility_interval_tail),
}


@pytest.mark.parametrize("family", list(_MATCHERS))
@pytest.mark.parametrize("p", [3.0, 5.0, 20.0])
@pytest.mark.parametrize("end", ["lo", "hi"])
def test_match_near_either_end(family, p, end):
    # 1e-10 and 1e-9 inside an end: past _classify_ratio's snap, and once past the
    # reach of the fplus and gminus brackets; the member comes from the root or the
    # end member, and either way its moments pass the 1e-8 check.  1e-9 above the
    # uniform end at p = 20 (b = 1.487474958163516) failed that check for fplus while
    # the truncated exponential's moments lost digits in 1 - exp(-kappa)
    match, interval = _MATCHERS[family]
    lo, hi = interval(p)
    for inside in (1e-10, 1e-9):
        b = lo * (1.0 + inside) if end == "lo" else hi * (1.0 - inside)
        member = match(lc.MatchTarget(p, 1.0, b))
        assert abs(member.abs_moment(2.0) - 1.0) <= 1e-8
        assert abs(member.abs_moment(p) / b**p - 1.0) <= 1e-8


# each matcher's path, root bracket and feasible interval, as _match is called with them
_ROOT_PATHS = [
    (lc._fminus_path, (1e-6, 1e6), lc.feasibility_interval_density),
    (lc._fplus_path, (1e-12, 500.0), lc.feasibility_interval_density),
    (lc._gminus_path, (1e-12, 1e8), lc.feasibility_interval_tail),
    (lc._gplus_path, (1e-12, 600.0), lc.feasibility_interval_tail),
]


def _brentq(g, lo, hi):
    from scipy import optimize

    return optimize.brentq(g, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=200)


class TestBracketedRoot:
    def test_bit_identical_to_brentq_on_the_matcher_paths(self):
        # 2,400 moment equations, 600 per path, p in (2.05, 30), ratios across
        # the feasible interval and 1e-6 of its width from either end
        rng = np.random.default_rng(2024)
        for i in range(2400):
            path, bracket, interval = _ROOT_PATHS[i % 4]
            p, a = float(rng.uniform(2.05, 30.0)), float(rng.uniform(0.1, 5.0))
            lo, hi = interval(p)
            u = {1: 1e-6, 2: 1.0 - 1e-6}.get(i % 40, float(rng.uniform(0.0, 1.0)))
            ratio = lo + (hi - lo) * u
            bp = (ratio * a) ** p

            def g(t):
                return path(t, a).abs_moment(p) / bp - 1.0

            assert lc._bracketed_root(g, *bracket) == _brentq(g, *bracket), (i, p, a, ratio)

    @pytest.mark.parametrize("root", [0.25, 4.0])
    def test_zero_at_either_end(self, root):
        calls = []

        def g(t):
            calls.append(t)
            return t - root

        assert lc._bracketed_root(g, 0.25, 4.0) == root == _brentq(g, 0.25, 4.0)
        assert calls[:2] == [0.25, 4.0] and len(calls) == 4  # two ends here, two in brentq

    def test_no_sign_change(self):
        with pytest.raises(FeasibilityError, match="failed to bracket"):
            lc._bracketed_root(lambda t: t * t + 1.0, -1.0, 2.0)
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda t: t * t + 1.0, -1.0, 2.0)

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-0.5, 1.0), (0.5, 1.0)])
    def test_nan_in_the_bracket_raises(self, lo, hi):
        # a bare port would take a NaN inside for a sign change and stop at a false root
        def g(t):
            return t - 0.5 if t < 0.2 or t > 0.8 else math.nan

        for solve in (lc._bracketed_root, _brentq):
            with pytest.raises(ValueError, match="is NaN"):
                solve(g, lo, hi)

    def test_out_of_iterations(self):
        # a jump at 0: only halvings approach it, and 200 do not reach 1e-300
        def step(t):
            return -1.0 if t < 0.0 else 1.0

        with pytest.raises(FeasibilityError, match="200 Brent steps"):
            lc._bracketed_root(step, -1.0, 3.0)
        with pytest.raises(RuntimeError, match="converge"):
            _brentq(step, -1.0, 3.0)


class TestLogConcavityOfMembers:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_density_members_logconcave(self, seed):
        rng = np.random.default_rng(seed)
        p = float(rng.uniform(4.5, 9.0))
        lo, hi = lc.feasibility_interval_density(p)
        b = float(rng.uniform(lo * 1.01, hi * 0.99))
        for m in (
            lc.match_density_minus(lc.MatchTarget(p, 1.0, b)),
            lc.match_density_plus(lc.MatchTarget(p, 1.0, b)),
        ):
            bound = m.alpha if isinstance(m, lc.TruncatedExpDensity) else (
                m.alpha + 5.0 / m.gamma
            )
            xs = np.linspace(bound * 1e-3, bound * 0.999, 200)
            logf = np.array([math.log(m.pdf(x)) for x in xs])
            second = logf[:-2] - 2.0 * logf[1:-1] + logf[2:]
            assert np.all(second <= 1e-9)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_tail_members_log_concave_survival(self, seed):
        rng = np.random.default_rng(seed)
        p = float(rng.uniform(4.5, 9.0))
        lo, hi = lc.feasibility_interval_tail(p)
        b = float(rng.uniform(lo * 1.01, hi * 0.99))
        for fam in ("minus", "plus"):
            law = lc.match_tail(lc.MatchTarget(p, 1.0, b), fam)
            bound = law.cutoff if isinstance(law, lc.TailLawPlus) else (
                law.offset + 5.0 / law.rate
            )
            ts = np.linspace(0.0, bound * 0.999, 200)
            logt = np.array([math.log(law.survival(t)) for t in ts])
            second = logt[:-2] - 2.0 * logt[1:-1] + logt[2:]
            assert np.all(second <= 1e-9)


class TestEvalAndSampling:
    def test_density_peak(self):
        f = lc.PlateauExpDensity(1.2, 0.7)
        assert f.pdf(0.0) == pytest.approx(
            1.0 / (2.0 * (1.2 + 1.0 / 0.7)), rel=1e-14
        )

    def test_tail_below_offset_is_one(self):
        law = lc.TailLawMinus(2.0, 0.9)
        assert law.survival(0.5) == 1.0

    def test_cdf_matches_pdf(self):
        # the tail laws' pdf and cdf describe the continuous part only
        for law, lo, kink in (
            (lc.PlateauExpDensity(0.8, 1.4), -40.0, 0.8),
            (lc.TruncatedExpDensity(2.2, 0.9), -2.2, 2.2),
            (lc.TailLawMinus(1.5, 0.6), -40.0, 0.6),
            (lc.TailLawPlus(1.1, 2.2), -2.2, 2.2),
            (vf.GaussianSource(), -40.0, 0.0),
            (vf.LogisticSource(0.8), -40.0, 0.0),
        ):
            for x in (-1.5, -0.2, 0.4, 1.9):
                num, _ = integrate.quad(
                    law.pdf, lo, x, limit=300, points=[-kink, 0.0, kink]
                )
                assert law.cdf(x) == pytest.approx(num, abs=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            lc.PlateauExpDensity(0.0, math.inf)
        with pytest.raises(DomainError):
            lc.TruncatedExpDensity(math.inf, 0.0)
        with pytest.raises(DomainError):
            lc.TailLawMinus(math.inf, 0.0)
        with pytest.raises(DomainError):
            lc.TailLawPlus(0.0, math.inf)


def _members_at_limits_and_inside(p: float, a: float):
    lo, hi = lc.feasibility_interval_density(p)
    lo_t, hi_t = lc.feasibility_interval_tail(p)
    for ratio in (lo, 0.5 * (lo + hi), hi):
        t = lc.MatchTarget(p, a, a * ratio)
        yield lc.match_density_minus(t)
        yield lc.match_density_plus(t)
    for ratio in (lo_t, 0.5 * (lo_t + hi_t), hi_t):
        t = lc.MatchTarget(p, a, a * ratio)
        yield lc.match_tail(t, "minus")
        yield lc.match_tail(t, "plus")


class TestSupportHalfwidth:
    @pytest.mark.parametrize("p,a", [(4.5, 1.0), (7.0, 0.4), (12.0, 2.5)])
    def test_support_end_or_negligible_density(self, p, a):
        members = list(_members_at_limits_and_inside(p, a))
        assert {m.limit for m in members} == {"uniform", "exponential", "two_point", "interior"}
        for m in members:
            L = m.support_halfwidth()
            atoms = m.atoms()
            assert all(abs(loc) <= L for loc in atoms), m
            if m.pdf(L * (1.0 + 1e-9)) == 0.0:
                # bounded support: L is its end, so some mass lies just inside it
                near = float(m.cdf(L) - m.cdf(L * (1.0 - 1e-6))) + atoms.get(L, 0.0)
                assert near > 0.0, m
            else:
                xs = np.linspace(0.0, L, 100_001)
                kinks = [getattr(m, k) for k in ("alpha", "offset") if hasattr(m, k)]
                peak = max(m.pdf(x) for x in [*xs, *kinks])
                assert m.pdf(L) <= 1e-16 * peak * (1.0 + 1e-9), m

    def test_density_families_have_no_atoms(self):
        assert lc.PlateauExpDensity(1.0, 2.0).atoms() == {}
        assert lc.TruncatedExpDensity(1.0, 2.0).atoms() == {}

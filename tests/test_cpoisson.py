import math
import sys
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special

from roskit import basedist as bd
from roskit import constants as ct
from roskit import cpoisson as cp
from roskit import discrete
from roskit import gridconv
from roskit import verify as vf
from roskit.errors import DomainError, InputError, UnsupportedMethodError

RAD = bd.condition_nonzero(bd.rademacher())
UNIF = bd.condition_nonzero(bd.uniform(1.0))
GAUSS = bd.condition_nonzero(bd.gaussian())
ATOMS = bd.condition_nonzero(bd.symmetric_atoms([(0.7, 0.4), (1.3, 0.6)]))
COSINE = bd.condition_nonzero(bd.cosine_projection())  # Fourier route
TEN_ATOMS = bd.condition_nonzero(  # Fourier route (too many atoms to enumerate)
    bd.symmetric_atoms([(0.3 * i + 0.1, 0.1) for i in range(10)])
)
# three generic magnitudes: an 18-fold sum has 4,579 support points
SIX_ATOMS = bd.condition_nonzero(bd.symmetric_atoms(
    [(0.30742540036145816, 0.36), (1.1414238828695873, 0.13), (1.5731788245917877, 0.51)]))


def _kind_route(spec, p, tol):
    """E|T|^p by the route the jump law takes at non-even p, the spectral grid
    standing in for the Fourier integral, which needs a non-even p."""
    route = spec.jump.base.cp_route
    if route == "fourier":
        return cp._grid_abs_moment(spec, p, tol)
    return cp._abs_moment(spec, p, tol, route)


class TestSeries:
    def test_unit_intensity_random_signs(self):
        # E S_k^4 = 3k^2 - 2k for the sign walk; Poisson(1) has E xi = 1,
        # E xi^2 = 2, so the series sums to 3*2 - 2*1 = 4
        res = cp.cp_abs_moment(cp.CompoundPoissonSpec(1.0, RAD), 4.0)
        assert res.value == pytest.approx(4.0, abs=1e-9)
        assert res.error_bound <= 1e-8

    def test_zero_intensity(self):
        assert cp.cp_abs_moment(cp.CompoundPoissonSpec(0.0, RAD), 4.0).value == 0.0

    def test_uniform_jumps_cumulant_value(self):
        # lam m4 + 3 lam^2 m2^2 = 1.8/5 + 3 (1.8/3)^2 = 1.44
        res = cp.cp_abs_moment(cp.CompoundPoissonSpec(1.8, UNIF), 4.0)
        assert res.value == pytest.approx(1.44, rel=1e-7)

    def test_truncation_refinement(self):
        # recomputing at tol/10 moves the value by less than tol
        spec = cp.CompoundPoissonSpec(2.5, UNIF)
        for tol in (1e-5, 1e-7):
            a = cp.cp_abs_moment(spec, 5.0, tol=tol).value
            b = cp.cp_abs_moment(spec, 5.0, tol=tol / 10.0).value
            assert abs(a - b) < tol

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.8, 3.0])
    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("jump", [RAD, UNIF, GAUSS, ATOMS, COSINE, TEN_ATOMS])
    def test_series_matches_cumulants(self, lam, p, jump):
        # even p takes the cumulant route; the kind's own route checks it
        spec = cp.CompoundPoissonSpec(lam, jump)
        assert cp.cp_abs_moment(spec, float(p), tol=1e-9).method == "cp_series/cumulant"
        series = _kind_route(spec, float(p), tol=1e-9)
        oracle = cp.cp_even_moment_cumulant(spec, p)
        assert abs(series.value - oracle) <= max(series.error_bound, 1e-9 * oracle)

    def test_large_intensity_log_space(self):
        # lam^k / k! must be assembled in log space for large lam
        spec = cp.CompoundPoissonSpec(100.0, RAD)
        series = cp._abs_moment(spec, 4.0, 1e-6, "exact_walk")
        oracle = cp.cp_even_moment_cumulant(spec, 4)  # 100 + 3*100^2
        assert oracle == 30100.0
        assert abs(series.value - oracle) <= max(series.error_bound, 1e-8 * oracle)

    def test_monotone_in_intensity(self):
        vals = [
            cp.cp_abs_moment(cp.CompoundPoissonSpec(lam, RAD), 4.5).value
            for lam in (0.2, 0.5, 1.0, 2.0, 4.0)
        ]
        assert vals == sorted(vals)

    def test_domain(self):
        with pytest.raises(DomainError):
            cp.cp_abs_moment(cp.CompoundPoissonSpec(1.0, RAD), 2.0)
        with pytest.raises(DomainError):
            cp.CompoundPoissonSpec(-1.0, RAD)
        with pytest.raises(DomainError, match="normal float"):
            cp.CompoundPoissonSpec(1e-310, RAD)


def _walk_depth(lam, p, m_p, tol):
    """The term-by-term walk _truncation_depth replaces: K and the tail."""
    def term(k):
        return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1) + p * math.log(k)) * m_p

    bounds = [term(k) for k in range(1, int(20.0 * lam + 10.0 * p + 80) + 1)]
    suffix, K = 0.0, len(bounds)
    for k in range(len(bounds), 0, -1):
        if suffix + bounds[k - 1] >= tol:
            break
        suffix += bounds[k - 1]
        K = k - 1
    return max(K, 1), suffix


def _loop_radius(p, sigma2, tol, full, weights):
    """The per-(T, k) loop truncation_radius replaces: T and its tail."""
    def tail_moment(s2, T):
        q = special.gammaincc(0.5 * p, T * T / (2.0 * s2))
        if q == 0.0:
            return 0.0
        return math.exp(math.log(p) + 0.5 * p * math.log(2.0 * s2) + math.lgamma(0.5 * p)
                        + math.log(q))

    step = math.sqrt(sigma2 * np.average(np.arange(1, len(weights) + 1), weights=weights))
    T = 3.0 * step
    while (tail := math.fsum(w * tail_moment(k * sigma2, T) for k, w in enumerate(weights, 1)
                             if T < k * full)) > 0.01 * tol:
        T += step
    return T, tail


class TestExactRoutes:
    @pytest.mark.parametrize("lam", [0.7, 2.0, 30.0])
    @pytest.mark.parametrize("p", [3.0, 5.0])
    def test_skellam_against_mpmath_walks(self, lam, p):
        # the series by definition, Poisson weights times binomial walk moments,
        # to a depth whose Poisson tail is below 1e-25
        depth = int(4 * lam) + 60
        with mpmath.workdps(30):
            power = [mpmath.mpf(j) ** p for j in range(depth + 1)]
            ref = float(mpmath.fsum(
                mpmath.exp(-lam) * mpmath.mpf(lam) ** k / mpmath.factorial(k)
                * mpmath.fsum(math.comb(k, i) * power[abs(2 * i - k)] for i in range(k + 1))
                / mpmath.mpf(2) ** k
                for k in range(1, depth + 1)))
        res = cp.cp_abs_moment(cp.CompoundPoissonSpec(lam, RAD), p, tol=1e-12)
        assert res.method == "cp_series/exact_walk"
        assert abs(res.value - ref) <= res.error_bound <= 1e-12 + 2e-13 * ref

    @pytest.mark.parametrize("p", [100.5, 150.5, 169.9])
    def test_skellam_at_large_p(self, p):
        # n^p overflowed a float past p ~ 150 where ive had underflowed to 0:
        # inf * 0, two RuntimeWarnings and a DomainError; against a 30-digit sum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = cp.cp_abs_moment(cp.CompoundPoissonSpec(1.0, RAD), p, 1e-9)
        assert res.method == "cp_series/exact_walk"
        with mpmath.workdps(30):
            ref = 2 * mpmath.exp(-1) * mpmath.nsum(
                lambda n: mpmath.besseli(n, 1) * n ** mpmath.mpf(p), [1, mpmath.inf])
        assert abs(res.value - ref) <= res.error_bound <= 1e-11 * res.value

    @pytest.mark.parametrize("p", [4, 6, 8])
    def test_skellam_large_intensity(self, p):
        spec = cp.CompoundPoissonSpec(84_300.0, RAD)
        res = cp._abs_moment(spec, float(p), 1e-9, "exact_walk")
        oracle = cp.cp_even_moment_cumulant(spec, p)
        assert abs(res.value - oracle) <= res.error_bound <= 1e-12 * oracle

    @pytest.mark.parametrize("jump,route", [
        (RAD, "exact_walk"), (GAUSS, "exact_gaussian"), (UNIF, "fourier"), (COSINE, "fourier"),
        (ATOMS, "fourier")], ids=["rademacher", "gaussian", "uniform", "cosine", "atoms"])
    def test_route_by_jump_law(self, jump, route):
        # at non-even p each of the five kinds picks its own route
        res = cp.cp_abs_moment(cp.CompoundPoissonSpec(1.8, jump), 5.5, tol=1e-9)
        assert res.method == f"cp_series/{route}"
        assert res.diagnostics["per_k_method"] == route

    @pytest.mark.parametrize("jump,lam,route", [
        (SIX_ATOMS, 1.7, "atoms_exact"),  # every k-fold support within _ATOM_SUPPORT_CAP
        (ATOMS, 1.8, "atoms_exact"),
        (ATOMS, 100.0, "atoms_char_grid"),  # K = 216: past the enumeration's reach
        (TEN_ATOMS, 1.8, "atoms_char_grid"),
    ])
    def test_atomic_routing(self, jump, lam, route):
        # p = 6 takes the cumulant route and p = 5.5 the Fourier integral, on
        # every atomic law; the reference route, enumeration or else the grid,
        # meets the cumulant oracle at p = 6, and enumeration the Fourier value
        # at p = 5.5 within both bounds
        spec = cp.CompoundPoissonSpec(lam, jump)
        assert cp.cp_abs_moment(spec, 6.0, tol=1e-9).method == "cp_series/cumulant"
        res = cp.cp_abs_moment(spec, 5.5, tol=1e-9)
        assert res.method == "cp_series/fourier"
        if route == "atoms_exact":
            ref = cp._abs_moment(spec, 5.5, 1e-9, route)
            assert abs(res.value - ref.value) <= res.error_bound + ref.error_bound
        ref = cp._abs_moment(spec, 6.0, 1e-9, route)
        assert ref.method == f"cp_series/{route}"
        assert abs(ref.value - cp.cp_even_moment_cumulant(spec, 6)) <= ref.error_bound


class TestRelativeTails:
    """The Poisson tail is cut at tol times a lower bound of the value, so at
    small intensity every series route still meets tol |value|."""

    @pytest.mark.parametrize("jump", [RAD, ATOMS, GAUSS])
    @pytest.mark.parametrize("lam", [1e-10, 1e-4, 0.05])
    @pytest.mark.parametrize("p", [3.0, 5.5])
    def test_cp_abs_moment(self, jump, lam, p):
        spec = cp.CompoundPoissonSpec(lam, jump)
        res = cp.cp_abs_moment(spec, p, 1e-9)
        assert res.error_bound <= 1e-9 * res.value
        ref = cp._abs_moment(spec, p, 1e-9, "atoms_exact" if jump is ATOMS else "fourier")
        assert abs(res.value - ref.value) <= res.error_bound + ref.error_bound

    @pytest.mark.parametrize("jump", [RAD, GAUSS, UNIF, COSINE, ATOMS])
    @pytest.mark.parametrize("lam", [1e-200, 1e-305, sys.float_info.min])
    def test_near_underflow(self, jump, lam):
        # two jumps weigh lambda^2 / 2, which underflows: the value is lambda E|V|^p
        res = cp.cp_abs_moment(cp.CompoundPoissonSpec(lam, jump), 5.5, 1e-9)
        ref = lam * jump.abs_moment(5.5)
        assert abs(res.value - ref) <= res.error_bound + 1e-13 * ref

    def test_mixture_sup_random_signs(self):
        # lambda = 1e-10: the absolute tail made the bound the value itself
        res = ct.mixture_sup(5.0, bd.rademacher(), 1e-3, 1.0, 1e-9)
        assert res.method == "mixture_sup/cp_series/exact_walk"
        assert res.error_bound <= 1e-9 * res.value

    @pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
    @pytest.mark.parametrize("A", [1e-4, 0.01, 0.5])
    def test_positive_sum_sup(self, p, A):
        res = ct.positive_sum_sup(p, A, 1.0, 1e-9)
        assert res.error_bound <= 1e-9 * res.value


class TestVectorisedSeries:
    """The array forms of the series depth and the truncation radius against the
    scalar loops they replace: the same K and T, tails to 1e-12 relative."""

    @pytest.mark.parametrize("lam", [1e-4, 0.05, 1.9, 73.6, 1000.0])
    @pytest.mark.parametrize("p", [2.5, 8.0])
    @pytest.mark.parametrize("m_p", [1e-12, 50.0])
    @pytest.mark.parametrize("tol", [1e-3, 1e-9])
    def test_truncation_depth(self, lam, p, m_p, tol):
        K, tail = cp._truncation_depth(lam, p, m_p, tol)
        K_loop, tail_loop = _walk_depth(lam, p, m_p, tol)
        assert K == K_loop
        assert tail == pytest.approx(tail_loop, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.05, 5.0, 300.0])
    @pytest.mark.parametrize("p", [4.0, 8.0])
    def test_truncation_radius(self, lam, p):
        K = cp._truncation_depth(lam, p, 0.2, 1e-9)[0]
        weights = cp._poisson_weights(lam, K)
        T, tail = gridconv.truncation_radius(p, 1 / 3, 1e-9, 1.0, weights)
        T_loop, tail_loop = _loop_radius(p, 1 / 3, 1e-9, 1.0, list(weights))
        assert T == T_loop
        assert tail == pytest.approx(tail_loop, rel=1e-12)


def _uniform_jump(b):
    return bd.condition_nonzero(bd.uniform(b))


@pytest.fixture
def grid_route(monkeypatch):
    """cp_abs_moment replaced by the spectral grid, the route no production call picks."""
    monkeypatch.setattr(cp, "cp_abs_moment", cp._grid_abs_moment)


class TestHonestBound:
    """|value - cumulant oracle| <= error_bound on the spectral grid, the second
    route, with no allowance beyond the reported bound."""

    @settings(max_examples=30, deadline=None)
    @given(
        jump=st.one_of(st.floats(0.05, 20.0).map(_uniform_jump), st.just(COSINE),
                       st.just(TEN_ATOMS)),
        lam=st.floats(0.05, 80.0),
        p=st.sampled_from([4, 6, 8]),
        tol=st.sampled_from([1e-6, 1e-9]),
    )
    # high p at a tight tol, where the |x|^8 weights amplify the FFT noise most
    @example(jump=UNIF, lam=12.0, p=8, tol=1e-9)
    def test_cp_abs_moment(self, jump, lam, p, tol):
        spec = cp.CompoundPoissonSpec(lam, jump)
        res = cp._grid_abs_moment(spec, float(p), tol)
        assert res.method.endswith("grid")
        assert abs(res.value - cp.cp_even_moment_cumulant(spec, p)) <= res.error_bound

    def test_mixture_sup_large_intensity(self, grid_route):
        res = ct.mixture_sup(6.0, bd.uniform(1.0), 3.0, 1.0, 1e-6)
        assert res.diagnostics["lambda"] > 50.0
        assert abs(res.value - res.diagnostics["cp_cumulant_value"]) <= res.error_bound

    def test_mixture_sup_window_sized_grid(self, grid_route):
        # lambda ~ 1964: the grid is sized by the window, not by the ~2,200 jumps
        res = ct.mixture_sup(6.0, bd.uniform(1.0), 10.0, 1.0, 1e-6)
        assert res.diagnostics["lambda"] > 1900.0
        assert abs(res.value - res.diagnostics["cp_cumulant_value"]) <= res.error_bound

    def test_mixture_sup_vanishing_intensity(self, grid_route):
        # lambda ~ 4e-17, where 1 - e^-lambda rounds to 0: one jump carries the
        # whole budget, so the value tends to B^p = 1
        res = ct.mixture_sup(5.0, bd.uniform(1.0), 1e-5, 1.0)
        assert res.diagnostics["lambda"] < 1e-16
        assert math.isfinite(res.value) and math.isfinite(res.error_bound)
        assert abs(res.value - 1.0) <= res.error_bound

    @pytest.mark.parametrize("jump", [UNIF, TEN_ATOMS])
    @pytest.mark.parametrize("lam", [1e-20, 1e-12, 1e-8])
    def test_vanishing_intensity(self, jump, lam):
        # a tolerance below lambda, so that the value is no mere series tail
        spec = cp.CompoundPoissonSpec(lam, jump)
        res = cp._grid_abs_moment(spec, 6.0, 1e-6 * lam)
        assert res.method.endswith("grid")
        assert abs(res.value - cp.cp_even_moment_cumulant(spec, 6)) <= res.error_bound

    def test_intensity_past_exp_overflow(self):
        # e^-lam expm1(lam phi) overflows for lam phi > 709
        spec = cp.CompoundPoissonSpec(1000.0, UNIF)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = cp._grid_abs_moment(spec, 8.0, 1e-9)
        assert math.isfinite(res.value) and math.isfinite(res.error_bound)
        assert abs(res.value - cp.cp_even_moment_cumulant(spec, 8)) <= res.error_bound

    def test_gaussian_jumps_refused(self):
        # the grid needs a support bound; Gaussian jumps have the exact route
        spec = cp.CompoundPoissonSpec(1.0, bd.condition_nonzero(bd.gaussian()))
        with pytest.raises(UnsupportedMethodError, match="bounded and atomic jumps"):
            cp._grid_abs_moment(spec, 5.0, 1e-6)

    def test_grid_cap(self):
        # lambda ~ 158,000: even the least grid the window |x| <= T could take
        # passes MAX_GRID_CELLS, and is refused before it is allocated
        spec = cp.CompoundPoissonSpec(157_900.0, UNIF)
        start = time.perf_counter()
        with pytest.raises(InputError, match="MAX_GRID_CELLS = 8388608"):
            cp._grid_abs_moment(spec, 5.0, 1e-6)
        assert time.perf_counter() - start < 1.0


def _irwin_hall_cp_moment(lam, p, K):
    """E|T|^p for uniform(1) jumps by the series over k <= K, each E|S_k|^p from
    the density 2^-k / (k - 1)! sum_j (-1)^j C(k, j) (x + k - 2j)_+^(k-1) of a
    sum of k uniforms, integrated against x^p exactly in 60-digit mpmath."""
    with mpmath.workdps(60):
        p = mpmath.mpf(p)
        total = mpmath.mpf(0)
        for k in range(1, K + 1):
            s = mpmath.mpf(0)
            for j in range(k + 1):
                c, lo = k - 2 * j, max(0, 2 * j - k)
                # int_lo^k x^p (x + c)^(k-1) dx, (x + c)^(k-1) expanded in powers of x
                s += (-1) ** j * mpmath.binomial(k, j) * mpmath.fsum(
                    mpmath.binomial(k - 1, m) * mpmath.mpf(c) ** (k - 1 - m)
                    * (mpmath.mpf(k) ** (p + m + 1) - mpmath.mpf(lo) ** (p + m + 1)) / (p + m + 1)
                    for m in range(k))
            weight = mpmath.exp(-lam) * mpmath.mpf(lam) ** k / mpmath.factorial(k)
            total += weight * 2 * s / (mpmath.mpf(2) ** k * mpmath.factorial(k - 1))
        return float(total)


def _cosine_cp_moment(lam, p, T):
    """E|T|^p for cos(2 pi U) jumps, phi_V = J0, by von Bahr's integral in
    mpmath: on [0, 1] the Taylor series of phi_T from the moment-cumulant
    recursion, mpmath.quad of phi_T - e^-lam over periods up to T, the rest in
    closed form.  Returns the value and a bound on the part beyond T left out,
    from |J0(t)| <= 1 / sqrt(t)."""
    with mpmath.workdps(25):
        k, n = int(p // 2), 2 * int(p // 2) + 60
        lam, p = mpmath.mpf(lam), mpmath.mpf(p)
        kappa = [0] + [lam * mpmath.binomial(r, r // 2) / mpmath.mpf(2) ** r if r % 2 == 0 else 0
                       for r in range(1, n + 1)]
        m = [mpmath.mpf(1)]
        for i in range(1, n + 1):
            m.append(mpmath.fsum(mpmath.binomial(i - 1, j) * kappa[j + 1] * m[i - 1 - j]
                                 for j in range(i)))
        near = mpmath.fsum((-1) ** j * m[2 * j] / mpmath.factorial(2 * j) / (2 * j - p)
                           for j in range(k + 1, n // 2 + 1))
        e = mpmath.exp(-lam)
        periods = [1 + j * mpmath.pi for j in range(int((T - 1) / mpmath.pi) + 1)]
        mid = mpmath.quad(lambda t: (mpmath.exp(lam * (mpmath.besselj(0, t) - 1)) - e)
                          * t ** (-p - 1), periods)
        far = (e - 1) / p - mpmath.fsum((-1) ** j * m[2 * j] / mpmath.factorial(2 * j) / (p - 2 * j)
                                        for j in range(1, k + 1))
        C = 2 / mpmath.pi * mpmath.gamma(p + 1) * abs(mpmath.sin(mpmath.pi * p / 2))
        beyond = C * lam * mpmath.exp(lam * (1 / mpmath.sqrt(periods[-1]) - 1)) \
            * periods[-1] ** (-p - 0.5) / (p + 0.5)
        return float(C * (-1) ** (k + 1) * (near + mid + far)), float(beyond)


def _lyapunov_bracket(spec, p):
    """(m_2k^(p / 2k), m_2k^theta m_2k+2^(1 - theta)), theta = (2k + 2 - p) / 2:
    E|T|^p lies between, by Lyapunov's inequality and log-convexity in p."""
    k = int(p // 2)
    lo, hi = (cp.cp_even_moment_cumulant(spec, 2 * j) for j in (k, k + 1))
    theta = (2 * k + 2 - p) / 2.0
    return lo ** (p / (2 * k)), lo**theta * hi ** (1.0 - theta)


@st.composite
def _fourier_cases(draw):
    """(spec, p): every kind, lambda from 1e-8 to 1e4 (to 10 for the atomic laws,
    whose reference is enumeration), p near 2, 4 and 6 and fractional."""
    kind = draw(st.sampled_from(["rademacher", "gaussian", "atoms", "uniform", "cosine"]))
    p = draw(st.one_of(st.sampled_from([2.01, 3.99, 4.01, 5.99, 6.01]), st.floats(2.05, 7.95)))
    assume(not cp._is_even(p))
    if kind == "atoms":
        lam = 10.0 ** draw(st.floats(-8.0, 1.0))
        locs = draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=2, unique=True))
        share = draw(st.floats(0.1, 0.9))
        V = bd.symmetric_atoms(zip(locs, [share, 1.0 - share][: len(locs)] if len(locs) == 2
                                   else [1.0]))
    else:
        lam = 10.0 ** draw(st.floats(-8.0, 4.0))
        V = {"rademacher": bd.rademacher(), "gaussian": bd.gaussian(), "uniform": bd.uniform(
            draw(st.floats(0.05, 20.0))), "cosine": bd.cosine_projection()}[kind]
    return cp.CompoundPoissonSpec(lam, bd.condition_nonzero(V)), p


class TestFourierRoute:
    """von Bahr's integral at non-even p against independent references:
    |value - reference| <= error_bound <= tol |value| at tol 1e-9."""

    # the series route of each kind that has one: Skellam, E|Z|^p E[xi^(p/2)], enumeration
    EXACT = {"rademacher": "exact_walk", "gaussian": "exact_gaussian", "atoms": "atoms_exact"}

    @settings(max_examples=60, deadline=None)
    @given(case=_fourier_cases())
    @example(case=(cp.CompoundPoissonSpec(1e-8, UNIF), 5.99))
    @example(case=(cp.CompoundPoissonSpec(1e4, TEN_ATOMS), 2.01))
    def test_sweep(self, case):
        spec, p = case
        res = cp._abs_moment(spec, p, 1e-9, "fourier")
        assert res.error_bound <= 1e-9 * res.value
        route = self.EXACT.get(spec.jump.base.kind)
        if route == "atoms_exact" and res.diagnostics["K"] > 30:  # past the enumeration's reach
            route = None
        if route is None:
            lo, hi = _lyapunov_bracket(spec, p)
            assert lo * (1.0 - 1e-12) - res.error_bound <= res.value
            assert res.value <= hi * (1.0 + 1e-12) + res.error_bound
            return
        ref = cp._abs_moment(spec, p, 1e-13 * res.value, route)
        assert abs(res.value - ref.value) <= res.error_bound + ref.error_bound

    @pytest.mark.parametrize("lam,p,K", [(0.3, 3.5, 14), (1.8, 5.0, 28)])
    def test_uniform_against_irwin_hall(self, lam, p, K):
        # the series beyond K weighs below 1e-19 of the value
        res = cp.cp_abs_moment(cp.CompoundPoissonSpec(lam, UNIF), p, 1e-9)
        assert res.method == "cp_series/fourier"
        ref = _irwin_hall_cp_moment(lam, p, K)
        assert abs(res.value - ref) <= res.error_bound <= 1e-9 * res.value

    @pytest.mark.parametrize("lam,p,T", [(1.0, 5.0, 200), (0.3, 3.5, 300), (9.0, 7.3, 200)])
    def test_cosine_against_mpmath(self, lam, p, T):
        res = cp.cp_abs_moment(cp.CompoundPoissonSpec(lam, COSINE), p, 1e-9)
        assert res.method == "cp_series/fourier"
        ref, beyond = _cosine_cp_moment(lam, p, T)
        assert abs(res.value - ref) <= res.error_bound + beyond
        assert res.error_bound <= 1e-9 * res.value

    @pytest.mark.parametrize("jump", [UNIF, TEN_ATOMS])
    @pytest.mark.parametrize("lam", [1e-20, 1e-12, 1e-8])
    def test_vanishing_intensity(self, jump, lam):
        # at most three jumps matter: the fourth weighs lambda^4 / 24 < 1e-33
        spec = cp.CompoundPoissonSpec(lam, jump)
        res = cp.cp_abs_moment(spec, 5.5, 1e-9)
        assert res.method == "cp_series/fourier"
        law = jump.base.signed_atoms() if jump.base.is_atomic else None
        per_k = ([bd.abs_moment(jump.base, 5.5), 2.0**6.5 / (6.5 * 7.5)] if law is None else
                 [discrete.enum_powers(law, [k], 5.5, 10**6)[0][k][0] for k in (1, 2)])
        ref = math.exp(-lam) * (lam * per_k[0] + 0.5 * lam**2 * per_k[1])
        assert abs(res.value - ref) <= res.error_bound + 1e-15 * ref <= 1e-9 * ref

    def test_intensity_past_exp_overflow(self):
        # lambda phi_V passes 709, and phi_T is taken as exp(-lambda (1 - phi_V))
        spec = cp.CompoundPoissonSpec(1000.0, UNIF)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = cp.cp_abs_moment(spec, 7.5, 1e-9)
        assert res.method == "cp_series/fourier"
        lo, hi = _lyapunov_bracket(spec, 7.5)
        assert lo < res.value < hi
        assert res.error_bound <= 1e-9 * res.value

    def test_commensurate_magnitudes(self):
        # (0.7, 1.3) at lambda = 100: the Fourier route meets enumeration over the
        # true support, 2,791 points at K = 216, to 1e-12, where the grid erred by
        # 1.4e-8
        spec = cp.CompoundPoissonSpec(100.0, ATOMS)
        res = cp.cp_abs_moment(spec, 5.5, 1e-9)
        assert res.method == "cp_series/fourier"
        enum = cp._abs_moment(spec, 5.5, 1e-9, "atoms_exact")
        assert abs(res.value - enum.value) <= 1e-12 * enum.value
        even = cp.cp_abs_moment(spec, 6.0, 1e-9)
        assert even.method == "cp_series/cumulant"
        assert even.value == cp.cp_even_moment_cumulant(spec, 6)

    def test_mixture_sup_in_budget(self):
        # lambda ~ 4072 in well under a tenth of a second, where the grid took 1.4 s
        ct.mixture_sup(5.0, bd.uniform(1.0), 3.0, 1.0, 1e-6)  # warm the imports
        start = time.perf_counter()
        res = ct.mixture_sup(5.0, bd.uniform(1.0), 10.0, 1.0, 1e-6)
        assert time.perf_counter() - start <= 0.05
        assert res.error_bound <= 1e-6 * res.value


def _numbers(x):
    """Every leaf of a nested record."""
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        return [leaf for item in x for leaf in _numbers(item)]
    return [x]


class TestPythonFloats:
    """Reprs and CLI JSON show plain numbers: no numpy scalar leaves the kernel."""

    @pytest.mark.parametrize("jump", [UNIF, RAD])
    def test_cp_abs_moment(self, jump):
        res = cp.cp_abs_moment(cp.CompoundPoissonSpec(1.8, jump), 5.0, 1e-6)
        leaves = _numbers([res.value, res.error_bound, res.diagnostics])
        assert type(res.value) is float and type(res.error_bound) is float
        assert all(type(x) in (float, int, str) for x in leaves)

    def test_spectral_moment(self):
        # numpy scalars in, Python floats out
        half = np.float64(1.0)
        law = bd.uniform(1.0)
        res = gridconv.grid_moment([gridconv.Summand(law.cdf, half, count=3)],
                                   gridconv.edge_steps(half, 512), 5.0, 1e-6)
        assert all(type(x) is float for x in res)

    @pytest.mark.parametrize("V", [bd.uniform(1.0), bd.rademacher()])
    def test_search_record(self, V):
        rec = vf.search_sup_U(5.0, V, 1.0, 1.0, n_max=3, trials=4, seed=2).to_record()
        assert all(type(rec[key]) is float for key in ("best_value", "best_error_bound",
                                                      "theorem_value", "theorem_error_bound"))
        assert all(type(x) in (float, int, str) for x in _numbers(rec))


class TestCumulantOracle:
    def test_rademacher_values(self):
        assert cp.cp_even_moment_cumulant(cp.CompoundPoissonSpec(1.0, RAD), 4) == 4.0
        assert cp.cp_even_moment_cumulant(cp.CompoundPoissonSpec(2.0, RAD), 4) == 14.0

    def test_uniform_value(self):
        got = cp.cp_even_moment_cumulant(cp.CompoundPoissonSpec(1.8, UNIF), 4)
        assert got == pytest.approx(1.44, rel=1e-14)

    def test_sixth_moment_formula(self):
        # kappa_r = lam m_r; for the sign walk at lam=1: 1 + 15 + 15 = 31
        got = cp.cp_even_moment_cumulant(cp.CompoundPoissonSpec(1.0, RAD), 6)
        assert got == pytest.approx(31.0, rel=1e-14)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedMethodError):
            cp.cp_even_moment_cumulant(cp.CompoundPoissonSpec(1.0, RAD), 5)

    @pytest.mark.parametrize("lam", [0.3, 2.0, 40.0, 5000.0])
    def test_second_moment(self, lam):
        for jump in (RAD, UNIF, TEN_ATOMS):
            spec = cp.CompoundPoissonSpec(lam, jump)
            assert cp.cp_even_moment_cumulant(spec, 2) == pytest.approx(
                lam * jump.abs_moment(2.0), rel=4e-16)

    @pytest.mark.parametrize("p", range(4, 18, 2))
    @pytest.mark.parametrize("lam", [0.3, 2.0, 40.0, 5000.0])
    def test_against_skellam(self, lam, p):
        spec = cp.CompoundPoissonSpec(lam, RAD)
        res = cp.cp_abs_moment(spec, float(p), 1e-9)
        assert res.method == "cp_series/cumulant"
        assert res.value == cp.cp_even_moment_cumulant(spec, p)
        walk = cp._abs_moment(spec, float(p), 1e-15 * res.value, "exact_walk")
        assert abs(res.value - walk.value) <= res.error_bound + walk.error_bound

    @pytest.mark.parametrize("p", range(2, 18, 2))
    @pytest.mark.parametrize("lam", [0.3, 2.0])
    def test_against_brute_force_walks(self, lam, p):
        # E S_k^p exactly, in fractions: the binomial walk for random signs, and
        # for uniform(1) jumps the moments of S_k = S_(k-1) + V expanded
        # binomially, E V^(2i) = 1 / (2i + 1); the Poisson mixture over k <= 60
        # in 40-digit mpmath leaves a tail below 1e-40
        walk = [Fraction(sum(math.comb(k, i) * (2 * i - k) ** p for i in range(k + 1)), 2**k)
                for k in range(61)]
        unif_v = [Fraction(1, n + 1) if n % 2 == 0 else Fraction(0) for n in range(p + 1)]
        sums = [[Fraction(int(n == 0)) for n in range(p + 1)]]
        for _ in range(60):
            prev = sums[-1]
            sums.append([sum(math.comb(n, j) * prev[j] * unif_v[n - j] for j in range(n + 1))
                         for n in range(p + 1)])
        for jump, per_k in ((RAD, walk), (UNIF, [m[p] for m in sums])):
            with mpmath.workdps(40):
                want = mpmath.fsum(mpmath.exp(-lam) * mpmath.mpf(lam) ** k / mpmath.factorial(k)
                                   * mpmath.mpf(per_k[k].numerator) / per_k[k].denominator
                                   for k in range(1, 61))
            got = cp.cp_even_moment_cumulant(cp.CompoundPoissonSpec(lam, jump), p)
            assert abs(got - float(want)) <= (p + 6) * p * sys.float_info.epsilon * got


class TestPoissonPowerMoment:
    @pytest.mark.parametrize("p,want", [(1.0, 1.0), (2.0, 2.0), (3.0, 5.0), (4.0, 15.0)])
    def test_touchard_values_at_unit_intensity(self, p, want):
        res = cp.poisson_power_moment(1.0, p, tol=1e-11)
        assert res.value == pytest.approx(want, abs=1e-10)

    def test_non_integer_power_brute_force(self):
        lam, p = 1.7, 2.6
        brute = sum(
            math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) * k**p
            for k in range(1, 200)
        )
        res = cp.poisson_power_moment(lam, p, tol=1e-12)
        assert abs(res.value - brute) <= res.error_bound + 1e-12

    def test_zero_intensity(self):
        assert cp.poisson_power_moment(0.0, 3.0).value == 0.0

import itertools
import math
import sys
import time

import mpmath
import numpy as np
import pytest

from roskit import basedist as bd
from roskit import constants as ct
from roskit import cpoisson, fourier, specfun, verify
from roskit.errors import DomainError, FeasibilityError, InputError

EZ3 = specfun.gaussian_abs_moment(3.0)
THREE_ATOMS = bd.symmetric_atoms([(0.0, 0.3), (1.0, 0.4), (2.5, 0.3)])
TEN_ATOMS = bd.symmetric_atoms([(0.3 * i + 0.1, 0.1) for i in range(10)])


def _mp_enum_moment(laws, p):
    """E|sum of independent laws|^p over every atom tuple, in 40-digit mpmath;
    laws are lists of (location, mass) with mpmath or float entries."""
    with mpmath.workdps(40):
        return float(mpmath.fsum(
            mpmath.fprod(mpmath.mpf(m) for _, m in combo)
            * abs(mpmath.fsum(mpmath.mpf(x) for x, _ in combo)) ** p
            for combo in itertools.product(*laws)))


class TestRosenthalConstant:
    def test_p4_is_sqrt2(self):
        res = ct.rosenthal_constant_symmetric(4.0)
        assert abs(res.value - math.sqrt(2.0)) <= max(res.error_bound, 1e-9)
        # both branches present and agreeing
        assert res.diagnostics["lower_branch_value"] == pytest.approx(4.0, rel=1e-12)
        assert res.diagnostics["sup_value"] == pytest.approx(4.0, rel=1e-9)

    def test_p3(self):
        res = ct.rosenthal_constant_symmetric(3.0)
        assert res.value == pytest.approx((1.0 + EZ3) ** (1.0 / 3.0), rel=1e-12)

    def test_limit_at_two(self):
        res = ct.rosenthal_constant_symmetric(2.0 + 1e-9)
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            ct.rosenthal_constant_symmetric(2.0)


class TestMixtureSup:
    def test_p3_rademacher(self):
        res = ct.mixture_sup(3.0, bd.rademacher(), 1.0, 1.0)
        assert res.value == pytest.approx(1.0 + EZ3, rel=1e-13)

    def test_p4_uniform_both_branches(self):
        res = ct.mixture_sup(4.0, bd.uniform(1.0), 1.0, 1.0)
        assert res.diagnostics["lambda"] == pytest.approx(1.8, rel=1e-12)
        assert res.diagnostics["prefactor"] == pytest.approx(25.0 / 9.0, rel=1e-12)
        assert res.value == pytest.approx(4.0, rel=1e-6)
        # independent cumulant route is exact
        assert res.diagnostics["cp_cumulant_value"] == pytest.approx(4.0, rel=1e-12)

    def test_p4_rademacher(self):
        res = ct.mixture_sup(4.0, bd.rademacher(), 1.0, 1.0)
        assert res.value == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize("V", [bd.rademacher(), bd.uniform(1.0), bd.gaussian()])
    def test_scale_covariance(self, V):
        # multiplying both budgets by t multiplies the supremum by t^p
        for p in (3.0, 5.0):
            base = ct.mixture_sup(p, V, 1.0, 1.0).value
            scaled = ct.mixture_sup(p, V, 2.0, 2.0).value
            assert scaled == pytest.approx(2.0**p * base, rel=1e-12)

    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0])
    def test_monotone_in_budgets(self, p):
        vals_A = [ct.mixture_sup(p, bd.rademacher(), A, 1.0).value for A in (0.5, 1.0, 1.5)]
        vals_B = [ct.mixture_sup(p, bd.rademacher(), 1.0, B).value for B in (0.5, 1.0, 1.5)]
        assert vals_A == sorted(vals_A)
        assert vals_B == sorted(vals_B)

    def test_branch_continuity_near_four(self):
        for V in (bd.rademacher(), bd.uniform(1.0), bd.gaussian()):
            below = ct.mixture_sup(4.0 - 1e-9, V, 1.0, 1.0).value
            at = ct.mixture_sup(4.0, V, 1.0, 1.0)
            assert abs(at.value - below) / at.value <= max(1e-6, at.error_bound)

    def test_zero_atom_law(self):
        # a law with mass at zero: conditioning and the intensity factor
        V = bd.symmetric_atoms([(0.0, 0.5), (1.0, 0.5)])
        res = ct.mixture_sup(5.0, V, 1.0, 1.0)
        # ||V||_r = (1/2)^(1/r) for every r; the conditioned law is a random sign
        ref = ct.mixture_sup(5.0, bd.rademacher(), 1.0, 1.0)
        lam_v = res.diagnostics["lambda"]
        lam_r = ref.diagnostics["lambda"]
        # lambda = (||V||_5/||V||_2)^(10/3) * (1 - P(V=0))
        want = (0.5 ** (1.0 / 5.0) / 0.5**0.5) ** (10.0 / 3.0) * 0.5
        assert lam_v == pytest.approx(want, rel=1e-12)
        assert lam_r == pytest.approx(1.0, rel=1e-12)


class TestSubnormalIntensity:
    """Budgets whose intensity lambda is below the smallest normal float."""

    @staticmethod
    def _budget_A(p, V, lam, B=1.0):
        # A with lambda(A, B) = lam, from lambda = (A c / B)^(2p/(p-2)) (1 - P(V=0))
        c = bd.abs_moment(V, p) ** (1.0 / p) / math.sqrt(bd.abs_moment(V, 2.0))
        return B / c * (lam / (1.0 - V.zero_mass)) ** ((p - 2.0) / (2.0 * p))

    @pytest.mark.parametrize("lam", [sys.float_info.min, 1e-307, 1e-100])
    @pytest.mark.parametrize("p", [4.0, 5.0, 6.0])
    def test_normal_intensity_keeps_compound_poisson(self, p, lam):
        V = bd.uniform(1.0)
        A = self._budget_A(p, V, lam, 1e-10) * (1.0 + 1e-12)
        res = ct.mixture_sup(p, V, A, 1e-10, 1e-6)
        got = res.diagnostics["lambda"]
        assert got >= sys.float_info.min
        cp = cpoisson.cp_abs_moment(
            cpoisson.CompoundPoissonSpec(got, bd.condition_nonzero(V)), p, 1e-6)
        assert res.method == f"mixture_sup/{cp.method}"
        assert res.value == res.diagnostics["prefactor"] * cp.value

    def test_one_jump_limit_builds_no_spec(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a CompoundPoissonSpec was built")

        monkeypatch.setattr(cpoisson, "CompoundPoissonSpec", refuse)
        for p in (4.0, 6.0, 8.0):  # the p of the cumulant cross-check
            V = bd.uniform(1.0)
            res = ct.mixture_sup(p, V, self._budget_A(p, V, 1e-315, 1e-10), 1e-10, 1e-9)
            assert res.method == "mixture_sup/one_jump_limit"
            assert res.value == pytest.approx(1e-10**p, rel=1e-14)


class TestMixtureConstant:
    @pytest.mark.parametrize(
        "V",
        [
            bd.rademacher(),
            bd.uniform(1.0),
            bd.gaussian(),
            bd.cosine_projection(),
            bd.symmetric_atoms([(0.5, 0.5), (1.5, 0.5)]),
        ],
    )
    def test_below_four_independent_of_base_law(self, V):
        res = ct.mixture_constant(3.0, V)
        assert res.value == pytest.approx((1.0 + EZ3) ** (1.0 / 3.0), rel=1e-12)

    def test_uniform_p4_is_sqrt2(self):
        res = ct.mixture_constant(4.0, bd.uniform(1.0))
        assert abs(res.value - math.sqrt(2.0)) <= max(res.error_bound, 1e-6)

    def test_rademacher_p4_is_sqrt2(self):
        res = ct.mixture_constant(4.0, bd.rademacher())
        assert abs(res.value - math.sqrt(2.0)) <= max(res.error_bound, 1e-8)


class TestPositiveSums:
    def test_p2(self):
        res = ct.positive_sum_sup(2.0, 1.0, 1.0, tol=1e-13)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_p3_touchard(self):
        # E xi^3 = lam + 3 lam^2 + lam^3 = 5 at lam = 1
        res = ct.positive_sum_sup(3.0, 1.0, 1.0)
        assert res.value == pytest.approx(5.0, abs=1e-9)

    def test_p15_closed_form(self):
        res = ct.positive_sum_sup(1.5, 1.0, 1.0)
        assert res.value == pytest.approx(2.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            ct.positive_sum_sup(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("p,want", [(2.0, 2.0), (3.0, 5.0)])
    def test_gaussian_bridge_identity(self, p, want):
        # nonnegative-sum suprema through the Gaussian-mixture supremum at 2p
        m2p = specfun.gaussian_abs_moment(2.0 * p)
        bridge = ct.mixture_sup(
            2.0 * p, bd.gaussian(), 1.0, (1.0 * m2p) ** (1.0 / (2.0 * p))
        )
        direct = ct.positive_sum_sup(p, 1.0, 1.0)
        assert bridge.value / m2p == pytest.approx(direct.value, rel=1e-6)
        assert direct.value == pytest.approx(want, rel=1e-6)


class TestComplexConstant:
    def test_p4_lower_branch_value(self):
        # (1 + (8/3) (1/4) 3)^(1/4) = 3^(1/4)
        res = ct.complex_constant(4.0, tol=1e-8)
        assert res.diagnostics["lower_branch_value"] == pytest.approx(
            3.0**0.25, rel=1e-12
        )
        assert res.value == pytest.approx(3.0**0.25, abs=1e-4)

    def test_p3(self):
        beta3 = specfun.steinhaus_beta(3.0)
        assert beta3 == pytest.approx(3.0 * math.pi / 4.0, rel=1e-12)
        res = ct.complex_constant(3.0)
        want = (1.0 + beta3 * 2.0 ** (-1.5) * EZ3) ** (1.0 / 3.0)
        assert res.value == pytest.approx(want, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            ct.complex_constant(2.0)


class TestUtevThreePoint:
    def test_n1_tight_budgets(self):
        res, ext = ct.utev_3point_sup(4.0, ct.MomentBudget.per_pair(4.0, [1.0], [1.0]))
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert ext == [(1.0, pytest.approx(1.0))]

    def test_n1_spread(self):
        b = 2.0**0.25
        res, ext = ct.utev_3point_sup(4.0, ct.MomentBudget.per_pair(4.0, [1.0], [b]))
        assert res.value == pytest.approx(2.0, rel=1e-10)
        c, mu = ext[0]
        assert c == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert mu == pytest.approx(0.5, rel=1e-12)

    def test_n2_spread(self):
        b = 2.0**0.25
        res, _ = ct.utev_3point_sup(
            4.0, ct.MomentBudget.per_pair(4.0, [1.0, 1.0], [b, b])
        )
        assert res.value == pytest.approx(10.0, rel=1e-10)

    def test_enumeration_cap(self):
        # thirteen summands, one past MAX_ENUM_SUMMANDS, take the Fourier route; at
        # p = 4, E S^4 = sum_j m4_j + 3 sum_(i != j) m2_i m2_j, and the extremisers
        # meet both budgets, m2_j = a_j^2 = 1 and m4_j = b_j^4 = 1.1^4
        budget = ct.MomentBudget.per_pair(4.0, [1.0] * 13, [1.1] * 13)
        res, ext = ct.utev_3point_sup(4.0, budget)
        assert len(ext) == ct.MAX_ENUM_SUMMANDS + 1
        assert res.method == "fourier"
        assert res.error_bound <= 1e-9 * res.value
        assert abs(res.value - (13 * 1.1**4 + 3 * 13 * 12)) <= res.error_bound + 1e-13 * res.value

    def test_never_exceeds_global_budget_value(self):
        # per-summand split of a global budget cannot beat the global supremum
        p = 5.0
        A = B = 1.0
        global_value = ct.mixture_sup(p, bd.rademacher(), A, B).value
        for n in range(1, 13):
            a = [A / math.sqrt(n)] * n
            b = [B / n ** (1.0 / p)] * n
            res, _ = ct.utev_3point_sup(p, ct.MomentBudget.per_pair(p, a, b))
            assert res.value <= global_value * (1.0 + 1e-9)

    def test_scale_covariance(self):
        p = 4.5
        budget = ct.MomentBudget.per_pair(p, [0.8, 1.0], [1.1, 1.4])
        scaled = ct.MomentBudget.per_pair(p, [1.6, 2.0], [2.2, 2.8])
        v1, _ = ct.utev_3point_sup(p, budget)
        v2, _ = ct.utev_3point_sup(p, scaled)
        assert v2.value == pytest.approx(2.0**p * v1.value, rel=1e-12)

    def test_infeasible_budget_pair(self):
        with pytest.raises(FeasibilityError):
            ct.MomentBudget.per_pair(4.0, [1.2], [1.0])

    def test_exact_enum_against_mpmath(self):
        # rounding each sum to 12 digits drifts 1.0e-10 from the mpmath value here
        res, ext = ct.utev_3point_sup(5.0, ct.MomentBudget.per_pair(5.0, [1.0, 0.7], [1.3, 1.1]))
        laws = [[(-c, mu / 2.0), (0.0, 1.0 - mu), (c, mu / 2.0)] for c, mu in ext]
        assert abs(res.value - _mp_enum_moment(laws, 5.0)) <= res.error_bound


FOUR_ATOMS = bd.symmetric_atoms([(0.0, 0.1), (0.5, 0.3), (1.0, 0.4), (2.0, 0.2)])


def _even_sum_moments(V, scales, activations):
    """E S^4 and E S^6 of S = sum_j c_j theta_j V_j, from each summand's
    m_2r = mu c^(2r) E V^(2r): E S^4 = sum m4 + 3 sum_(i != j) m2_i m2_j, and
    E S^6 = sum m6 + 15 sum_(i != j) m4_i m2_j + 90 sum_(i < j < k) m2_i m2_j m2_k."""
    m2, m4, m6 = (np.array([mu * c**r * bd.abs_moment(V, r) for c, mu in zip(scales, activations)])
                  for r in (2.0, 4.0, 6.0))
    s1, s2, s3 = m2.sum(), (m2**2).sum(), (m2**3).sum()
    fourth = m4.sum() + 3.0 * (s1**2 - s2)
    sixth = (m6.sum() + 15.0 * (m4.sum() * s1 - (m4 * m2).sum())
             + 15.0 * (s1**3 - 3.0 * s1 * s2 + 2.0 * s3))
    return fourth, sixth


def _grid_reference(p, V, res, tol):
    """The spectral grid reference on 8,192 cells for the extremisers of res."""
    return ct._thinned_grid_result(p, V, res.diagnostics["scales"],
                                   res.diagnostics["activations"], tol, 8192)


class TestMixtureIndividual:
    def test_atomic_past_the_cap_p4_closed_form(self):
        # thirty four-atom summands with unequal budgets, past MAX_ENUM_SUMMANDS: at
        # p = 4 the extremisers meet both budgets, so E S^4 = sum b^4 + 3 sum_(i != j) a_i^2 a_j^2
        a = [0.5 + 0.02 * j for j in range(30)]
        b = [1.6 * x * (1.0 + 0.01 * j) for j, x in enumerate(a)]
        res = ct.mixture_individual_sup(4.0, FOUR_ATOMS, ct.MomentBudget.per_pair(4.0, a, b))
        assert res.method == "fourier" and res.error_bound <= 1e-9 * res.value
        a2 = np.array(a) ** 2
        want = math.fsum(x**4 for x in b) + 3.0 * (a2.sum() ** 2 - (a2**2).sum())
        assert abs(res.value - want) <= res.error_bound + 1e-13 * want
        fourth, _ = _even_sum_moments(FOUR_ATOMS, res.diagnostics["scales"],
                                      res.diagnostics["activations"])
        assert fourth == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("V,n", [(bd.rademacher(), 20), (FOUR_ATOMS, 30)])
    def test_atomic_past_the_cap_p5_bracket(self, V, n):
        # log-convexity of E|S|^p in p: (E S^4)^(5/4) <= E|S|^5 <= (E S^4 E S^6)^(1/2)
        a = [1.0 / (1.0 + 0.1 * j) for j in range(n)]
        ratio = 1.1 * (bd.abs_moment(V, 5.0) ** 0.2 / bd.abs_moment(V, 2.0) ** 0.5)
        budget = ct.MomentBudget.per_pair(5.0, a, [ratio * x for x in a])
        res = ct.mixture_individual_sup(5.0, V, budget, tol=1e-6)
        assert res.method == "fourier" and res.error_bound <= 1e-6 * res.value
        fourth, sixth = _even_sum_moments(V, res.diagnostics["scales"],
                                          res.diagnostics["activations"])
        assert fourth**1.25 <= res.value + res.error_bound
        assert res.value - res.error_bound <= math.sqrt(fourth * sixth)

    def test_atomic_grid_mode_agrees_with_enumeration(self):
        # the grid takes an atomic law as its thinned atoms, without a CDF
        budget = ct.MomentBudget.per_pair(5.0, [1.0, 0.7, 0.4], [1.6, 1.4, 0.9])
        exact = ct.mixture_individual_sup(5.0, THREE_ATOMS, budget)
        grid = _grid_reference(5.0, THREE_ATOMS, exact, 1e-6)
        assert exact.method == "exact_enum" and grid.method == "grid"
        assert abs(grid.value - exact.value) <= grid.error_bound + exact.error_bound
        assert grid.error_bound <= 1e-3 * grid.value

    def test_rademacher_reduces_to_three_point(self):
        budget = ct.MomentBudget.per_pair(4.0, [1.0, 0.9], [1.2, 1.1])
        lhs = ct.mixture_individual_sup(4.0, bd.rademacher(), budget)
        rhs, _ = ct.utev_3point_sup(4.0, budget)
        assert (lhs.value, lhs.error_bound) == (rhs.value, rhs.error_bound)

    @pytest.mark.parametrize("V", [bd.rademacher(), THREE_ATOMS, TEN_ATOMS])
    def test_exact_enum_against_mpmath(self, V):
        # thinned copies c theta V, each atom at the exact product c x
        budget = ct.MomentBudget.per_pair(5.0, [1.0, 0.7], [1.6, 1.4])
        res = ct.mixture_individual_sup(5.0, V, budget)
        assert res.method == "exact_enum"
        laws = []
        with mpmath.workdps(40):
            for c, mu in zip(res.diagnostics["scales"], res.diagnostics["activations"]):
                law = [(mpmath.mpf(c) * x, mu * m) for x, m in V.signed_atoms().items() if x]
                laws.append(law + [(0.0, 1.0 - mpmath.fsum(m for _, m in law))])
        assert abs(res.value - _mp_enum_moment(laws, 5.0)) <= res.error_bound

    def test_gaussian_attains_own_moments(self):
        p = 5.0
        b = specfun.gaussian_abs_moment(p) ** (1.0 / p)
        budget = ct.MomentBudget.per_pair(p, [1.0], [b])
        res = ct.mixture_individual_sup(p, bd.gaussian(), budget)
        assert res.diagnostics["activations"][0] == pytest.approx(1.0, rel=1e-12)
        assert abs(res.value - specfun.gaussian_abs_moment(p)) <= max(
            res.error_bound, 1e-6 * res.value
        )

    def test_gaussian_n2_auto_vs_grid(self):
        p = 4.5
        b = 1.05 * specfun.gaussian_abs_moment(p) ** (1.0 / p)
        budget = ct.MomentBudget.per_pair(p, [1.0, 1.0], [b, b])
        auto = ct.mixture_individual_sup(p, bd.gaussian(), budget)
        grid = _grid_reference(p, bd.gaussian(), auto, 1e-9)
        assert auto.method == "fourier" and grid.method == "grid"
        assert abs(auto.value - grid.value) <= auto.error_bound + grid.error_bound

    def test_thirty_rare_summands_bounded(self):
        # activations near 4e-17 put each rare summand's active cells below
        # the FFT noise floor, so each is conditioned on: one grid sum with
        # none active and one per distinct scale with exactly one active
        p, k = 5.0, 30
        budget = ct.MomentBudget.per_pair(p, [1e-5] * k + [1.0], [1.0] * k + [1.5])
        t0 = time.perf_counter()
        res = ct.mixture_individual_sup(p, bd.uniform(1.0), budget)
        assert time.perf_counter() - t0 < 5.0
        (c, *_, cb), (mu, *_, mub) = res.diagnostics["scales"], res.diagnostics["activations"]
        # E|B + c V|^5 = ((c + B)^6 + (c - B)^6) / (12 c) for |B| <= c, B = cb theta U
        even = math.fsum(math.comb(6, j) * c ** (6 - j) * cb**j / (j + 1) for j in (0, 2, 4, 6))
        one_on = (1.0 - mub) * c**5 / 6.0 + mub * even / (6.0 * c)
        want = (1.0 - mu) ** k * 1.5**p + k * mu * (1.0 - mu) ** (k - 1) * one_on
        assert abs(res.value - want) <= res.error_bound

    def test_thirty_equal_thinned_summands_one_fourier_sum(self):
        # activations near 4e-7: thirty equal summands enter the Fourier
        # route's product once, as phi^30, and the grid agrees within both bounds
        budget = ct.MomentBudget.per_pair(5.0, [0.01] * 30, [1.0] * 30)
        t0 = time.perf_counter()
        res = ct.mixture_individual_sup(5.0, bd.uniform(1.0), budget)
        assert time.perf_counter() - t0 < 5.0
        assert res.method == "fourier"
        assert res.error_bound <= 1e-9 * res.value
        grid = _grid_reference(5.0, bd.uniform(1.0), res, 1e-9)
        assert abs(res.value - grid.value) <= res.error_bound + grid.error_bound

    def test_grid_bound_covers_rare_summand(self):
        # trial 2 of search_sup_U(3.0, uniform(1), 0.7, 1.0, n_max=6, trials=30,
        # seed=6): the summand of activation 2e-13 at scale 19,653 adds 0.378 to
        # E|S|^3, and the grid's conditioning on it keeps the bound below 1e-6
        V = bd.uniform(1.0)
        _, scales, activations = list(verify._candidates(3.0, V, 0.7, 1.0, 6, 30, 6))[2]
        assert activations[3] < 1e-12 and scales[3] > 1e4
        grid = ct._thinned_grid_result(3.0, V, scales, activations, 1e-9, 8192)
        assert grid.error_bound < 1e-6

    @pytest.mark.parametrize("a", [0.03, 0.01])
    def test_wide_rare_gaussians(self, a):
        # thirty Gaussians at scale 5.6 and activation 2.9e-5 (a = 0.03) or 3.2e-6
        # (a = 0.01) beside one of activation 0.89: with no cap on the Gaussian's
        # Taylor series the unit t0 grew with the scale, and the series cancelled
        # to -9.1e92 (a = 0.03) or ran out of coefficients (a = 0.01)
        budget = ct.MomentBudget.per_pair(5.0, [a] * 30 + [1.0], [1.0] * 30 + [1.5])
        res = ct.mixture_individual_sup(5.0, bd.gaussian(), budget, tol=1e-6)
        assert res.method == "fourier" and res.error_bound <= 1e-6 * res.value
        fourth, sixth = _even_sum_moments(bd.gaussian(), res.diagnostics["scales"],
                                          res.diagnostics["activations"])
        assert fourth**1.25 <= res.value + res.error_bound
        assert res.value - res.error_bound <= math.sqrt(fourth * sixth)

    def test_rarer_gaussians_against_grid(self):
        budget = ct.MomentBudget.per_pair(5.0, [1e-5] * 30 + [1.0], [1.0] * 30 + [1.5])
        res = ct.mixture_individual_sup(5.0, bd.gaussian(), budget, tol=1e-6)
        grid = _grid_reference(5.0, bd.gaussian(), res, 1e-6)
        assert res.method == "fourier" and grid.method == "grid"
        assert abs(res.value - grid.value) <= res.error_bound + grid.error_bound

    def test_wide_rare_gaussians_at_large_p(self):
        # a Taylor cap linear in p, 2 max(1, p / 4), gave 5.7e27 +- 1.4e36 here;
        # log-convexity brackets E|S|^12.5 by the exact even moments of the
        # Fourier route, (E S^12)^(25/24) <= E|S|^12.5 <= (E S^12)^(3/4) (E S^14)^(1/4)
        p = 12.5
        z = specfun.gaussian_abs_moment(p) ** (1.0 / p)
        budget = ct.MomentBudget.per_pair(p, [1e-3] * 30 + [1.0], [z] * 30 + [1.5 * z])
        res = ct.mixture_individual_sup(p, bd.gaussian(), budget, tol=1e-6)
        assert res.method == "fourier" and res.error_bound <= 1e-6 * res.value
        (c, *_, cb), (mu, *_, mub) = res.diagnostics["scales"], res.diagnostics["activations"]
        terms = [fourier.Term(bd.gaussian(), c, mu, 30), fourier.Term(bd.gaussian(), cb, mub)]
        even = [fourier.sum_abs_moment(fourier.plan_sum(q, terms)).value for q in (12.0, 14.0)]
        assert even[0] ** (p / 12.0) <= res.value + res.error_bound
        assert res.value - res.error_bound <= even[0] ** 0.75 * even[1] ** 0.25

    def test_infeasible_ratio(self):
        # b/a below the base law's p-to-2 norm ratio forces activation > 1
        p = 5.0
        budget = ct.MomentBudget.per_pair(p, [1.0], [1.05])
        with pytest.raises(FeasibilityError):
            ct.mixture_individual_sup(p, bd.gaussian(), budget)


class TestWitnessConstruction:
    def test_budget_bookkeeping_exact(self):
        spec, _ = ct.witness_construction(
            3.0, bd.rademacher(), 1.0, 1.0, 1000, 0.9, estimate_moment=False
        )
        assert spec.l2_budget_used == pytest.approx(1.0, abs=1e-12)
        assert spec.lp_budget_used == pytest.approx(1.0, abs=1e-12)

    def test_lambda_solves_the_two_equations(self):
        n, alpha = 10_000, 0.98
        spec, _ = ct.witness_construction(
            3.0, bd.rademacher(), 1.0, 1.0, n, alpha, estimate_moment=False
        )
        c2 = 1.0 - alpha**2
        cp_slack = 1.0 - alpha**3 * n**-0.5
        assert spec.lam == pytest.approx(c2**3 * cp_slack**-2, rel=1e-12)

    def test_deterministic_moment(self):
        # criterion 06's witness: random signs, p = 3, n = 10^4, alpha = 0.98; each
        # active count of the spike block is an exact lattice sum
        spec, est = ct.witness_construction(3.0, bd.rademacher(), 1.0, 1.0, 10_000, 0.98)
        assert est.method == "sum_fourier/two_block"
        assert est.error_bound <= 1e-9 * est.value
        assert est.value - est.error_bound >= 0.95 * (1.0 + EZ3)
        _, again = ct.witness_construction(3.0, bd.rademacher(), 1.0, 1.0, 10_000, 0.98)
        assert again.value == est.value
        # the same counts on the Fourier route
        walk = fourier.Term(bd.rademacher(), 0.98 / 100.0, 1.0, 10_000)
        spikes = fourier.Term(bd.rademacher(), spec.gamma, spec.lam / 10_000, 10_000)
        plan = fourier.condition(3.0, [walk, spikes], [1], 1e-9, 1e-10)
        res = fourier.conditioned_abs_moment(plan)
        assert abs(res.value - est.value) <= res.error_bound + est.error_bound

    @pytest.mark.parametrize("p", [2.5, 3.0, 3.7])
    @pytest.mark.parametrize("n", [3, 40])
    def test_gaussian_witness_against_the_exact_mixture(self, p, n):
        # Gaussian summands: given j active spikes the sum is N(0, alpha^2 + gamma^2 j)
        spec, est = ct.witness_construction(p, bd.gaussian(), 1.0, 1.0, n, 0.9)
        with mpmath.workdps(40):
            mu = mpmath.mpf(spec.lam) / n
            want = mpmath.fsum(mpmath.binomial(n, j) * mu**j * (1 - mu) ** (n - j)
                               * (mpmath.mpf(0.9) ** 2 + mpmath.mpf(spec.gamma) ** 2 * j) ** (p / 2)
                               for j in range(n + 1)) * mpmath.mpf(specfun.gaussian_abs_moment(p))
        assert abs(est.value - float(want)) <= est.error_bound
        assert est.error_bound <= 1e-8 * est.value

    @pytest.mark.parametrize("n", [2, 30])
    def test_random_sign_witness_against_the_lattice(self, n):
        spec, est = ct.witness_construction(2.5, bd.rademacher(), 1.0, 1.0, n, 0.9)
        walk = [(mpmath.mpf(0.9) / mpmath.sqrt(n) * (2 * i - n), mpmath.binomial(n, i) / 2**n)
                for i in range(n + 1)]
        with mpmath.workdps(40):
            mu = mpmath.mpf(spec.lam) / n
            want = mpmath.fsum(
                mpmath.binomial(n, j) * mu**j * (1 - mu) ** (n - j) * mpmath.binomial(j, l) / 2**j
                * mpmath.fsum(w * abs(x + mpmath.mpf(spec.gamma) * (2 * l - j)) ** 2.5
                              for x, w in walk)
                for j in range(n + 1) for l in range(j + 1))
        assert abs(est.value - float(want)) <= est.error_bound

    @pytest.mark.parametrize("V", [bd.uniform(1.0), bd.cosine_projection()])
    def test_continuous_laws_have_a_witness(self, V):
        spec, est = ct.witness_construction(3.0, V, 1.0, 1.0, 1000, 0.9 / math.sqrt(
            bd.abs_moment(V, 2.0)))
        assert est.error_bound <= 1e-8 * est.value
        assert est.value >= 1.0  # E|S|^p >= the summands' p-th moments, B^p

    def test_block_size_cap(self):
        # the moment takes arrays of n + 1 counts: n is capped, not sampled past memory
        with pytest.raises(DomainError, match="MAX_WITNESS_SUMMANDS = 1000000"):
            ct.witness_construction(3.0, bd.gaussian(), 1.0, 1.0, ct.MAX_WITNESS_SUMMANDS + 1, 0.9)

    def test_atomic_witness_past_the_panel_budget(self):
        # at p = 2.5 a generic atomic walk keeps |phi| at 1 past MAX_SUM_PANELS panels
        with pytest.raises(InputError, match="MAX_SUM_PANELS = 8192"):
            ct.witness_construction(2.5, THREE_ATOMS, 1.0, 1.0, 1000, 0.5)

    def test_infeasible_inputs(self):
        with pytest.raises(FeasibilityError, match="alpha"):
            ct.witness_construction(3.0, bd.rademacher(), 1.0, 1.0, 100, 1.5)
        with pytest.raises(FeasibilityError, match="positivity"):
            # small B starves the p-norm slack at this alpha and n
            ct.witness_construction(3.0, bd.rademacher(), 1.0, 0.5, 1, 0.9)
        with pytest.raises(DomainError):
            ct.witness_construction(4.5, bd.rademacher(), 1.0, 1.0, 100, 0.5)

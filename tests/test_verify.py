import math
import time

import numpy as np
import pytest
from scipy import special

from roskit import basedist as bd
from roskit import constants as ct
from roskit import fourier, gridconv
from roskit import logconcave as lc
from roskit import specfun
from roskit import verify as vf
from roskit.errors import DomainError, GridTooSmallError, InputError, InvalidComparisonError

GAUSS = vf.GaussianSource()
RAD_LAW = bd.rademacher().signed_atoms()


class TestGridDensity:
    """A law's cells on the grid: nfold_moment's summands, from its own cdf and atoms()."""

    def test_builder_roundtrip(self):
        # cells centred half a step off for an even count, on multiples of it for an odd one
        (s,) = vf._summands([GAUSS], 4096)
        assert s.offset == 0.5 and vf._summands([GAUSS], 4097)[0].offset == 0.0
        assert s.masses(2.0 * GAUSS.support_halfwidth() / 4096, 8192).sum() == pytest.approx(
            1.0, abs=1e-10)

    def test_atom_carrying_law(self):
        plus = lc.TailLawPlus(1.0, 2.0)
        (s,) = vf._summands([plus], 4096)
        assert sum(s.atoms.values()) == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert s.masses(2.0 * s.half / 4096, 8192).sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [16, 17])
    @pytest.mark.parametrize("atoms", [(), ((-0.5, 0.1), (0.5, 0.1))])
    def test_summand_cells(self, n, atoms):
        # at the cells' step the kernel's cells are the cells of a piecewise-linear
        # CDF, at twice it their merged pairs; for an odd count each coarse cell takes
        # a whole centre cell and half of each neighbour, and the cut end cells are moved
        step, size = 0.25, 64
        shape = np.minimum(np.arange(1, n + 1), np.arange(n, 0, -1)).astype(float)
        cells = shape * (1.0 - sum(m for _, m in atoms)) / shape.sum()
        edges = step * (np.arange(n + 1) - 0.5 * n)
        cumulated = np.concatenate(([0.0], np.cumsum(cells)))
        s = gridconv.Summand(lambda x: np.interp(x, edges, cumulated), 0.5 * n * step,
                             dict(atoms), 1, 0.5 if n % 2 == 0 else 0.0)

        def placed(h, masses, first):  # masses at (first + i + offset) h, atoms split
            out = np.zeros(size)
            np.add.at(out, (first + np.arange(masses.size)) % size, masses)
            for loc, m in atoms:
                x = loc / h - s.offset
                base = math.floor(x)
                out[base % size] += m * (1.0 - (x - base))
                out[(base + 1) % size] += m * (x - base)
            return out

        np.testing.assert_allclose(s.masses(step, size), placed(step, cells, -8),
                                   rtol=0.0, atol=1e-15)
        got = s.masses(2.0 * step, size)
        if n % 2 == 0:
            np.testing.assert_allclose(got, placed(2.0 * step, cells.reshape(-1, 2).sum(1), -4),
                                       rtol=0.0, atol=1e-15)
        else:
            padded = np.concatenate(([0.0], cells, [0.0]))
            want = placed(2.0 * step,
                          0.5 * padded[:-2:2] + padded[1:-1:2] + 0.5 * padded[2::2], -4)
            inner = np.r_[0:3, size - 2 : size]
            np.testing.assert_allclose(got[inner], want[inner], rtol=0.0, atol=1e-15)
            for ends in ([3, 4], [-4, -3]):
                assert got[ends].sum() == pytest.approx(want[ends].sum(), rel=0.0, abs=1e-15)
        assert got.sum() == pytest.approx(1.0, rel=0.0, abs=1e-15)

    def test_two_point_law_is_pure_atoms(self):
        (s,) = vf._summands([lc.TailLawMinus(math.inf, 1.5)], 512)
        assert sorted(s.atoms) == [-1.5, 1.5]
        assert not np.any(s.cdf(np.linspace(-2.0, 2.0, 65)))  # no continuous part

    def test_equal_laws_enter_once(self):
        law = lc.TailLawPlus(1.0, 2.0)
        summands = vf._summands([law, GAUSS, lc.TailLawPlus(1.0, 2.0), law], 512)
        assert [(s.cdf, s.count) for s in summands] == [(law.cdf, 3), (GAUSS.cdf, 1)]


_TARGET = lc.MatchTarget(5.08, 1.0, GAUSS.abs_moment(5.08) ** (1.0 / 5.08))
ORDERING_LAWS = {
    "gaussian": GAUSS,
    "logistic": vf.LogisticSource(1.0),
    "density minus": lc.match_density_minus(_TARGET),
    "density plus": lc.match_density_plus(_TARGET),
    "tail minus": lc.match_tail(_TARGET, "minus"),
    "tail plus": lc.match_tail(_TARGET, "plus"),
}


class _CutGaussian(bd.Gaussian):
    """The standard Gaussian whose support_halfwidth() leaves out 6.8e-6 of its mass."""

    def support_halfwidth(self) -> float:
        return 4.5


class TestNfoldMoment:
    def test_single_gaussian_fourth_moment(self):
        res = vf.nfold_moment([GAUSS], 4.0)
        assert abs(res.value - 3.0) <= max(res.error_bound, 1e-6)

    def test_two_uniforms_variance(self):
        uni = lc.PlateauExpDensity(1.0, math.inf)
        res = vf.nfold_moment([uni, uni], 2.0)
        assert abs(res.value - 2.0 / 3.0) <= max(res.error_bound, 1e-9)

    def test_two_exponentials_fourth_moment(self):
        # per summand kappa_2 = 1, kappa_4 = 3; sum: 2*3 + 3*(2*1)^2 = 18
        ex = lc.PlateauExpDensity(0.0, math.sqrt(2.0))
        res = vf.nfold_moment([ex, ex], 4.0)
        assert abs(res.value - 18.0) <= max(res.error_bound, 1e-6)

    def test_halving_step_stays_within_reported_error(self):
        coarse = vf.nfold_moment([GAUSS] * 2, 5.0, n_cells=4096)
        fine = vf.nfold_moment([GAUSS] * 2, 5.0, n_cells=8192)
        assert abs(coarse.value - fine.value) <= coarse.error_bound + fine.error_bound

    def test_gaussian_pair_closed_form(self):
        want = 2.0**2.5 * specfun.gaussian_abs_moment(5.0)
        res = vf.nfold_moment([GAUSS] * 2, 5.0)
        assert abs(res.value - want) <= res.error_bound

    def test_mass_leak_raises(self):
        # the grid holds the law's cdf over its support_halfwidth() only
        with pytest.raises(GridTooSmallError):
            vf.nfold_moment([_CutGaussian(), GAUSS, GAUSS], 4.0, n_cells=4096)

    def test_grid_fallback_refuses_past_cell_cap(self):
        # 1000 copies of 16,384 cells span more than MAX_GRID_CELLS: refused before any grid
        start = time.perf_counter()
        with pytest.raises(InputError, match="MAX_GRID_CELLS = 8388608"):
            vf.nfold_moment([GAUSS] * 1000, 5.0, n_cells=16384)
        assert time.perf_counter() - start < 1.0

    # the ordering checks' laws at p = 5.08, n = 1, 3 and 4, but for the tail-minus
    # member at n = 4: its density jumps, and on 16,384 cells the grid's coarse/fine
    # bound falls short of the error of its cell-centre masses (1.07 times the bound)
    @pytest.mark.parametrize("name,n", [(name, n) for name in ORDERING_LAWS for n in (1, 3, 4)
                                        if (name, n) != ("tail minus", 4)])
    def test_against_the_fourier_route(self, name, n):
        law = ORDERING_LAWS[name]
        grid = vf.nfold_moment([law] * n, 5.08)
        ref = fourier.sum_abs_moment(fourier.plan_sum(5.08, [fourier.Term(law, count=n)]))
        assert grid.method == "nfold_grid" and ref.method == "sum_fourier"
        assert abs(grid.value - ref.value) <= grid.error_bound + ref.error_bound

    @pytest.mark.parametrize("scale", [0.7405, 1.0718, 1.8661])
    def test_logistic_p8_within_bound(self, scale):
        # four summands with heavy tails at p = 8: the clamp after every
        # sequential convolution once biased this sum beyond its bound
        res = vf.nfold_moment([vf.LogisticSource(scale)] * 4, 8.0, n_cells=16384)
        want = _logistic_sum_even_moment(scale, 4, 8)
        assert abs(res.value - want) <= res.error_bound


def _logistic_sum_even_moment(scale: float, n: int, p: int) -> float:
    """E S^p, p even, for the sum S of n i.i.d. logistic laws of the given
    scale: the cumulants kappa_2k = 2 (2k - 1)! zeta(2k) s^2k add over the
    summands, and m_j = sum_k C(j - 1, k - 1) kappa_k m_(j - k)."""
    kappa = [0.0] * (p + 1)
    for k in range(2, p + 1, 2):
        kappa[k] = n * 2.0 * math.factorial(k - 1) * float(special.zeta(k)) * scale**k
    m = [1.0]
    for j in range(1, p + 1):
        m.append(math.fsum(math.comb(j - 1, k - 1) * kappa[k] * m[j - k] for k in range(1, j + 1)))
    return m[p]


class TestSearch:
    def test_rademacher_never_beats_theorem(self):
        rep = vf.search_sup_U(5.0, bd.rademacher(), 1.0, 1.0, 6, 120, seed=2024)
        assert rep.best_value <= rep.theorem_value * (1.0 + 1e-6)
        assert rep.details["violations"] == 0
        assert rep.seed == 2024

    def test_uniform_never_beats_theorem(self):
        rep = vf.search_sup_U(5.0, bd.uniform(1.0), 1.0, 1.0, 5, 40, seed=7)
        assert rep.best_value <= rep.theorem_value * (1.0 + 1e-6)

    def test_below_four_branch(self):
        rep = vf.search_sup_U(3.0, bd.rademacher(), 1.0, 1.0, 6, 60, seed=5)
        assert rep.best_value <= rep.theorem_value * (1.0 + 1e-6)
        # the single-summand feasible point reaches at least 1
        assert rep.best_value >= 1.0

    def test_iid_trend_reported(self):
        rep = vf.search_sup_U(5.0, bd.rademacher(), 1.0, 1.0, 6, 10, seed=1)
        iid = rep.details["iid_values"]
        assert len(iid) == 6
        # equal-split candidates improve with n on average (trend, not assert-per-step)
        assert iid[-1] >= iid[0]

    def test_wide_scale_ratio_stays_bounded(self):
        # one candidate's summand scales differ by orders of magnitude here;
        # resampled to the finest step, this search once took a minute and
        # 3.5 GB
        t0 = time.perf_counter()
        rep = vf.search_sup_U(3.0, bd.uniform(1.0), 0.7, 1.0, n_max=6, trials=30, seed=6)
        assert time.perf_counter() - t0 < 15.0
        assert rep.details["violations"] == 0
        assert rep.best_value <= rep.theorem_value * (1.0 + 1e-6)

    @pytest.mark.parametrize("V,p,routes", [
        (bd.uniform(1.0), 5.0, {"exact_uniform": 26}),
        (bd.uniform(1.0), 3.0, {"exact_uniform": 26}),
        (bd.rademacher(), 5.0, {"exact_enum": 26}),
    ])
    def test_routes_counted(self, V, p, routes):
        # every candidate counted once, under the method that evaluated it
        rep = vf.search_sup_U(p, V, 1.0, 1.0, n_max=6, trials=20, seed=3)
        assert rep.details["routes"] == routes
        assert rep.best_config["method"] in routes

    def test_past_the_panel_budget_is_conditioned(self):
        # trial 2 of search seed 6 at p = 3: scales 3.5e4 apart, 65,539 panels
        # unconditioned; conditioned on its widest thinned summands, against the grid
        _, scales, activations = list(vf._candidates(3.0, bd.uniform(1.0), 0.7, 1.0, 6, 30, 6))[2]
        res = ct._thinned_sum_moment(3.0, bd.uniform(1.0), scales, activations, 1e-6,
                                     1_000_000)
        assert res.method == "sum_fourier" and res.diagnostics["depth"] >= 1
        assert res.diagnostics["fourier_panels"] <= fourier.SUBPLAN_PANELS
        assert res.error_bound <= 1e-6 * res.value
        grid = ct._thinned_grid_result(3.0, bd.uniform(1.0), scales, activations, 1e-6, 2048)
        assert abs(res.value - grid.value) <= res.error_bound + grid.error_bound

    def test_replay_deterministic(self):
        a = vf.search_sup_U(5.0, bd.rademacher(), 1.0, 1.0, 4, 30, seed=11)
        b = vf.search_sup_U(5.0, bd.rademacher(), 1.0, 1.0, 4, 30, seed=11)
        assert a.best_value == b.best_value
        assert a.best_config == b.best_config


class TestPoissonisation:
    def test_single_rademacher(self):
        holds, left, right = vf.check_poissonisation([RAD_LAW], 4.0)
        assert holds
        assert left == pytest.approx(1.0, rel=1e-12)
        assert right == pytest.approx(4.0, rel=1e-8)

    def test_two_rademachers(self):
        holds, left, right = vf.check_poissonisation([RAD_LAW, RAD_LAW], 4.0)
        assert holds
        assert left == pytest.approx(8.0, rel=1e-12)
        assert right == pytest.approx(14.0, rel=1e-8)

    def test_degenerate(self):
        holds, left, right = vf.check_poissonisation([{0.0: 1.0}], 4.0)
        assert holds and left == 0.0 and right == 0.0

    def test_randomized_tuples(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            p = float(rng.choice([4.0, 5.0, 6.0]))
            laws = []
            for _ in range(n):
                loc = float(rng.uniform(0.2, 2.0))
                mass = float(rng.uniform(0.2, 1.0))
                laws.append({loc: mass / 2.0, -loc: mass / 2.0, 0.0: 1.0 - mass})
            holds, left, right = vf.check_poissonisation(laws, p, tol=1e-7)
            assert holds, (p, laws, left, right)

    def test_p_below_three_rejected(self):
        with pytest.raises(DomainError):
            vf.check_poissonisation([RAD_LAW], 2.5)


class TestEasyLowerBound:
    def test_single_rademacher_equality(self):
        holds, left, right = vf.check_easy_lower_bound([RAD_LAW], 4.0)
        assert holds and left == pytest.approx(right, rel=1e-12)

    def test_two_rademachers(self):
        holds, left, right = vf.check_easy_lower_bound([RAD_LAW, RAD_LAW], 4.0)
        assert holds
        assert left == pytest.approx(8.0)
        assert right == pytest.approx(4.0)

    def test_zero_summand_reduces(self):
        laws = [RAD_LAW, {0.0: 1.0}]
        holds, left, right = vf.check_easy_lower_bound(laws, 4.0)
        h2, l2, r2 = vf.check_easy_lower_bound([RAD_LAW], 4.0)
        assert holds and left == pytest.approx(l2) and right == pytest.approx(r2)

    def test_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            p = float(rng.uniform(2.5, 6.0))
            laws = []
            for _ in range(n):
                loc = float(rng.uniform(0.1, 3.0))
                mass = float(rng.uniform(0.1, 1.0))
                laws.append({loc: mass / 2.0, -loc: mass / 2.0, 0.0: 1.0 - mass})
            holds, _, _ = vf.check_easy_lower_bound(laws, p)
            assert holds


class TestSignChanges:
    def test_alternating(self):
        rep = vf.count_sign_changes([0, 1, 2], [1.0, -1.0, 1.0], 1e-12)
        assert rep.count == 2

    def test_zero_band_collapse(self):
        rep = vf.count_sign_changes([0, 1, 2], [1.0, 0.0, 1.0], 1e-12)
        assert rep.count == 0

    def test_indeterminate(self):
        rep = vf.count_sign_changes([0, 1, 2], [1e-15, -1e-15, 1e-16], 1e-12)
        assert rep.indeterminate

    def test_gaussian_vs_matched_minus_exactly_three(self):
        p = 5.0
        b = specfun.gaussian_abs_moment(p) ** (1.0 / p)
        member = lc.match_density_minus(lc.MatchTarget(p, 1.0, b))
        xs = np.linspace(1e-4, 8.0, 10_000)
        diff = np.array([GAUSS.pdf(x) - member.pdf(x) for x in xs])
        rep = vf.count_sign_changes(xs, diff, 1e-9 * float(np.abs(diff).max()))
        assert rep.count == 3
        assert rep.signature == [1, -1, 1, -1]

    def test_same_family_pairs_at_most_two(self):
        # distinct minus-family members sharing the second moment differ
        # with at most two sign changes (this drives matcher uniqueness)
        rng = np.random.default_rng(13)
        xs = np.linspace(1e-4, 15.0, 6000)
        for _ in range(200):
            r1, r2 = sorted(rng.uniform(0.05, 20.0, size=2))
            if abs(r1 - r2) < 1e-3:
                continue
            g1, g2 = lc._gamma_of_rho(r1, 1.0), lc._gamma_of_rho(r2, 1.0)
            m1 = lc.PlateauExpDensity(r1 / g1, g1)
            m2 = lc.PlateauExpDensity(r2 / g2, g2)
            diff = np.array([m1.pdf(x) - m2.pdf(x) for x in xs])
            rep = vf.count_sign_changes(xs, diff, 1e-10 * float(np.abs(diff).max()))
            assert rep.count <= 2

    def test_survival_difference_two_changes(self):
        # a matched log-concave-tail source against its minus member: the
        # survival difference changes sign exactly twice, signature -,+,-
        rng = np.random.default_rng(41)
        for _ in range(10):
            p = float(rng.uniform(4.5, 8.0))
            lo, hi = lc.feasibility_interval_tail(p)
            ratio = float(rng.uniform(lo * 1.05, hi * 0.95))
            src = lc.match_tail(lc.MatchTarget(p, 1.0, ratio), "plus")
            mnt = lc.match_tail(lc.MatchTarget(p, 1.0, ratio), "minus")
            L = max(src.cutoff, mnt.offset + 40.0 / mnt.rate)
            ts = np.linspace(1e-6, 0.999 * L, 12_000)
            diff = np.array([src.survival(t) - mnt.survival(t) for t in ts])
            rep = vf.count_sign_changes(ts, diff, 1e-10 * float(np.abs(diff).max()))
            assert rep.count == 2
            assert rep.signature == [-1, 1, -1]

    def test_cross_family_matched_pairs_exactly_three(self):
        rng = np.random.default_rng(14)
        xs = np.linspace(1e-4, 20.0, 12_000)
        for _ in range(10):
            p = float(rng.uniform(4.5, 8.0))
            lo, hi = lc.feasibility_interval_density(p)
            b = float(rng.uniform(lo * 1.05, hi * 0.95))
            t = lc.MatchTarget(p, 1.0, b)
            fm, fp = lc.match_density_minus(t), lc.match_density_plus(t)
            diff = np.array([fp.pdf(x) - fm.pdf(x) for x in xs])
            rep = vf.count_sign_changes(xs, diff, 1e-10 * float(np.abs(diff).max()))
            assert rep.count == 3
            assert rep.signature == [1, -1, 1, -1]


class TestPsiAndH:
    @pytest.mark.parametrize("p", [5.0, 10.0])
    def test_psi_convex(self, p):
        xs = np.geomspace(1e-3, 1e3, 2000)
        assert vf.check_psi_convexity(p, xs)

    def test_psi_at_zero(self):
        assert vf._psi(5.0, 0.0) == pytest.approx(2.0, abs=1e-14)
        assert vf._psi(7.3, 0.0) == pytest.approx(2.0, abs=1e-14)

    def test_h_large_gamma_single_change(self):
        rep = vf.check_h_signature(5.0, 0.0, 0.0, 50.0)
        assert rep.count == 1 and rep.ok

    def test_h_alpha_two_no_changes(self):
        rep = vf.check_h_signature(5.0, 2.0, 0.0, 0.0)
        assert rep.count == 0 and rep.ok

    @pytest.mark.parametrize("p", [4.5, 6.0])
    def test_h_randomized(self, p):
        rng = np.random.default_rng(77)
        for _ in range(150):
            alpha = float(rng.uniform(-5.0, 5.0))
            beta = float(rng.uniform(-5.0, 5.0))
            gamma = float(rng.uniform(-1.0, 6.0))
            rep = vf.check_h_signature(p, alpha, beta, gamma)
            assert rep.ok, (alpha, beta, gamma, rep.count, rep.signature)


class TestDetInequality:
    def test_affine_is_zero(self):
        ok, det = vf.check_det_inequality(lambda x: x, 1.0, 2.0, 3.0)
        assert ok and det == pytest.approx(0.0, abs=1e-12)

    def test_square(self):
        ok, det = vf.check_det_inequality(lambda x: x * x, 1.0, 2.0, 3.0)
        assert ok and det == pytest.approx(2.0, rel=1e-12)

    def test_strictly_convex_samples(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            pts = np.sort(rng.uniform(0.05, 10.0, size=3))
            power = float(rng.uniform(1.1, 4.0))
            ok, det = vf.check_det_inequality(
                lambda x, q=power: x**q, *map(float, pts)
            )
            assert ok
            assert det > 0.0


class TestInterlacing:
    P = 5.0
    B = specfun.gaussian_abs_moment(P) ** (1.0 / P)

    def test_gaussian_vs_minus(self):
        member = lc.match_density_minus(lc.MatchTarget(self.P, 1.0, self.B))
        for z in (0.0, 2.0):
            holds, lhs, rhs = vf.check_interlacing(GAUSS, member, z, self.P)
            assert holds

    def test_gaussian_vs_plus_reversed(self):
        member = lc.match_density_plus(lc.MatchTarget(self.P, 1.0, self.B))
        holds, lhs, rhs = vf.check_interlacing(GAUSS, member, 1.0, self.P)
        assert holds and lhs <= rhs

    def test_self_comparison_equality(self):
        member = lc.match_density_minus(lc.MatchTarget(self.P, 1.0, self.B))
        holds, lhs, rhs = vf.check_interlacing(member, member, 0.7, self.P)
        assert holds and lhs == pytest.approx(rhs, rel=1e-10)

    def test_moment_mismatch_rejected(self):
        member = lc.match_density_minus(lc.MatchTarget(self.P, 1.1, 1.1 * self.B))
        with pytest.raises(InvalidComparisonError):
            vf.check_interlacing(GAUSS, member, 0.0, self.P)


class TestOrderings:
    def test_gaussian_n1_equalities(self):
        holds, vals, err = vf.check_logconcave_ordering(1, GAUSS, 5.0, n_cells=8192)
        assert holds
        assert max(vals) - min(vals) <= max(err, 1e-7)

    def test_gaussian_n2_strict(self):
        holds, vals, err = vf.check_logconcave_ordering(2, GAUSS, 5.0, n_cells=8192)
        assert holds
        assert vals[1] - vals[0] > 10.0 * err
        assert vals[2] - vals[1] > 10.0 * err

    def test_logistic_source(self):
        holds, vals, _ = vf.check_logconcave_ordering(
            2, vf.LogisticSource(0.5), 5.0, n_cells=8192
        )
        assert holds and vals[0] <= vals[1] <= vals[2]

    def test_minus_member_source_left_equality(self):
        p = 5.0
        lo, hi = lc.feasibility_interval_density(p)
        src = lc.match_density_minus(lc.MatchTarget(p, 1.0, 0.5 * (lo + hi)))
        holds, vals, err = vf.check_logconcave_ordering(3, src, p, n_cells=8192)
        assert holds
        assert abs(vals[1] - vals[0]) <= max(err, 1e-6 * vals[1])  # source is the minus member
        assert vals[2] - vals[1] > err

    def test_tail_ordering_interior_source(self):
        p = 5.0
        src = lc.match_tail(lc.MatchTarget(p, 1.0, 1.5), "minus")
        holds, vals, err = vf.check_tail_ordering(2, src, p, n_cells=8192)
        assert holds
        assert abs(vals[1] - vals[0]) <= max(err, 1e-6 * vals[1])
        assert vals[2] - vals[1] > err

    def test_tail_ordering_exponential_boundary(self):
        # the exponential law is the shared boundary member of both families
        p = 5.0
        _, hi = lc.feasibility_interval_tail(p)
        src = lc.match_tail(lc.MatchTarget(p, 1.0, hi), "minus")
        holds, vals, err = vf.check_tail_ordering(2, src, p, n_cells=8192)
        assert holds
        assert abs(vals[2] - vals[0]) <= max(3.0 * err, 1e-5 * vals[1])

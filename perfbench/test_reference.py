"""Tests of the benchmark's reference computations and answer checks.

    python3 -m pytest perfbench/test_reference.py -q

The references are pinned to hand values; each workload's check is shown
to accept an answer equal to the reference and to reject one moved by more
than the check's tolerance.
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

RADEMACHER = ("rademacher", None)
UNIFORM = ("uniform", 1.0)


def jump(law):
    return lambda r: ref.conditioned_moment(law, r)


# ---------------------------------------------------------------------------
# hand values


def test_random_sign_fourth_moment_is_lambda_plus_three_lambda_squared():
    assert ref.cp_even_moment(1.0, jump(RADEMACHER), 4) == pytest.approx(4.0, rel=1e-15)
    assert ref.skellam_abs_moment(1.0, 4.0) == pytest.approx(4.0, rel=1e-13)


def test_uniform_jumps_fourth_moment_at_lambda_1_8():
    # kappa_2 = 1.8 / 3, kappa_4 = 1.8 / 5: E T^4 = 0.36 + 3 * 0.36
    assert ref.cp_even_moment(1.8, jump(UNIFORM), 4) == pytest.approx(1.44, rel=1e-14)


def test_touchard_value():
    assert ref.poisson_power_moment(1.0, 3.0) == 5.0
    assert ref.poisson_power_moment(2.0, 2.0) == pytest.approx(6.0, rel=1e-15)
    # the pmf sum agrees with the Touchard polynomial next to an integer
    assert ref.poisson_power_moment(1.0, 3.0 + 1e-9) == pytest.approx(5.0, rel=1e-7)


def test_sixth_and_eighth_moments_of_random_signs():
    # E T^6 = lam + 15 lam^2 + 15 lam^3 for kappa_r = lam
    lam = 0.7
    assert ref.cp_even_moment(lam, jump(RADEMACHER), 6) == pytest.approx(lam + 15 * lam**2 + 15 * lam**3, rel=1e-14)
    assert ref.skellam_abs_moment(lam, 8.0) == pytest.approx(ref.cp_even_moment(lam, jump(RADEMACHER), 8), rel=1e-12)


def test_independent_routes_agree_for_random_signs():
    lattice = ref.lattice_cp_abs_moment(2.3, ((1.0, 1.0),), 5.0)
    assert lattice == pytest.approx(ref.skellam_abs_moment(2.3, 5.0), rel=1e-12)


def test_gaussian_jumps():
    lam = 1.3
    # kappa_2 = lam, kappa_4 = 3 lam
    assert ref.gaussian_cp_abs_moment(lam, 4.0) == pytest.approx(3 * lam + 3 * lam**2, rel=1e-13)
    assert ref.gaussian_abs_moment(4.0) == pytest.approx(3.0, rel=1e-15)
    assert ref.gaussian_abs_moment(6.0) == pytest.approx(15.0, rel=1e-15)


def test_sum_of_gaussian_sources():
    # E (Z_1 + Z_2 + Z_3)^6 = 3^3 * 15
    single = {2: 1.0, 4: 3.0, 6: 15.0}
    assert ref.sum_even_moment(single, 3, 6) == pytest.approx(405.0, rel=1e-14)


def test_log_convexity_bracket_contains_the_value():
    lam = 1.9
    lo, hi = ref.log_convexity_bracket(5.0, lambda r: ref.cp_even_moment(lam, jump(RADEMACHER), r))
    assert lo < ref.skellam_abs_moment(lam, 5.0) < hi


def test_enumeration_of_two_random_signs():
    rad = [(-1.0, 0.5), (1.0, 0.5)]
    assert ref.enumerate_abs_moment([rad, rad], 4.0) == pytest.approx(8.0, rel=1e-15)
    # its Poissonisation has lambda = 2: 2 + 3 * 4
    assert ref.cp_even_moment(2.0, jump(RADEMACHER), 4) == pytest.approx(14.0, rel=1e-15)


def test_closed_forms_below_and_at_four():
    # B^p + E|Z|^p A^p with E|Z|^3 = 2 sqrt(2 / pi)
    ref_lo, _ = checks.mixture_sup_reference(UNIFORM, 3.0, 1.0, 1.0)
    assert ref_lo == ("exact", pytest.approx(1.0 + 2.0 * math.sqrt(2.0 / math.pi), rel=1e-14))
    ref_four, params = checks.mixture_sup_reference(UNIFORM, 4.0, 1.0, 1.0)
    assert ref_four == ("exact", 4.0)
    assert params[0] == pytest.approx(1.8, rel=1e-14)


def test_member_moments_by_quadrature():
    exp_member = {"family": "fminus", "alpha": 0.0, "gamma": math.sqrt(2.0)}
    assert ref.member_abs_moment(exp_member, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert ref.member_abs_moment(exp_member, 5.0) == pytest.approx(120.0 / math.sqrt(2.0) ** 5, rel=1e-12)
    plateau = {"family": "fminus", "alpha": 0.8, "gamma": 1.9}
    # E X^2 of the plateau-exponential density: (alpha^3/3 + J) / (alpha + 1/gamma)
    a, g = 0.8, 1.9
    j = a * a / g + 2 * a / g**2 + 2 / g**3
    assert ref.member_abs_moment(plateau, 2.0) == pytest.approx((a**3 / 3 + j) / (a + 1 / g), rel=1e-12)
    assert ref.member_abs_moment({"family": "gplus", "rate": 0.0, "cutoff": 1.3}, 4.0) == 1.3**4
    assert ref.member_limit({"family": "gminus", "rate": math.inf, "offset": 1.0}) == "two_point"


def test_lattice_step():
    assert ref.lattice_step([1.0, 2.5]) == ref.Fraction(1, 2)
    assert float(ref.lattice_step([0.3, 0.7, 1.1, 1.6, 2.0, 2.9])) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# each workload's check accepts the reference and rejects a moved answer


def _sup_out(value, err, lam, pref):
    rec = {"value": value, "error_bound": err, "lambda": lam, "prefactor": pref}
    return {"stdout": json.dumps(rec) + "\n"}


def test_cp_sweep_check_rejects_a_moved_answer():
    op = {"op": "sup", "law": "rademacher", "p": 5.0, "A": 1.0, "B": 1.0}
    lam, pref = ref.mixture_parameters(5.0, RADEMACHER, 1.0, 1.0)
    want = pref * ref.skellam_abs_moment(lam, 5.0)
    err = 1e-9 * want
    assert checks.check_cp_sweep(op, _sup_out(want, err, lam, pref)) == []
    assert checks.check_cp_sweep(op, _sup_out(want + 2 * err, err, lam, pref))
    assert checks.check_cp_sweep(op, {"stdout": "not json\n"})


def test_cp_sweep_bracket_check_rejects_a_value_outside():
    op = {"op": "sup", "law": "uniform:w=1", "p": 5.0, "A": 1.0, "B": 1.0}
    (how, (lo, hi)), (lam, pref) = checks.mixture_sup_reference(UNIFORM, 5.0, 1.0, 1.0)
    assert how == "bracket"
    assert checks.check_cp_sweep(op, _sup_out(0.5 * (lo + hi), 1e-9, lam, pref)) == []
    assert checks.check_cp_sweep(op, _sup_out(hi * (1 + 1e-6), 1e-9, lam, pref))


def _search_report(best, n_max=3):
    return {
        "theorem_value": best["thm"], "best_value": best["value"], "detail_violations": 0,
        "best_config": {"n": 1, "scales": [1.0], "activations": [1.0], "trial": -1},
        "detail_iid_values": [1.0] * n_max,
    }


def test_search_check_rejects_a_moved_answer():
    op = {"op": "search", "law": "rademacher", "p": 5.0, "A": 1.0, "B": 1.0, "n_max": 3}
    lam, pref = ref.mixture_parameters(5.0, RADEMACHER, 1.0, 1.0)
    thm = pref * ref.skellam_abs_moment(lam, 5.0)
    good = _search_report({"thm": thm, "value": 1.0})
    assert checks.check_search(op, good) == []
    assert checks.check_search(op, _search_report({"thm": thm, "value": 1.0 + 1e-9}))
    assert checks.check_search(op, _search_report({"thm": thm * (1 + 1e-7), "value": 1.0}))
    beaten = dict(good, detail_violations=1)
    assert checks.check_search(op, beaten)


def test_poissonisation_check_rejects_a_moved_answer():
    op = {"op": "poissonisation", "laws": [[1.0, 1.0], [1.0, 1.0]], "p": 4.0, "tol": 1e-6}
    assert checks.check_poissonisation(op, [True, 8.0, 14.0]) == []
    assert checks.check_poissonisation(op, [True, 8.0, 14.0 * (1 + 2e-6)])
    assert checks.check_poissonisation(op, [True, 8.0 * (1 + 1e-9), 14.0])
    assert checks.check_poissonisation(op, [False, 8.0, 14.0])


def test_three_point_check_rejects_a_moved_answer():
    b = 2.0**0.25
    op = {"op": "three_point", "p": 4.0, "a": [1.0, 1.0], "b": [b, b]}
    out = {"record": {"value": 10.0, "error_bound": 1e-12}, "extremal": [[b * b, 0.5], [b * b, 0.5]]}
    assert checks.check_poissonisation(op, out) == []
    out["record"]["value"] = 10.0 * (1 + 1e-8)
    assert checks.check_poissonisation(op, out)


def test_match_check_rejects_a_moved_answer():
    op = {"op": "match", "family": "fminus", "p": 5.0, "a": 1.0, "where": "hi", "u": 0.5}
    good = {"record": {"family": "fminus", "alpha": 0.0, "gamma": math.sqrt(2.0)}, "limit": "exponential"}
    assert checks.check_logconcave(op, good) == []
    moved = {"record": {"family": "fminus", "alpha": 0.0, "gamma": math.sqrt(2.0) * (1 + 1e-7)},
             "limit": "exponential"}
    assert checks.check_logconcave(op, moved)
    assert checks.check_logconcave(op, dict(good, limit="interior"))


def test_ordering_check_rejects_a_moved_answer():
    n, p = 2, 6.0
    uniform = {"family": "fminus", "alpha": math.sqrt(3.0), "gamma": math.inf}
    laplace = {"family": "fplus", "alpha": math.inf, "gamma": math.sqrt(2.0)}

    def sum6(rec):
        return ref.sum_even_moment({r: ref.member_abs_moment(rec, r) for r in (2, 4, 6)}, n, 6)

    source = n**3 * 15.0
    err = 1e-9
    op = {"op": "ordering", "source": "gaussian", "n": n, "p": p}
    out = {"result": [True, [sum6(uniform), source, sum6(laplace)], err], "members": [uniform, laplace]}
    assert checks.check_logconcave(op, out) == []
    out["result"][1][1] = source * (1 + 1e-8)
    assert checks.check_logconcave(op, out)


def test_workloads_are_fixed_batches_moved_by_the_seed():
    for name in workloads.WORKLOADS:
        first_a, ops_a = workloads.build(name, 1)
        first_b, ops_b = workloads.build(name, 1)
        _, ops_c = workloads.build(name, 2)
        assert ops_a == ops_b and first_a == first_b
        assert [op["cls"] for op in ops_a] == [op["cls"] for op in ops_c]
        assert ops_a != ops_c
        keys = [json.dumps(op, sort_keys=True) for op in ops_a]
        assert len(set(keys)) == len(keys), "a call is repeated with identical arguments"

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from roskit import basedist, constants, cpoisson, discrete
from roskit.cli import CSV_COLUMNS, main
from roskit.errors import DomainError


def run_cli(*args):
    runner = CliRunner()
    return runner.invoke(main, list(args), catch_exceptions=False)


def parse_json_lines(output: str):
    return [json.loads(line) for line in output.strip().splitlines() if line]


@pytest.fixture
def cross_terms(monkeypatch):
    """The term count of every step discrete.enum_sum takes across the halves
    of a tuple."""
    counts = []
    kernel = discrete._cross_moment

    def counted(x1, m1, x2, m2, *rest):
        counts.append(x1.size * x2.size)
        return kernel(x1, m1, x2, m2, *rest)

    monkeypatch.setattr(discrete, "_cross_moment", counted)
    return counts


class TestConstantCommand:
    def test_rademacher_p4(self):
        res = run_cli("constant", "--p", "4", "--V", "rademacher", "--tol", "1e-9")
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert rec["value"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
        # both-branch diagnostic
        assert rec["lower_branch_value"] == pytest.approx(4.0, rel=1e-12)
        assert rec["sup_value"] == pytest.approx(4.0, rel=1e-9)

    def test_complex_flag(self):
        res = run_cli("constant", "--p", "3", "--complex")
        rec = parse_json_lines(res.output)[0]
        assert rec["V"] == "steinhaus"
        assert rec["value"] == pytest.approx(
            (1.0 + 0.75 * math.pi * 2.0**-1.5 * 1.5957691216057308) ** (1.0 / 3.0),
            rel=1e-7,
        )

    def test_domain_error_exit_2(self):
        res = run_cli("constant", "--p", "2")
        assert res.exit_code == 2

    @pytest.mark.parametrize("v_spec", ["triangular", "uniform:w=abc", "atoms:a:0.5"])
    def test_unknown_v_spec_exit_2(self, v_spec):
        res = run_cli("constant", "--p", "4", "--V", v_spec)
        assert res.exit_code == 2
        assert "error" in json.loads(res.stderr)

    def test_bad_tolerance_exit_2(self):
        res = run_cli("constant", "--p", "4", "--tol", "2.0")
        assert res.exit_code == 2
        res = run_cli("sup", "--p", "3", "--tol", "0")
        assert res.exit_code == 2


@pytest.mark.parametrize("argv", [
    ["constant", "--p", "4"],
    ["sup", "--p", "5"],
    ["extremal", "--p", "5"],
    ["match", "--family", "fminus", "--p", "5", "--a", "1", "--b", "1.5"],
    ["verify", "determinant", "--trials", "2"],
    ["table", "--p-min", "3", "--p-max", "3.5", "--p-step", "0.5"],
])
def test_bad_tolerance_every_command(argv):
    # the --tol callback refuses before the command runs; stdout stays empty
    res = run_cli(*argv, "--tol", "1.5")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert json.loads(res.stderr) == {"error": "InputError",
                                      "message": "tolerance must lie in (0, 1), got 1.5"}


class TestSupCommand:
    def test_positive_p2(self):
        res = run_cli("sup", "--positive", "--p", "2", "--A", "1", "--B", "1",
                      "--tol", "1e-13")
        rec = parse_json_lines(res.output)[0]
        assert rec["value"] == pytest.approx(2.0, abs=1e-12)

    def test_mixture(self):
        res = run_cli("sup", "--p", "4", "--V", "uniform:w=1")
        rec = parse_json_lines(res.output)[0]
        assert rec["value"] == pytest.approx(4.0, rel=1e-6)
        assert rec["lambda"] == pytest.approx(1.8, rel=1e-12)

    def test_three_point(self):
        b = repr(2.0**0.25)
        res = run_cli("sup", "--p", "4", "--a", "1,1", "--b", f"{b},{b}")
        rec = parse_json_lines(res.output)[0]
        assert rec["value"] == pytest.approx(10.0, rel=1e-9)
        assert len(rec["extremal"]) == 2

    def test_random_signs_by_kind_not_spelling(self):
        upper = run_cli("sup", "--p", "5", "--V", "RADEMACHER", "--a", "1", "--b", "1.2")
        lower = run_cli("sup", "--p", "5", "--V", "rademacher", "--a", "1", "--b", "1.2")
        assert upper.exit_code == 0
        assert parse_json_lines(upper.output) == parse_json_lines(lower.output)
        assert parse_json_lines(upper.output)[0]["variant"] == "three_point"

    def test_random_sign_per_summand_keys(self):
        common = {"value", "method", "error_bound", "n", "scales", "activations", "support",
                  "command", "p", "V", "seed", "extremal"}
        sup = run_cli("sup", "--p", "5", "--a", "1,0.7", "--b", "1.3,1.1")
        assert set(parse_json_lines(sup.output)[0]) == common | {"variant"}
        ext = run_cli("extremal", "--p", "5", "--a", "1,0.7", "--b", "1.3,1.1")
        assert set(parse_json_lines(ext.output)[0]) == common | {"kind"}

    def test_individual_mixture(self):
        res = run_cli("sup", "--p", "5", "--V", "gaussian", "--a", "1", "--b", "1.6")
        rec = parse_json_lines(res.output)[0]
        assert rec["variant"] == "individual"
        assert rec["value"] > 0

    def test_random_signs_past_the_enumeration_cap(self):
        # twenty three-point summands, past MAX_ENUM_SUMMANDS: the Fourier route
        res = run_cli("sup", "--p", "5", "--V", "rademacher", "--a", ",".join(["1"] * 20),
                      "--b", ",".join(["1.1"] * 20))
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert rec["method"] == "fourier" and len(rec["extremal"]) == 20
        assert rec["error_bound"] <= 1e-6 * rec["value"]

    @pytest.mark.parametrize("a", ["0.03", "0.01"])
    def test_wide_rare_gaussians(self, a):
        # thirty rare Gaussians at scale 5.6 beside one: -9.1e92 (a = 0.03) and a
        # ValueError traceback (a = 0.01) while the Gaussian's Taylor cap was infinite
        res = run_cli("sup", "--p", "5", "--V", "gaussian", "--a", ",".join([a] * 30 + ["1"]),
                      "--b", ",".join(["1"] * 30 + ["1.5"]))
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert rec["method"] == "fourier"
        assert 37.0 < rec["value"] < 41.0 and rec["error_bound"] <= 1e-6 * rec["value"]

    @staticmethod
    def _uniform_budgets_at(p):
        # b_j = 1.3 (||V||_p / ||V||_2) a_j for V uniform on [-1, 1]
        a = [1.0, 0.7, 0.5]
        ratio = 1.3 * (p + 1.0) ** (-1.0 / p) * math.sqrt(3.0)
        return (",".join(map(repr, a)), ",".join(repr(ratio * x) for x in a))

    def test_uniform_budgets_at_large_p(self):
        # the exact uniform route answers to 1e-13; the Fourier route, called by
        # name on the same extremisers, carries 1e-3 to 2e-2 of its value here
        a, b = self._uniform_budgets_at(40.5)
        res = run_cli("sup", "--p", "40.5", "--V", "uniform:w=1", "--a", a, "--b", b)
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert rec["method"] == "exact_uniform" and rec["value"] > 0.0
        assert rec["error_bound"] < 1e-12 * rec["value"]
        ref = constants._thinned_fourier_result(40.5, basedist.uniform(1.0), rec["scales"],
                                                rec["activations"], 1e-6)
        assert 1e-3 * ref.value < ref.error_bound < 2e-2 * ref.value
        assert abs(rec["value"] - ref.value) <= rec["error_bound"] + ref.error_bound

    @pytest.mark.parametrize("p", ["45.5", "60.5", "100.5", "150.5"])
    def test_uniform_budgets_past_the_fourier_accuracy(self, p):
        # the Taylor sums cancel: -5.6e38 +- 7.0e43 at p = 60.5 was printed with
        # exit 0, then refused by the Fourier route with exit 2; the exact
        # uniform route answers
        a, b = self._uniform_budgets_at(float(p))
        res = run_cli("sup", "--p", p, "--V", "uniform:w=1", "--a", a, "--b", b)
        assert res.exit_code == 0 and res.stderr == ""
        rec = parse_json_lines(res.output)[0]
        assert rec["method"] == "exact_uniform" and 0.0 < rec["error_bound"] < 2e-13 * rec["value"]
        with pytest.raises(DomainError, match=f"p = {p}"):
            constants._thinned_fourier_result(float(p), basedist.uniform(1.0), rec["scales"],
                                              rec["activations"], 1e-6)

    @pytest.mark.parametrize("p", ["100.5", "150.5"])
    def test_uniform_budgets_past_all_accuracy_exit_2(self, p):
        # fifteen summands, past MAX_ENUM_SUMMANDS, take the Fourier route, whose
        # Taylor sums cancel past all accuracy: exit 2 naming p
        a, b = self._uniform_budgets_at(float(p))
        res = run_cli("sup", "--p", p, "--V", "uniform:w=1", "--a", ",".join([a] * 5),
                      "--b", ",".join([b] * 5))
        assert res.exit_code == 2
        err = json.loads(res.stderr)
        assert err["error"] == "DomainError" and f"p = {p}" in err["message"]

    def test_random_signs_at_large_p(self):
        # the Skellam sum's n^p overflowed past p ~ 150: two RuntimeWarnings and
        # exit 2, though E|T|^150.5 = 3.28e182 (a 30-digit sum of 2 e^-1 I_n(1) n^150.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_cli("sup", "--p", "150.5", "--V", "rademacher", "--A", "1", "--B", "1")
        assert res.exit_code == 0 and res.stderr == ""
        rec = parse_json_lines(res.output)[0]
        assert abs(rec["value"] - 3.2817793472469327e182) <= rec["error_bound"] <= 1e-11 * rec["value"]

    @pytest.mark.parametrize("a,b", [("1.5", "1.0"), ("1,x", "1,2")])
    def test_infeasible_budgets_exit_2(self, a, b):
        res = run_cli("sup", "--p", "4", "--a", a, "--b", b)
        assert res.exit_code == 2
        assert "error" in res.stderr

    def test_support_cap_exit_2(self, cross_terms):
        # nine thinned three-atom summands: the exact sum law outgrows its cap
        b = ",".join(repr(round(3.0 + 0.137 * j, 3)) for j in range(9))
        res = run_cli("sup", "--p", "5", "--V", "atoms:0.5:0.3,1:0.3,2:0.4",
                      "--a", ",".join(["1"] * 9), "--b", b)
        assert res.exit_code == 2
        assert json.loads(res.stderr)["error"] == "SupportOverflowError"
        assert "cap 2000000" in res.stderr
        # the 7^4 x 7^5 terms across the halves pass the cap too: the merged
        # enumeration refuses, and no pair across the halves is summed
        assert cross_terms == []

    def test_equal_summands_across_the_halves_within_cap(self, cross_terms):
        # four generic seven-point summands, each twice: the halves merge
        # nothing, but their 7^8 sums fall on the 15^4 points of the merged law
        b = ",".join(["3", "3.137", "3.274", "3.411"] * 2)
        res = run_cli("sup", "--p", "5", "--V", "atoms:0.5:0.3,1:0.3,2:0.4",
                      "--a", ",".join(["1"] * 8), "--b", b)
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert rec["method"] == "exact_enum" and rec["support"] == 15**4
        assert cross_terms == []

    def test_past_grid_cap_finishes(self):
        # lambda ~ 158,000, where even the least spectral grid would pass
        # MAX_GRID_CELLS (test_cpoisson.py::TestHonestBound::test_grid_cap): the
        # Fourier route needs no grid, and meets the default tol 1e-6
        start = time.perf_counter()
        res = run_cli("sup", "--p", "5", "--V", "uniform:w=1", "--A", "30", "--B", "1")
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert rec["cp_method"] == "cp_series/fourier"
        assert rec["error_bound"] <= 1e-6 * rec["value"]

    @pytest.mark.parametrize("args", [
        ("--V", "rademacher", "--A", "1000"),
        ("--positive", "--p", "3", "--A", "1e12"),
        ("--V", "uniform:w=1", "--A", "1e70"),
        ("--V", "uniform:w=1", "--B", "1e-70"),
        ("--V", "gaussian", "--A", "100"),
    ])
    def test_series_cap_exit_2(self, args):
        # each Poisson series would need lambda >= 1e7 terms: refused before any array
        argv = ["sup", *args] if "--p" in args else ["sup", "--p", "5", *args]
        start = time.perf_counter()
        res = run_cli(*argv)
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2
        assert "MAX_SERIES_TERMS = 8388608" in json.loads(res.stderr)["message"]

    @pytest.mark.parametrize("args,quantity", [
        (("--V", "uniform:w=1e70"), "E|V|^5 of uniform:w=1e+70"),
        (("--V", "atoms:1e70:1"), "E|V|^5 of atoms:1e+70:1"),
        (("--A", "1e200", "--B", "1e200"), "prefactor"),
        (("--p", "3", "--A", "1e200", "--B", "1e200"), "B^p + E|Z|^p A^p"),
        (("--positive", "--p", "3", "--A", "1e200", "--B", "1e200"), "Poisson prefactor"),
        (("--p", "169.5", "--V", "uniform:w=1"), "E|T|^169.5"),
    ])
    def test_float_overflow_exit_2(self, args, quantity):
        res = run_cli("sup", *args) if "--p" in args else run_cli("sup", "--p", "5", *args)
        assert res.exit_code == 2
        reason = json.loads(res.stderr)
        assert reason["error"] == "DomainError"
        assert quantity in reason["message"] and "overflows" in reason["message"]

    @pytest.mark.parametrize("v_spec", [
        "rademacher", "uniform:w=1", "gaussian", "cosine", "atoms:0:0.3,1:0.4,2.5:0.3",
    ])
    @pytest.mark.parametrize("p", ["4", "5", "6", "8"])
    def test_subnormal_intensity_one_jump_limit(self, p, v_spec):
        # A/B = 1e-315^((p-2)/(2p)) puts lambda below the smallest normal float
        q = float(p)
        A = repr(1e-10 * 1e-315 ** ((q - 2.0) / (2.0 * q)))
        res = run_cli("sup", "--p", p, "--V", v_spec, "--A", A, "--B", "1e-10")
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert 0.0 < rec["lambda"] < sys.float_info.min
        assert rec["method"] == "mixture_sup/one_jump_limit"
        assert rec["value"] == pytest.approx(1e-10**q, rel=1e-14)
        assert rec["error_bound"] <= 1e-6 * rec["value"]

    def test_overflowing_prefactor_one_jump_limit(self):
        # lambda = 2.27e-308 is a normal float, but the prefactor B^p / (lambda
        # E|V|^p) overflows: the one-jump limit, as at A = 1.0e-77
        res = run_cli("sup", "--p", "4", "--V", "uniform:w=1", "--A", "1.06e-77", "--B", "1")
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert sys.float_info.min <= rec["lambda"] < 1e-307
        assert rec["method"] == "mixture_sup/one_jump_limit"
        assert abs(rec["value"] - 1.0) <= rec["error_bound"] <= 1e-13

    def test_subnormal_intensity_has_no_extremal_tuple(self):
        res = run_cli("extremal", "--p", "5", "--V", "uniform:w=1", "--A", "3.16e-105",
                      "--B", "1e-10")
        assert res.exit_code == 2
        assert "one-jump limit" in json.loads(res.stderr)["message"]

    @pytest.mark.parametrize("v_spec,chunk", [
        ("gaussian:w=3", "w=3"), ("cosine:0.5", "0.5"), ("rademacher:junk", "junk"),
        ("uniform:w=inf", "inf"), ("atoms:inf:1", "inf"),
    ])
    def test_malformed_base_spec_exit_2(self, v_spec, chunk):
        res = run_cli("sup", "--p", "5", "--V", v_spec)
        assert res.exit_code == 2
        reason = json.loads(res.stderr)
        assert reason["error"] == "DomainError"
        assert chunk in reason["message"]

    def test_random_sign_large_intensity(self):
        # lambda ~ 83,900: one Skellam sum over |T| <= K, where summing a
        # binomial walk for every k <= K ran for minutes
        start = time.perf_counter()
        res = run_cli("sup", "--p", "5", "--V", "rademacher", "--A", "30", "--B", "1")
        assert time.perf_counter() - start < 2.0
        assert res.exit_code == 0
        assert parse_json_lines(res.output)[0]["cp_method"] == "cp_series/exact_walk"

    def test_window_sized_grid_fits(self):
        # lambda ~ 4072: the CLI takes the Fourier route; on the spectral grid, a
        # grid holding sums of ~4,700 jumps would pass the cap, and the one
        # sized by the window fits it
        res = run_cli("sup", "--p", "5", "--V", "uniform:w=1", "--A", "10", "--B", "1")
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert rec["method"] == "mixture_sup/cp_series/fourier"
        spec = cpoisson.CompoundPoissonSpec(rec["lambda"], basedist.condition_nonzero(
            basedist.uniform(1.0)))
        grid = cpoisson._grid_abs_moment(spec, 5.0, 1e-6)
        assert grid.method == "cp_series/grid"
        assert abs(grid.value - rec["cp_moment"]) <= grid.error_bound + rec["error_bound"]


class TestExtremalCommand:
    def test_witness_below_four(self):
        res = run_cli("extremal", "--p", "3", "--V", "rademacher",
                      "--n", "10000", "--alpha", "0.98", "--seed", "0")
        rec = parse_json_lines(res.output)[0]
        assert rec["kind"] == "two_block_witness"
        assert rec["l2_budget_used"] == pytest.approx(1.0, abs=1e-12)
        assert rec["lp_budget_used"] == pytest.approx(1.0, abs=1e-12)
        assert "estimated_moment" in rec

    def test_compound_poisson_regime(self):
        res = run_cli("extremal", "--p", "5", "--V", "gaussian")
        rec = parse_json_lines(res.output)[0]
        assert rec["kind"] == "compound_poisson"
        assert rec["scale"] == pytest.approx(rec["prefactor"] ** 0.2, rel=1e-12)

    def test_three_point_regime(self):
        res = run_cli("extremal", "--p", "4", "--a", "1", "--b", "1.3")
        rec = parse_json_lines(res.output)[0]
        assert rec["kind"] == "three_point"
        c, mu = rec["extremal"][0]
        assert mu == pytest.approx((1.0 / 1.3) ** 4, rel=1e-9)

    def test_infeasible_witness_exit_2(self):
        res = run_cli("extremal", "--p", "3", "--alpha", "1.5")
        assert res.exit_code == 2


class TestMatchCommand:
    @pytest.mark.parametrize("family,b", [("fplus", "1.210404075540386"),
                                          ("gminus", "1.8421341399563975")])
    def test_near_the_ends(self, family, b):
        # 1e-10 from the uniform end (fplus) and the exponential end (gminus) at
        # p = 5: both exited 2 with "failed to bracket the moment equation"
        res = run_cli("match", "--family", family, "--p", "5", "--a", "1", "--b", b)
        assert res.exit_code == 0
        assert parse_json_lines(res.output)[0]["command"] == "match"

    def test_near_the_uniform_end_at_p_20(self):
        # 1e-9 above the uniform end: exited 2 with "matched member failed the
        # moment check" while the truncated exponential's moments lost digits
        res = run_cli("match", "--family", "fplus", "--p", "20", "--a", "1",
                      "--b", "1.487474958163516")
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert rec["achieved_mp"] == pytest.approx(1.487474958163516**20, rel=1e-8)

    def test_interior_record(self):
        res = run_cli("match", "--family", "fminus", "--p", "4", "--a", "1",
                      "--b", "1.35")
        rec = parse_json_lines(res.output)[0]
        assert rec["alpha"] == pytest.approx(0.956011050958, rel=1e-6)
        assert rec["gamma"] == pytest.approx(2.0248493824, rel=1e-6)
        assert rec["achieved_m2"] == pytest.approx(1.0, rel=1e-8)
        assert rec["achieved_mp"] == pytest.approx(1.35**4, rel=1e-8)

    def test_record_revalidates(self):
        # round-trip: rebuild the member from the emitted record
        from roskit import logconcave as lc

        res = run_cli("match", "--family", "gplus", "--p", "5", "--a", "1",
                      "--b", "1.5")
        rec = parse_json_lines(res.output)[0]
        law = lc.TailLawPlus(rec["rate"], rec["cutoff"])
        assert law.abs_moment(2.0) == pytest.approx(rec["achieved_m2"], rel=1e-12)
        assert law.abs_moment(5.0) == pytest.approx(rec["achieved_mp"], rel=1e-12)

    def test_infeasible_exit_2(self):
        res = run_cli("match", "--family", "fminus", "--p", "5", "--a", "1",
                      "--b", "1.0")
        assert res.exit_code == 2

    @pytest.mark.parametrize("family", ["fminus", "fplus", "gminus", "gplus"])
    def test_mid_interval_at_p_200(self, family):
        # an end of the root bracket has moments past the float range, the
        # target's fit: exited 1 with an OverflowError traceback from p = 183 on
        from roskit import logconcave as lc

        interval = lc.feasibility_interval_density if family[0] == "f" else lc.feasibility_interval_tail
        b = 0.5 * sum(interval(200.0))
        res = run_cli("match", "--family", family, "--p", "200", "--a", "1", "--b", repr(b))
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert rec["limit"] == "interior"
        assert rec["achieved_mp"] == pytest.approx(b**200, rel=1e-8)

    @pytest.mark.parametrize("args,case", [
        (["--family", "gplus", "--p", "1e6", "--a", "1", "--b", "1.3"], "b^p"),
        (["--family", "gminus", "--p", "400", "--a", "1e-300", "--b", "2e-300"], "a^2"),
    ])
    def test_target_past_the_float_range_exit_2(self, args, case):
        # b^p overflowed (OverflowError) or a^2 and b^p underflowed to 0
        # (ZeroDivisionError), each an exit 1 with a traceback
        res = run_cli("match", *args)
        assert res.exit_code == 2
        reason = json.loads(res.stderr)
        assert reason["error"] == "DomainError"
        assert case in reason["message"]

    def test_matcher_looked_up_at_call_time(self, monkeypatch):
        # a wrapper installed on the logconcave module sees the CLI's call
        from roskit import logconcave as lc

        calls = []
        match_tail = lc.match_tail
        monkeypatch.setattr(lc, "match_tail", lambda target, family: (
            calls.append(family) or match_tail(target, family)))
        for family in ("gminus", "gplus"):
            res = run_cli("match", "--family", family, "--p", "5", "--a", "1", "--b", "1.5")
            assert res.exit_code == 0
        assert calls == ["minus", "plus"]

    def test_unknown_family_is_a_usage_error(self):
        res = run_cli("match", "--family", "gmiddle", "--p", "5", "--a", "1", "--b", "1.5")
        assert res.exit_code == 2
        assert "'fminus', 'fplus', 'gminus', 'gplus'" in res.stderr


class TestVerifyCommand:
    def test_determinant_suite(self):
        res = run_cli("verify", "determinant", "--trials", "20", "--seed", "5")
        assert res.exit_code == 0
        recs = parse_json_lines(res.output)
        assert all(rec["holds"] for rec in recs)

    def test_sign_changes_suite(self):
        res = run_cli("verify", "sign-changes", "--p", "5")
        rec = parse_json_lines(res.output)[0]
        assert res.exit_code == 0
        assert rec["count"] == 3
        assert rec["signature"] == [1, -1, 1, -1]

    def test_search_suite(self):
        res = run_cli("verify", "search", "--p", "5", "--V", "rademacher",
                      "--n", "4", "--trials", "25", "--seed", "9")
        rec = parse_json_lines(res.output)[0]
        assert res.exit_code == 0
        assert rec["holds"]
        assert rec["seed"] == 9

    def test_poissonisation_suite(self):
        res = run_cli("verify", "poissonisation", "--p", "4", "--n", "3",
                      "--trials", "10", "--seed", "3")
        assert res.exit_code == 0
        assert all(rec["holds"] for rec in parse_json_lines(res.output))

    @pytest.mark.parametrize("suite", ["poissonisation", "lower-bound"])
    def test_enumeration_cap_exit_2(self, suite):
        # 40 three-point summands would enumerate up to 3^40 support points
        t0 = time.perf_counter()
        res = run_cli("verify", suite, "--n", "40", "--trials", "1")
        assert time.perf_counter() - t0 < 1.0
        assert res.exit_code == 2
        assert "cap 12" in res.stderr
        res = run_cli("verify", suite, "--n", "13", "--trials", "1")
        assert res.exit_code == 2
        assert "--n 13 exceeds the summand cap 12" in res.stderr

    @pytest.mark.parametrize("suite", ["ordering", "tail-ordering"])
    def test_ordering_many_summands(self, suite):
        # 200 summands on the Fourier route: the sum's own standard deviation
        # sets the unit, so the combined error stays far below the gaps (the
        # tail-ordering source is the minus member itself: only the plus gap)
        t0 = time.perf_counter()
        res = run_cli("verify", suite, "--p", "5", "--n", "200")
        assert time.perf_counter() - t0 < 10.0
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert rec["method"] == "sum_fourier"
        assert rec["combined_error"] < rec["plus"] - rec["source"]
        if suite == "ordering":
            assert rec["combined_error"] < rec["source"] - rec["minus"]

    @pytest.mark.parametrize("suite", ["ordering", "tail-ordering"])
    def test_ordering_separates_on_coarsened_step(self, suite):
        # 32 summands: the combined error stays below the gaps (the
        # tail-ordering source is the minus member itself, so there only the
        # plus gap is strict)
        rec = parse_json_lines(run_cli("verify", suite, "--p", "5", "--n", "32").output)[0]
        assert rec["holds"]
        assert rec["combined_error"] < rec["plus"] - rec["source"]
        if suite == "ordering":
            assert rec["combined_error"] < rec["source"] - rec["minus"]

    @pytest.mark.parametrize("suite", ["ordering", "tail-ordering"])
    def test_ordering_thousands_of_summands(self, suite):
        # 5000 summands, past any grid that would hold their sum, on the
        # Fourier route: the Taylor depth does not grow with the count
        t0 = time.perf_counter()
        res = run_cli("verify", suite, "--p", "5", "--n", "5000")
        assert time.perf_counter() - t0 < 5.0
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert rec["holds"] and rec["method"] == "sum_fourier"
        assert rec["combined_error"] < rec["plus"] - rec["source"]

    @pytest.mark.parametrize("suite", ["ordering", "tail-ordering"])
    def test_ordering_at_p_50(self, suite):
        # matching at p = 50 evaluates the families' moments where Gamma(r + 1) /
        # rate^r passes the float range: an answer, not an OverflowError
        res = run_cli("verify", suite, "--p", "50", "--n", "2")
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert rec["holds"] and rec["method"] == "sum_fourier"
        assert rec["combined_error"] < rec["plus"] - rec["source"]
        if suite == "ordering":
            # two standard Gaussians: E|Z_1 + Z_2|^50 = 2^25 E|Z|^50
            exact = 2.0**25 * math.exp(25.0 * math.log(2.0) + math.lgamma(25.5)) / math.sqrt(math.pi)
            assert abs(rec["source"] - exact) <= rec["combined_error"]
            assert rec["combined_error"] < rec["source"] - rec["minus"]

    def test_search_records_routes(self):
        rec = parse_json_lines(run_cli("verify", "search", "--p", "3", "--V", "uniform:w=1",
                                       "--A", "0.7", "--n", "6", "--trials", "30",
                                       "--seed", "6").output)[0]
        # trial 2, scales 3.5e4 apart, went to the grid before conditioning on
        # summand activity; its exact uniform bound passes tol, so it takes the
        # Fourier route.  The best candidate against the grid reference
        assert rec["detail_routes"] == {"exact_uniform": 35, "sum_fourier": 1}
        best = rec["best_config"]
        assert best["method"] == "exact_uniform"
        grid = constants._thinned_grid_result(3.0, basedist.uniform(1.0), best["scales"],
                                              best["activations"], 1e-6, 2048)
        assert abs(rec["best_value"] - grid.value) <= rec["best_error_bound"] + grid.error_bound

    @pytest.mark.parametrize("suite", ["ordering", "tail-ordering"])
    @pytest.mark.parametrize("p", ["40.5", "150.5", "170"])
    def test_ordering_past_the_largest_p_exit_2(self, suite, p):
        # past p = 40 von Bahr's integral loses its accuracy at non-even p (at
        # 150.5 its bound overflowed a float, a ValueError traceback), and even p
        # answer up to 168
        res = run_cli("verify", suite, "--p", p, "--n", "2")
        assert res.exit_code == 2
        reason = json.loads(res.stderr)
        assert reason["error"] == "DomainError"
        assert "p <= 40, or an even p <= 168" in reason["message"]

    def test_atomic_search_past_the_enumeration_cap(self):
        # twenty three-point summands: candidates past MAX_ENUM_SUMMANDS take the Fourier route
        t0 = time.perf_counter()
        res = run_cli("verify", "search", "--p", "5", "--V", "rademacher",
                      "--n", "20", "--trials", "3")
        assert time.perf_counter() - t0 < 5.0
        assert res.exit_code == 0
        rec = parse_json_lines(res.output)[0]
        assert rec["best_config"]["method"] == "sum_fourier" and rec["best_config"]["n"] == 20
        assert rec["holds"] and rec["detail_routes"]["sum_fourier"] > 0

    def test_search_support_cap_exit_2(self, cross_terms):
        # within the --n cap, but each candidate summand has 7 support points
        res = run_cli("verify", "search", "--p", "5", "--V", "atoms:0.5:0.3,1:0.3,2:0.4",
                      "--n", "12", "--trials", "3", "--seed", "0")
        assert res.exit_code == 2
        assert json.loads(res.stderr)["error"] == "SupportOverflowError"
        assert "cap 1000000" in res.stderr
        # no cross step past the cap is taken
        assert max(cross_terms, default=0) <= 10**6


class TestTableCommand:
    def test_csv_columns_fixed(self):
        res = run_cli("table", "--p-min", "2.5", "--p-max", "4.5", "--p-step",
                      "0.5", "--format", "csv")
        lines = res.output.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 5

    def test_json_ordered_by_p(self):
        res = run_cli("table", "--p-min", "3", "--p-max", "5", "--p-step", "1")
        recs = parse_json_lines(res.output)
        assert [rec["p"] for rec in recs] == [3.0, 4.0, 5.0]

    def test_bad_grid_exit_2(self):
        res = run_cli("table", "--p-min", "3", "--p-max", "5", "--p-step", "-1")
        assert res.exit_code == 2

    def test_grid_cap_exit_2(self):
        # 550,001 points, rejected before any p value is built or evaluated
        t0 = time.perf_counter()
        res = run_cli("table", "--p-min", "2.5", "--p-max", "8", "--p-step", "1e-5")
        assert time.perf_counter() - t0 < 1.0
        assert res.exit_code == 2
        assert "550001 points" in res.stderr and "cap is 10000" in res.stderr


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["constant", "--p", "4", "--V", "rademacher"],
            ["sup", "--p", "4.5", "--V", "uniform:w=1"],
            ["match", "--family", "fplus", "--p", "5", "--a", "1", "--b", "1.4"],
            ["verify", "search", "--p", "5", "--V", "uniform:w=1", "--n", "3",
             "--trials", "10", "--seed", "17"],
            ["verify", "h-signature", "--p", "4.5", "--trials", "15", "--seed", "2"],
            ["extremal", "--p", "3", "--n", "2000", "--alpha", "0.9", "--seed", "4"],
            ["table", "--p-min", "2.5", "--p-max", "4", "--p-step", "0.5",
             "--format", "csv"],
        ],
    )
    def test_byte_identical_reruns(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_output_file(self, tmp_path):
        out = tmp_path / "rows.json"
        res = run_cli("constant", "--p", "3", "--out", str(out))
        assert res.exit_code == 0
        rec = json.loads(out.read_text(encoding="utf-8").strip())
        assert rec["p"] == 3.0

    def test_json_keys_sorted(self):
        res = run_cli("constant", "--p", "3")
        line = res.output.strip()
        keys = list(json.loads(line).keys())
        assert keys == sorted(keys)


# commands that must run without scipy.optimize or scipy.integrate, then the one
# that needs them: interlacing's quadrature (scipy.integrate.quad loads scipy.optimize)
COLD_COMMANDS = [
    ["sup", "--p", "5", "--V", "uniform:w=1", "--A", "0.3"],
    ["sup", "--p", "5", "--V", "uniform:w=1", "--a", "0.5,0.5", "--b", "1,1"],
    ["sup", "--positive", "--p", "3"],
    ["constant", "--complex", "--p", "5"],
    ["table", "--p-min", "2.5", "--p-max", "4.5", "--p-step", "0.5"],
    ["extremal", "--p", "3", "--n", "5000", "--alpha", "0.95", "--seed", "12"],
    ["verify", "search", "--p", "5", "--V", "uniform:w=1", "--n", "3", "--trials", "5"],
    ["match", "--family", "fminus", "--p", "4", "--a", "1", "--b", "1.35"],
    ["verify", "ordering", "--p", "5", "--n", "2"],
    ["verify", "tail-ordering"],
    ["verify", "sign-changes"],
]
LOADING_COMMANDS = [
    ["verify", "interlacing", "--p", "5"],
]
_CHILD = """
import json, sys
import roskit, roskit.cli
from click.testing import CliRunner

cold, loading = json.loads(sys.argv[1])
runner = CliRunner()
codes = [runner.invoke(roskit.cli.main, args).exit_code for args in cold]
loaded = [m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules]
results = [runner.invoke(roskit.cli.main, args) for args in loading]
print(json.dumps([codes, loaded, [[r.exit_code, r.output] for r in results]]))
"""


class TestColdStart:
    def test_scipy_optimize_and_integrate_load_only_for_interlacing(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, json.dumps([COLD_COMMANDS, LOADING_COMMANDS])],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        codes, loaded, results = json.loads(proc.stdout)
        assert codes == [0] * len(COLD_COMMANDS)
        assert loaded == []
        for args, (code, output) in zip(LOADING_COMMANDS, results):
            res = run_cli(*args)
            assert (code, output) == (0, res.output)

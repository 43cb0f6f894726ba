"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
failure output), runs at the stated tolerance, and enforces the stated
runtime budget.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from roskit import basedist as bd
from roskit import constants as ct
from roskit import cpoisson as cp
from roskit import logconcave as lc
from roskit import specfun
from roskit import verify as vf
from roskit.cli import main as cli_main

SQRT2 = math.sqrt(2.0)


def _report(num: int, desc: str, failures: list, elapsed: float, limit: float):
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {desc} ({elapsed:.2f}s / limit {limit:g}s)")
    assert elapsed < limit, f"criterion {num} exceeded runtime: {elapsed:.2f}s"
    assert not failures, f"criterion {num} failures: {failures}"


def test_criterion_01_sharp_constant_p4():
    t0 = time.perf_counter()
    failures = []
    res = ct.rosenthal_constant_symmetric(4.0, tol=1e-9)
    if abs(res.value - SQRT2) > 1e-9:
        failures.append(f"value {res.value!r} != sqrt2 within 1e-9")
    both = abs(res.diagnostics["sup_value"] - res.diagnostics["lower_branch_value"])
    if both > 1e-9:
        failures.append(f"branches disagree by {both:.2e}")
    # oracles: (1+3)^(1/4) and the Poisson-binomial series value 4
    if abs(res.diagnostics["lower_branch_value"] - 4.0) > 1e-12:
        failures.append("closed-form branch is not 4")
    _report(1, "sharp constant at p=4 equals sqrt(2), both branches", failures,
            time.perf_counter() - t0, 1.0)


def test_criterion_02_branch_continuity_uniform():
    t0 = time.perf_counter()
    failures = []
    res = ct.mixture_sup(4.0, bd.uniform(1.0), 1.0, 1.0, tol=1e-9)
    diag = res.diagnostics
    if abs(diag["lambda"] - 1.8) > 1e-12:
        failures.append(f"lambda {diag['lambda']!r} != 1.8")
    if abs(diag["prefactor"] - 25.0 / 9.0) > 1e-12:
        failures.append(f"prefactor {diag['prefactor']!r} != 25/9")
    if abs(diag["cp_moment"] - 1.44) > 1e-6:
        failures.append(f"compound moment {diag['cp_moment']!r} != 1.44")
    lower = diag["lower_branch_value"]
    if abs(res.value - lower) / lower > 1e-6:
        failures.append(f"grid path mismatch {abs(res.value - lower) / lower:.2e}")
    cum = diag["cp_cumulant_value"]
    if abs(cum - lower) / lower > 1e-12:
        failures.append(f"cumulant path mismatch {abs(cum - lower) / lower:.2e}")
    _report(2, "mixture_sup(4, uniform, 1, 1) = 4 by both branches", failures,
            time.perf_counter() - t0, 30.0)


def test_criterion_03_nonnegative_sums():
    t0 = time.perf_counter()
    failures = []
    v2 = ct.positive_sum_sup(2.0, 1.0, 1.0, tol=1e-12)
    if abs(v2.value - 2.0) > 1e-12:
        failures.append(f"p=2 value {v2.value!r} misses 2 beyond 1e-12")
    v3 = ct.positive_sum_sup(3.0, 1.0, 1.0, tol=1e-9)
    if abs(v3.value - 5.0) > 1e-9:
        failures.append(f"p=3 value {v3.value!r} misses the Touchard value 5")
    # Gaussian-bridge identity through mixture_sup at exponent 2p
    for p, want in ((2.0, 2.0), (3.0, 5.0)):
        m2p = specfun.gaussian_abs_moment(2.0 * p)
        bridge = ct.mixture_sup(
            2.0 * p, bd.gaussian(), 1.0, m2p ** (1.0 / (2.0 * p)), tol=1e-9
        ).value / m2p
        if abs(bridge - want) / want > 1e-6:
            failures.append(f"bridge at p={p}: {bridge!r} vs {want}")
    _report(3, "nonnegative-sum constants 2 and 5 plus Gaussian bridge", failures,
            time.perf_counter() - t0, 5.0)


def test_criterion_04_complex_constant(monkeypatch):
    t0 = time.perf_counter()
    failures = []
    res = ct.complex_constant(4.0, tol=1e-8)
    want = 3.0**0.25
    lower = res.diagnostics["lower_branch_value"]
    if abs(lower - want) > 1e-6:
        failures.append(f"lower branch {lower!r} misses 3^(1/4) beyond 1e-6")
    if abs(res.value - want) > 1e-4:
        failures.append(f"compound-Poisson path {res.value!r} beyond 1e-4")
    if not res.diagnostics["cp_method"].endswith("cumulant"):
        failures.append(f"p = 4 did not take the cumulant route: {res.diagnostics}")
    # the spectral grid, the second route for cosine jumps, agrees as well
    monkeypatch.setattr(cp, "cp_abs_moment", cp._grid_abs_moment)
    grid = ct.complex_constant(4.0, tol=1e-8)
    if abs(grid.value - want) > 1e-4:
        failures.append(f"compound-Poisson grid path {grid.value!r} beyond 1e-4")
    if "grid" not in grid.diagnostics["cp_method"]:
        failures.append(f"cosine jumps did not use the grid: {grid.diagnostics}")
    _report(4, "complex constant at p=4 equals 3^(1/4) by both routes", failures,
            time.perf_counter() - t0, 60.0)


def test_criterion_05_matching_round_trips():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(20260810)
    for family, matcher, interval in (
        ("fminus", lc.match_density_minus, lc.feasibility_interval_density),
        ("fplus", lc.match_density_plus, lc.feasibility_interval_density),
        ("gminus", lambda t: lc.match_tail(t, "minus"), lc.feasibility_interval_tail),
        ("gplus", lambda t: lc.match_tail(t, "plus"), lc.feasibility_interval_tail),
    ):
        for _ in range(500):
            p = float(rng.uniform(4.0, 10.0))
            if p == 4.0:
                continue
            lo, hi = interval(p)
            ratio = float(rng.uniform(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo)))
            a = float(rng.uniform(0.5, 2.0))
            target = lc.MatchTarget(p, a, ratio * a)
            member = matcher(target)
            m2 = member.abs_moment(2.0)
            mp = member.abs_moment(p)
            if abs(m2 - a * a) > 1e-7 * a * a or abs(mp - target.b**p) > 1e-7 * target.b**p:
                failures.append(f"{family} round trip failed at p={p}, ratio={ratio}")
                break
    # boundary targets return the exact limit members
    lo, hi = lc.feasibility_interval_density(5.0)
    if lc.match_density_minus(lc.MatchTarget(5.0, 1.0, lo)).limit != "uniform":
        failures.append("minus lo-boundary is not the uniform member")
    if lc.match_density_minus(lc.MatchTarget(5.0, 1.0, hi)).limit != "exponential":
        failures.append("minus hi-boundary is not the exponential member")
    if lc.match_density_plus(lc.MatchTarget(5.0, 1.0, lo)).limit != "uniform":
        failures.append("plus lo-boundary is not the uniform member")
    if lc.match_tail(lc.MatchTarget(5.0, 1.0, 1.0), "minus").limit != "two_point":
        failures.append("tail lo-boundary is not the two-point member")
    if lc.match_tail(lc.MatchTarget(5.0, 1.0, hi), "plus").limit != "exponential":
        failures.append("tail hi-boundary is not the exponential member")
    _report(5, "2000 moment-matching round trips within 1e-7 relative", failures,
            time.perf_counter() - t0, 60.0)


def test_criterion_06_extremality_never_violated():
    t0 = time.perf_counter()
    failures = []
    for p in (3.0, 5.0):
        for V in (bd.rademacher(), bd.uniform(1.0)):
            rep = vf.search_sup_U(p, V, 1.0, 1.0, n_max=6, trials=500, seed=1234)
            if rep.details["violations"] != 0:
                failures.append(f"{rep.details['violations']} violations at p={p}")
            if rep.best_value > rep.theorem_value * (1.0 + 1e-6):
                failures.append(f"best {rep.best_value!r} beats theorem at p={p}")
    spec, est = ct.witness_construction(3.0, bd.rademacher(), 1.0, 1.0, 10_000, 0.98)
    threshold = 0.95 * (1.0 + specfun.gaussian_abs_moment(3.0))
    if est.value + est.error_bound < threshold:
        failures.append(
            f"witness estimate {est.value!r} (+/- {est.error_bound:.3f}) "
            f"below {threshold!r}"
        )
    if abs(spec.l2_budget_used - 1.0) > 1e-12 or abs(spec.lp_budget_used - 1.0) > 1e-12:
        failures.append("witness budget bookkeeping not exact")
    _report(6, "2000 search candidates never beat the suprema; witness attains",
            failures, time.perf_counter() - t0, 180.0)


def test_criterion_07_logconcave_ordering():
    t0 = time.perf_counter()
    failures = []
    holds, vals, err = vf.check_logconcave_ordering(
        2, vf.GaussianSource(), 5.0, n_cells=16384
    )
    rel_err = err / vals[1]
    if not holds:
        failures.append("density ordering violated")
    if rel_err >= 1e-5:
        failures.append(f"combined error {rel_err:.2e} not below 1e-5 relative")
    if not (vals[1] - vals[0] > err and vals[2] - vals[1] > err):
        failures.append("gaps not strict beyond the combined error")
    src = lc.match_tail(lc.MatchTarget(5.0, 1.0, 1.5), "minus")
    holds_t, vals_t, err_t = vf.check_tail_ordering(2, src, 5.0, n_cells=16384)
    if not holds_t:
        failures.append("tail ordering violated")
    if not (vals_t[2] - vals_t[1] > err_t):
        failures.append("tail upper gap not strict")
    _report(7, "sum-moment bracketing for densities and tails at n=2, p=5",
            failures, time.perf_counter() - t0, 60.0)


def test_criterion_08_lemma_suite():
    t0 = time.perf_counter()
    failures = []
    grid = np.geomspace(1e-3, 1e3, 2000)
    for p in (4.5, 5.0, 7.0, 10.0):
        if not vf.check_psi_convexity(p, grid):
            failures.append(f"psi second differences not positive at p={p}")
    rng = np.random.default_rng(88)
    for p in (4.5, 6.0):
        for _ in range(500):
            alpha = float(rng.uniform(-5.0, 5.0))
            beta = float(rng.uniform(-5.0, 5.0))
            gamma = float(rng.uniform(-1.0, 6.0))
            rep = vf.check_h_signature(p, alpha, beta, gamma)
            if not rep.ok:
                failures.append(f"h signature violated at {(p, alpha, beta, gamma)}")
                break
    for _ in range(1000):
        pts = np.sort(rng.uniform(0.05, 10.0, size=3))
        power = float(rng.uniform(1.1, 4.0))
        ok, _ = vf.check_det_inequality(lambda x, q=power: x**q, *map(float, pts))
        if not ok:
            failures.append(f"determinant negative at {pts}, power {power}")
            break
    p = 5.0
    b = specfun.gaussian_abs_moment(p) ** (1.0 / p)
    member = lc.match_density_minus(lc.MatchTarget(p, 1.0, b))
    xs = np.linspace(1e-4, 8.0, 10_000)
    diff = np.array([vf.GaussianSource().pdf(x) - member.pdf(x) for x in xs])
    rep = vf.count_sign_changes(xs, diff, 1e-9 * float(np.abs(diff).max()))
    if rep.count != 3 or rep.signature != [1, -1, 1, -1]:
        failures.append(f"sign pattern {rep.signature} is not +,-,+,- with 3 changes")
    _report(8, "psi convexity, h signatures, determinants, sign pattern",
            failures, time.perf_counter() - t0, 60.0)


def test_criterion_09_poissonisation():
    t0 = time.perf_counter()
    failures = []
    rad = bd.rademacher().signed_atoms()
    holds, left, right = vf.check_poissonisation([rad, rad], 4.0)
    if not holds or abs(left - 8.0) > 1e-10 or abs(right - 14.0) > 1e-6:
        failures.append(f"exact pair gave ({left!r}, {right!r}) instead of (8, 14)")
    rng = np.random.default_rng(909)
    for trial in range(100):
        n = int(rng.integers(1, 6))
        p = float(rng.choice([4.0, 5.0, 6.0]))
        laws = []
        for _ in range(n):
            loc = float(rng.uniform(0.2, 2.0))
            mass = float(rng.uniform(0.2, 1.0))
            laws.append({loc: mass / 2.0, -loc: mass / 2.0, 0.0: 1.0 - mass})
        holds, left, right = vf.check_poissonisation(laws, p, tol=1e-6)
        if not holds:
            failures.append(f"trial {trial} violated: {left!r} > {right!r}")
            break
    _report(9, "compound Poisson dominates 100 random tuples plus (8, 14)",
            failures, time.perf_counter() - t0, 30.0)


def test_criterion_10_cli_determinism():
    t0 = time.perf_counter()
    failures = []
    runner = CliRunner()
    invocations = [
        ["constant", "--p", "4", "--V", "rademacher", "--seed", "3"],
        ["sup", "--positive", "--p", "2", "--A", "1", "--B", "1"],
        ["match", "--family", "fminus", "--p", "4", "--a", "1", "--b", "1.35"],
        ["verify", "search", "--p", "5", "--V", "uniform:w=1", "--n", "3",
         "--trials", "20", "--seed", "11"],
        ["verify", "h-signature", "--p", "4.5", "--trials", "25", "--seed", "6"],
        ["table", "--p-min", "2.5", "--p-max", "4.5", "--p-step", "0.5",
         "--format", "csv", "--seed", "1"],
        ["extremal", "--p", "3", "--n", "5000", "--alpha", "0.95", "--seed", "12"],
    ]
    for args in invocations:
        first = runner.invoke(cli_main, args, catch_exceptions=False)
        second = runner.invoke(cli_main, args, catch_exceptions=False)
        if first.exit_code != 0 or second.exit_code != 0:
            failures.append(f"{args} exited nonzero")
        elif first.output != second.output:
            failures.append(f"{args} output differs between runs")
        else:
            for line in first.output.strip().splitlines()[1 if "csv" in args else 0:]:
                if args[-2:] == ["--format", "csv"] or "csv" in args:
                    break
                json.loads(line)  # every record re-parses
    _report(10, "repeated CLI invocations are byte-identical", failures,
            time.perf_counter() - t0, 120.0)

"""Answer checks: every output of a batch against a reference from
reference.py, or against a property the method must have.

Each check takes an operation (as built by workloads.py) and the JSON-able
output the batch process recorded for it, and returns a list of failure
messages; an empty list means the answer is right.  No check compares
against a stored copy of an earlier output.

Tolerances: a value with a reported error bound must lie within that bound
of the reference, plus a floor of REL_FLOOR relative for the rounding of
the two computations; the tolerance each check uses is named where it is
not that.
"""

from __future__ import annotations

import json
import math

import reference as ref
import workloads

REL_FLOOR = 1e-11
THEOREM_RTOL = 1e-8   # search reports carry the theorem value at tol 1e-9, without its bound
GRID_CANDIDATE_RTOL = 1e-5  # search candidates on 2048-cell grids report no error bound
MATCH_RTOL = 1e-8     # the program's own acceptance tolerance for a matched member


def atomic_rtol(p: float, n: int) -> float:
    """Relative tolerance of roskit's exact atomic sums: every convolution
    rounds support points to 12 significant digits (a relative move of at
    most 5e-12), which moves |x|^p by p times that, once per summand."""
    return 1e-11 * p * max(n, 1)


def _close(name: str, got: float, want: float, allowed: float) -> list[str]:
    if not abs(got - want) <= allowed:
        return [f"{name}: got {got!r}, reference {want!r}, allowed {allowed:.3e}"]
    return []


def _within(name: str, got: float, lo: float, hi: float, slack: float) -> list[str]:
    if not lo - slack <= got <= hi + slack:
        return [f"{name}: {got!r} outside [{lo!r}, {hi!r}] (slack {slack:.3e})"]
    return []


# ---------------------------------------------------------------------------
# compound Poisson moments


def cp_moment_reference(law, lam: float, p: float):
    """E|T|^p of the compound Poisson sum of conditioned base-law jumps:
    ("exact", value) from an independent route, or ("bracket", (lo, hi))."""
    jump = lambda r: ref.conditioned_moment(law, r)
    if float(p).is_integer() and int(p) % 2 == 0:
        return "exact", ref.cp_even_moment(lam, jump, int(p))
    kind, par = law
    if kind == "rademacher":
        return "exact", ref.skellam_abs_moment(lam, p)
    if kind == "gaussian":
        return "exact", ref.gaussian_cp_abs_moment(lam, p)
    if kind == "atoms":
        return "exact", ref.lattice_cp_abs_moment(lam, par, p)
    return "bracket", ref.log_convexity_bracket(p, lambda r: ref.cp_even_moment(lam, jump, r))


def mixture_sup_reference(law, p: float, A: float, B: float):
    """The supremum over V-mixtures with budgets (A, B): ("exact", value)
    or ("bracket", (lo, hi)), plus (lambda, prefactor) for p >= 4."""
    if p < 4.0:
        return ("exact", B**p + ref.gaussian_abs_moment(p) * A**p), None
    if p == 4.0:
        return ("exact", B**4 + 3.0 * A**4), ref.mixture_parameters(p, law, A, B)
    lam, pref = ref.mixture_parameters(p, law, A, B)
    how, val = cp_moment_reference(law, lam, p)
    scaled = pref * val if how == "exact" else (pref * val[0], pref * val[1])
    return (how, scaled), (lam, pref)


def _against(name: str, got: float, err: float, reference) -> list[str]:
    how, val = reference
    if how == "exact":
        return _close(name, got, val, err + REL_FLOOR * abs(val))
    lo, hi = val
    return _within(name, got, lo, hi, err + REL_FLOOR * hi)


def check_sup_record(rec: dict, law_spec: str, p: float, A: float, B: float) -> list[str]:
    law = ref.parse_law(law_spec)
    reference, params = mixture_sup_reference(law, p, A, B)
    fails = _against(f"sup p={p} V={law_spec}", rec["value"], rec["error_bound"], reference)
    if params is not None:
        lam, pref = params
        fails += _close("lambda", rec["lambda"], lam, 1e-12 * lam)
        fails += _close("prefactor", rec["prefactor"], pref, 1e-12 * pref)
    return fails


def check_complex_record(rec: dict, p: float) -> list[str]:
    beta = ref.steinhaus_beta(p)
    if p < 4.0:
        want = (1.0 + beta * 2.0 ** (-p / 2.0) * ref.gaussian_abs_moment(p)) ** (1.0 / p)
        return _close(f"complex p={p}", rec["value"], want, rec["error_bound"] + REL_FLOOR * want)
    how, val = cp_moment_reference(("cosine", None), 1.0, p)
    if how == "exact":
        reference = ("exact", (beta * val) ** (1.0 / p))
    else:
        reference = ("bracket", ((beta * val[0]) ** (1.0 / p), (beta * val[1]) ** (1.0 / p)))
    return _against(f"complex p={p}", rec["value"], rec["error_bound"], reference)


def check_positive_record(rec: dict, p: float, A: float, B: float) -> list[str]:
    if p < 2.0:
        want = A**p + B**p
        return _close(f"positive p={p}", rec["value"], want, rec["error_bound"] + REL_FLOOR * want)
    lam = (A / B) ** (p / (p - 1.0))
    pref = (B**p / A) ** (p / (p - 1.0))
    want = pref * ref.poisson_power_moment(lam, p)
    fails = _close(f"positive p={p}", rec["value"], want, rec["error_bound"] + REL_FLOOR * want)
    fails += _close("lambda", rec["lambda"], lam, 1e-12 * lam)
    fails += _close("prefactor", rec["prefactor"], pref, 1e-12 * pref)
    return fails


def _json_lines(out: dict) -> tuple[list[dict], list[str]]:
    records, fails = [], []
    for line in out["stdout"].splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            fails.append(f"stdout line does not parse as JSON: {line[:80]!r}")
    return records, fails


def check_cp_sweep(op: dict, out: dict) -> list[str]:
    records, fails = _json_lines(out)
    if fails:
        return fails
    if op["op"] == "table":
        if len(records) != op["count"]:
            return [f"table gave {len(records)} records, expected {op['count']}"]
        for i, rec in enumerate(records):
            want_p = op["p_min"] + i * op["p_step"]
            fails += _close("table p", rec["p"], want_p, 1e-12 * want_p)
            fails += check_sup_record(rec, op["law"], rec["p"], op["A"], op["B"])
        return fails
    if len(records) != 1:
        return [f"expected one record, got {len(records)}"]
    rec = records[0]
    if op["op"] == "sup":
        return check_sup_record(rec, op["law"], op["p"], op["A"], op["B"])
    if op["op"] == "complex":
        return check_complex_record(rec, op["p"])
    return check_positive_record(rec, op["p"], op["A"], op["B"])


# ---------------------------------------------------------------------------
# search


def check_search(op: dict, rep: dict) -> list[str]:
    law = ref.parse_law(op["law"])
    p, A, B = op["p"], op["A"], op["B"]
    reference, _ = mixture_sup_reference(law, p, A, B)
    how, val = reference
    thm = rep["theorem_value"]
    fails = _against("theorem value", thm, THEOREM_RTOL * thm, reference)
    top = val if how == "exact" else val[1]
    if rep["detail_violations"] != 0:
        fails.append(f"{rep['detail_violations']} candidates beat the theorem value")
    if rep["best_value"] > top * (1.0 + 1e-6):
        fails.append(f"best value {rep['best_value']!r} beats the supremum {top!r}")

    n2, npp = ref.law_abs_moment(law, 2.0), ref.law_abs_moment(law, p)
    cfg = rep["best_config"]
    scales, acts = cfg["scales"], cfg["activations"]
    row2 = math.fsum(mu * c * c * n2 for c, mu in zip(scales, acts))
    rowp = math.fsum(mu * c**p * npp for c, mu in zip(scales, acts))
    fails += _close("best_config second-moment row", row2, A * A, 1e-12 * A * A)
    # A summand whose activation would exceed 1 is clamped to activation 1
    # with its second-moment share kept, which overshoots its p-th moment
    # share; the p-th row is a bound only for tuples without such a summand.
    if max(acts) < 1.0 and rowp > B**p * (1.0 + 1e-12):
        fails.append(f"best_config p-th moment row {rowp!r} exceeds B^p = {B**p!r}")

    atomic = law[0] in ("rademacher", "atoms")
    iid = rep["detail_iid_values"]
    if len(iid) != op["n_max"]:
        fails.append(f"{len(iid)} equal-split values for n_max = {op['n_max']}")
    # one summand meets the p-th row with equality unless its activation
    # would exceed 1; clamped, it is c V with c = A / ||V||_2
    single = max(B, A * npp ** (1.0 / p) / math.sqrt(n2)) ** p
    fails += _close("iid_values[0]", iid[0], single, (atomic_rtol(p, 1) if atomic else GRID_CANDIDATE_RTOL) * single)
    if atomic:
        tuple_laws = [ref.thinned_scaled(ref.signed_atoms(law), c, mu) for c, mu in zip(scales, acts)]
        want = ref.enumerate_abs_moment(tuple_laws, p)
        fails += _close("best value by enumeration", rep["best_value"], want, atomic_rtol(p, cfg["n"]) * want)
    else:
        # E|S|^p >= (E S^2)^{p/2} and >= sum E|X_j|^p for independent symmetric X_j
        low = max(row2 ** (p / 2.0), rowp)
        if rep["best_value"] < low * (1.0 - GRID_CANDIDATE_RTOL):
            fails.append(f"best value {rep['best_value']!r} below the elementary bound {low!r}")
    return fails


# ---------------------------------------------------------------------------
# poissonisation


def _tuple_laws(pairs) -> list:
    return [ref.three_point(c, m) for c, m in pairs]


def check_poissonisation_op(op: dict, out) -> list[str]:
    p = op["p"]
    laws = _tuple_laws(op["laws"])
    holds, left, right = out
    fails = [] if holds else [f"poissonisation reported a violation: {left!r} > {right!r}"]
    want_left = ref.enumerate_abs_moment(laws, p)
    rtol = atomic_rtol(p, len(laws))
    fails += _close("E|sum|^p", left, want_left, rtol * want_left)
    if op["op"] == "lower_bound":
        s2 = math.fsum(m * c * c for c, m in op["laws"])
        sp = math.fsum(m * c**p for c, m in op["laws"])
        want_right = max(s2 ** (p / 2.0), sp)
        return fails + _close("lower bound", right, want_right, rtol * want_right)
    lam = math.fsum(m for _, m in op["laws"])
    jump_atoms = tuple(sorted((c, m / lam) for c, m in op["laws"]))
    jump = lambda r: ref.law_abs_moment(("atoms", jump_atoms), r)
    # check_poissonisation returns the compound Poisson side without its
    # error bound; it is asked for at tol, read relative to the value
    allowed = op["tol"] * max(1.0, abs(right))
    if float(p).is_integer() and int(p) % 2 == 0:
        fails += _close("compound Poisson side", right, ref.cp_even_moment(lam, jump, int(p)), allowed)
    else:
        lo, hi = ref.log_convexity_bracket(p, lambda r: ref.cp_even_moment(lam, jump, r))
        fails += _within("compound Poisson side", right, lo, hi, allowed)
    if left > right + op["tol"]:
        fails.append(f"finite sum {left!r} above its Poissonisation {right!r}")
    return fails


def check_three_point(op: dict, out: dict) -> list[str]:
    p, a, b = op["p"], op["a"], op["b"]
    rec = out["record"]
    fails = []
    laws = []
    for (c, mu), aj, bj in zip(out["extremal"], a, b):
        want_c = (bj**p / aj**2) ** (1.0 / (p - 2.0))
        want_mu = (aj / bj) ** (2.0 * p / (p - 2.0))
        fails += _close("scale", c, want_c, 1e-12 * want_c)
        fails += _close("activation", mu, want_mu, 1e-12 * want_mu)
        laws.append(ref.three_point(want_c, want_mu))
    want = ref.enumerate_abs_moment(laws, p)
    allowed = rec["error_bound"] + atomic_rtol(p, len(laws)) * want
    return fails + _close("three-point sup", rec["value"], want, allowed)


def check_individual(op: dict, out: dict) -> list[str]:
    p, a, b = op["p"], op["a"], op["b"]
    law = ref.parse_law(op["law"])
    n2, npp = ref.law_abs_moment(law, 2.0), ref.law_abs_moment(law, p)
    fails = []
    laws = []
    for c, mu, aj, bj in zip(out["scales"], out["activations"], a, b):
        fails += _close("second-moment budget", mu * c * c * n2, aj * aj, 1e-12 * aj * aj)
        fails += _close("p-th moment budget", mu * c**p * npp, bj**p, 1e-12 * bj**p)
        laws.append(ref.thinned_scaled(ref.signed_atoms(law), c, mu))
    want = ref.enumerate_abs_moment(laws, p)
    allowed = out["error_bound"] + atomic_rtol(p, len(laws)) * want
    return fails + _close("individual sup", out["value"], want, allowed)


def check_poissonisation(op: dict, out) -> list[str]:
    if op["op"] in ("poissonisation", "lower_bound"):
        return check_poissonisation_op(op, out)
    if op["op"] == "three_point":
        return check_three_point(op, out)
    return check_individual(op, out)


# ---------------------------------------------------------------------------
# logconcave


_LIMIT_AT = {
    ("fminus", "lo"): "uniform", ("fminus", "hi"): "exponential",
    ("fplus", "lo"): "uniform", ("fplus", "hi"): "exponential",
    ("gminus", "lo"): "two_point", ("gminus", "hi"): "exponential",
    ("gplus", "lo"): "two_point", ("gplus", "hi"): "exponential",
}


def check_match(op: dict, out: dict) -> list[str]:
    p, a, b = workloads.match_target(op)
    rec = out["record"]
    fails = []
    if rec["family"] != op["family"]:
        fails.append(f"matched into {rec['family']}, asked for {op['family']}")
    want_limit = _LIMIT_AT.get((op["family"], op["where"]), "interior")
    if out["limit"] != want_limit or ref.member_limit(rec) != want_limit:
        fails.append(f"{op['family']} at the {op['where']} target is {out['limit']!r}, expected {want_limit!r}")
    fails += _close("matched E X^2", ref.member_abs_moment(rec, 2.0), a * a, MATCH_RTOL * a * a)
    fails += _close("matched E|X|^p", ref.member_abs_moment(rec, p), b**p, MATCH_RTOL * b**p)
    return fails


def _sum_reference(moment, n: int, p: float):
    """("exact", E|X_1+...+X_n|^p) at even p, else the log-convexity bracket,
    for i.i.d. symmetric X with E|X|^r = moment(r)."""
    order = 2 * int(p // 2) + 2
    single = {r: moment(float(r)) for r in range(2, order + 1, 2)}
    sum_moment = lambda r: ref.sum_even_moment(single, n, int(r))
    if float(p).is_integer() and int(p) % 2 == 0:
        return "exact", sum_moment(p)
    return "bracket", ref.log_convexity_bracket(p, sum_moment)


def check_ordering(op: dict, out: dict) -> list[str]:
    n, p = op["n"], op["p"]
    holds, (v_minus, v_source, v_plus), err = out["result"]
    fails = [] if holds else [f"ordering reported as broken: {v_minus!r}, {v_source!r}, {v_plus!r}"]
    if not (v_minus <= v_source + err and v_source <= v_plus + err):
        fails.append(f"values out of order: {v_minus!r}, {v_source!r}, {v_plus!r} (error {err:.3e})")
    if op["source"] == "gaussian":
        source = ("exact", n ** (p / 2.0) * ref.gaussian_abs_moment(p))
    else:
        s = op["scale"]
        source = _sum_reference(lambda r: ref.logistic_abs_moment(r, s), n, p)
    fails += _against("source sum", v_source, err, source)
    minus, plus = out["members"]
    for name, rec, got in (("minus sum", minus, v_minus), ("plus sum", plus, v_plus)):
        fails += _against(name, got, err, _sum_reference(lambda r: ref.member_abs_moment(rec, r), n, p))
    return fails


def check_logconcave(op: dict, out: dict) -> list[str]:
    if op["op"] == "match":
        return check_match(op, out)
    return check_ordering(op, out)


CHECKS = {
    "cp_sweep": check_cp_sweep,
    "search": check_search,
    "poissonisation": check_poissonisation,
    "logconcave": check_logconcave,
}

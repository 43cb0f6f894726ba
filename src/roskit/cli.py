"""Command-line front end.

Emits constants, extremal-law parameters, moment-matching results,
verification reports, and p-grid tables as JSON lines (one object per
line, keys sorted), fixed-column CSV, or aligned text.  Identical flags
and seed produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import basedist, constants, logconcave, verify
from .errors import InputError, RoskitError
from .result import _plain

CSV_COLUMNS = [
    "p", "V", "A", "B", "value", "error_bound", "method", "lambda", "prefactor", "seed",
]

# family name -> matcher; each looks its logconcave function up at call time, so a
# wrapper installed on the module sees the call
_MATCHERS = {
    "fminus": lambda target: logconcave.match_density_minus(target),
    "fplus": lambda target: logconcave.match_density_plus(target),
    "gminus": lambda target: logconcave.match_tail(target, "minus"),
    "gplus": lambda target: logconcave.match_tail(target, "plus"),
}

# most p values one table sweep evaluates
MAX_TABLE_POINTS = 10_000


def _emit(records: list[dict], fmt: str, out: str | None) -> None:
    lines: list[str] = []
    if fmt == "json":
        for rec in records:
            lines.append(json.dumps(_plain(rec), sort_keys=True, ensure_ascii=False))
    elif fmt == "csv":
        lines.append(",".join(CSV_COLUMNS))
        for rec in records:
            row = []
            for col in CSV_COLUMNS:
                val = rec.get(col, "")
                row.append(repr(val) if isinstance(val, float) else str(val))
            lines.append(",".join(row))
    elif fmt == "text":
        for rec in records:
            for key in sorted(rec):
                lines.append(f"{key} = {_plain(rec[key])!r}")
            lines.append("")
    else:
        raise InputError(f"unknown format {fmt!r}")
    payload = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _fail(exc: Exception) -> int:
    kind = type(exc).__name__
    reason = json.dumps({"error": kind, "message": str(exc)}, sort_keys=True)
    click.echo(reason, err=True)
    return 2 if isinstance(exc, InputError) else 1


def _parse_list(text: str | None) -> list[float] | None:
    if text is None:
        return None
    return [basedist.parse_number(chunk, text) for chunk in text.split(",") if chunk != ""]


def _check_tol(ctx, param, tol: float | None) -> float | None:
    if tol is not None and not 0.0 < tol < 1.0:
        raise InputError(f"tolerance must lie in (0, 1), got {tol!r}")
    return tol


def _common(record: dict, **extra) -> dict:
    record.update({k: v for k, v in extra.items() if v is not None})
    return record


def _per_summand_sup(p, V, budget, tol):
    """The supremum under per-summand budgets and the [c_j, mu_j] pairs of its
    thinned extremisers (three-point laws for random signs)."""
    res = constants.mixture_individual_sup(p, V, budget, tol=tol)
    diag = res.diagnostics
    return res, [[c, mu] for c, mu in zip(diag["scales"], diag["activations"])]


_shared_options = [
    click.option("--seed", type=int, default=0, show_default=True),
    click.option("--tol", type=float, default=None, callback=_check_tol,
                 help="tolerance (default 1e-9 closed form, 1e-6 numerical routes)"),
    click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
                 default="json", show_default=True),
    click.option("--out", type=str, default=None, help="output path (default stdout)"),
]


def shared_options(fn):
    for opt in reversed(_shared_options):
        fn = opt(fn)
    return fn


class _Main(click.Group):
    """The command group: a RoskitError becomes a JSON reason and exit code 2 or 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except RoskitError as exc:
            raise SystemExit(_fail(exc))


@click.group(cls=_Main)
def main():
    """Sharp constants and extremal laws of moment inequalities for sums."""


@main.command("constant")
@click.option("--p", type=float, required=True)
@click.option("--V", "v_spec", type=str, default="rademacher", show_default=True)
@click.option("--complex", "complex_case", is_flag=True,
              help="constant for rotationally invariant complex variables")
@shared_options
def constant_cmd(p, v_spec, complex_case, seed, tol, fmt, out):
    """Best constant in the moment inequality at exponent p."""
    tol_eff = tol if tol is not None else (1e-6 if p >= 4 else 1e-9)
    if complex_case:
        res = constants.complex_constant(p, tol_eff)
        v_label = "steinhaus"
    else:
        V = basedist.parse_base_spec(v_spec)
        res = constants.mixture_constant(p, V, tol_eff)
        v_label = basedist.format_base_spec(V)
    rec = _common(res.to_record(), command="constant", p=p, V=v_label,
                  A=1.0, B=1.0, seed=seed)
    _emit([rec], fmt, out)


@main.command("sup")
@click.option("--p", type=float, required=True)
@click.option("--V", "v_spec", type=str, default=None)
@click.option("--A", "A", type=float, default=1.0, show_default=True)
@click.option("--B", "B", type=float, default=1.0, show_default=True)
@click.option("--a", "a_list", type=str, default=None, help="comma list of 2-norm budgets")
@click.option("--b", "b_list", type=str, default=None, help="comma list of p-norm budgets")
@click.option("--positive", is_flag=True, help="nonnegative summands (first-moment budget A)")
@shared_options
def sup_cmd(p, v_spec, A, B, a_list, b_list, positive, seed, tol, fmt, out):
    """Supremum of E|sum|^p under global or per-summand budgets."""
    a = _parse_list(a_list)
    b = _parse_list(b_list)
    if positive:
        res = constants.positive_sum_sup(p, A, B, tol if tol is not None else 1e-9)
        rec = _common(res.to_record(), command="sup", variant="positive",
                      p=p, A=A, B=B, seed=seed)
    elif a is not None or b is not None:
        if a is None or b is None:
            raise InputError("per-summand budgets need both --a and --b")
        budget = constants.MomentBudget.per_pair(p, a, b)
        V = basedist.parse_base_spec(v_spec or "rademacher")
        res, extremal = _per_summand_sup(p, V, budget, tol if tol is not None else 1e-6)
        random_signs = V.kind == "rademacher"
        rec = _common(res.to_record(), command="sup",
                      variant="three_point" if random_signs else "individual",
                      p=p, V=basedist.format_base_spec(V), seed=seed)
        if random_signs:
            rec["extremal"] = extremal
    else:
        V = basedist.parse_base_spec(v_spec or "rademacher")
        tol_eff = tol if tol is not None else (1e-6 if p >= 4 else 1e-9)
        res = constants.mixture_sup(p, V, A, B, tol_eff)
        rec = _common(res.to_record(), command="sup", variant="mixture",
                      p=p, V=basedist.format_base_spec(V), A=A, B=B, seed=seed)
    _emit([rec], fmt, out)


@main.command("extremal")
@click.option("--p", type=float, required=True)
@click.option("--V", "v_spec", type=str, default="rademacher", show_default=True)
@click.option("--A", "A", type=float, default=1.0, show_default=True)
@click.option("--B", "B", type=float, default=1.0, show_default=True)
@click.option("--a", "a_list", type=str, default=None)
@click.option("--b", "b_list", type=str, default=None)
@click.option("--n", type=int, default=10_000, show_default=True,
              help="summands per block of the near-extremal witness (p < 4)")
@click.option("--alpha", type=float, default=None,
              help="central-limit block weight (p < 4); default 0.98 A/||V||_2")
@shared_options
def extremal_cmd(p, v_spec, A, B, a_list, b_list, n, alpha, seed, tol, fmt, out):
    """Parameters of the (near-)extremal tuple attaining the supremum."""
    V = basedist.parse_base_spec(v_spec)
    v_label = basedist.format_base_spec(V)
    a = _parse_list(a_list)
    b = _parse_list(b_list)
    if p >= 4.0 and a is not None and b is not None:
        budget = constants.MomentBudget.per_pair(p, a, b)
        res, extremal = _per_summand_sup(p, V, budget, tol or 1e-6)
        rec = _common(res.to_record(), command="extremal", kind="three_point",
                      p=p, V=v_label, seed=seed)
        rec["extremal"] = extremal
    elif p >= 4.0:
        res = constants.mixture_sup(p, V, A, B, tol if tol is not None else 1e-6)
        if "prefactor" not in res.diagnostics:
            raise InputError(f"the extremal intensity {res.diagnostics['lambda']!r} is below "
                             "the smallest normal float; `sup` gives its one-jump limit")
        rec = {
            "command": "extremal",
            "kind": "compound_poisson",
            "p": p, "V": v_label, "A": A, "B": B, "seed": seed,
            "lambda": res.diagnostics["lambda"],
            "prefactor": res.diagnostics["prefactor"],
            "scale": res.diagnostics["prefactor"] ** (1.0 / p),
            "value": res.value,
            "error_bound": res.error_bound,
            "method": res.method,
        }
    else:
        nv2 = math.sqrt(basedist.abs_moment(V, 2.0))
        alpha_eff = alpha if alpha is not None else 0.98 * A / nv2
        # an atomic law but random signs takes the Fourier route, whose envelope never decays
        spec, est = constants.witness_construction(
            p, V, A, B, n, alpha_eff, estimate_moment=V.kind == "rademacher" or not V.is_atomic)
        rec = {
            "command": "extremal",
            "kind": "two_block_witness",
            "p": p, "V": v_label, "A": A, "B": B, "seed": seed,
            "n": spec.n, "alpha": spec.alpha, "gamma": spec.gamma,
            "lambda": spec.lam,
            "block1_scale": spec.alpha / math.sqrt(spec.n),
            "block2_activation": spec.lam / spec.n,
            "l2_budget_used": spec.l2_budget_used,
            "lp_budget_used": spec.lp_budget_used,
            "sup_value": constants.mixture_sup(p, V, A, B).value,
        }
        if est is not None:
            rec["estimated_moment"] = est.value
            rec["error_bound"] = est.error_bound
            rec["method"] = est.method
    _emit([rec], fmt, out)


@main.command("match")
@click.option("--family", type=click.Choice(tuple(_MATCHERS)), required=True)
@click.option("--p", type=float, required=True)
@click.option("--a", type=float, required=True, help="second-moment root: EX^2 = a^2")
@click.option("--b", type=float, required=True, help="p-th-moment root: E|X|^p = b^p")
@shared_options
def match_cmd(family, p, a, b, seed, tol, fmt, out):
    """Match a moment pair to the unique extremal family member."""
    member = _MATCHERS[family](logconcave.MatchTarget(p, a, b))
    rec = member.to_record()
    rec.update(
        command="match",
        p=p,
        target_a=a,
        target_b=b,
        achieved_m2=member.abs_moment(2.0),
        achieved_mp=member.abs_moment(p),
        limit=member.limit,
        seed=seed,
    )
    _emit([rec], fmt, out)


def _search_suite(p, V, A, B, n, trials, seed, tol, **_):
    rep = verify.search_sup_U(p, V, A, B, n_max=n, trials=trials, seed=seed, tol=tol)
    yield {**rep.to_record(), "p": p, "V": basedist.format_base_spec(V), "A": A, "B": B,
           "holds": rep.best_value <= rep.theorem_value * (1.0 + 1e-6)}


def _atomic_suite(check):
    """A suite running check(laws, p, tol) on random tuples of three-point laws."""
    def records(p, n, trials, tol, rng, **_):
        for trial in range(trials):
            count = int(rng.integers(1, n + 1))
            draws = [(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 1.0)))
                     for _ in range(count)]
            laws = [{loc: m / 2.0, -loc: m / 2.0, 0.0: 1.0 - m} for loc, m in draws]
            holds, left, right = check(laws, p, tol)
            yield {"p": p, "trial": trial, "n": count, "left": left, "right": right,
                   "holds": holds}
    return records


def _sign_changes_suite(p, **_):
    b = basedist.abs_moment(basedist.gaussian(), p) ** (1.0 / p)
    member = logconcave.match_density_minus(logconcave.MatchTarget(p, 1.0, b))
    source = verify.GaussianSource()
    xs = np.linspace(1e-4, 8.0, 10_000)
    diff = np.array([source.pdf(x) - member.pdf(x) for x in xs])
    rep = verify.count_sign_changes(xs, diff, 1e-9 * float(np.abs(diff).max()))
    yield {"p": p, "count": rep.count, "signature": rep.signature,
           "locations": rep.locations, "grid_points": len(xs),
           "holds": rep.count == 3 and rep.signature == [1, -1, 1, -1]}


def _psi_convexity_suite(p, **_):
    xs = np.geomspace(1e-3, 1e3, 2000)
    yield {"p": p, "grid_points": len(xs), "holds": bool(verify.check_psi_convexity(p, xs))}


def _h_signature_suite(p, trials, rng, **_):
    for trial in range(trials):
        alpha = float(rng.uniform(-5.0, 5.0))
        beta = float(rng.uniform(-5.0, 5.0))
        gamma = float(rng.uniform(-1.0, 6.0))
        rep = verify.check_h_signature(p, alpha, beta, gamma)
        yield {"p": p, "trial": trial, "alpha": alpha, "beta": beta, "gamma": gamma,
               "count": rep.count, "signature": rep.signature, "x_max": rep.x_max,
               "holds": rep.ok}


def _determinant_suite(trials, rng, **_):
    for trial in range(trials):
        pts = np.sort(rng.uniform(0.05, 10.0, size=3))
        if pts[0] >= pts[1] or pts[1] >= pts[2]:
            continue
        power = float(rng.uniform(1.1, 4.0))
        ok, det = verify.check_det_inequality(
            lambda x, q=power: x**q, float(pts[0]), float(pts[1]), float(pts[2])
        )
        yield {"trial": trial, "x": [float(v) for v in pts], "power": power, "det": det,
               "holds": ok}


def _interlacing_suite(p, **_):
    b = basedist.abs_moment(basedist.gaussian(), p) ** (1.0 / p)
    target = logconcave.MatchTarget(p, 1.0, b)
    source = verify.GaussianSource()
    for member, side in (
        (logconcave.match_density_minus(target), "minus"),
        (logconcave.match_density_plus(target), "plus"),
    ):
        for z in (0.0, 0.5, 2.0):
            holds, lhs, rhs = verify.check_interlacing(source, member, z, p)
            yield {"p": p, "family": side, "z": z, "lhs": lhs, "rhs": rhs, "holds": holds}


def _ordering_record(rep, p, n, **extra):
    return {"p": p, "n": n, **extra, "minus": rep.values[0], "source": rep.values[1],
            "plus": rep.values[2], "combined_error": rep.combined_error, "method": rep.method,
            "holds": rep.holds}


def _ordering_suite(p, n, **_):
    yield _ordering_record(verify.ordering_report(n, verify.GaussianSource(), p, "density",
                                                  n_cells=16384), p, n)


def _tail_ordering_suite(p, n, **_):
    lo, hi = logconcave.feasibility_interval_tail(p)
    ratio = 0.5 * (lo + hi)
    source = logconcave.match_tail(logconcave.MatchTarget(p, 1.0, ratio), "minus")
    yield _ordering_record(verify.ordering_report(n, source, p, "tail", n_cells=16384), p, n,
                           source_ratio=ratio)


# suite name -> generator of its records, each without the command, suite and seed keys
_SUITES = {
    "search": _search_suite,
    "poissonisation": _atomic_suite(verify.check_poissonisation),
    "lower-bound": _atomic_suite(lambda laws, p, tol: verify.check_easy_lower_bound(laws, p)),
    "sign-changes": _sign_changes_suite,
    "psi-convexity": _psi_convexity_suite,
    "h-signature": _h_signature_suite,
    "determinant": _determinant_suite,
    "interlacing": _interlacing_suite,
    "ordering": _ordering_suite,
    "tail-ordering": _tail_ordering_suite,
}
VERIFY_SUITES = tuple(_SUITES)


def _verify_records(suite, p, v_spec, A, B, n, trials, seed, tol):
    V = basedist.parse_base_spec(v_spec)
    if suite in ("poissonisation", "lower-bound") and n > constants.MAX_ENUM_SUMMANDS:
        raise InputError(f"--n {n} exceeds the summand cap {constants.MAX_ENUM_SUMMANDS}")
    records = _SUITES[suite](p=p, V=V, A=A, B=B, n=n, trials=trials, seed=seed, tol=tol,
                             rng=np.random.default_rng(seed))
    return [{"command": "verify", "suite": suite, "seed": seed, **rec} for rec in records]


@main.command("verify")
@click.argument("suite", type=click.Choice(VERIFY_SUITES))
@click.option("--p", type=float, default=5.0, show_default=True)
@click.option("--V", "v_spec", type=str, default="rademacher", show_default=True)
@click.option("--A", "A", type=float, default=1.0, show_default=True)
@click.option("--B", "B", type=float, default=1.0, show_default=True)
@click.option("--n", type=int, default=2, show_default=True,
              help="tuple length / summand count / search width")
@click.option("--trials", type=int, default=100, show_default=True)
@shared_options
def verify_cmd(suite, p, v_spec, A, B, n, trials, seed, tol, fmt, out):
    """Run a named verification suite and report every check."""
    records = _verify_records(
        suite, p, v_spec, A, B, n, trials, seed, tol if tol is not None else 1e-6
    )
    _emit(records, fmt, out)
    if not all(rec.get("holds", True) for rec in records):
        raise SystemExit(1)


@main.command("table")
@click.option("--p-min", type=float, required=True)
@click.option("--p-max", type=float, required=True)
@click.option("--p-step", type=float, required=True)
@click.option("--V", "v_spec", type=str, default="rademacher", show_default=True)
@click.option("--A", "A", type=float, default=1.0, show_default=True)
@click.option("--B", "B", type=float, default=1.0, show_default=True)
@click.option("--positive", is_flag=True)
@click.option("--complex", "complex_case", is_flag=True)
@shared_options
def table_cmd(p_min, p_max, p_step, v_spec, A, B, positive, complex_case,
              seed, tol, fmt, out):
    """Sweep a p-grid and emit one record per point (ordered by p)."""
    if p_step <= 0.0 or not (math.isfinite(p_min) and math.isfinite(p_max)):
        raise InputError("grid bounds must be finite with positive step")
    count = int(math.floor((p_max - p_min) / p_step + 1e-9)) + 1
    if count < 1:
        raise InputError("empty p grid")
    if count > MAX_TABLE_POINTS:
        raise InputError(f"p grid has {count} points; the cap is {MAX_TABLE_POINTS}")
    V = basedist.parse_base_spec(v_spec)
    v_label = "steinhaus" if complex_case else basedist.format_base_spec(V)

    def one(p: float) -> dict:
        tol_eff = tol if tol is not None else (1e-6 if p >= 4 else 1e-9)
        if positive:
            res = constants.positive_sum_sup(p, A, B, tol_eff)
        elif complex_case:
            res = constants.complex_constant(p, tol_eff)
        else:
            res = constants.mixture_sup(p, V, A, B, tol_eff)
        return _common(res.to_record(), command="table", p=p, V=v_label,
                       A=A, B=B, seed=seed)

    _emit([one(p_min + i * p_step) for i in range(count)], fmt, out)


if __name__ == "__main__":
    main()

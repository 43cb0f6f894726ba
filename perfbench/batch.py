"""One batch of a workload against roskit, in a process of its own.

    python3 perfbench/batch.py --workload NAME --seed N [--repeat R] [--trace 0|1] --out FILE
    python3 perfbench/batch.py --workload NAME --seed N --setup-only

Imports roskit from ./src, makes the workload's first call, then (unless
--setup-only) runs the batch one call at a time and writes, as JSON, each
call's output and wall time, the batch's wall time and the process's peak
resident memory.  With --trace 1 the batch runs under tracing.Tracer and the
file also carries the per-layer metrics and the spans.  Checking the
answers is left to run.py, which never imports roskit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer


def _peak_rss_mb() -> float:
    """High-water resident memory of this process's address space.

    getrusage's ru_maxrss would not do: Linux carries it across exec, so a
    child of a large parent starts out with the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _import_roskit():
    src = Path.cwd() / "src"
    if not (src / "roskit" / "__init__.py").is_file():
        sys.exit(f"no roskit sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import roskit
    import roskit.cli

    if Path(roskit.__file__).resolve().parent != (src / "roskit").resolve():
        sys.exit(f"imported roskit from {roskit.__file__}, not from {src}")
    return roskit


def _cli(roskit, argv):
    from click.testing import CliRunner

    runner = CliRunner()

    def call():
        res = runner.invoke(roskit.cli.main, argv)
        if res.exit_code != 0:
            raise RuntimeError(f"exit {res.exit_code}: {res.stderr.strip() or res.exception!r}")
        return {"stdout": res.stdout}

    return call


def _three_point(pairs):
    return [{c: m / 2.0, -c: m / 2.0, 0.0: 1.0 - m} for c, m in pairs]


def _source(roskit, op):
    if op["source"] == "gaussian":
        return roskit.verify.GaussianSource()
    return roskit.verify.LogisticSource(op["scale"])


def prepare(roskit, op):
    """A no-argument callable making the op's call and returning its output
    in JSON-able form."""
    bd, ct, lc, vf = roskit.basedist, roskit.constants, roskit.logconcave, roskit.verify
    kind = op["op"]
    if "argv" in op:
        return _cli(roskit, op["argv"])
    if kind == "search":
        V = bd.parse_base_spec(op["law"])
        return lambda: vf.search_sup_U(op["p"], V, op["A"], op["B"], n_max=op["n_max"],
                                       trials=op["trials"], seed=op["seed"]).to_record()
    if kind == "poissonisation":
        laws = _three_point(op["laws"])
        return lambda: list(vf.check_poissonisation(laws, op["p"], tol=op["tol"]))
    if kind == "lower_bound":
        laws = _three_point(op["laws"])
        return lambda: list(vf.check_easy_lower_bound(laws, op["p"]))
    if kind == "three_point":
        budget = ct.MomentBudget.per_pair(op["p"], op["a"], op["b"])

        def three_point():
            res, extremal = ct.utev_3point_sup(op["p"], budget)
            return {"record": res.to_record(), "extremal": [list(pair) for pair in extremal]}
        return three_point
    if kind == "individual":
        V = bd.parse_base_spec(op["law"])
        budget = ct.MomentBudget.per_pair(op["p"], op["a"], op["b"])
        return lambda: ct.mixture_individual_sup(op["p"], V, budget).to_record()
    if kind == "match":
        target = lc.MatchTarget(*workloads.match_target(op))
        fn = {
            "fminus": lc.match_density_minus,
            "fplus": lc.match_density_plus,
            "gminus": lambda t: lc.match_tail(t, "minus"),
            "gplus": lambda t: lc.match_tail(t, "plus"),
        }[op["family"]]

        def match():
            member = fn(target)
            return {"record": member.to_record(), "limit": member.limit}
        return match
    if kind in ("ordering", "tail_ordering"):
        source = _source(roskit, op)
        check = vf.check_logconcave_ordering if kind == "ordering" else vf.check_tail_ordering
        return lambda: {"result": check(op["n"], source, op["p"], n_cells=op["n_cells"])}
    raise ValueError(f"unknown op {kind!r}")


def matched_members(roskit, op):
    """The extremal members an ordering op compared its source with, matched
    again outside the timed batch so that the checks can rebuild their sums."""
    lc = roskit.logconcave
    source = _source(roskit, op)
    p = op["p"]
    target = lc.MatchTarget(p, math.sqrt(source.abs_moment(2.0)), source.abs_moment(p) ** (1.0 / p))
    if op["op"] == "ordering":
        pair = (lc.match_density_minus(target), lc.match_density_plus(target))
    else:
        pair = (lc.match_tail(target, "minus"), lc.match_tail(target, "plus"))
    return [member.to_record() for member in pair]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    roskit = _import_roskit()
    first, ops = workloads.build(args.workload, args.seed, args.repeat)
    prepare(roskit, first)()
    if args.setup_only:
        print(time.perf_counter())  # set-up ends here, on the clock run.py started from
        return 0

    calls = [prepare(roskit, op) for op in ops]
    tracer = None
    if args.trace:
        tracer = Tracer().install(roskit)
    records = []
    t0 = time.perf_counter()
    for call in calls:
        start = time.perf_counter()
        try:
            records.append({"out": call(), "s": time.perf_counter() - start})
        except Exception as exc:  # a failed operation is counted, not fatal
            records.append({"error": f"{type(exc).__name__}: {exc}", "s": time.perf_counter() - start})
    solve_s = time.perf_counter() - t0
    peak_rss_mb = _peak_rss_mb()
    if tracer:
        tracer.uninstall()

    # properties checked outside the timed batch
    for op, rec in zip(ops, records):
        if "error" in rec:
            continue
        if op.get("recheck") and args.repeat == 0:
            rec["recheck_same"] = prepare(roskit, op)()["stdout"] == rec["out"]["stdout"]
        if op["op"] in ("ordering", "tail_ordering"):
            rec["out"]["members"] = matched_members(roskit, op)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "solve_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
        "calls": records,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark in alternating parent/change pairs and summarise them.

    python tools/bench_pairs.py run --base ../parent --workload cp_sweep \
        --seeds 101-112 --out pairs.jsonl
    python tools/bench_pairs.py summarise pairs.jsonl > BENCH_N.json

``run`` executes ``python3 perfbench/run.py --workload W --seed N --seconds 18
--trace 0`` once in the base tree (a checkout of the parent commit) and once
in this tree for every seed, alternating which side goes first, and appends
one JSON line per run to ``--out``.  ``summarise`` reads such files and
prints, per workload and end-to-end metric, each side's median and
quartiles, the change's wins over the pairs (ties count for neither side),
the failed and incorrect runs, and the machine the runs were made on.

Each end-to-end metric also gets a verdict, with its ``bound`` read from
``BENCHMARK.json`` (every one of them is better lower):

- "better": the change is lower in at least nine tenths of the pairs, and
  its median is below the parent's by more than the parent's interquartile
  range;
- "worse": the change's median exceeds the parent's by more than the bound;
- "unresolved": neither, and the parent's interquartile range exceeds the
  bound times its median, so the runs spread too widely to tell;
- "no change": otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(base: Path, workload: str, seeds: list[int], out: Path) -> None:
    trees = {"parent": base.resolve(), "change": HERE}
    for i, seed in enumerate(seeds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", "18", "--trace", "0"],
                cwd=trees[side], capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with out.open("a", encoding="utf-8") as fh:
                record = {"workload": workload, "seed": seed, "side": side,
                          "first": i % 2 == (side == "change"), "result": result}
                fh.write(json.dumps(record) + "\n")
            print(workload, seed, side, result["metrics"], flush=True)


def _quartiles(xs: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q2, q3]


def verdict(parent: list[float], change: list[float], bound: float) -> str:
    """The verdict on one metric of paired runs, parent[i] against change[i]."""
    q1, median, q3 = _quartiles(parent)
    change_median = statistics.median(change)
    if (sum(c < p for p, c in zip(parent, change)) >= 0.9 * len(parent)
            and median - change_median > q3 - q1):
        return "better"
    if change_median > median * (1.0 + bound):
        return "worse"
    if q3 - q1 > bound * median:
        return "unresolved"
    return "no change"


def summarise(paths: list[str]) -> dict:
    spec = json.loads((HERE / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = [json.loads(line) for path in paths for line in Path(path).read_text().splitlines()]
    workloads: dict = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == w]
        by_seed = {(r["seed"], r["side"]): r["result"] for r in mine}
        seeds = sorted({r["seed"] for r in mine})
        failed = {s: sum(r["result"]["failed"] for r in mine if r["side"] == s)
                  for s in ("parent", "change")}
        summary: dict = {"seeds": seeds, "failed_operations": failed,
                         "runs_incorrect": sum(not r["result"]["correct"] for r in mine)}
        for metric in mine[0]["result"]["metrics"]:
            pairs = [(by_seed[s, "parent"]["metrics"][metric]["value"],
                      by_seed[s, "change"]["metrics"][metric]["value"]) for s in seeds]
            parent, change = [p for p, _ in pairs], [c for _, c in pairs]
            qp, qc = _quartiles(parent), _quartiles(change)
            summary[metric] = {
                "unit": mine[0]["result"]["metrics"][metric]["unit"],
                "parent_median": qp[1], "parent_quartiles": [qp[0], qp[2]],
                "change_median": qc[1], "change_quartiles": [qc[0], qc[2]],
                "change_lower_in": sum(c < p for p, c in pairs), "pairs": len(pairs),
                "parent": parent, "change": change,
            }
            if metric in bounds:
                summary[metric]["verdict"] = verdict(parent, change, bounds[metric])
        workloads[w] = summary
    machine = {"platform": platform.platform(), "python": platform.python_version(),
               "processor": platform.processor() or platform.machine(), "nproc": os.cpu_count()}
    return {"machine": machine,
            "command": "python3 perfbench/run.py --workload W --seed N --seconds 18 --trace 0",
            "workloads": workloads}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--base", type=Path, required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", type=_seeds, required=True, help="a seed or a range, say 101-112")
    r.add_argument("--out", type=Path, required=True)
    s = sub.add_parser("summarise")
    s.add_argument("paths", nargs="+")
    args = parser.parse_args()
    if args.cmd == "run":
        run(args.base, args.workload, args.seeds, args.out)
    else:
        print(json.dumps(summarise(args.paths), indent=1))

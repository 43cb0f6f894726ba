"""tools/bench_pairs.py summarise on synthetic runs: one verdict of each kind,
against the bounds that BENCHMARK.json fixes (0.25 on times, 0.15 on memory)."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SEEDS = range(1, 11)


def _line(workload, seed, side, metrics):
    result = {"correct": True, "failed": 0,
              "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()}}
    return json.dumps({"workload": workload, "seed": seed, "side": side, "result": result})


def test_one_verdict_of_each_kind(tmp_path):
    lines = []
    for i in SEEDS:
        jitter = 0.01 * (i % 3)
        lines.append(_line("w", i, "parent", {
            "setup_s": 0.80 + jitter, "solve_s": 1.00 + jitter,
            "peak_rss_mb": 50.0 if i % 2 else 100.0}))
        lines.append(_line("w", i, "change", {
            # lower in 9 of 10 pairs, by far more than the parent's spread
            "setup_s": 0.50 if i > 1 else 0.90,
            # 30 % above the parent, past the 0.25 bound
            "solve_s": 1.30 + jitter,
            # the parent's own runs spread 67 % of their median, past 0.15
            "peak_rss_mb": 100.0 if i % 2 else 50.0}))
        same = {"setup_s": 0.7 + jitter, "solve_s": 0.2, "peak_rss_mb": 60.0}
        lines += [_line("v", i, "parent", same), _line("v", i, "change", same)]
    path = tmp_path / "pairs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    summary = bench_pairs.summarise([str(path)])["workloads"]
    assert summary["w"]["setup_s"]["change_lower_in"] == 9
    assert {m: summary["w"][m]["verdict"] for m in ("setup_s", "solve_s", "peak_rss_mb")} == {
        "setup_s": "better", "solve_s": "worse", "peak_rss_mb": "unresolved"}
    assert {summary["v"][m]["verdict"] for m in ("setup_s", "solve_s", "peak_rss_mb")} == {
        "no change"}


def test_eight_wins_are_not_better():
    parent = [1.0] * 10
    assert bench_pairs.verdict(parent, [0.5] * 8 + [1.0] * 2, 0.25) == "no change"
    assert bench_pairs.verdict(parent, [0.5] * 9 + [1.0], 0.25) == "better"

"""roskit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones (setup_s, solve_s, peak_rss_mb); with
--trace 1 they are the per-layer ones.  Each workload is a fixed batch of
calls (see workloads.py), so --seconds is accepted for the harness but
does not change the batch: a run makes REPEATS batches, each in a fresh
process with inputs of its own, and they take about that long together.
solve_s and peak_rss_mb are the medians over those batches, setup_s the
median over SETUP_REPEATS fresh interpreters.

BLAS and OpenMP threads are pinned to 1 in every process this script
starts, and ROSKIT_THREADS to 1, so that no run depends on how busy the
machine's other cores are.  Every answer is checked (checks.py); roskit
itself is imported only by the batch processes (batch.py).
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "ROSKIT_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads in this process too

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
REPEATS = 3
IMPORT_REPEATS = 3
DEADLINE = time.monotonic() + 170.0  # a run ends within 180 s, hung children included


def _child(args: list[str], **kw) -> subprocess.CompletedProcess:
    """Run a Python child to completion; on the deadline it is killed and
    TimeoutExpired ends the run without a result."""
    return subprocess.run([sys.executable, *args], env=dict(os.environ), check=True,
                          timeout=max(1.0, DEADLINE - time.monotonic()), **kw)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Times from starting a fresh interpreter until it has imported roskit
    and roskit.cli and made the workload's first call.

    The child reports the end on the monotonic clock, which Linux shares
    between processes; timing the child's exit from here would round to
    the 50 ms polling step subprocess uses when waiting with a timeout.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = _child([str(HERE / "batch.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
                      capture_output=True, text=True)
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def measure_imports() -> dict:
    """Cumulative import times of roskit and scipy.fft from -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    found: dict = {"import.roskit_s": [], "import.scipy_fft_s": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import roskit, roskit.cli"], env=env,
                              timeout=max(1.0, DEADLINE - time.monotonic()), check=True, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            key = {"roskit": "import.roskit_s", "scipy.fft": "import.scipy_fft_s"}.get(name.strip())
            if key:
                found[key].append(int(cumulative) * 1e-6)
    return {key: statistics.median(vals) for key, vals in found.items()}


def check_batch(workload: str, ops: list[dict], records: list[dict]) -> tuple[int, list[str]]:
    """(failed operations, failure messages of the answers that came back)."""
    failed = 0
    messages = []
    for i, (op, rec) in enumerate(zip(ops, records)):
        if "error" in rec:
            failed += 1
            continue
        for msg in checks.CHECKS[workload](op, rec["out"]):
            messages.append(f"op {i} ({op['cls']}): {msg}")
        if rec.get("recheck_same") is False:
            messages.append(f"op {i} ({op['cls']}): repeated invocation gave different stdout")
    return failed, messages


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="roskit benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (Path.cwd() / "src" / "roskit" / "__init__.py").is_file():
        print("perfbench: run from the root of a roskit checkout (no src/roskit here)", file=sys.stderr)
        return 2

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    # the per-layer counts repeat exactly, so a traced run needs one batch
    batches, attempted, failed, messages, calls = [], 0, 0, [], []
    for repeat in range(1 if args.trace else REPEATS):
        out = results / f"{stem}-r{repeat}.json"
        _child([str(HERE / "batch.py"), "--workload", args.workload, "--seed", str(args.seed),
                "--repeat", str(repeat), "--trace", str(args.trace), "--out", str(out)])
        batch = json.loads(out.read_text(encoding="utf-8"))
        _, ops = workloads.build(args.workload, args.seed, repeat)
        n_failed, msgs = check_batch(args.workload, ops, batch["calls"])
        batches.append(batch)
        attempted += len(ops)
        failed += n_failed
        messages += [f"repeat {repeat} {msg}" for msg in msgs]
        calls += [{"cls": op["cls"], "s": rec["s"]} for op, rec in zip(ops, batch["calls"])]
    for msg in messages[:20]:
        print(f"perfbench: {msg}", file=sys.stderr)

    if args.trace:
        values = {**batches[0]["layers"], **measure_imports()}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "solve_s": {"value": statistics.median(b["solve_s"] for b in batches), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(b["peak_rss_mb"] for b in batches), "unit": "MB"},
        }
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "setup_runs_s": setup, "solve_runs_s": [b["solve_s"] for b in batches],
        "peak_rss_runs_mb": [b["peak_rss_mb"] for b in batches], "failures": messages, "calls": calls,
    }
    (results / f"{stem}.summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(json.dumps({"correct": not messages, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

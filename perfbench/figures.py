"""Reference figures for the README, measured the way the benchmark measures.

    python3 perfbench/figures.py baseline   # the ROADMAP baseline rows
    python3 perfbench/figures.py threads    # roskit table with ROSKIT_THREADS=1 against 2
    python3 perfbench/figures.py blas       # solve_s and CPU time with BLAS threads pinned and not
    python3 perfbench/figures.py overhead   # batch wall time traced against untraced
    python3 perfbench/figures.py latency    # per-call p50 and tail by call class, from results/

Run from the repository root, after run.py for `latency`.  Prints one JSON
object per line.  These are reference figures, not gated metrics.
"""

from __future__ import annotations

import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import THREAD_ENV as PINNED  # importing run pins this process's threads too

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"


def _timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def baseline() -> None:
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = []
    for _ in range(5):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import time, roskit; print(time.perf_counter())"],
                              env=env, check=True, capture_output=True, text=True, timeout=60)
        imports.append(float(proc.stdout) - start)
    print(json.dumps({"row": "import roskit (fresh interpreter)", "s": statistics.median(imports), "runs": 5}))

    from roskit import basedist as bd, constants as ct, verify as vf

    ct.mixture_sup(5.0, bd.uniform(1.0), 0.3, 1.0, 1e-6)  # lazy scipy.fft import out of the way
    small = bd.symmetric_atoms([(0.0, 0.3), (1.0, 0.4), (2.5, 0.3)])
    rows = [
        ("mixture_sup p=5 tol 1e-6 rademacher", lambda: ct.mixture_sup(5.0, bd.rademacher(), 1.0, 1.0, 1e-6), 5),
        ("mixture_sup p=5 tol 1e-6 gaussian", lambda: ct.mixture_sup(5.0, bd.gaussian(), 1.0, 1.0, 1e-6), 5),
        ("mixture_sup p=5 tol 1e-6 atoms {0:.3,1:.4,2.5:.3}", lambda: ct.mixture_sup(5.0, small, 1.0, 1.0, 1e-6), 5),
        ("mixture_sup p=5 tol 1e-6 cosine", lambda: ct.mixture_sup(5.0, bd.cosine_projection(), 1.0, 1.0, 1e-6), 3),
        ("mixture_sup p=5 tol 1e-6 uniform", lambda: ct.mixture_sup(5.0, bd.uniform(1.0), 1.0, 1.0, 1e-6), 3),
        ("mixture_sup p=4 tol 1e-9 uniform", lambda: ct.mixture_sup(4.0, bd.uniform(1.0), 1.0, 1.0, 1e-9), 3),
        ("complex_constant p=5", lambda: ct.complex_constant(5.0), 3),
        ("search_sup_U 500 trials n<=6 p=3 rademacher",
         lambda: vf.search_sup_U(3.0, bd.rademacher(), 1.0, 1.0, n_max=6, trials=500, seed=0), 1),
        ("search_sup_U 500 trials n<=6 p=5 rademacher",
         lambda: vf.search_sup_U(5.0, bd.rademacher(), 1.0, 1.0, n_max=6, trials=500, seed=0), 1),
        ("search_sup_U 500 trials n<=6 p=3 uniform",
         lambda: vf.search_sup_U(3.0, bd.uniform(1.0), 1.0, 1.0, n_max=6, trials=500, seed=0), 1),
        ("search_sup_U 500 trials n<=6 p=5 uniform",
         lambda: vf.search_sup_U(5.0, bd.uniform(1.0), 1.0, 1.0, n_max=6, trials=500, seed=0), 1),
        ("mixture_sup p=5 B=1 A=3 uniform (lambda 73.6)", lambda: ct.mixture_sup(5.0, bd.uniform(1.0), 3.0, 1.0), 1),
        ("mixture_sup p=5 B=1 A=10 rademacher (lambda 2154)",
         lambda: ct.mixture_sup(5.0, bd.rademacher(), 10.0, 1.0), 1),
    ]
    for name, fn, repeats in rows:
        print(json.dumps({"row": name, "s": _timed(fn, repeats), "runs": repeats}), flush=True)


def threads() -> None:
    argv = [sys.executable, "-m", "roskit.cli", "table", "--p-min", "4", "--p-max", "8", "--p-step", "0.5",
            "--V", "uniform:w=1"]
    times: dict = {"1": [], "2": []}
    outputs = {}
    for _ in range(3):
        for workers in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), ROSKIT_THREADS=workers)
            start = time.perf_counter()
            proc = subprocess.run(argv, env=env, check=True, capture_output=True, timeout=300)
            times[workers].append(time.perf_counter() - start)
            outputs.setdefault(workers, proc.stdout)
    print(json.dumps({"figure": "roskit table p=4..8 step 0.5 uniform:w=1, wall s",
                      "ROSKIT_THREADS=1": times["1"], "ROSKIT_THREADS=2": times["2"],
                      "stdout_identical": outputs["1"] == outputs["2"]}))


def blas() -> None:
    unpinned = {k: v for k, v in os.environ.items() if k not in PINNED}
    pinned = dict(unpinned, **PINNED)
    # one call after a pause, as in the grid routes (a dot per k between
    # FFTs), and back to back
    dot = ("import statistics, time, numpy as np\n"
           "a = np.random.default_rng(0).random(200_000); np.dot(a, a); alone = []\n"
           "for _ in range(200):\n"
           "    time.sleep(0.002); t = time.perf_counter(); np.dot(a, a); alone.append(time.perf_counter() - t)\n"
           "c, t = time.process_time(), time.perf_counter()\n"
           "for _ in range(2000): np.dot(a, a)\n"
           "w = time.perf_counter() - t\n"
           "print(statistics.median(alone), w / 2000, (time.process_time() - c) / w)\n")
    for label, env in (("pinned", pinned), ("unpinned", unpinned)):
        proc = subprocess.run([sys.executable, "-c", dot], env=env, check=True, capture_output=True, text=True)
        alone, looped, cpu_per_wall = map(float, proc.stdout.split())
        print(json.dumps({"figure": "np.dot of two 200,000-element vectors, s", "blas": label,
                          "after_pause_s": alone, "back_to_back_s": looped, "cpu_per_wall": cpu_per_wall}))
    out = HERE / "results" / "blas.json"
    out.parent.mkdir(exist_ok=True)
    for workload in ("cp_sweep", "search", "poissonisation", "logconcave"):
        for label, env in (("pinned", pinned), ("unpinned", unpinned)):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            subprocess.run([sys.executable, str(HERE / "batch.py"), "--workload", workload, "--seed", "1",
                            "--out", str(out)], env=env, check=True, timeout=300)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
            solve = json.loads(out.read_text(encoding="utf-8"))["solve_s"]
            print(json.dumps({"workload": workload, "blas": label, "solve_s": solve,
                              "process_cpu_s": cpu}), flush=True)


def overhead() -> None:
    """Traced against untraced batches, and the wrapper's own cost per span
    times the spans a traced batch records (the paired wall times alone
    are within the machine's run-to-run noise)."""
    from tracing import Tracer

    tracer = Tracer()
    plain = lambda x: x  # noqa: E731
    wrapped = tracer._wrap("bench", "bench.plain", plain)
    n = 200_000
    per_span = _timed(lambda: [wrapped(i) for i in range(n)], 3) / n - _timed(lambda: [plain(i) for i in range(n)], 3) / n
    out = HERE / "results" / "overhead.json"
    out.parent.mkdir(exist_ok=True)
    for workload in ("cp_sweep", "search", "poissonisation", "logconcave"):
        times: dict = {"0": [], "1": []}
        spans = 0
        for _ in range(3):
            for trace in ("0", "1"):
                subprocess.run([sys.executable, str(HERE / "batch.py"), "--workload", workload, "--seed", "1",
                                "--trace", trace, "--out", str(out)], check=True, timeout=300)
                batch = json.loads(out.read_text(encoding="utf-8"))
                times[trace].append(batch["solve_s"])
                spans = max(spans, len(batch.get("spans", ())))
        untraced, traced = statistics.median(times["0"]), statistics.median(times["1"])
        print(json.dumps({"workload": workload, "untraced_s": times["0"], "traced_s": times["1"],
                          "overhead": traced / untraced - 1.0, "spans": spans, "wrapper_s_per_span": per_span,
                          "wrapper_share": spans * per_span / untraced}), flush=True)


def _tail(samples: list[float]) -> dict:
    """Median, and the highest of p99/p95/p90/p75 with ten samples beyond it
    (none below forty samples)."""
    out = {"n": len(samples), "p50_ms": 1e3 * statistics.median(samples)}
    if len(samples) >= 40:
        cuts = statistics.quantiles(samples, n=100)
        for q in (99, 95, 90, 75):
            if len(samples) * (100 - q) / 100 >= 10:
                out[f"p{q}_ms"] = 1e3 * cuts[q - 1]
                break
    return out


def latency() -> None:
    by_class: dict = {}
    for path in glob.glob(str(HERE / "results" / "*-trace0.summary.json")):
        summary = json.loads(Path(path).read_text(encoding="utf-8"))
        for call in summary["calls"]:
            by_class.setdefault((summary["workload"], call["cls"]), []).append(call["s"])
    for (workload, cls), samples in sorted(by_class.items()):
        print(json.dumps({"workload": workload, "class": cls, **_tail(samples)}))


if __name__ == "__main__":
    {"baseline": baseline, "threads": threads, "blas": blas, "overhead": overhead, "latency": latency}[sys.argv[1]]()

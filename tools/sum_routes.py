"""Time and error bound of both routes of a sum moment, to place
fourier.MAX_SUM_PANELS.

For each sum the script prints the panel count fourier.plan_sum sizes, the
route it picks, and for each route the wall time and the error bound
relative to the value: the Fourier route (fourier.sum_abs_moment, run
whatever the plan's route) and the grid the caller would fall back to
(constants._thinned_grid_moment for individual budgets on uniform V,
verify.nfold_moment on 8,192 cells for equal copies of a family member).
The sums span the panel counts that occur: scale ratios up to 1,000, tail
laws with an atom near mass 1 (ordering sums stay below about 210 panels),
and thirty rare uniforms beside one unthinned one, whose plans reach tens
of thousands of panels.

With ``--search`` it prints the same columns for every candidate of
verify.search_sup_U on the uniform law at p = 3 (A = 0.7, B = 1, n_max = 6,
30 trials, tol 1e-6) for search seeds 0 and 6, whose summand scales differ
by up to four orders of magnitude: the grid column is the 2,048-cell grid
that search candidates fall back to (constants._thinned_sum_moment), and
the route column the one the candidate takes.  The script imports roskit
from the ``src`` directory next to it:

    python tools/sum_routes.py
    python tools/sum_routes.py --search
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from roskit import basedist, constants, fourier, logconcave, verify  # noqa: E402

P = 5.0
TOL = 1e-9


def _timed(f):
    start = time.perf_counter()
    out = f()
    return out, time.perf_counter() - start


def _row(name, terms, grid, p=P, tol=TOL):
    plan = fourier.plan_sum(p, terms, tol)
    res, f_time = _timed(lambda: fourier.sum_abs_moment(plan._replace(route="fourier")))
    (g_value, g_bound), g_time = _timed(grid)
    print(f"{name:34s} panels {plan.panels:6d} route {plan.route:7s}"
          f" | fourier {1e3 * f_time:7.1f} ms bound {res.error_bound / res.value:8.1e}"
          f" | grid {1e3 * g_time:7.1f} ms bound {g_bound / g_value:8.1e}", flush=True)


def individual(name, scales, activations, p=P, tol=TOL, n_cells=8192):
    V = basedist.uniform(1.0)
    terms = [fourier.Term(V, c, mu, k) for (c, mu), k in Counter(zip(scales, activations)).items()]

    def grid():
        res = constants._thinned_grid_result(p, V, scales, activations, tol, n_cells)
        return res.value, res.error_bound

    _row(name, terms, grid, p, tol)


def copies(name, law, n):
    def grid():
        res = verify.nfold_moment([verify.grid_density(law, 8192)] * n, P, TOL)
        return res.value, res.error_bound

    _row(name, [fourier.Term(law, count=n)], grid)


def main():
    for ratio in (1, 35, 1000):
        individual(f"uniform scales 1 and 1/{ratio}", [1.0, 1.0 / ratio], [1.0, 1.0])
    for kappa in (1.0, 0.01):
        copies(f"tail-plus atom {math.exp(-kappa):.2f}, n = 2",
               logconcave.TailLawPlus(kappa, 1.0), 2)
    for a in (1e-2, 1e-3, 5e-4, 3e-4, 2e-4, 1e-4, 1e-5):
        budget = constants.MomentBudget.per_pair(P, [a] * 30 + [1.0], [1.0] * 30 + [1.5])
        diag = constants.mixture_individual_sup(P, basedist.uniform(1.0), budget,
                                                mode="grid", tol=1e-6).diagnostics
        individual(f"30 rare (a = {a:g}) and one", diag["scales"], diag["activations"])


def search():
    for seed in (0, 6):
        for trial, scales, activations in verify._candidates(3.0, basedist.uniform(1.0), 0.7, 1.0,
                                                             6, 30, seed):
            live = [c for c, mu in zip(scales, activations) if c > 0.0 and mu > 0.0]
            individual(f"seed {seed} trial {trial:2d} n {len(live)} ratio {max(live) / min(live):7.3g}",
                       scales, activations, 3.0, 1e-6, 2048)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--search", action="store_true",
                        help="search candidates at p = 3, search seeds 0 and 6")
    if parser.parse_args().search:
        search()
    else:
        main()

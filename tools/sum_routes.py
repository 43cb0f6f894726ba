"""Time and error bound of the routes of a sum moment, to place
fourier.MAX_SUM_PANELS, fourier.SUBPLAN_PANELS and fourier._PANEL_PHASE.

For each sum the script prints the panel count fourier.plan_sum sizes, the
route it picks, and for each route the wall time and the error bound
relative to the value: the Fourier route (fourier.sum_abs_moment, run
whatever the plan's route, unconditioned), the grid, and for thinned sums
the conditioned route the program takes.  The grid is the fallback of
ordering sums past the budget (verify.nfold_moment on 8,192 cells for equal
copies of a family member) and, for individual budgets on uniform V, the
reference route (constants._thinned_grid_result), since thinned sums past
fourier.SUBPLAN_PANELS are conditioned on summand activity instead.  The
sums span the panel counts that occur: scale ratios up to 1,000, tail laws
with an atom near mass 1 (ordering sums stay below about 210 panels), and
thirty rare uniforms beside a common one, whose plans reach tens of
thousands of panels.

With ``--search`` it prints, for every candidate of verify.search_sup_U on
the uniform law at p = 3 (A = 0.7, B = 1, n_max = 6, 30 trials, tol 1e-6)
for search seeds 0, 6 and 1234, whose summand scales differ by up to four
orders of magnitude, what the Fourier route (constants._thinned_fourier_result,
which uniform candidates take where the exact uniform bound passes tol) does
with it: the
panel width of its unconditioned plan (wider than 1 where the sum's band
limit allows, fourier._PANEL_PHASE radians of its top frequency per panel),
that plan's panels and its panels at unit width, the depth m that
fourier.plan_conditioned conditions on, the sub-plan count, the largest
sub-plan's panels, the wall time and the bound relative to the value.
Then, for each sub-plan cap in ``--caps`` (fourier.SUBPLAN_PANELS set to
each in turn) and each phase in ``--kappas`` (fourier._PANEL_PHASE set to
each in turn, the other at its default), the seeds' total time, the count
of candidates per depth, the largest sub-plan and the largest relative
bound.  The script imports roskit from the ``src`` directory next to it:

    python tools/sum_routes.py
    python tools/sum_routes.py --search --caps 128,512,2048,8192 --kappas 1,8,16,32
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


def _row(name, terms, grid, p=P, tol=TOL, extra=""):
    plan = fourier.plan_sum(p, terms, tol)
    res, f_time = _timed(lambda: fourier.sum_abs_moment(plan._replace(route="fourier")))
    (g_value, g_bound), g_time = _timed(grid)
    print(f"{name:34s} panels {plan.panels:6d} route {plan.route:7s}"
          f" | fourier {1e3 * f_time:7.1f} ms bound {res.error_bound / res.value:8.1e}"
          f" | grid {1e3 * g_time:7.1f} ms bound {g_bound / g_value:8.1e}{extra}", flush=True)


def individual(name, scales, activations, p=P, tol=TOL, n_cells=8192):
    """A row of thinned uniforms, with the conditioned route's depth, largest
    sub-plan, time and bound (fourier.plan_conditioned) at its end."""
    V = basedist.uniform(1.0)
    terms = [fourier.Term(V, c, mu, k) for (c, mu), k in Counter(zip(scales, activations)).items()]

    def grid():
        res = constants._thinned_grid_result(p, V, scales, activations, tol, n_cells)
        return res.value, res.error_bound

    res, elapsed = _timed(lambda: fourier.conditioned_abs_moment(
        fourier.plan_conditioned(p, terms, tol)))
    _row(name, terms, grid, p, tol,
         f" | conditioned m {res.diagnostics['depth']} largest "
         f"{res.diagnostics['fourier_panels']:5d} {1e3 * elapsed:5.1f} ms bound "
         f"{res.error_bound / res.value:8.1e}")


def copies(name, law, n):
    def grid():
        res = verify.nfold_moment([law] * n, P, TOL, n_cells=8192)
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
                                                tol=1e-6).diagnostics
        individual(f"30 rare (a = {a:g}) and one", diag["scales"], diag["activations"])


def _conditioned(p, scales, activations):
    res, elapsed = _timed(lambda: constants._thinned_fourier_result(
        p, basedist.uniform(1.0), scales, activations, 1e-6))
    return res, elapsed


def search(caps, kappas):
    seeds = (0, 6, 1234)
    cases = [(seed, *candidate) for seed in seeds
             for candidate in verify._candidates(3.0, basedist.uniform(1.0), 0.7, 1.0, 6, 30, seed)]
    for seed, trial, scales, activations in cases:
        groups = Counter(zip(scales, activations))
        plan = fourier.plan_sum(3.0, [fourier.Term(basedist.uniform(1.0), c, mu, k)
                                      for (c, mu), k in groups.items()], 1e-6)
        unit = fourier._edges(plan.reach, fourier._RATIO, 1.0).size - 1
        live = [c for c, mu in zip(scales, activations) if c > 0.0 and mu > 0.0]
        res, elapsed = _conditioned(3.0, scales, activations)
        diag = res.diagnostics
        print(f"seed {seed:4d} trial {trial:2d} n {len(live)} ratio {max(live) / min(live):9.3g}"
              f" | width {plan.width:6.2f} panels {plan.panels:6d} (unit {unit:6d})"
              f" | depth {diag['depth']} sub-plans {diag.get('subplans', 1):2d}"
              f" largest {diag['fourier_panels']:5d}"
              f" | {1e3 * elapsed:6.1f} ms bound {res.error_bound / res.value:8.1e}", flush=True)
    default_cap, default_kappa = fourier.SUBPLAN_PANELS, fourier._PANEL_PHASE
    sweeps = [("cap", cap, cap, default_kappa) for cap in caps]
    sweeps += [("kappa", kappa, default_cap, kappa) for kappa in kappas]
    for name, level, cap, kappa in sweeps:
        fourier.SUBPLAN_PANELS, fourier._PANEL_PHASE = cap, kappa
        for seed in seeds:
            total, depths, largest, worst = 0.0, Counter(), 0, 0.0
            for _, _, scales, activations in (c for c in cases if c[0] == seed):
                res, elapsed = _conditioned(3.0, scales, activations)
                total += elapsed
                depths[res.diagnostics["depth"]] += 1
                largest = max(largest, res.diagnostics["fourier_panels"])
                worst = max(worst, res.error_bound / res.value)
            print(f"{name} {level:5g} seed {seed:4d}: {total:6.3f} s, candidates per depth "
                  f"{dict(sorted(depths.items()))}, largest sub-plan {largest:5d} panels, "
                  f"largest bound {worst:8.1e}", flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--search", action="store_true",
                        help="search candidates at p = 3, search seeds 0, 6 and 1234")
    parser.add_argument("--caps", default=str(fourier.SUBPLAN_PANELS),
                        help="comma-separated sub-plan caps to time with --search")
    parser.add_argument("--kappas", default="",
                        help="comma-separated panel phases (radians of the top frequency "
                             "per panel) to time with --search")
    args = parser.parse_args()
    if args.search:
        search([int(cap) for cap in args.caps.split(",")],
               [float(kappa) for kappa in args.kappas.split(",") if kappa])
    else:
        main()

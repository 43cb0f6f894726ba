"""The benchmark's four workloads, generated from a seed.

Each workload is a fixed batch of operations in a fixed order; the seed
only moves the continuous inputs of each slot.  A slot's discrete make-up
(base law, exponent regime, tuple size, rung of the A/B ladder) never
depends on the seed, because the program's cost jumps with those: the
series depth K moves in whole steps with the intensity, and the
deduplicated support of an atomic convolution grows with the number of
distinct locations.  Seeding the discrete make-up would make the batch's
wall time spread by tens of percent between seeds.

Operations are plain dicts, so that the batch process (which runs them
against roskit) and the checking process (which never imports roskit)
agree on them without sharing code.  ``cls`` names the call class that the
README's per-call latencies are grouped by.
"""

from __future__ import annotations

import numpy as np

import reference

SMALL_ATOMS = "atoms:0:0.3,1:0.4,2.5:0.3"  # k-fold supports stay small: lattice step 0.5
MANY_ATOMS = "atoms:0.3:0.1,0.7:0.15,1.1:0.15,1.6:0.2,2:0.2,2.9:0.2"  # 12 signed atoms: char-grid route
BASE_LAWS = ("rademacher", "gaussian", "cosine", "uniform:w=1", SMALL_ATOMS, MANY_ATOMS)
GRID_LAWS = ("cosine", "uniform:w=1")
LAW_CLASS = {
    "rademacher": "exact",
    "gaussian": "exact",
    "cosine": "grid",
    "uniform:w=1": "grid",
    SMALL_ATOMS: "atoms",
    MANY_ATOMS: "char_grid",
}

WORKLOADS = ("cp_sweep", "search", "poissonisation", "logconcave")


def _rng(workload: str, seed: int, repeat: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), repeat])


def _jit(rng: np.random.Generator, x: float, rel: float) -> float:
    """x moved by a uniform relative amount in [-rel, rel]."""
    return float(x * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def _num(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# cp_sweep: the paper's headline numbers through the CLI


A_RUNGS = (0.5, 1.0, 1.4)  # lambda from ~0.1 to ~9; grid kinds take ~1 s at the top rung
# Relative jitter of the budgets and exponents that set a call's cost.  The
# series depth K, and with it a grid call's cost, is a step function of
# lambda and p, and which search candidates get their activation clamped
# depends on A/B: a 1 % jitter moved solve_s by 8 % between seeds.  At
# 1e-4 those steps are almost never crossed.
CP_JITTER = 1e-4


def _cp_sweep(rng: np.random.Generator) -> tuple[dict, list[dict]]:
    # p < 4 (closed form, cost-free, so drawn widely), p = 4, 4 < p < 6,
    # p = 6, 6 < p < 8, p = 8
    p_slots = [
        _jit(rng, 3.0, 0.25), 4.0, _jit(rng, 5.0, CP_JITTER), 6.0, _jit(rng, 7.0, CP_JITTER), 8.0,
    ]
    ops: list[dict] = []

    def sup(law, p, A, B, cls, recheck):
        argv = ["sup", "--p", _num(p), "--V", law, "--A", _num(A), "--B", _num(B)]
        ops.append({"op": "sup", "argv": argv, "cls": cls, "recheck": recheck,
                    "law": law, "p": p, "A": A, "B": B})

    # the grid kinds cost 0.1 / 0.3 / 1 s per call on the three rungs, so
    # they take the middle rung at three exponents and the top rung once
    grid_rungs = {
        "cosine": {p_slots[1]: (0, 1, 2), p_slots[2]: (0, 1), p_slots[5]: (0, 1)},
        "uniform:w=1": {p_slots[1]: (0, 1), p_slots[2]: (0, 1, 2), p_slots[5]: (0, 1)},
    }
    for law in BASE_LAWS:
        for p in p_slots:
            for rung, A0 in enumerate(A_RUNGS):
                if law in grid_rungs and p >= 4.0 and rung not in grid_rungs[law].get(p, (0,)):
                    continue
                A = _jit(rng, A0, CP_JITTER)
                B = _jit(rng, 1.0, CP_JITTER)
                cls = "closed" if p < 4.0 else LAW_CLASS[law]
                sup(law, p, A, B, cls, recheck=cls not in ("grid",) or rung == 0)

    for p in p_slots[:5]:
        argv = ["constant", "--complex", "--p", _num(p)]
        ops.append({"op": "complex", "argv": argv, "cls": "closed" if p < 4.0 else "grid",
                    "recheck": p < 4.0, "p": p})

    for p0 in (1.5, 2.0, 3.0, 4.0, 5.0, 6.5):
        p = p0 if p0 in (2.0, 4.0) else _jit(rng, p0, 0.02)
        for A0 in (0.5, 1.0, 2.0):
            A = _jit(rng, A0, 0.01)
            B = _jit(rng, 1.0, 0.01)
            argv = ["sup", "--positive", "--p", _num(p), "--A", _num(A), "--B", _num(B)]
            ops.append({"op": "positive", "argv": argv, "cls": "closed", "recheck": True,
                        "p": p, "A": A, "B": B})

    for law, step, count in (("rademacher", 0.25, 23), (SMALL_ATOMS, 0.5, 12)):
        p_min = _jit(rng, 2.5, 0.01)
        p_max = p_min + step * (count - 1) + 0.5 * step
        A = _jit(rng, 1.0, 0.01)
        B = _jit(rng, 1.0, 0.01)
        argv = ["table", "--p-min", _num(p_min), "--p-max", _num(p_max), "--p-step", _num(step),
                "--V", law, "--A", _num(A), "--B", _num(B)]
        ops.append({"op": "table", "argv": argv, "cls": "table", "recheck": True,
                    "law": law, "p_min": p_min, "p_step": step, "count": count, "A": A, "B": B})

    A = _jit(rng, 0.3, 0.01)
    first = {"op": "sup", "argv": ["sup", "--p", "5.0", "--V", "uniform:w=1", "--A", _num(A), "--B", "1.0"],
             "cls": "grid", "recheck": False, "law": "uniform:w=1", "p": 5.0, "A": A, "B": 1.0}
    return first, ops


# ---------------------------------------------------------------------------
# search: randomized extremality search


def _search(rng: np.random.Generator) -> tuple[dict, list[dict]]:
    ops: list[dict] = []
    # (law, A/B rungs, n_max, trials, search seeds per rung).  The search
    # draws its tuples from its own `seed` argument, held fixed here: the
    # cost of a uniform candidate grows with the ratio of its largest to
    # smallest summand scale, a heavy-tailed function of the Dirichlet
    # shares (30 trials at p = 3 take 0.4-4 s across search seeds 0-15, and
    # search seed 6 runs past a minute), so drawing fresh tuples per
    # benchmark seed would swing solve_s by 2x.
    plan = (
        ("rademacher", (1.0,), 6, 100, (0,)),
        (SMALL_ATOMS, (0.7,), 5, 60, (0,)),
        ("uniform:w=1", (0.7, 1.0), 6, 15, (0, 1)),
    )
    for law, rungs, n_max, trials, search_seeds in plan:
        for p in (3.0, 5.0):
            for r in rungs:
                for search_seed in search_seeds:
                    ops.append({
                        "op": "search", "law": law, "p": p,
                        "A": _jit(rng, r, CP_JITTER), "B": _jit(rng, 1.0, CP_JITTER),
                        "n_max": n_max, "trials": trials, "seed": search_seed,
                        "cls": "search/" + law.partition(":")[0],
                    })
    first = {"op": "search", "law": "uniform:w=1", "p": 5.0, "A": _jit(rng, 0.7, 0.01), "B": 1.0,
             "n_max": 2, "trials": 2, "seed": 1000, "cls": "search/uniform"}
    return first, ops


# ---------------------------------------------------------------------------
# poissonisation: exact atomic arithmetic


def _three_point_tuple(rng, base_rng, n: int, p: float) -> list:
    """A random tuple of n three-point laws [c, mass] whose Poisson intensity
    (sum of masses) and jump p-th moment equal those of a base tuple drawn
    from a seed-independent generator.  Those two numbers fix the series
    depth K of the compound Poisson side."""
    base_c = base_rng.uniform(0.2, 2.0, n)
    base_m = base_rng.uniform(0.2, 1.0, n)
    lam = float(base_m.sum())
    m_p = float(np.dot(base_m, base_c**p)) / lam
    while True:
        m = lam * rng.dirichlet(np.full(n, 4.0))
        if m.max() < 1.0 and m.min() > 0.05:
            break
    c = rng.uniform(0.2, 2.0, n)
    c *= (m_p / (float(np.dot(m, c**p)) / lam)) ** (1.0 / p)
    return [[float(ci), float(mi)] for ci, mi in zip(c, m)]


def _three_law_tuple(rng, base_rng, p: float) -> list:
    """A random tuple of three three-point laws at the locations of a base
    tuple drawn from a seed-independent generator, with masses moved along
    the line that keeps both the intensity and the jump p-th moment.

    The locations stay fixed because roskit's atomic support depends on
    them beyond their count: convolve_atoms rounds every sum to 12
    significant digits at every step, so one support point reached along
    different paths can land on several keys, and how often that happens
    depends on the exact locations (see CHANGES.md)."""
    c = base_rng.uniform(0.2, 2.0, 3)
    m = base_rng.uniform(0.2, 1.0, 3)
    # direction orthogonal to (1, 1, 1) and (c^p): keeps sum(m) and sum(m c^p)
    d = np.cross(np.ones(3), c**p)
    d /= np.abs(d).max()
    room = min(min((mi - 0.05) / abs(di), (1.0 - mi) / abs(di)) for mi, di in zip(m, d) if di != 0.0)
    m = m + rng.uniform(-0.9, 0.9) * room * d
    return [[float(ci), float(mi)] for ci, mi in zip(c, m)]


def _poissonisation(rng: np.random.Generator) -> tuple[dict, list[dict]]:
    ops: list[dict] = []
    slots = [(3, 4.0), (3, 6.0), (3, 5.0),
             (1, 4.0), (2, 6.0), (4, 4.0), (5, 6.0), (1, 5.0), (2, 4.0), (4, 6.0), (5, 5.0)]
    for i, (n, p) in enumerate(slots):
        base = np.random.default_rng(909 + i)
        laws = _three_law_tuple(rng, base, p) if n == 3 else _three_point_tuple(rng, base, n, p)
        ops.append({"op": "poissonisation", "laws": laws, "p": p, "tol": 1e-6, "cls": f"poissonisation/n{n}"})
    for i, n in enumerate((1, 2, 3, 4, 5, 3, 4, 5)):
        p = _jit(rng, 3.5 if i % 2 else 5.0, 0.05)
        laws = [[float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 1.0))] for _ in range(n)]
        ops.append({"op": "lower_bound", "laws": laws, "p": p, "cls": "lower_bound"})
    for n, p in ((4, 4.0), (6, _jit(rng, 5.0, 0.05)), (8, 6.0), (10, 4.0)):
        a = [float(rng.uniform(0.5, 1.5)) for _ in range(n)]
        b = [ai * float(rng.uniform(1.05, 2.0)) for ai in a]
        ops.append({"op": "three_point", "p": p, "a": a, "b": b, "cls": "three_point"})
    # b_j / a_j must exceed ||V||_p / ||V||_2 of the base law (about 1.4 here)
    for n, p in ((3, 4.0), (5, _jit(rng, 5.0, 0.05)), (7, 6.0)):
        a = [float(rng.uniform(0.5, 1.5)) for _ in range(n)]
        b = [ai * float(rng.uniform(1.8, 2.5)) for ai in a]
        ops.append({"op": "individual", "law": SMALL_ATOMS, "p": p, "a": a, "b": b, "cls": "individual"})
    first = {"op": "poissonisation", "laws": _three_point_tuple(rng, np.random.default_rng(1), 2, 4.0),
             "p": 4.0, "tol": 1e-6, "cls": "poissonisation/n2"}
    return first, ops


# ---------------------------------------------------------------------------
# logconcave: moment matching and sum-moment bracketing


LC_P_SLOTS = (4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0)


def _logconcave(rng: np.random.Generator) -> tuple[dict, list[dict]]:
    ops: list[dict] = []
    for rnd in range(8):
        p0 = LC_P_SLOTS[rnd % len(LC_P_SLOTS)]
        p = p0 if p0 in (6.0, 8.0) else _jit(rng, p0, 0.02)
        for family in ("fminus", "fplus", "gminus", "gplus"):
            for where in ("interior", "lo", "hi"):
                ops.append({"op": "match", "family": family, "p": p, "a": float(rng.uniform(0.5, 2.0)),
                            "where": where, "u": float(rng.uniform(0.05, 0.95)), "cls": "match"})
        n_cells = 16384
        for n in (2, 3, 4):
            scale = float(rng.uniform(0.5, 2.0))
            ops.append({"op": "ordering", "source": "gaussian", "n": n, "p": p, "n_cells": n_cells, "cls": "ordering"})
            if p < 8.0:  # at p = 8 the grid error can exceed its bound (see CHANGES.md)
                ops.append({"op": "ordering", "source": "logistic", "scale": scale, "n": n, "p": p,
                            "n_cells": n_cells, "cls": "ordering"})
            ops.append({"op": "tail_ordering", "source": "gaussian", "n": n, "p": p, "n_cells": n_cells,
                        "cls": "ordering"})
    first = {"op": "ordering", "source": "gaussian", "n": 2, "p": _jit(rng, 5.0, 0.02), "n_cells": 2048,
             "cls": "ordering"}
    return first, ops


def build(workload: str, seed: int, repeat: int = 0) -> tuple[dict, list[dict]]:
    """(first call, batch) of a workload at a seed; each repeat of a run
    draws its own inputs, so that no call recurs with identical arguments."""
    return {
        "cp_sweep": _cp_sweep,
        "search": _search,
        "poissonisation": _poissonisation,
        "logconcave": _logconcave,
    }[workload](_rng(workload, seed, repeat))


def match_target(op: dict) -> tuple[float, float, float]:
    """(p, a, b) of a match op: b/a sits inside the family's feasible
    interval, or on one of its ends for the boundary targets."""
    lo, hi = reference.density_feasible_interval(op["p"])
    if op["family"] in ("gminus", "gplus"):
        lo = 1.0  # tail families reach down to the two-point law
    return op["p"], op["a"], op["a"] * _ratio(op, lo, hi)


def _ratio(op: dict, lo: float, hi: float) -> float:
    if op["where"] == "lo":
        return lo
    if op["where"] == "hi":
        return hi
    return lo + op["u"] * (hi - lo)

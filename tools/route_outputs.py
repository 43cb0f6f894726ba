"""Print one line per evaluation route of roskit, for before/after comparison.

Each line is the ``repr`` of what a public entry point returns (value,
method tag, error bound and diagnostics), so a refactor that is meant to
leave every number unchanged can be checked by running this script at both
commits and comparing the outputs byte for byte.  The script imports roskit
from the ``src`` directory next to it, never from an installed copy, so for
the other commit copy it into a checkout of that commit:

    mkdir -p ../base && git archive BASE_COMMIT | tar -x -C ../base
    mkdir -p ../base/tools && cp tools/route_outputs.py ../base/tools/
    python ../base/tools/route_outputs.py > before.txt
    python tools/route_outputs.py > after.txt
    cmp before.txt after.txt

The routes cover every ``method`` tag on the five base kinds (closed forms,
the cumulant, exact walk, Gaussian and Fourier routes of compound Poisson
sums, exact atomic routes (for compound Poisson sums the reference route
``atoms_exact``, by name where a commit has ``cpoisson._abs_moment``), the
spectral grid for compound Poisson sums
(through ``cpoisson._grid_abs_moment``, the second route, where a commit has
it) and k-fold powers, the individual-budget Fourier and enumeration
routes with the grid reference (``constants._thinned_grid_result``, by
name; thirty thinned uniforms among them), exact enumeration of tuples of
four to ten laws (``discrete.enum_sum`` across the halves of generic tuples,
on a tuple whose sums across the halves collide, and on one that repeats
a law; small tuples at p = 0.5 and 5, and tuples at even p = 4 and 6), the
witness's
moment), the randomized search, n-fold
sums of grid densities (one per log-concave family among them), both
ordering checks (the density ordering also at 2, 32 and 200 summands on
16,384 cells, the tail ordering on a logistic and a Gaussian source), the
stdout of the seven CLI invocations of acceptance criterion 10, and
``roskit match`` for each log-concave family at both ends and the middle of
its feasible interval.  The grid sums include summands whose scales differ 35-fold
(individual budgets) and by four orders of magnitude (search seed 6), and
compound Poisson sums of about 1,000 and 2,000 jumps (lambda = 1000 and
1964).  It takes 3-5 s; a commit that resamples grid sums to the finest
step spends about a minute and 3.5 GB on search seed 6.

A change that may move values in the last bits (say, numpy's ``exp`` in
place of ``math.exp``) is checked with the compare mode instead of ``cmp``:

    python tools/route_outputs.py --compare before.txt after.txt

It pairs the lines of the two files.  A key that only the second line of a
pair has (``name=`` in a repr, ``'name':`` in a dict, ``"name":`` in JSON,
named by its enclosing keys, as ``diagnostics.K``) is listed as added and
left out of the judgement; a key only the first has fails the line.  Apart
from added keys, every differing line must keep its text apart from its
numbers (labels, ``method`` tags, diagnostics keys), and unless its numbers
are unchanged it must carry a ``value`` (a number, or a tuple of numbers
for the ordering checks) and an ``error_bound``, or the search's ``best_value`` and
``theorem_value`` with their ``best_error_bound`` and
``theorem_error_bound``; a CSV row under a ``cli.CSV_COLUMNS`` header
carries them in its ``value`` and ``error_bound`` columns.  A line whose
text differs only in its compound Poisson route tags (``cp_series/NAME``,
``per_k_method``) is judged the same way, and its report names the move.
The same holds for an individual-budget line whose ``method`` moved between
``grid`` and ``fourier`` (those lines print ``Routed``, the value, method tag
and bound without the diagnostics, which differ between the two routes), and
for a witness line whose ``NAME/two_block`` tag moved (the witness prints
``Routed`` too, and the CLI's ``estimated_moment`` counts as its value).
The same holds for a ``method`` that moved among ``grid``, ``fourier``,
``sum_fourier`` and ``exact_uniform`` (thinned uniform sums and the search's
best candidate), and the CLI search's ``detail_routes`` is compared by its
total, its move reported.  The search lines print the total of
``details["routes"]``, since candidates moved between the routes by design.
For each differing line it prints the relative change of its values ("value
unchanged" where only bounds or diagnostics moved), apart from the largest
relative change among its other numbers, and how far each moved value went,
as a fraction of the sum of the two lines' error_bounds: when both bounds
are honest, the two values lie within that sum of each other.  It exits 1
if the files differ in any other way or a value moved beyond that sum.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import re
import sys
from collections import namedtuple
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from click.testing import CliRunner  # noqa: E402

from roskit import basedist as bd  # noqa: E402
from roskit import constants as ct  # noqa: E402
from roskit import cpoisson as cp  # noqa: E402
from roskit import discrete as dc  # noqa: E402
from roskit import logconcave as lc  # noqa: E402
from roskit import verify as vf  # noqa: E402
from roskit.cli import CSV_COLUMNS  # noqa: E402
from roskit.cli import main as cli_main  # noqa: E402
from roskit.errors import RoskitError  # noqa: E402

CLI_INVOCATIONS = [
    ["constant", "--p", "4", "--V", "rademacher", "--seed", "3"],
    ["sup", "--positive", "--p", "2", "--A", "1", "--B", "1"],
    ["match", "--family", "fminus", "--p", "4", "--a", "1", "--b", "1.35"],
    ["verify", "search", "--p", "5", "--V", "uniform:w=1", "--n", "3",
     "--trials", "20", "--seed", "11"],
    ["verify", "h-signature", "--p", "4.5", "--trials", "25", "--seed", "6"],
    ["table", "--p-min", "2.5", "--p-max", "4.5", "--p-step", "0.5",
     "--format", "csv", "--seed", "1"],
    ["extremal", "--p", "3", "--n", "5000", "--alpha", "0.95", "--seed", "12"],
]


def match_invocations():
    """roskit match for every family at a = 1, with b at the lower end, the
    middle and the upper end of the family's feasible interval, at p = 4.5 and 7.3."""
    for p in (4.5, 7.3):
        for family in ("fminus", "fplus", "gminus", "gplus"):
            interval = lc.feasibility_interval_density if family[0] == "f" else lc.feasibility_interval_tail
            lo, hi = interval(p)
            for b in (lo, 0.5 * (lo + hi), hi):
                yield ["match", "--family", family, "--p", repr(p), "--a", "1", "--b", repr(b)]


THREE_ATOMS = bd.symmetric_atoms([(0.0, 0.3), (1.0, 0.4), (2.5, 0.3)])
TEN_ATOMS = bd.symmetric_atoms([(0.3 * i + 0.1, 0.1) for i in range(10)])
# three-point laws (location, activation) whose Poissonised jump law has six
# generic atoms: the 18-fold sum's 4,579 support points are enumerated exactly
TRIPLE = [
    (1.5731788245917877, 0.847678800005605),
    (0.30742540036145816, 0.6236840950679153),
    (1.1414238828695873, 0.22959026010806696),
]
Ordering = namedtuple("Ordering", "holds value error_bound")
# an exact enumeration: discrete.enum_sum's moment, bound and support (or term count)
Exact = namedtuple("Exact", "value error_bound support")
# what a call returns less its diagnostics, for the calls whose route (and so
# whose diagnostics) moved by design: individual budgets on continuous laws
Routed = namedtuple("Routed", "value method error_bound")
BASES = {
    "rademacher": bd.rademacher(),
    "uniform": bd.uniform(1.0),
    "gaussian": bd.gaussian(),
    "cosine": bd.cosine_projection(),
    "atoms3": THREE_ATOMS,
    "atoms10": TEN_ATOMS,
}


def show(label, fn, *args, **kwargs):
    """Print the repr of fn(*args, **kwargs), or of the roskit error it raises."""
    try:
        out = fn(*args, **kwargs)
    except RoskitError as exc:
        out = exc
    print(f"{label}: {out!r}", flush=True)


def routed(fn, *args, **kwargs):
    res = fn(*args, **kwargs)
    return Routed(res.value, res.method, res.error_bound)


def witness(*args, **kwargs):
    """The witness with its law by its spec, not by the law class's fields."""
    spec, res = ct.witness_construction(*args, **kwargs)
    return (dataclasses.replace(spec, V=bd.format_base_spec(spec.V)),
            Routed(res.value, res.method, res.error_bound))


def searched(*args, **kwargs):
    rep = vf.search_sup_U(*args, **kwargs)
    rep.details["routes"] = sum(rep.details["routes"].values())
    return rep


def routes():
    for p in (3.0, 4.0, 5.0, 6.0):
        for name, V in BASES.items():
            show(f"mixture_sup p={p} {name}", ct.mixture_sup, p, V, 1.0, 1.0, 1e-6)
    show("mixture_sup p=5 uniform A=1.3", ct.mixture_sup, 5.0, BASES["uniform"], 1.3, 1.0, 1e-6)
    show("mixture_sup p=6 uniform A=10", ct.mixture_sup, 6.0, BASES["uniform"], 10.0, 1.0, 1e-6)
    for p in (1.5, 2.0, 3.0):
        show(f"positive_sum_sup p={p}", ct.positive_sum_sup, p, 1.0, 1.2)
    for p in (3.0, 4.0, 5.0):
        show(f"complex_constant p={p}", ct.complex_constant, p, 1e-6)
        show(f"rosenthal_constant_symmetric p={p}", ct.rosenthal_constant_symmetric, p)
        show(f"mixture_constant p={p} uniform", ct.mixture_constant, p, BASES["uniform"], 1e-6)

    # compound Poisson routes
    for lam in (0.5, 1.8):
        for name, V in BASES.items():
            spec = cp.CompoundPoissonSpec(lam, bd.condition_nonzero(V))
            show(f"cp_abs_moment lam={lam} {name}", cp.cp_abs_moment, spec, 5.0, 1e-6)
    lam = math.fsum(mass for _, mass in TRIPLE)
    jump = bd.condition_nonzero(bd.symmetric_atoms(sorted((c, m / lam) for c, m in TRIPLE)))
    triple = cp.CompoundPoissonSpec(lam, jump)  # the compound Poisson side of check_poissonisation
    show("cp_abs_moment six generic atoms", cp.cp_abs_moment, triple, 5.0, 1e-6)
    show("cp_abs_moment lam=12 p=8 uniform", cp.cp_abs_moment,
         cp.CompoundPoissonSpec(12.0, bd.condition_nonzero(BASES["uniform"])), 8.0, 1e-9)
    # past e^709, where e^-lam expm1(lam phi) overflows, on a grid sized by its window
    show("cp_abs_moment lam=1000 p=8 uniform", cp.cp_abs_moment,
         cp.CompoundPoissonSpec(1000.0, bd.condition_nonzero(BASES["uniform"])), 8.0, 1e-9)
    # the cumulant route at even p, and von Bahr's integral near an even p
    for name, V in BASES.items():
        spec = cp.CompoundPoissonSpec(1.8, bd.condition_nonzero(V))
        for p in (6.0, 5.99):
            show(f"cp_abs_moment lam=1.8 p={p} {name}", cp.cp_abs_moment, spec, p, 1e-9)
    # the spectral grid, the second route (before the Fourier route, cp_abs_moment
    # took it itself on these laws)
    grid = getattr(cp, "_grid_abs_moment", cp.cp_abs_moment)
    for name in ("uniform", "cosine", "atoms10"):
        spec = cp.CompoundPoissonSpec(1.8, bd.condition_nonzero(BASES[name]))
        for p in (5.0, 6.0):
            show(f"cp grid lam=1.8 p={p} {name}", grid, spec, p, 1e-6)
    for lam in (12.0, 1000.0):
        show(f"cp grid lam={lam:g} p=8 uniform", grid,
             cp.CompoundPoissonSpec(lam, bd.condition_nonzero(BASES["uniform"])), 8.0, 1e-9)
    # exact enumeration of atomic jumps, the reference route (before the Fourier
    # route took every atomic law, cp_abs_moment took it itself on these laws)
    exact = (functools.partial(cp._abs_moment, route="atoms_exact")
             if hasattr(cp, "_abs_moment") else cp.cp_abs_moment)
    for lam in (0.5, 1.8):
        show(f"cp atoms_exact lam={lam} p=5.0 atoms3", exact,
             cp.CompoundPoissonSpec(lam, bd.condition_nonzero(THREE_ATOMS)), 5.0, 1e-6)
    show("cp atoms_exact six generic atoms", exact, triple, 5.0, 1e-6)
    show("poisson_power_moment", cp.poisson_power_moment, 2.5, 3.5)

    # k-fold sums: exact and grid (atomic and FFT)
    for name, V in BASES.items():
        cond = bd.condition_nonzero(V)
        for k in (1, 3):
            if V.kind in ("rademacher", "gaussian"):
                show(f"kfold exact k={k} {name}", bd.kfold_abs_moment, cond, k, 5.0, "exact")
            show(f"kfold grid k={k} {name}", bd.kfold_abs_moment, cond, k, 5.0, "grid", 1e-6)
        if name == "gaussian":
            show(f"kfold grid k=5 {name}", bd.kfold_abs_moment, cond, 5, 5.0, "grid", 1e-6)

    # per-summand budgets: three-point and thinned-mixture extremisers
    budget = ct.MomentBudget.per_pair(5.0, [1.0, 0.7], [1.3, 1.1])
    show("utev exact_enum", ct.utev_3point_sup, 5.0, budget)
    wide = ct.MomentBudget.per_pair(5.0, [1.0, 0.7], [1.6, 1.4])
    for name, V in BASES.items():
        if V.is_atomic:
            show(f"individual auto {name}", ct.mixture_individual_sup, 5.0, V, wide, tol=1e-6)
        else:
            show(f"individual auto {name}", routed, ct.mixture_individual_sup, 5.0, V, wide,
                 tol=1e-6)
    # two summands whose scales differ 35-fold share one grid: the reference
    # route, called by name on the extremisers' scales and activations
    apart = ct.MomentBudget.per_pair(5.0, [1.0, 0.01], [1.6, 0.03])
    diag = ct.mixture_individual_sup(5.0, BASES["uniform"], apart, tol=1e-6).diagnostics
    show("individual grid uniform scale ratio 35", routed, ct._thinned_grid_result, 5.0,
         BASES["uniform"], diag["scales"], diag["activations"], 1e-6, 8192)
    # thirty thinned uniforms of activation near 4e-7 (a = 0.01, b = 1)
    thirty = ct.MomentBudget.per_pair(5.0, [0.01] * 30, [1.0] * 30)
    show("individual auto uniform 30 thinned budgets", routed, ct.mixture_individual_sup, 5.0,
         BASES["uniform"], thirty)
    for name in ("rademacher", "gaussian"):
        show(f"witness {name}", witness, 3.0, BASES[name], 1.0, 1.0, 500, 0.9)

    # verification routes
    for name in ("rademacher", "uniform"):
        for p in (3.0, 5.0):
            show(f"search_sup_U p={p} {name}", searched, p, BASES[name], 1.0, 1.0,
                 n_max=3, trials=4, seed=2)
    show("search_sup_U p=3.0 uniform seed 6", searched, 3.0, BASES["uniform"], 0.7, 1.0,
         n_max=6, trials=30, seed=6)
    # uniform search candidates and per-summand budgets on the exact uniform route
    # where a commit has it: trial 2 of search seed 6, scales 3.5e4 apart, falls
    # back to the Fourier route; p = 40.5 is near the Fourier route's last accuracy
    candidates = list(vf._candidates(3.0, BASES["uniform"], 0.7, 1.0, 6, 30, 6))
    for trial in (2, 26):
        _, scales, activations = candidates[trial]
        show(f"thinned uniform seed 6 trial {trial}", routed, ct._thinned_sum_moment, 3.0,
             BASES["uniform"], scales, activations, 1e-6, 1_000_000)
    for p in (5.0, 40.5):
        ratio = 1.3 * (p + 1.0) ** (-1.0 / p) * math.sqrt(3.0)
        show(f"individual uniform p={p}", routed, ct.mixture_individual_sup, p, BASES["uniform"],
             ct.MomentBudget.per_pair(p, [1.0, 0.7, 0.5], [ratio, 0.7 * ratio, 0.5 * ratio]))
    show("nfold_moment logistic n=4 p=8", vf.nfold_moment,
         [vf.grid_density(vf.LogisticSource(1.0718), 16384)] * 4, 8.0)
    show("check_logconcave_ordering", lambda: Ordering(*vf.check_logconcave_ordering(
        2, vf.GaussianSource(), 5.0, n_cells=2048)))
    for n in (2, 32, 200):
        show(f"check_logconcave_ordering n={n} cells 16384", lambda n=n: Ordering(
            *vf.check_logconcave_ordering(n, vf.GaussianSource(), 5.0, n_cells=16384)))
    show("check_tail_ordering", lambda: Ordering(*vf.check_tail_ordering(
        2, vf.LogisticSource(0.8), 5.0, n_cells=2048)))
    show("check_tail_ordering gaussian", lambda: Ordering(*vf.check_tail_ordering(
        2, vf.GaussianSource(), 5.0, n_cells=2048)))
    # the grid route over each log-concave family's cdf, and the tail-plus law's atoms
    for member in (lc.PlateauExpDensity(0.7, 2.3), lc.TruncatedExpDensity(1.9, 1.7),
                   lc.TailLawMinus(1.7, 0.6), lc.TailLawPlus(1.4, 1.1)):
        show(f"nfold_moment {member!r} n=3 p=5", vf.nfold_moment,
             [vf.grid_density(member, 4096)] * 3, 5.0)
    three = [{c: m / 2.0, -c: m / 2.0, 0.0: 1.0 - m} for c, m in TRIPLE]

    def poissonisation():
        # both sides carry the compound Poisson side's bound, far above the enumerated side's
        holds, left, right = vf.check_poissonisation(three, 5.0, 1e-6)
        return Ordering(holds, (left, right), cp.cp_abs_moment(triple, 5.0, 1e-6).error_bound)

    show("check_poissonisation", poissonisation)

    def easy_lower_bound():
        # both sides carry the bound of the enumerated side (discrete.enum_sum's,
        # where a commit has it)
        holds, left, right = vf.check_easy_lower_bound(three, 5.0)
        bound = (dc.enum_sum(three, 5.0)[1] if hasattr(dc, "enum_sum")
                 else dc.enum_abs_moment(dc.nfold_atoms(three), 5.0, three)[1])
        return Ordering(holds, (left, right), bound)

    show("check_easy_lower_bound", easy_lower_bound)

    # tuples of four or more laws, enumerated in halves where the laws are
    # distinct and neither half merges: generic thinned laws, and +-1, +-2,
    # +-3, +-4, whose 16 sums across the halves fall on 11 points; +-1, +-3,
    # +-1, +-5 repeats a law and is enumerated whole (where a commit has the
    # outer pass, it takes every tuple of at most 8,192 paths: the last two)
    rng = np.random.default_rng(35)
    five_point = bd.symmetric_atoms([(0.0, 0.2), (0.7, 0.5), (1.3, 0.3)])
    tuples = {
        "seven generic five-point laws": [ct._thinned_atoms(five_point, c, mu) for c, mu in zip(
            rng.uniform(0.3, 2.0, 7), rng.uniform(0.1, 0.9, 7))],
        "ten three-point laws": [ct._thinned_atoms(BASES["rademacher"], c, mu) for c, mu in zip(
            rng.uniform(0.3, 2.0, 10), rng.uniform(0.1, 0.9, 10))],
        "+-1 +-2 +-3 +-4": [{x: 0.5, -x: 0.5} for x in (1.0, 2.0, 3.0, 4.0)],
        "+-1 +-3 +-1 +-5": [{x: 0.5, -x: 0.5} for x in (1.0, 3.0, 1.0, 5.0)],
    }
    for name, laws in tuples.items():
        show(f"enum_sum {name}", lambda laws=laws: Exact(*dc.enum_sum(laws, 5.37)))
    # small tuples, multiplied out in one pass where a commit has the outer pass,
    # and even p, from the moment series where a commit has it
    equal = [ct._thinned_atoms(BASES["rademacher"], 0.7, 0.3)] * 6
    cases = [("six equal three-point laws", equal, 5.0), ("six equal three-point laws", equal, 6.0),
             ("four three-point laws", tuples["ten three-point laws"][:4], 0.5),
             ("ten three-point laws", tuples["ten three-point laws"], 4.0)]
    for name, laws, p in cases:
        show(f"enum_sum {name} p={p:g}", lambda laws=laws, p=p: Exact(*dc.enum_sum(laws, p)))
    seven = ct.MomentBudget.per_pair(5.0, [1.0 - 0.05 * j for j in range(7)],
                                     [1.6 - 0.03 * j for j in range(7)])
    show("individual auto atoms3 n=7", ct.mixture_individual_sup, 5.0, THREE_ATOMS, seven)
    ten = ct.MomentBudget.per_pair(5.0, [1.0 - 0.04 * j for j in range(10)],
                                   [1.5 - 0.02 * j for j in range(10)])
    show("utev exact_enum n=10", ct.utev_3point_sup, 5.0, ten)
    five_pairs = [(0.4 + 0.31 * j, 0.2 + 0.13 * j) for j in range(5)]
    five_laws = [{c: m / 2.0, -c: m / 2.0, 0.0: 1.0 - m} for c, m in five_pairs]
    lam = math.fsum(m for _, m in five_pairs)
    five_cp = cp.CompoundPoissonSpec(lam, bd.condition_nonzero(
        bd.symmetric_atoms([(c, m / lam) for c, m in five_pairs])))

    def poissonisation_five():
        holds, left, right = vf.check_poissonisation(five_laws, 5.0, 1e-6)
        return Ordering(holds, (left, right), cp.cp_abs_moment(five_cp, 5.0, 1e-6).error_bound)

    show("check_poissonisation five laws", poissonisation_five)


def cli():
    runner = CliRunner()
    for args in CLI_INVOCATIONS + list(match_invocations()):
        res = runner.invoke(cli_main, args, catch_exceptions=False)
        print(f"cli {' '.join(args)} -> exit {res.exit_code}")
        sys.stdout.write(res.output)
        sys.stdout.flush()


# a route tag: compound Poisson's cp_series/NAME or per_k_method entry, the grid
# and Fourier routes of individual budgets, or the witness's NAME/two_block
ROUTE = re.compile(r"(?<=cp_series/)\w+|(?<=per_k_method': ')\w+|(?<=per_k_method\": \")\w+"
                   r"|(?<=method=')(?:grid|fourier|sum_fourier|exact_uniform)(?=')"
                   r"|(?<=method': ')(?:sum_fourier|exact_uniform)(?=')"
                   r"|(?<=method\": \")(?:sum_fourier|exact_uniform)(?=\")"
                   r"|(?<=method=')\w+(?=/two_block')|(?<=method\": \")\w+(?=/two_block\")")
# the CLI search's count of candidates per route, compared by its total
ROUTE_COUNTS = re.compile(r'(?<="detail_routes": )\{[^{}]*\}')
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)(?![\w.])")
# value / error_bound, and the search's best_ and theorem_ pairs, as repr fields or JSON keys
PREFIX = r"(?<![\w\"])(\"?)(best_|theorem_|)"
VALUE = re.compile(PREFIX + r"(?:value|estimated_moment)(?:=|\": )(\([^()]*\)|[^,()\s]+)")
BOUND = re.compile(PREFIX + r"error_bound(?:=|\": )([^,()\s}]+)")


def values_and_bounds(line: str, columns: list[str] | None) -> tuple[list[str], list[str]]:
    """The value texts of a line and the error_bound text of each: the columns
    of those names for a CSV row under a ``CSV_COLUMNS`` header, else the
    named fields, each value paired with the bound of its own prefix."""
    if columns is None:
        bounds: dict = {}
        for _, prefix, bound in BOUND.findall(line):
            bounds.setdefault(prefix, []).append(bound)
        values = VALUE.findall(line)
        return [v for _, _, v in values], [bounds[p].pop(0) for _, p, _ in values if bounds.get(p)]
    row = dict(zip(columns, line.split(",")))
    if row.get("value") and row.get("error_bound"):
        return [row["value"]], [row["error_bound"]]
    return [], []


KEY = re.compile(r"""(['"])(\w+)\1: |(\w+)=""")


def keyed_entries(line: str) -> dict:
    """{path: [(start, end), ...]} of the keyed entries of a line inside its
    brackets: repr fields name=..., and dict or JSON entries 'name': ...  An
    entry's path is its key after the path of the entry it sits in and a dot; its
    span runs from its separating ", " (or its key, for a first entry) to the
    next comma or closing bracket at its depth."""
    found: dict = {}
    open_entries: list = []  # [path, start, depth] of the entries not yet closed
    depth, quote, i = 0, None, 0
    while i < len(line):
        c = line[i]
        key = (depth and not quote and (line[i - 1] in "([{" or line[i - 2:i] == ", ")
               and KEY.match(line, i))
        if key:
            name = key.group(2) or key.group(3)
            path = f"{open_entries[-1][0]}.{name}" if open_entries else name
            open_entries.append([path, i - 2 if line[i - 2:i] == ", " else i, depth])
            i = key.end()
            continue
        if quote:
            if c == "\\":
                i += 1
            elif c == quote:
                quote = None
        elif c in "'\"":
            quote = c
        elif c in "([{":
            depth += 1
        elif c in ")]},":
            if c != ",":
                depth -= 1
            # a comma ends the entry at its depth, a closing bracket those inside it
            level = depth if c == "," else depth + 1
            while open_entries and open_entries[-1][2] >= level:
                path, start, _ = open_entries.pop()
                found.setdefault(path, []).append((start, i))
        i += 1
    return found


def drop_added(before: str, after: str) -> tuple[str, list[str], list[str]]:
    """after without the entries whose keys before lacks, with the added and
    the removed key paths."""
    old, new = keyed_entries(before), keyed_entries(after)
    added = sorted(k for k in new.keys() - old.keys()
                   if not any(k.startswith(a + ".") for a in new.keys() - old.keys()))
    spans = sorted((span for k in added for span in new[k]), reverse=True)
    for start, end in spans:
        if after[start:start + 2] != ", " and after[end:end + 2] == ", ":
            end += 2  # a first entry takes the separator after it
        after = after[:start] + after[end:]
    return after, added, sorted(old.keys() - new.keys())


def moved_share(before: str, after: str, columns: list[str] | None) -> float | None:
    """The largest distance a value of the line pair moved, as a fraction of
    the sum of its two error_bounds (each honest bound holds the true value,
    so honest lines stay within that sum), or None where a line lacks a
    value with an error_bound."""
    values_b, bounds_b = values_and_bounds(before, columns)
    values_a, bounds_a = values_and_bounds(after, columns)
    if not values_a or len(values_a) != len(bounds_a) or len(values_b) != len(bounds_b):
        return None
    shares = []
    for v_before, v_after, bound_b, bound_a in zip(values_b, values_a, bounds_b, bounds_a):
        limit = float(bound_b) + float(bound_a)
        for a, b in zip(NUMBER.findall(v_before), NUMBER.findall(v_after)):
            moved = abs(float(a) - float(b))
            shares.append(moved / limit if limit else math.inf if moved else 0.0)
    return max(shares, default=0.0)


def largest_move(before: str, after: str) -> float:
    """The largest relative change between the numbers of two texts, paired in order."""
    return max((abs(float(a) - float(b)) / max(abs(float(a)), abs(float(b)))
                for a, b in zip(NUMBER.findall(before), NUMBER.findall(after)) if a != b),
               default=0.0)


def without_values(line: str, columns: list[str] | None) -> str:
    """The line with its value texts taken out, leaving bounds and diagnostics."""
    if columns is None:
        return VALUE.sub("", line)
    cells = line.split(",")
    return ",".join(cells[:columns.index("value")] + cells[columns.index("value") + 1:])


def compare_line(before: str, after: str, columns: list[str] | None = None) -> tuple[str, bool]:
    """Judge one differing line pair: (report, passed)."""
    note = ""
    counts = [ROUTE_COUNTS.search(line) for line in (before, after)]
    if all(counts) and counts[0].group() != counts[1].group():
        note = f"routes {counts[0].group()} -> {counts[1].group()}; "
        before, after = (ROUTE_COUNTS.sub(lambda m: str(sum(map(int, NUMBER.findall(m.group())))),
                                          line) for line in (before, after))
    if columns is None:
        after, added, removed = drop_added(before, after)
        if removed:
            return f"keys removed: {', '.join(removed)}", False
        note += f"added keys: {', '.join(added)}" if added else ""
        if after == before:
            return f"{note}; numbers unchanged", True
        note = note and f"{note.rstrip('; ')}; "
    if NUMBER.sub("#", before) != NUMBER.sub("#", after):
        moved = sorted({f"{a} -> {b}" for a, b in zip(ROUTE.findall(before), ROUTE.findall(after))
                        if a != b})
        if not moved or NUMBER.sub("#", ROUTE.sub("#", before)) != NUMBER.sub(
                "#", ROUTE.sub("#", after)):
            return "text differs apart from the numbers", False
        note = f"{note}route moved {', '.join(moved)}; "
    others = largest_move(without_values(before, columns), without_values(after, columns))
    share = moved_share(before, after, columns)
    if share is None:
        return f"{note}largest relative change {others:.2g}, but no value with an error_bound", False
    value = largest_move(" ".join(values_and_bounds(before, columns)[0]),
                         " ".join(values_and_bounds(after, columns)[0]))
    moves = f"value's relative change {value:.2g}" if value else "value unchanged"
    verdict = "within" if share <= 1.0 else "OUTSIDE"
    return (f"{note}{moves}; largest relative change of the other numbers {others:.2g}; "
            f"value moved {share:.2g} of the sum of both error_bounds: {verdict} both bounds"
            ), share <= 1.0


def compare(before_path: str, after_path: str) -> int:
    before = Path(before_path).read_text().splitlines()
    after = Path(after_path).read_text().splitlines()
    if len(before) != len(after):
        print(f"line counts differ: {len(before)} against {len(after)}")
        return 1
    failed = differing = 0
    columns = None  # set while inside the rows of a CSV table
    for number, (b, a) in enumerate(zip(before, after), 1):
        if a == ",".join(CSV_COLUMNS):
            columns = CSV_COLUMNS
        elif a.startswith("cli "):
            columns = None
        if a == b:
            continue
        differing += 1
        report, passed = compare_line(b, a, columns)
        failed += not passed
        print(f"line {number} {a.split(':', 1)[0]}: {report}")
    print(f"{len(after)} lines, {differing} differ, {failed} fail")
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="judge two saved outputs instead of printing one")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    routes()
    cli()

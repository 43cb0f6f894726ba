"""Per-layer tracing from outside the package.

The layers are roskit's modules.  Tracer.install() replaces each public
module-level function of a layer (and each CLI command callback) with a
wrapper that records a span -- name, start, end, parent -- and updates the
layer's work counters from the call's arguments and result.  Spans stay in
memory until the run ends.

A wrapper sees a call only when the caller looks the function up on its
module at call time (``basedist.abs_moment(...)``, or an unqualified call
inside the defining module).  It does not see names imported directly into
another module (``from .basedist import _subgaussian_tail_moment`` in
gridconv), private helpers (leading underscore), methods such as
``BaseDistribution.cdf``, or ``discrete.round_sig``, which is left unwrapped
because it runs once per atom pair and a wrapper there would multiply the
traced run's time.  Work counts are computed from arguments and results at
the call boundary.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "constants", "cpoisson", "basedist", "discrete", "gridconv", "specfun", "logconcave", "verify")
UNWRAPPED = {"discrete.round_sig"}

# every per-layer metric, in BENCHMARK.json order, with its unit
METRICS = {
    "cli.calls": "count", "cli.self_s": "s",
    "constants.calls": "count", "constants.self_s": "s", "constants.budget_use_max": "ratio",
    "cpoisson.calls": "count", "cpoisson.self_s": "s", "cpoisson.series_terms": "count",
    "cpoisson.char_grid_fallbacks": "count",
    "basedist.calls": "count", "basedist.self_s": "s", "basedist.fft_points": "count",
    "basedist.cdf_evals": "count",
    "discrete.calls": "count", "discrete.self_s": "s", "discrete.atom_pairs": "count",
    "discrete.support_max": "count", "discrete.overflow_pairs": "count",
    "gridconv.calls": "count", "gridconv.self_s": "s", "gridconv.fft_points": "count",
    "gridconv.resampled_cells": "count", "gridconv.cells_max": "count", "gridconv.cdf_evals": "count",
    "specfun.calls": "count", "specfun.self_s": "s",
    "logconcave.solves": "count", "logconcave.self_s": "s",
    "verify.calls": "count", "verify.self_s": "s", "verify.cdf_evals": "count",
    "import.roskit_s": "s", "import.scipy_fft_s": "s",
}


def _budget_use(t, args, result):
    res = result[0] if isinstance(result, tuple) else result
    tol = args.get("tol")
    if tol and res.value:
        t.peak("constants.budget_use_max", res.error_bound / (tol * abs(res.value)))


def _cp_terms(t, args, result):
    t.add("cpoisson.series_terms", result.diagnostics.get("K", 0))
    if result.method.endswith("atoms_char_grid"):
        t.add("cpoisson.char_grid_fallbacks", 1)


def _kfold_fft(t, args, result):
    from scipy.fft import next_fast_len

    ks = list(args["ks"])
    nfft = next_fast_len(max(ks) * args["masses"].size + 1)
    t.add("basedist.fft_points", nfft * (1 + len(set(ks))))  # one forward, one inverse per k


def _convolve_atoms(t, args, result, exc=None):
    pairs = len(args["d1"]) * len(args["d2"])
    t.add("discrete.atom_pairs", pairs)
    if isinstance(exc, OverflowError):
        t.add("discrete.overflow_pairs", pairs)
    elif result is not None:
        t.peak("discrete.support_max", len(result))


def _convolve_grid(t, args, result):
    from scipy.fft import next_fast_len

    a, b = args["a"], args["b"]
    if a.masses.size and b.masses.size:
        t.add("gridconv.fft_points", 3 * next_fast_len(a.masses.size + b.masses.size - 1))
    t.peak("gridconv.cells_max", result.masses.size)


def _resample(t, args, result):
    if result is not args["law"]:
        t.add("gridconv.resampled_cells", result.masses.size)
    t.peak("gridconv.cells_max", result.masses.size)


def _from_cdf(t, args, result):
    t.add("gridconv.cdf_evals", args["n_cells"] + 1)
    t.peak("gridconv.cells_max", result.masses.size)


def _grid_density(t, args, result):
    if result.values.any():
        t.add("verify.cdf_evals", args["n_cells"] + 1)


def _solve(t, args, result):
    if result.limit == "interior":  # boundary targets return without a root solve
        t.add("logconcave.solves", 1)


HOOKS = {
    "constants.mixture_sup": _budget_use,
    "constants.mixture_constant": _budget_use,
    "constants.positive_sum_sup": _budget_use,
    "constants.complex_constant": _budget_use,
    "constants.utev_3point_sup": _budget_use,
    "constants.mixture_individual_sup": _budget_use,
    "cpoisson.cp_abs_moment": _cp_terms,
    "cpoisson.poisson_power_moment": _cp_terms,
    "basedist.kfold_moments_from_masses": _kfold_fft,
    "basedist.grid_cell_masses": lambda t, args, result: t.add("basedist.cdf_evals", args["n_cells"] + 1),
    "discrete.convolve_atoms": _convolve_atoms,
    "gridconv.convolve_grid": _convolve_grid,
    "gridconv.resample": _resample,
    "gridconv.from_cdf": _from_cdf,
    "gridconv.nfold_grid": lambda t, args, result: t.peak("gridconv.cells_max", result.masses.size),
    "verify.grid_density": _grid_density,
    "logconcave.match_density_minus": _solve,
    "logconcave.match_density_plus": _solve,
    "logconcave.match_tail": _solve,
}


class Tracer:
    """Spans and counters of one traced batch."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.values: dict = defaultdict(float)
        self._stack: list[list] = []  # [span index, time covered by children]
        self._undo: list[tuple] = []

    def add(self, name: str, amount: float) -> None:
        self.values[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.values[name] = max(self.values[name], value)

    def _wrap(self, layer: str, name: str, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        spans, stack, values = self.spans, self._stack, self.values
        counter = f"{layer}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1][0] if stack else -1])
            frame = [index, 0.0]
            stack.append(frame)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[index]
                span[1], span[2] = start, end
                duration = end - start
                values[f"{layer}.self_s"] += duration - frame[1]
                values[counter] += 1
                if hook:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    if name == "discrete.convolve_atoms":
                        hook(self, bound.arguments, result, exc)
                    elif exc is None:
                        hook(self, bound.arguments, result)
                if stack:
                    # the counting above is tracing cost, not the caller's own work
                    stack[-1][1] += time.perf_counter() - start

        return wrapper

    def install(self, package) -> "Tracer":
        """Wrap the public functions of every layer of an imported roskit."""
        for layer in LAYERS:
            module = getattr(package, layer)
            if layer == "cli":
                for command in module.main.commands.values():
                    self._undo.append((command, "callback", command.callback))
                    command.callback = self._wrap("cli", f"cli.{command.name}", command.callback)
                continue
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                self._undo.append((module, attr, obj))
                setattr(module, attr, self._wrap(layer, name, obj))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self) -> dict:
        """Every per-layer metric except the import times (zeros included)."""
        return {name: float(self.values.get(name, 0.0)) for name in METRICS if not name.startswith("import.")}

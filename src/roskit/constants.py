"""Sharp constants and suprema of moment problems for sums of mixtures.

All suprema are over tuples of independent mixtures of a symmetric base
law under second- and p-th-moment budgets.  Below the fourth moment the
supremum has a Gaussian-plus-spike closed form independent of the base
law; from the fourth moment on it is a compound Poisson value of the
conditioned base, with the intensity and spatial scale determined by the
budgets.  The two regimes must agree at p = 4, which every entry point
cross-checks.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import basedist, cpoisson, discrete, fourier, gridconv, specfun
from .basedist import BaseDistribution
from .errors import (
    BranchMismatchError,
    DomainError,
    FeasibilityError,
    InputError,
)
from .result import ConstantResult

__all__ = [
    "MomentBudget",
    "rosenthal_constant_symmetric",
    "mixture_sup",
    "mixture_constant",
    "positive_sum_sup",
    "complex_constant",
    "utev_3point_sup",
    "mixture_individual_sup",
    "WitnessSpec",
    "witness_construction",
]

# exact enumeration of a sum law handles at most this many summands (the
# support of n three-point summands has up to 3^n points); a thinned sum of
# more atomic summands takes the Fourier route
MAX_ENUM_SUMMANDS = 12
# the witness's block size: its moment takes arrays of n + 1 counts and walk points
MAX_WITNESS_SUMMANDS = 1_000_000


@dataclass(frozen=True)
class MomentBudget:
    """Moment budgets at exponent p: either global (A, B) or per-summand
    pairs (a_j, b_j).  Exactly one of the two forms is present."""

    p: float
    global_budgets: tuple | None = None
    per_summand: tuple | None = None

    def __post_init__(self):
        if not self.p > 2.0:
            raise DomainError("moment budgets require p > 2")
        if (self.global_budgets is None) == (self.per_summand is None):
            raise DomainError("exactly one of global/per-summand budgets must be set")
        if self.global_budgets is not None:
            A, B = self.global_budgets
            if not (A > 0.0 and B > 0.0):
                raise DomainError("global budgets must be positive")
        else:
            for a_j, b_j in self.per_summand:
                if not (a_j > 0.0 and b_j > 0.0):
                    raise DomainError("per-summand budgets must be positive")
                if a_j > b_j:
                    raise FeasibilityError(
                        f"infeasible budget pair a={a_j} > b={b_j}"
                    )

    @classmethod
    def per_pair(cls, p: float, a, b) -> "MomentBudget":
        if len(a) != len(b):
            raise DomainError("budget lists a and b must have equal length")
        return cls(p, per_summand=tuple((float(x), float(y)) for x, y in zip(a, b)))


def _finite(quantity: str, A: float, B: float, compute) -> float:
    """compute(), or a DomainError naming quantity where it overflows a float."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"the {quantity} at A = {A!r}, B = {B!r} overflows a float")
    return value


def _lower_branch_sup(p: float, A: float, B: float) -> float:
    # B^p + E|Z|^p A^p, the Gaussian-block-plus-spikes value for 2 < p < 4
    return _finite("value B^p + E|Z|^p A^p", A, B,
                   lambda: B**p + specfun.gaussian_abs_moment(p) * A**p)


def _upper_branch_sup(
    p: float, V: BaseDistribution, A: float, B: float, tol: float
) -> ConstantResult:
    """Compound Poisson branch for p >= 4: prefactor times the cp moment."""
    nv2 = basedist.abs_moment(V, 2.0)   # ||V||_2^2
    nvp = basedist.abs_moment(V, p)     # ||V||_p^p
    lam = (A * nvp ** (1.0 / p) / (B * math.sqrt(nv2))) ** (
        2.0 * p / (p - 2.0)
    ) * (1.0 - V.zero_mass)
    if lam < sys.float_info.min:
        return _one_jump_limit(p, A, B, lam)
    try:
        prefactor = (B**p * nv2 / (A**2 * nvp)) ** (p / (p - 2.0))
    except OverflowError:
        prefactor = math.inf
    if math.isinf(prefactor) and lam * 1.5**p < 1.5:
        return _one_jump_limit(p, A, B, lam)
    prefactor = _finite("compound Poisson prefactor", A, B, lambda: prefactor)
    cond = basedist.condition_nonzero(V)
    cp_res = cpoisson.cp_abs_moment(cpoisson.CompoundPoissonSpec(lam, cond), p, tol)
    value = prefactor * cp_res.value
    diag = {
        "branch": "compound_poisson_p>=4",
        "lambda": lam,
        "prefactor": prefactor,
        "cp_moment": cp_res.value,
        "cp_method": cp_res.method,
        "A": A,
        "B": B,
    }
    if float(p).is_integer() and int(p) in (4, 6, 8):
        # independent cumulant route, exposed for cross-checking
        diag["cp_cumulant_value"] = prefactor * cpoisson.cp_even_moment_cumulant(
            cpoisson.CompoundPoissonSpec(lam, cond), int(p)
        )
    err = prefactor * cp_res.error_bound + 1e-14 * value
    return ConstantResult(value, f"mixture_sup/{cp_res.method}", err, diag)


def _one_jump_limit(p: float, A: float, B: float, lam: float) -> ConstantResult:
    """The p >= 4 supremum at an intensity below the smallest normal float,
    or wherever the prefactor overflows a float while lam (3/2)^p / 3 < 1/2.

    prefactor * lam * E|V'|^p = B^p, so the one-jump term of the compound
    Poisson moment is B^p e^-lam.  By convexity E|S_k|^p <= k^p E|V'|^p, so
    the k >= 2 terms sum to at most B^p lam sum_{k>=2} lam^(k-2) k^p / k!;
    their ratios stay below lam (3/2)^p / 3 < 1/2 (for lam below the smallest
    normal float, at any p whose 2^p is a float), so the sum is at most
    B^p lam 2^p.
    """
    value = _finite("value B^p", A, B, lambda: B**p * math.exp(-lam))
    err = _finite("one-jump remainder", A, B, lambda: value * lam * 2.0**p) + 1e-14 * value
    diag = {"branch": "compound_poisson_p>=4", "lambda": lam, "A": A, "B": B}
    return ConstantResult(value, "mixture_sup/one_jump_limit", err, diag)


def mixture_sup(
    p: float, V: BaseDistribution, A: float, B: float, tol: float = 1e-9
) -> ConstantResult:
    """sup E|X_1 + ... + X_n|^p over tuples of independent V-mixtures with
    sum ||X_j||_2^2 <= A^2 and sum ||X_j||_p^p <= B^p (any n).

    For 2 < p < 4 the value is B^p + E|Z|^p A^p regardless of V; for
    p >= 4 it is a rescaled compound Poisson moment of V conditioned on
    being nonzero, or its one-jump limit B^p e^-lambda where the intensity
    lambda is below the smallest normal float.  At p = 4 the compound
    Poisson branch is authoritative and the closed form is cross-checked.
    """
    if not p > 2.0:
        raise DomainError("mixture_sup requires p > 2")
    if not (A > 0.0 and B > 0.0):
        raise DomainError("budgets A, B must be positive")

    if p < 4.0:
        value = _lower_branch_sup(p, A, B)
        diag = {
            "branch": "closed_form_p<4",
            "gaussian_moment": specfun.gaussian_abs_moment(p),
            "A": A,
            "B": B,
        }
        return ConstantResult(value, "closed_form", 1e-14 * value, diag)

    res = _upper_branch_sup(p, V, A, B, tol)
    if p == 4.0:
        _check_p4_branches(res.value, _lower_branch_sup(p, A, B), res.error_bound, tol,
                           res.diagnostics)
    return res


def _check_p4_branches(value: float, lower: float, err: float, tol: float, diag: dict):
    """At p = 4 the compound Poisson value must equal the closed form of the
    p < 4 branch; records the closed form and raises on disagreement."""
    diag["lower_branch_value"] = lower
    allowance = max(tol, 1e-6) * value + err
    if abs(value - lower) > allowance:
        raise BranchMismatchError(
            f"p=4 branches disagree: compound-Poisson {value!r} vs "
            f"closed form {lower!r} (allowance {allowance:.3e})"
        )


def rosenthal_constant_symmetric(p: float, tol: float = 1e-9) -> ConstantResult:
    """The optimal constant for sums of independent symmetric variables:
    (1 + E|Z|^p)^(1/p) below p = 4, the Poisson random-sign norm above."""
    return mixture_constant(p, basedist.rademacher(), tol)


def mixture_constant(p: float, V: BaseDistribution, tol: float = 1e-9) -> ConstantResult:
    """Best constant in the moment inequality for V-mixtures: the unit-budget
    supremum to the power 1/p."""
    sup = mixture_sup(p, V, 1.0, 1.0, tol)
    value = sup.value ** (1.0 / p)
    err = sup.error_bound / (p * max(value, 1e-300) ** (p - 1.0))
    diag = dict(sup.diagnostics)
    diag["sup_value"] = sup.value
    return ConstantResult(value, sup.method, err, diag)


def positive_sum_sup(p: float, A: float, B: float, tol: float = 1e-9) -> ConstantResult:
    """sup E(X_1 + ... + X_n)^p over independent nonnegative variables with
    sum EX_j <= A and sum EX_j^p <= B^p.

    A^p + B^p below p = 2; a Poisson power moment with intensity
    (A/B)^(p/(p-1)) from p = 2 on.
    """
    if not p > 1.0:
        raise DomainError("positive_sum_sup requires p > 1")
    if not (A > 0.0 and B > 0.0):
        raise DomainError("budgets A, B must be positive")
    if p < 2.0:
        value = _finite("value A^p + B^p", A, B, lambda: A**p + B**p)
        return ConstantResult(
            value, "closed_form", 1e-15 * value, {"branch": "closed_form_p<2"}
        )
    lam = (A / B) ** (p / (p - 1.0))
    pref = _finite("Poisson prefactor (B^p / A)^(p / (p - 1))", A, B,
                   lambda: (B**p / A) ** (p / (p - 1.0)))
    mom = cpoisson.poisson_power_moment(lam, p, tol)
    value = pref * mom.value
    diag = {
        "branch": "poisson_p>=2",
        "lambda": lam,
        "prefactor": pref,
        "poisson_moment": mom.value,
        "K": mom.diagnostics["K"],
    }
    return ConstantResult(value, "poisson_series", pref * mom.error_bound, diag)


def complex_constant(p: float, tol: float = 1e-9) -> ConstantResult:
    """Best constant for sums of rotationally invariant complex variables.

    Reduces to the real projection cos(2*pi*U): below p = 4 a closed form
    in the normalizer beta_p; from p = 4 on, beta_p^(1/p) times the norm
    of a compound Poisson(1) sum of cosine projections.
    """
    if not p > 2.0:
        raise DomainError("complex_constant requires p > 2")
    beta = specfun.steinhaus_beta(p)
    lower = (1.0 + beta * 2.0 ** (-p / 2.0) * specfun.gaussian_abs_moment(p)) ** (1.0 / p)
    if p < 4.0:
        return ConstantResult(
            lower, "closed_form", 1e-14 * lower, {"branch": "closed_form_p<4", "beta_p": beta}
        )
    cond = basedist.condition_nonzero(basedist.cosine_projection())
    cp_res = cpoisson.cp_abs_moment(cpoisson.CompoundPoissonSpec(1.0, cond), p, tol)
    value = (beta * cp_res.value) ** (1.0 / p)
    err = beta * cp_res.error_bound / (p * max(value, 1e-300) ** (p - 1.0))
    diag = {
        "branch": "compound_poisson_p>=4",
        "beta_p": beta,
        "cp_moment": cp_res.value,
        "cp_method": cp_res.method,
    }
    if p == 4.0:
        _check_p4_branches(value, lower, err, tol, diag)
    return ConstantResult(value, f"complex/{cp_res.method}", err, diag)


def utev_3point_sup(p: float, budget: MomentBudget, tol: float = 1e-9):
    """sup E|sum_j X_j|^p over independent symmetric X_j with
    ||X_j||_2 <= a_j and ||X_j||_p <= b_j, for p >= 4.

    Attained by three-point laws {-c_j, 0, +c_j} that meet both budgets
    with equality: c_j = (b_j^p / a_j^2)^(1/(p-2)) and activation
    mu_j = (a_j / b_j)^(2p/(p-2)).  Returns the supremum together with the
    (c_j, mu_j) description of the extremal tuple.
    """
    res = mixture_individual_sup(p, basedist.rademacher(), budget, tol=tol)
    return res, list(zip(res.diagnostics["scales"], res.diagnostics["activations"]))


def _thinned_atoms(V: BaseDistribution, c: float, mu: float) -> dict:
    """The signed atomic law of c theta V, P(theta = 1) = mu, for atomic V: mass
    1 - mu at zero (no atom there for mu = 1), and mu times its mass at c x for
    each atom x of V."""
    out = {0.0: 1.0 - mu} if mu < 1.0 else {}
    for x, m in V.signed_atoms().items():
        out[c * x] = out.get(c * x, 0.0) + mu * m
    return out


def _thinned_enum_result(p: float, V: BaseDistribution, scales, activations,
                         max_support: int) -> ConstantResult:
    """E|sum_j c_j theta_j V_j|^p for atomic V by discrete.enum_sum on the thinned
    atom laws, with its support size or term count; SupportOverflowError past max_support."""
    laws = [_thinned_atoms(V, c, mu) for c, mu in zip(scales, activations)]
    value, err, support = discrete.enum_sum(laws, p, max_support)
    return ConstantResult(value, "exact_enum", err, {"support": support})


def mixture_individual_sup(
    p: float,
    V: BaseDistribution,
    budget: MomentBudget,
    tol: float = 1e-9,
) -> ConstantResult:
    """sup E|sum_j X_j|^p over independent V-mixtures with individual
    budgets ||X_j||_2 <= a_j, ||X_j||_p <= b_j, for p >= 4.

    Attained by Bernoulli-thinned scaled copies of V meeting both budgets
    with equality (for random signs the three-point laws of utev_3point_sup).
    They are evaluated by _thinned_sum_moment: exact enumeration for atomic V
    with at most MAX_ENUM_SUMMANDS summands, the signed path sum of
    discrete.uniform_sum for uniform V (method "exact_uniform", where its bound
    meets tol; it answers at large p, where the Taylor sums of the Fourier route
    cancel), else von Bahr's integral over the
    product of the summands' characteristic functions (method "fourier"),
    conditioned on summand activity where that plan passes
    fourier.SUBPLAN_PANELS panels.  The reference route, the spectral grid sum
    of the returned scales and activations, is _thinned_grid_result, called by
    name.
    """
    if p < 4.0:
        raise DomainError("per-summand budgets require p >= 4")
    if budget.per_summand is None:
        raise DomainError("the budget must be per-summand, not global")
    nv2 = math.sqrt(basedist.abs_moment(V, 2.0))
    nvp = basedist.abs_moment(V, p) ** (1.0 / p)
    scales, activations = [], []
    for a_j, b_j in budget.per_summand:
        scales.append(((b_j / nvp) ** p / (a_j / nv2) ** 2) ** (1.0 / (p - 2.0)))
        activations.append((a_j * nvp / (b_j * nv2)) ** (2.0 * p / (p - 2.0)))
    if any(mu > 1.0 + 1e-12 for mu in activations):
        raise FeasibilityError(
            "infeasible budget: required activation exceeds 1 "
            "(b_j/a_j below the base law's p-to-2 norm ratio)"
        )
    activations = [min(mu, 1.0) for mu in activations]
    diag = {"n": len(scales), "scales": scales, "activations": activations, "V": V.kind}
    res = _thinned_sum_moment(p, V, scales, activations, tol, 2_000_000)
    diag.update({key: res.diagnostics[key]
                 for key in ("fourier_panels", "fourier_reach", "fourier_width", "t0", "depth",
                             "subplans", "support", "paths")
                 if key in res.diagnostics})
    # this function tags the Fourier route "fourier"
    method = "fourier" if res.method == "sum_fourier" else res.method
    return ConstantResult(res.value, method, res.error_bound, diag)


def _thinned_grid_sum(p: float, V: BaseDistribution, L: float, terms, n_cells: int,
                      tol: float):
    """(E|S|^p on the grid, the indices of the rare terms) for S the sum of the
    terms, on the finest summand's edge_steps(n_cells / 2), by gridconv.grid_moment.
    A rare term, whose active mass per fine cell mu / (2 reach + 1) is at most the
    sum's noise floor, is zeroed with the noise, so the caller conditions on it."""
    if not terms:
        return ConstantResult(0.0, "grid", 0.0), []
    # activation mu thins c V: mass 1 - mu at 0, the centre of a cell; an atomic V
    # enters as its thinned atoms, without a CDF
    summands = [gridconv.Summand(None, t.scale * L, _thinned_atoms(V, t.scale, t.activation),
                                 t.count) if V.is_atomic
                else gridconv.Summand(lambda x, c=t.scale, mu=t.activation: mu * V.cdf(x / c),
                                      t.scale * L, {0.0: 1.0 - t.activation}, t.count)
                for t in terms]
    steps = gridconv.sum_steps(summands,
                               gridconv.edge_steps(min(t.scale for t in terms) * L, n_cells // 2))
    grid = gridconv.grid_moment(summands, steps, p, tol)  # Hoeffding: |c theta V| <= c L
    rare = [i for i, (t, s) in enumerate(zip(terms, summands))
            if t.activation / (2 * s.reach(steps[0]) + 1) <= grid.floor]
    return ConstantResult(grid.value, "grid", grid.error_bound), rare


def _thinned_grid_result(p: float, V: BaseDistribution, scales, activations, tol: float,
                         n_cells: int) -> ConstantResult:
    """E|sum_j c_j theta_j V_j|^p on the spectral grid, the reference route that no
    production call picks.  A sum with rare terms is conditioned on their active
    counts (fourier.condition), each pattern a grid sum summed by
    fourier.conditioned_abs_moment."""
    bound = V.support_bound()
    L = bound if bound is not None else basedist._gaussian_grid_halfwidth(max(p, 6.0), tol)
    terms = [fourier.Term(V, c, mu, k) for (c, mu), k in Counter(zip(scales, activations)).items()
             if c > 0.0 and mu > 0.0]
    res, rare = _thinned_grid_sum(p, V, L, terms, n_cells, tol)
    if rare:
        # E|S|^p >= sum_j E|X_j|^p for p >= 2
        lower = math.fsum(t.count * t.activation * t.scale**p for t in terms) * V.abs_moment(p)
        res = fourier.conditioned_abs_moment(
            fourier.condition(p, terms, rare, tol, 0.1 * tol * lower),
            lambda sub: _thinned_grid_sum(p, V, L, sub.terms, n_cells, tol)[0])
    return ConstantResult(res.value, "grid", res.error_bound, {"n_cells": n_cells})


def _thinned_fourier_result(p: float, V: BaseDistribution, scales, activations,
                            tol: float) -> ConstantResult:
    """E|sum_j c_j theta_j V_j|^p by von Bahr's integral (method sum_fourier): the
    equal (c_j, mu_j) grouped into fourier.Term counts, conditioned on the activity
    of the widest thinned summands where the plan passes fourier.SUBPLAN_PANELS
    (fourier.plan_conditioned; diagnostics depth)."""
    return fourier.conditioned_abs_moment(fourier.plan_conditioned(p, [
        fourier.Term(V, c, mu, k) for (c, mu), k in Counter(zip(scales, activations)).items()],
        tol))


# The paths of the exact uniform route.  Against _thinned_fourier_result at tol 1e-6
# (p = 3 and 5.37, five to twelve summands, timeit best of 5, 2-core x86-64), it took
# 0.1-0.45 of the Fourier route's time up to 2,187 paths, 0.65-1.14 at 6,561 and
# 2.3-3.2 times it at 19,683
_UNIFORM_PATHS = 3**8


def _thinned_uniform_result(p: float, V: BaseDistribution, scales, activations,
                            tol: float) -> ConstantResult:
    """E|sum_j c_j theta_j V_j|^p for uniform V by discrete.uniform_sum (method
    exact_uniform), or by the Fourier route where its paths pass _UNIFORM_PATHS
    or its bound passes tol times its value."""
    exact = discrete.uniform_sum(scales, activations, p, V.half_width, _UNIFORM_PATHS)
    if exact is not None and exact[1] <= tol * exact[0]:
        return ConstantResult(exact[0], "exact_uniform", exact[1], {"paths": exact[2]})
    return _thinned_fourier_result(p, V, scales, activations, tol)


# the route of a thinned sum of at most MAX_ENUM_SUMMANDS summands, by the base
# law's thinned_route; past that cap, the Fourier route
_THINNED_ROUTES = {
    "exact_enum": lambda p, V, scales, activations, tol, max_support:
        _thinned_enum_result(p, V, scales, activations, max_support),
    "exact_uniform": lambda p, V, scales, activations, tol, max_support:
        _thinned_uniform_result(p, V, scales, activations, tol),
    "fourier": lambda p, V, scales, activations, tol, max_support:
        _thinned_fourier_result(p, V, scales, activations, tol),
}


def _thinned_sum_moment(p: float, V: BaseDistribution, scales, activations, tol: float,
                        max_support: int) -> ConstantResult:
    """E|sum_j c_j theta_j V_j|^p on every base law.  With at most
    MAX_ENUM_SUMMANDS summands, the route the law's thinned_route names: exact
    enumeration for atomic V (method exact_enum, up to max_support points;
    _thinned_enum_result), the signed sum over the 3^n activity and sign paths
    for uniform V (method exact_uniform, where its bound meets tol;
    _thinned_uniform_result); else, and for every other law, von Bahr's integral
    over the product of the summands' characteristic functions (method
    sum_fourier; _thinned_fourier_result)."""
    route = V.thinned_route if len(scales) <= MAX_ENUM_SUMMANDS else "fourier"
    return _THINNED_ROUTES[route](p, V, scales, activations, tol, max_support)


@dataclass(frozen=True)
class WitnessSpec:
    """Two-block near-extremal tuple for the 2 < p < 4 supremum.

    Block one: n summands (alpha / sqrt n) V_j, a central-limit block.
    Block two: n summands gamma theta_j V_j with activation lam / n, a
    sparse spike block.  Both budget rows are met exactly by construction.
    """

    p: float
    V: BaseDistribution
    A: float
    B: float
    n: int
    alpha: float
    gamma: float
    lam: float
    l2_budget_used: float
    lp_budget_used: float


def witness_construction(
    p: float,
    V: BaseDistribution,
    A: float,
    B: float,
    n: int,
    alpha: float,
    estimate_moment: bool = True,
):
    """Build the two-block witness and compute its p-th moment.

    Solves gamma^2 lam = A^2/||V||_2^2 - alpha^2 and
    gamma^p lam = B^p/||V||_p^p - alpha^p n^(1-p/2) for (gamma, lam) and
    verifies the budget bookkeeping exactly.  E|sum|^p is conditioned on the
    active count j ~ Bin(n, lam / n) of the spike block (fourier.condition):
    each count is the Fourier sum of n copies of (alpha / sqrt n) V and j of
    gamma V, and for random signs, whose |phi| never decays, the exact lattice
    sum over the two walks.  An atomic V but random signs at small p can need
    more than fourier.MAX_SUM_PANELS panels: an InputError names that cap.  Returns
    (WitnessSpec, ConstantResult | None).
    """
    if not 2.0 < p < 4.0:
        raise DomainError("witness_construction requires 2 < p < 4")
    if not 1 <= n <= MAX_WITNESS_SUMMANDS:
        raise DomainError(f"n must lie in [1, MAX_WITNESS_SUMMANDS = {MAX_WITNESS_SUMMANDS}], "
                          f"got {n}")
    nv2 = math.sqrt(basedist.abs_moment(V, 2.0))
    nvp = basedist.abs_moment(V, p) ** (1.0 / p)
    if not 0.0 < alpha < A / nv2:
        raise FeasibilityError(
            f"alpha must lie in (0, A/||V||_2) = (0, {A / nv2:.6g})"
        )
    c2 = (A / nv2) ** 2 - alpha**2
    cp_slack = (B / nvp) ** p - alpha**p * n ** (1.0 - p / 2.0)
    if cp_slack <= 0.0:
        raise FeasibilityError(
            "violated positivity: B^p/||V||_p^p - alpha^p n^(1-p/2) <= 0; "
            "increase n or decrease alpha"
        )
    gamma = (cp_slack / c2) ** (1.0 / (p - 2.0))
    lam = c2 / gamma**2

    l2_used = nv2**2 * (alpha**2 + gamma**2 * lam)
    lp_used = nvp**p * (alpha**p * n ** (1.0 - p / 2.0) + gamma**p * lam)
    spec = WitnessSpec(p, V, A, B, n, alpha, gamma, lam, l2_used, lp_used)

    if not estimate_moment:
        return spec, None

    tol = 1e-9
    walk = fourier.Term(V, alpha / math.sqrt(n), 1.0, n)

    def moment(plan):
        if V.kind == "rademacher":
            j = plan.terms[-1].count if len(plan.terms) > 1 else 0
            (x, w, rel), (y, v, rel_j) = basedist.walk_law(n), basedist.walk_law(j)
            value = math.fsum(v_l * float(w @ np.abs(walk.scale * x + gamma * y_l) ** p)
                              for y_l, v_l in zip(y, v))
            scale = math.fsum(v_l * float(w @ (np.abs(walk.scale * x) + abs(gamma * y_l)) ** p)
                              for y_l, v_l in zip(y, v))
            err = (rel + rel_j) * value + 4.0 * (p + 2.0) * sys.float_info.epsilon * scale
            return ConstantResult(value, "exact/lattice", err)
        if plan.route != "fourier":
            raise InputError(f"a witness count needs {plan.panels} panels, past "
                             f"MAX_SUM_PANELS = {fourier.MAX_SUM_PANELS}")
        return fourier.sum_abs_moment(plan)

    # E|sum|^p >= the sum of the summands' p-th moments, B^p
    plan = fourier.condition(p, [walk, fourier.Term(V, gamma, lam / n, n)], [1], tol,
                             0.1 * tol * B**p)
    res = fourier.conditioned_abs_moment(plan, moment)
    diag = {
        "lambda": lam,
        "gamma": gamma,
        "alpha": alpha,
        "n": n,
        "counts": res.diagnostics["subplans"],
        "l2_budget_used": l2_used,
        "lp_budget_used": lp_used,
    }
    return spec, ConstantResult(res.value, "sum_fourier/two_block", res.error_bound, diag)

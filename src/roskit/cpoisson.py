"""Moments of compound Poisson variables.

T is the sum of a Poisson(lambda) number of i.i.d. symmetric jumps with
law given by a conditioned base distribution.  Absolute moments come from
the exact series

    E|T|^p = exp(-lambda) * sum_k  lambda^k / k!  *  E|S_k|^p

truncated where the crude but rigorous bound E|S_k|^p <= (k ||jump||_p)^p
certifies the discarded tail.  The per-k moments E|S_k|^p come from the
basedist k-fold kernels; atomic jumps with many atoms or an overflowing
exact support take the whole series on one char grid instead.  Even integer
moments have an independent cumulant shortcut used as an oracle for the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basedist, gridconv
from .basedist import ConditionedBase
from .errors import DomainError, UnsupportedMethodError
from .result import ConstantResult

__all__ = [
    "CompoundPoissonSpec",
    "cp_abs_moment",
    "cp_even_moment_cumulant",
    "cp_sample",
    "poisson_power_moment",
]

_ATOM_SUPPORT_CAP = 50_000


@dataclass(frozen=True)
class CompoundPoissonSpec:
    lam: float
    jump: ConditionedBase

    def __post_init__(self):
        if self.lam < 0.0 or not math.isfinite(self.lam):
            raise DomainError("Poisson intensity must be finite and nonnegative")


def _log_poisson_weight(lam: float, k: int) -> float:
    # log( e^-lam lam^k / k! ), in log space so lam up to 1e3 stays finite
    return -lam + k * math.log(lam) - math.lgamma(k + 1)


def _power_term(lam: float, p: float, k: int) -> float:
    # w_k k^p, the k-th term of E xi^p for xi ~ Poisson(lambda)
    return math.exp(_log_poisson_weight(lam, k) + p * math.log(k))


def _truncation_depth(lam: float, p: float, m_p: float, tol: float):
    """Smallest K with  sum_{k>K} w_k (k^p m_p) < tol, plus that tail value."""
    k_cap = max(80, int(20.0 * lam + 10.0 * p + 80))
    bounds = [_power_term(lam, p, k) * m_p for k in range(1, k_cap + 1)]
    # extend the cap until the terms are vanishingly small
    while bounds[-1] > 1e-9 * tol and k_cap < 100_000:
        bounds += [_power_term(lam, p, k) * m_p for k in range(k_cap + 1, 2 * k_cap + 1)]
        k_cap *= 2
    suffix = 0.0
    K = len(bounds)
    # walk backwards accumulating the certified tail
    for k in range(len(bounds), 0, -1):
        if suffix + bounds[k - 1] >= tol:
            break
        suffix += bounds[k - 1]
        K = k - 1
    if K == len(bounds):
        raise DomainError("series truncation failed (tolerance unreachably small)")
    return max(K, 1), suffix


def _per_k_moments_atoms(jump, ks, p):
    """Exact dict convolutions of the jump law; OverflowError signals the
    deduplicated support blowing up (caller falls back to the grid)."""
    law = jump.base.signed_atoms()
    if len(law) >= 8:
        raise OverflowError("many-atom law; grid route is cheaper")
    values, _ = basedist.atomic_kfold_moments(law, ks, p, _ATOM_SUPPORT_CAP)
    return values, {k: 1e-13 * k * v for k, v in values.items()}


def _cp_char_grid_moment(spec: CompoundPoissonSpec, p: float, K: int, tail: float):
    """Whole-series value on a grid via the exponential of the jump law's
    characteristic vector: two FFTs per resolution instead of one inverse
    transform per series term.

    Contributions of the terms beyond K live outside the retained window
    |x| <= K * bound (or alias back into it); both effects are covered by
    twice the certified series tail at K.
    """
    from scipy.fft import irfft, next_fast_len, rfft

    law = spec.jump.base.signed_atoms()
    bound = spec.jump.base.support_bound()
    span = bound * (K + 3)
    vals = []
    for n_base in (8192, 16384):
        h = 2.0 * bound / n_base
        n_cells = next_fast_len(int(math.ceil(2.0 * span / h)))
        # wrap-around axis: index = position / h mod n_cells, so the k-fold
        # circular convolutions of every order share one position decoding
        masses = np.zeros(n_cells)
        for loc, m in law.items():
            idx_f = loc / h
            base = int(math.floor(idx_f))
            frac = idx_f - base
            masses[base % n_cells] += m * (1.0 - frac)
            masses[(base + 1) % n_cells] += m * frac
        char = rfft(masses)
        dist = irfft(np.exp(spec.lam * (char - 1.0)), n_cells)
        half = n_cells // 2
        positions = np.where(
            np.arange(n_cells) <= half,
            np.arange(n_cells) * h,
            (np.arange(n_cells) - n_cells) * h,
        )
        vals.append(gridconv.window_abs_moment(positions, dist, p, K * bound))
    (coarse, _), (fine, hidden) = vals
    err = 3.0 * abs(fine - coarse) + hidden + 2.0 * tail
    return fine, err


def cp_abs_moment(
    spec: CompoundPoissonSpec, p: float, tol: float = 1e-9
) -> ConstantResult:
    """E|T|^p by the truncated Poisson series over k-fold jump sums.

    The reported error bound is the certified series tail plus the
    propagated per-k evaluation errors.
    """
    if not p > 2.0:
        raise DomainError("cp_abs_moment requires p > 2")
    lam = spec.lam
    diag: dict = {"lambda": lam, "p": p}
    if lam == 0.0:
        return ConstantResult(0.0, "cp_series/empty", 0.0, diag)
    m_p = spec.jump.abs_moment(p)
    if not math.isfinite(m_p):
        raise DomainError("jump law has no finite p-th moment")
    K, tail = _truncation_depth(lam, p, m_p, tol)
    ks = list(range(1, K + 1))
    weights = [math.exp(_log_poisson_weight(lam, k)) for k in ks]

    kind = spec.jump.base.kind
    if kind == "rademacher":
        per_k = {k: basedist._rademacher_walk_moment(k, p) for k in ks}
        per_k_err = {k: 1e-14 * k * per_k[k] for k in ks}
        route = "exact_walk"
    elif kind == "gaussian":
        ez = basedist.abs_moment(spec.jump.base, p)
        per_k = {k: k ** (p / 2.0) * ez for k in ks}
        per_k_err = {k: 1e-14 * per_k[k] for k in ks}
        route = "exact_gaussian"
    elif kind == "atoms":
        try:
            per_k, per_k_err = _per_k_moments_atoms(spec.jump, ks, p)
            route = "atoms_exact"
        except OverflowError:
            value, err = _cp_char_grid_moment(spec, p, K, tail)
            diag.update(
                {"K": K, "per_k_method": "atoms_char_grid", "jump_p_moment": m_p,
                 "tail_bound": tail}
            )
            return ConstantResult(value, "cp_series/atoms_char_grid", err, diag)
    else:
        vals, errs = basedist.kfold_grid_moments(spec.jump.base, ks, p, tol, 8192)
        per_k = dict(zip(ks, vals))
        per_k_err = dict(zip(ks, errs))
        route = "grid"

    value = math.fsum(w * per_k[k] for k, w in zip(ks, weights))
    propagated = math.fsum(w * per_k_err[k] for k, w in zip(ks, weights))
    diag.update({"K": K, "per_k_method": route, "jump_p_moment": m_p, "tail_bound": tail})
    return ConstantResult(value, f"cp_series/{route}", tail + propagated, diag)


_EVEN_MOMENT_FROM_CUMULANTS = {
    4: lambda c: c[4] + 3.0 * c[2] ** 2,
    6: lambda c: c[6] + 15.0 * c[4] * c[2] + 15.0 * c[2] ** 3,
    8: lambda c: (
        c[8]
        + 28.0 * c[6] * c[2]
        + 35.0 * c[4] ** 2
        + 210.0 * c[4] * c[2] ** 2
        + 105.0 * c[2] ** 4
    ),
}


def cp_even_moment_cumulant(spec: CompoundPoissonSpec, p: int) -> float:
    """E T^p for even integer p from the cumulants kappa_r = lambda E V~^r.

    Odd cumulants vanish by symmetry; the moment-cumulant expansion then
    collapses to the even-partition terms.  Independent oracle for
    cp_abs_moment.
    """
    if p not in _EVEN_MOMENT_FROM_CUMULANTS:
        raise UnsupportedMethodError(f"cumulant shortcut supports p in {{4,6,8}}, got {p}")
    cums = {r: spec.lam * spec.jump.abs_moment(r) for r in (2, 4, 6, 8)}
    return _EVEN_MOMENT_FROM_CUMULANTS[p](cums)


def cp_sample(spec: CompoundPoissonSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. draws of T; deterministic given the generator state."""
    if n < 0:
        raise DomainError("sample count must be nonnegative")
    return basedist.sample_count_sums(spec.jump.base, rng, rng.poisson(spec.lam, size=n))


def poisson_power_moment(lam: float, p: float, tol: float = 1e-9) -> ConstantResult:
    """E xi^p for xi ~ Poisson(lambda), by the same truncated series."""
    if lam < 0.0:
        raise DomainError("Poisson intensity must be nonnegative")
    if p <= 0.0:
        raise DomainError("poisson_power_moment requires p > 0")
    diag = {"lambda": lam, "p": p}
    if lam == 0.0:
        return ConstantResult(0.0, "poisson_series/empty", 0.0, diag)
    K, tail = _truncation_depth(lam, p, 1.0, tol)
    value = math.fsum(_power_term(lam, p, k) for k in range(1, K + 1))
    diag.update({"K": K, "tail_bound": tail})
    return ConstantResult(value, "poisson_series", tail, diag)

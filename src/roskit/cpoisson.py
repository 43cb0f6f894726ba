"""Moments of compound Poisson variables.

T is the sum of a Poisson(lambda) number of i.i.d. symmetric jumps with
law given by a conditioned base distribution.  Absolute moments come from
the exact series

    E|T|^p = exp(-lambda) * sum_k  lambda^k / k!  *  E|S_k|^p

truncated where the crude but rigorous bound E|S_k|^p <= (k ||jump||_p)^p
certifies the discarded tail.  Random-sign jumps take the Skellam law of T
in one sum over n <= K; Gaussian jumps, and atomic jumps whose lattice
count bounds every k-fold support by _ATOM_SUPPORT_CAP, sum it term by
term; every other jump law takes the whole series on
the gridconv spectral kernel: exp(lambda (phi - 1)) of the jump's real
characteristic vector between one cosine transform and its inverse, on a
grid whose period is sized by the window |x| <= T the moment reads (about
sigma sqrt(lambda) wide, not by the K + 3 jumps of the series), up to
MAX_GRID_CELLS.  Even integer moments have an independent
cumulant shortcut used as an oracle for both routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ive

from . import basedist, gridconv, specfun
from .basedist import ConditionedBase
from .errors import DomainError, InputError, UnsupportedMethodError
from .gridconv import MAX_GRID_CELLS
from .result import ConstantResult

__all__ = [
    "MAX_GRID_CELLS",
    "MAX_SERIES_TERMS",
    "CompoundPoissonSpec",
    "cp_abs_moment",
    "cp_even_moment_cumulant",
    "cp_sample",
    "poisson_power_moment",
]

_ATOM_SUPPORT_CAP = 50_000
# deepest Poisson series: about lambda terms, each a float of the series' arrays
MAX_SERIES_TERMS = MAX_GRID_CELLS
_GRID_BASE = 8192  # spectral grids of 8193 and 16385 cells over [-b, b]


@dataclass(frozen=True)
class CompoundPoissonSpec:
    lam: float
    jump: ConditionedBase

    def __post_init__(self):
        if self.lam < 0.0 or not math.isfinite(self.lam):
            raise DomainError("Poisson intensity must be finite and nonnegative")


def _poisson_terms(lam: float, p: float, ks: np.ndarray) -> np.ndarray:
    # w_k k^p for xi ~ Poisson(lambda), w_k = e^-lam lam^k / k!, in log space so
    # that a large lam stays finite
    return np.exp(-lam + ks * math.log(lam) - gammaln(ks + 1.0) + p * np.log(ks))


def _poisson_weights(lam: float, K: int) -> np.ndarray:
    """P(xi = k) for k = 1..K."""
    return _poisson_terms(lam, 0.0, np.arange(1.0, K + 1))


def _truncation_depth(lam: float, p: float, m_p: float, tol: float):
    """Smallest K with  sum_{k>K} w_k (k^p m_p) < tol, plus that tail value.

    The terms are summed from k_cap down, k_cap doubling until its term is
    vanishingly small.  Terms below the Poisson bulk are left out unless the
    walk reaches them.  A series deeper than MAX_SERIES_TERMS raises InputError
    before any array is built."""
    spread = 20.0 * math.sqrt(lam) + 10.0 * p + 80.0  # the bulk is lam +- a few sqrt(lam)
    k_cap = max(80, int(min(lam + spread, MAX_SERIES_TERMS + 1.0)))
    while (k_cap <= MAX_SERIES_TERMS
           and _poisson_terms(lam, p, np.array([k_cap]))[0] * m_p > 1e-9 * tol
           and k_cap < 100_000 + 2.0 * lam):
        k_cap *= 2
    if k_cap > MAX_SERIES_TERMS:
        raise InputError(f"the Poisson series at intensity {lam:.6g} needs more than "
                         f"MAX_SERIES_TERMS = {MAX_SERIES_TERMS} terms")
    k_lo = max(1, int(lam - spread))
    while True:
        ks = np.arange(float(k_lo), k_cap + 1)
        # suffix[i]: the terms from ks[i] on, added from the top down
        suffix = np.cumsum((_poisson_terms(lam, p, ks) * m_p)[::-1])[::-1]
        past = np.flatnonzero(suffix >= tol)
        if past.size or k_lo == 1:
            break
        k_lo = 1
    if not past.size:  # every term fits the tolerance: K = 1, and all of them are the tail
        return 1, float(suffix[0])
    K = int(ks[past[-1]])
    if K == k_cap:
        raise DomainError("series truncation failed (tolerance unreachably small)")
    return K, float(suffix[past[-1] + 1])


def _cp_char_grid_moment(spec: CompoundPoissonSpec, p: float, K: int, tail: float,
                         tol: float):
    """Whole-series value by the spectral kernel with exp(lam (phi - 1)),
    two transforms per resolution, on a grid whose period holds the window
    |x| <= T and keeps sums of up to K + 3 jumps out of it up to a second
    radius T2; the error bound sums the terms documented below."""
    lam = spec.lam
    base = spec.jump.base
    bound = base.support_bound()
    sigma2 = base.variance_proxy()
    steps = gridconv.edge_steps(bound, _GRID_BASE)
    jump = (gridconv.Summand(None, bound, base.signed_atoms()) if base.is_atomic
            else gridconv.Summand(base.cdf, bound))
    # T and T2 are at least 3 root mean proxies of the sums of 1..K jumps, by
    # E[xi | 1 <= xi <= K] = lam P(xi <= K - 1) / P(1 <= xi <= K), the latter
    # without cancellation for small lam: a grid past the cap is refused
    # before the radius searches
    mean_k = lam * specfun.reg_upper_inc_gamma(K, lam) / (
        -math.expm1(-lam) - specfun.reg_lower_inc_gamma(K + 1.0, lam))
    least = 3.0 * math.sqrt(sigma2 * mean_k)
    gridconv.grid_size(math.ceil(gridconv.grid_period([jump], steps, least, least, K + 3)
                                 / steps[0]))
    weights = _poisson_weights(lam, K + 3)
    # window |x| <= T, with sum_{k<=K} w_k E[|S_k|^p; |S_k| > T] certified < tol / 100;
    # sums of up to K + 3 jumps wrap into the window only from beyond T2, and
    # window_tail bounds both
    T, T2, window_tail = gridconv.window_radii(p, sigma2, tol, bound, weights[:K], weights)

    def poissonise(phi):
        # exp(lam (phi - 1)) less the k = 0 atom e^-lam at 0, in place: it weighs
        # nothing in |x|^p but would set the FFT noise for small lam.  Each form
        # on its own mask stays finite past lam ~ 709, where e^-lam expm1(lam phi)
        # overflows for phi > 0
        up = phi > 0.0
        x = lam * phi[up]
        phi[up] = np.exp(x - lam) * -np.expm1(-x)
        down = ~up
        phi[down] = math.exp(-lam) * np.expm1(lam * phi[down])
        return phi

    res = gridconv.spectral_abs_moment([jump], steps, p, T, T2, poissonise, K + 3)
    # 3 x the coarse/fine gap (conservative for convergence order >= 1) plus
    # the measured round-off term
    err = 3.0 * abs(res.fine - res.coarse) + res.hidden
    # sums of more than K + 3 jumps may wrap into the window too, weighing <= T^p there
    alias = T**p * specfun.reg_lower_inc_gamma(K + 4.0, lam)
    # the series tail beyond K counts once: terms K < k <= K + 3 on the grid only fall short
    return res.fine, err + window_tail + tail + alias


def cp_abs_moment(
    spec: CompoundPoissonSpec, p: float, tol: float = 1e-9
) -> ConstantResult:
    """E|T|^p by the truncated Poisson series over k-fold jump sums.

    The reported error bound is the certified series tail plus the
    propagated per-k errors (discrete.enum_abs_moment's for atomic jumps),
    or the spectral grid's (_cp_char_grid_moment), whose grid raises
    InputError past MAX_GRID_CELLS before allocation.
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
    ks = range(1, K + 1)

    base = spec.jump.base
    route = {"rademacher": "exact_walk", "gaussian": "exact_gaussian"}.get(base.kind, "grid")
    if base.kind == "atoms":
        # S_k takes values among n . a for the m magnitudes a and n in Z^m with
        # |n|_1 <= k, whose count bounds every power's exactly merged support;
        # laws of 8 or more signed atoms are cheaper on the grid than enumerated
        m = len(base.atoms)
        points = sum(2**i * math.comb(m, i) * math.comb(K, i) for i in range(m + 1))
        route = "atoms_exact" if 2 * m < 8 and points <= _ATOM_SUPPORT_CAP else "atoms_char_grid"
    diag.update({"K": K, "per_k_method": route, "jump_p_moment": m_p, "tail_bound": tail})
    if route.endswith("grid"):
        value, err = _cp_char_grid_moment(spec, p, K, tail, tol)
        return ConstantResult(value, f"cp_series/{route}", err, diag)
    if route == "exact_walk":
        # T = N1 - N2 for independent Poisson(lam / 2) counts, so P(|T| = n) =
        # 2 e^-lam I_n(lam) (Skellam), and |T| <= xi leaves at most the series
        # tail; ive errs by about 1e-13 relative out at n = 10 sqrt(lam)
        n = np.arange(1.0, K + 1)
        value = 2.0 * math.fsum((n**p * ive(n, lam)).tolist())
        return ConstantResult(value, "cp_series/exact_walk", tail + 1e-13 * value, diag)

    if route == "exact_gaussian":
        ez = basedist.abs_moment(base, p)

        def per_k(k):  # taken term by term: K runs up to about lambda
            return k ** (p / 2.0) * ez, 1e-14 * k ** (p / 2.0) * ez
    else:
        per_k = basedist.atomic_kfold_moments(base.signed_atoms(), ks, p,
                                              _ATOM_SUPPORT_CAP)[0].__getitem__
    weights = _poisson_weights(lam, K)
    value = math.fsum(w * per_k(k)[0] for k, w in zip(ks, weights))
    propagated = math.fsum(w * per_k(k)[1] for k, w in zip(ks, weights))
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
    value = math.fsum(_poisson_terms(lam, p, np.arange(1.0, K + 1)))
    diag.update({"K": K, "tail_bound": tail})
    return ConstantResult(value, "poisson_series", tail, diag)

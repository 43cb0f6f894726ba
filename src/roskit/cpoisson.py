"""Moments of compound Poisson variables.

T is the sum of a Poisson(lambda) number of i.i.d. symmetric jumps with
law given by a conditioned base distribution, and phi_T(t) = exp(lambda
(phi_V(t) - 1)) its closed-form characteristic function.  cp_abs_moment
picks one route from a table (_ROUTES), by p and the jump law's cp_route:

- even integer p: the cumulants kappa_2j = lambda E V^(2j) mapped back to
  E T^p by a recursion of nonnegative terms, exact up to rounding
  (cp_even_moment_cumulant);
- random signs: the Skellam law of T, one sum over n <= K;
- Gaussian jumps: E|Z|^p E[xi^(p/2)], one vectorised Poisson series;
- uniform, cosine and atomic jumps: von Bahr's integral over phi_T
  (fourier.abs_moment), its Taylor part from the same cumulants.

The routes that sum a series over the jump count (the Skellam sum and the
two references below) find its depth K where the crude but rigorous bound
E|S_k|^p <= (k ||jump||_p)^p certifies the discarded tail, at most tol
times a lower bound of the value (_series_depth): they stop there, report K
and the tail, and refuse a depth past MAX_SERIES_TERMS.  Every route answers
only where 0 < bound < value; an overflow or a wider bound is a DomainError
that names p.
Two independent references stay that only a call by name picks: the series
E|T|^p = e^-lambda sum_k lambda^k / k! E|S_k|^p with each E|S_k|^p of
atomic jumps enumerated exactly (atoms_exact), and the gridconv spectral
kernel, exp(lambda (phi - 1)) of the jump's real characteristic vector on a
grid sized by the window |x| <= T the moment reads (_grid_abs_moment).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ive

from . import basedist, discrete, fourier, gridconv, specfun
from .basedist import BaseDistribution, ConditionedBase
from .errors import DomainError, InputError, UnsupportedMethodError
from .gridconv import MAX_GRID_CELLS
from .result import ConstantResult

__all__ = [
    "MAX_GRID_CELLS",
    "MAX_SERIES_TERMS",
    "CompoundPoissonSpec",
    "cp_abs_moment",
    "cp_even_moment_cumulant",
    "poisson_power_moment",
]

_ATOM_SUPPORT_CAP = 50_000  # largest k-fold support of the atoms_exact reference
# deepest Poisson series: about lambda terms, each a float of the series' arrays
MAX_SERIES_TERMS = MAX_GRID_CELLS
_GRID_BASE = 8192  # spectral grids of 8193 and 16385 cells over [-b, b]
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class CompoundPoissonSpec:
    lam: float
    jump: ConditionedBase

    def __post_init__(self):
        # a subnormal lam would underflow the moment, about lam E|V|^p
        if not (self.lam == 0.0 or sys.float_info.min <= self.lam < math.inf):
            raise DomainError(f"Poisson intensity must be 0 or a finite positive normal float, "
                              f"got {self.lam!r}")


def _poisson_terms(lam: float, p: float, ks: np.ndarray) -> np.ndarray:
    # w_k k^p for xi ~ Poisson(lambda), w_k = e^-lam lam^k / k!, in log space so
    # that a large lam stays finite
    return np.exp(-lam + ks * math.log(lam) - gammaln(ks + 1.0) + p * np.log(ks))


def _poisson_weights(lam: float, K: int) -> np.ndarray:
    """P(xi = k) for k = 1..K."""
    return _poisson_terms(lam, 0.0, np.arange(1.0, K + 1))


def _rounding(lam: float, p: float, ks: np.ndarray, terms: np.ndarray) -> float:
    """A bound on the rounding of sum(terms), term k carrying the factor
    exp(-lam + k log lam - gammaln(k + 1) + p log k) of _poisson_terms: a few
    ulps of each part of the exponent, whose absolute error is the term's
    relative error; about 1e-11 relative at lam = 1e4."""
    scale = 1.0 + lam + ks * abs(math.log(lam)) + gammaln(ks + 1.0) + p * np.log(ks)
    return 4.0 * _EPS * float(np.abs(terms * scale).sum())


def _spread(lam: float, p: float) -> float:
    return 20.0 * math.sqrt(lam) + 10.0 * p + 80.0  # the bulk is lam +- a few sqrt(lam)


def _truncation_depth(lam: float, p: float, m_p: float, tol: float):
    """Smallest K with  sum_{k>K} w_k (k^p m_p) < tol, plus that tail value.
    Callers pass tol min(1, L) for a lower bound L of the value, so that the
    tail is at most tol |value|; a tol that underflows counts as the
    smallest normal float.

    The terms are summed from k_cap down, k_cap doubling until its term is
    vanishingly small.  Terms below the Poisson bulk are left out unless the
    walk reaches them.  A series deeper than MAX_SERIES_TERMS raises InputError
    before any array is built."""
    tol = max(tol, sys.float_info.min)
    spread = _spread(lam, p)
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


def _cp_char_grid_moment(spec: CompoundPoissonSpec, p: float, tol: float):
    """Whole-series value by the spectral kernel with exp(lam (phi - 1)),
    two transforms per resolution, on a grid whose period holds the window
    |x| <= T and keeps sums of up to K + 3 jumps out of it up to a second
    radius T2 (K the _series_depth); gridconv.grid_moment's bound plus the
    series tail and the alias documented below."""
    lam = spec.lam
    base = spec.jump.base
    bound = base.support_bound()
    if bound is None:
        raise UnsupportedMethodError(
            f"the compound Poisson grid takes bounded and atomic jumps, not {base.kind!r} ones; "
            "Gaussian jumps have the exact route, cp_abs_moment")
    K, tail = _series_depth(spec, p, tol)
    sigma2 = base.variance_proxy()
    steps = gridconv.edge_steps(bound, _GRID_BASE)
    jump = (gridconv.Summand(None, bound, base.signed_atoms(), proxy=sigma2) if base.is_atomic
            else gridconv.Summand(base.cdf, bound, proxy=sigma2))
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

    # window |x| <= T, with sum_{k<=K} w_k E[|S_k|^p; |S_k| > T] certified below tol / 100
    # times a lower bound of the value; sums of up to K + 3 jumps wrap into the window
    # only from beyond T2
    grid = gridconv.grid_moment([jump], steps, p, tol * min(1.0, _lower(spec, p)), weights[:K],
                                weights, poissonise, K + 3)
    # sums of more than K + 3 jumps may wrap into the window too, weighing <= T^p there
    alias = grid.T**p * specfun.reg_lower_inc_gamma(K + 4.0, lam)
    # the series tail beyond K counts once: terms K < k <= K + 3 on the grid only fall short
    return grid.value, grid.error_bound + tail + alias, {"K": K, "tail_bound": tail}


def _cumulant_moment(spec: CompoundPoissonSpec, p: float, tol: float):
    # exact: every term of the recursion is nonnegative, so each of the p / 2
    # levels adds a few ulps, the jump moments' (lgamma-based, up to about
    # p ulps) included
    value = cp_even_moment_cumulant(spec, int(p))
    return value, (p + 6.0) * p * _EPS * value, {}


def _skellam_moment(spec: CompoundPoissonSpec, p: float, tol: float):
    # T = N1 - N2 for independent Poisson(lam / 2) counts, so P(|T| = n) =
    # 2 e^-lam I_n(lam) (Skellam), and |T| <= xi leaves at most the series
    # tail; ive errs by about 1e-13 relative out at n = 10 sqrt(lam).  The terms
    # n^p e^-lam I_n(lam) are taken in log space, as in _poisson_terms, so that
    # n^p stays finite at large p
    K, tail = _series_depth(spec, p, tol)
    n = np.arange(1.0, K + 1)
    lam = spec.lam
    # (lam / 2)^n / n! <= e^-lam I_n(lam) e^lam <= that times e^(lam^2 / (4 (n + 1)));
    # below lam = 1e-150 the first is e^-lam I_n(lam) up to a relative lam, and its
    # log is taken as it is, so that no probability underflows
    log_series = n * math.log(0.5 * lam) - gammaln(n + 1.0)
    if lam > 1e-150:
        probs = ive(n, lam)
        # where ive underflows, its terms go into the bound, by the second or by
        # twice the smallest normal float
        normal = probs >= sys.float_info.min
        log_probs = np.where(normal, np.log(np.where(normal, probs, 1.0)),
                             np.minimum(log_series + lam * lam / (4.0 * (n + 1.0)) - lam,
                                        math.log(2.0 * sys.float_info.min)))
    else:
        normal, log_probs = np.ones(K, dtype=bool), log_series
    power = p * np.log(n)
    terms = np.exp(power + log_probs)
    value = 2.0 * math.fsum(terms[normal].tolist())
    lost = 2.0 * math.fsum(terms[~normal].tolist())
    # exp turns the exponent's absolute rounding into the term's relative one (as in
    # _rounding), and a term it takes below the normal floats errs by half a subnormal
    rounding = (8.0 * _EPS * float((terms * (1.0 + power + np.abs(log_probs)))[normal].sum())
                + K * 2.0**-1074)
    return value, tail + lost + rounding + 1e-13 * value, {"K": K, "tail_bound": tail}


def _gaussian_moment(spec: CompoundPoissonSpec, p: float, tol: float):
    # S_k = sqrt(k) Z, so E|T|^p = E|Z|^p E[xi^(p/2)]: one Poisson series
    ez = basedist.abs_moment(spec.jump.base, p)
    res = poisson_power_moment(spec.lam, 0.5 * p, tol / ez)
    return ez * res.value, ez * res.error_bound + 4.0 * _EPS * ez * res.value, {}


def _enum_moment(spec: CompoundPoissonSpec, p: float, tol: float):
    K, tail = _series_depth(spec, p, tol)
    ks = range(1, K + 1)
    per_k = discrete.enum_powers(spec.jump.base.signed_atoms(), ks, p, _ATOM_SUPPORT_CAP)[0]
    weights = _poisson_weights(spec.lam, K)
    terms = np.array([w * per_k[k][0] for k, w in zip(ks, weights)])
    err = tail + math.fsum(w * per_k[k][1] for k, w in zip(ks, weights))
    err += _rounding(spec.lam, 0.0, np.arange(1.0, K + 1), terms)
    return math.fsum(terms.tolist()), err, {"K": K, "tail_bound": tail}


def _fourier_moment(spec: CompoundPoissonSpec, p: float, tol: float):
    """von Bahr's integral over exp(lam (phi_V - 1)) for X = t0 T / b: V / b
    has support bound 1 (b = 1 for the Gaussian), and t0 = min(sqrt(p / 4) /
    sigma, p / 4), sigma^2 = lam E (V / b)^2, makes E|X|^p of the order of
    C_p times X's low Taylor terms, so that they cancel little, while its
    frequencies stay at most p / 4."""
    lam, base = spec.lam, spec.jump.base
    b = base.support_bound() or 1.0
    unit = base.scaled(1.0 / b)
    t0 = min(math.sqrt(0.25 * p / (lam * basedist.abs_moment(unit, 2.0))), 0.25 * p)
    k = int(p // 2)
    def taylor(n):
        # every term of the cumulant recursion is nonnegative: its few ulps are
        # within the 8 ulps abs_moment counts of every summed term
        return _taylor_coefficients(lam, unit, t0, n), 0.0

    slope = lam * t0 * basedist.abs_moment(unit, 1.0)  # |d phi_X / du| <= lam t0 E|V / b| phi_X

    def gap(u):
        one_minus = -np.expm1(-lam * unit.char_gap(t0 * u))
        # a few ulps of each step, and a node rounded by an ulp moves phi_X by
        # at most u ulp |d phi_X / du|
        return one_minus, _EPS * (8.0 * one_minus + slope * u * (1.0 - one_minus))

    # E|X|^p >= max(E[|X|^p; one jump], (E X^(2k))^(p / 2k))
    lower = max(lam * math.exp(-lam) * basedist.abs_moment(unit, p) * t0**p,
                (taylor(k)[0][k] * math.factorial(2 * k)) ** (p / (2 * k)))
    # 0 <= 1 - phi_X <= far beyond R: the tail is far R^-p / (2p) give or take as much
    far = -2.0 * math.expm1(-lam)
    res = fourier.abs_moment(p, gap, taylor, lambda R: (0.5 * far * R ** -p / p,) * 2,
                             lower, tol)
    scale = (b / t0) ** p
    return (res.value * scale, res.error_bound * scale,
            {"fourier_panels": res.panels, "fourier_reach": res.reach / t0 * b})


_ROUTES = {
    "cumulant": _cumulant_moment,
    "exact_walk": _skellam_moment,
    "exact_gaussian": _gaussian_moment,
    "atoms_exact": _enum_moment,
    "fourier": _fourier_moment,
    "grid": _cp_char_grid_moment,
    "atoms_char_grid": _cp_char_grid_moment,
}


def _is_even(p: float) -> bool:
    return float(p).is_integer() and int(p) % 2 == 0


def cp_abs_moment(
    spec: CompoundPoissonSpec, p: float, tol: float = 1e-9
) -> ConstantResult:
    """E|T|^p, by the route p and the jump law's cp_route pick.

    Even integer p takes the exact cumulant recursion (rounding bound only).
    At every other p, random signs take the Skellam sum and Gaussian jumps
    E|Z|^p E[xi^(p/2)], each bounded by its series tail; uniform, cosine
    and atomic jumps take von Bahr's integral over the closed-form
    characteristic function (fourier.abs_moment).  Each bound is at most
    tol |value| where it can be met.  The series route (random signs) sums
    to the depth K of _series_depth and reports K with its tail; a series
    past MAX_SERIES_TERMS raises InputError.  A value that overflows a float,
    or whose bound is not below it, raises a DomainError naming p.
    """
    return _abs_moment(spec, p, tol)


def _grid_abs_moment(spec: CompoundPoissonSpec, p: float, tol: float = 1e-9) -> ConstantResult:
    """E|T|^p on the spectral grid (gridconv.grid_moment), the independent
    second route that no production call picks, for bounded and atomic
    jumps: UnsupportedMethodError for Gaussian ones, InputError past
    MAX_GRID_CELLS."""
    return _abs_moment(spec, p, tol, "atoms_char_grid" if spec.jump.base.is_atomic else "grid")


def _lower(spec: CompoundPoissonSpec, p: float) -> float:
    """E|T|^p >= max(E[|T|^p; one jump], (E T^2)^(p / 2)), the latter capped at
    1 before its power, which cannot overflow then."""
    lam = spec.lam
    return max(lam * math.exp(-lam) * spec.jump.abs_moment(p),
               min(1.0, lam * spec.jump.abs_moment(2.0)) ** (0.5 * p))


def _series_depth(spec: CompoundPoissonSpec, p: float, tol: float) -> tuple[int, float]:
    """The depth K of the series routes, E|T|^p = sum_k P(xi = k) E|S_k|^p, and
    the tail beyond it: _truncation_depth under the crude but rigorous bound
    E|S_k|^p <= (k ||jump||_p)^p, at tol times the _lower bound of the value.
    InputError past MAX_SERIES_TERMS."""
    return _truncation_depth(spec.lam, p, spec.jump.abs_moment(p),
                             tol * min(1.0, _lower(spec, p)))


def _abs_moment(spec: CompoundPoissonSpec, p: float, tol: float,
                route: str | None = None) -> ConstantResult:
    """E|T|^p by the named route of _ROUTES, the production one by default: a
    DomainError naming p where the route overflows a float or its bound is not
    below its value."""
    if not 2.0 < p <= 170.0:
        raise DomainError(f"cp_abs_moment requires 2 < p <= 170 (Gamma(p + 1) and p! stay "
                          f"finite floats), got p = {p!r}")
    lam = spec.lam
    if lam == 0.0:
        return ConstantResult(0.0, "cp_series/empty", 0.0, {"lambda": lam, "p": p})
    m_p = spec.jump.abs_moment(p)
    if not math.isfinite(m_p):
        raise DomainError("jump law has no finite p-th moment")
    route = route or ("cumulant" if _is_even(p) else spec.jump.base.cp_route)
    try:
        value, err, extra = _ROUTES[route](spec, p, tol)
    except OverflowError:
        value = err = math.inf
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"E|T|^{p:g} at intensity {lam:.6g} on the {route} route "
                          "overflows a float")
    if not 0.0 < err < value:
        # the alternating Taylor sums cancel past all accuracy (bounded jumps at large p)
        raise DomainError(f"E|T|^p at p = {p!r}, intensity {lam:.6g}, on the {route} route has "
                          f"a bound {err:.3g} not below its value {value:.3g}; use a smaller p")
    depth = {"K": extra.pop("K")} if "K" in extra else {}  # a series route's K leads its record
    diag = {"lambda": lam, "p": p, **depth, "per_k_method": route, "jump_p_moment": m_p, **extra}
    return ConstantResult(value, f"cp_series/{route}", err, diag)


def _power_over_factorial(x: float, n: int) -> float:
    """x^n / n!: exact factorials at x = 1 (the cumulant route), else in log space."""
    if x == 1.0 and n <= 170:
        return 1.0 / math.factorial(n)
    return math.exp(n * math.log(x) - math.lgamma(n + 1.0))


def _taylor_coefficients(lam: float, V: BaseDistribution, scale: float, n: int) -> list:
    """a_0..a_n, a_i = E X^(2i) / (2i)! for X = scale T, T the compound Poisson
    sum of lam and V.  log phi_X = sum_j (-1)^j b_j u^(2j) with the cumulants
    b_j = lam E (scale V)^(2j) / (2j)!, so a_i = (1 / i) sum_j j b_j a_(i-j):
    every term is nonnegative."""
    b = [0.0] + [lam * basedist.abs_moment(V, 2.0 * j) * _power_over_factorial(scale, 2 * j)
                 for j in range(1, n + 1)]
    a = [1.0]
    for i in range(1, n + 1):
        a.append(math.fsum(j * b[j] * a[i - j] for j in range(1, i + 1)) / i)
    return a


def cp_even_moment_cumulant(spec: CompoundPoissonSpec, p: int) -> float:
    """E T^p for even integer p from the cumulants kappa_2j = lambda E V~^(2j).

    Odd cumulants vanish by symmetry; the moment-cumulant recursion then
    runs over the even orders alone, every term nonnegative.  The
    production route at even p, and the oracle of every other route there.
    """
    if not _is_even(p) or p <= 0:
        raise UnsupportedMethodError(f"the cumulant recursion needs an even integer p > 0, got {p}")
    n = int(p) // 2
    return _taylor_coefficients(spec.lam, spec.jump.base, 1.0, n)[n] * math.factorial(2 * n)


def poisson_power_moment(lam: float, p: float, tol: float = 1e-9) -> ConstantResult:
    """E xi^p for xi ~ Poisson(lambda), by the same truncated series."""
    if lam < 0.0:
        raise DomainError("Poisson intensity must be nonnegative")
    if p <= 0.0:
        raise DomainError("poisson_power_moment requires p > 0")
    diag = {"lambda": lam, "p": p}
    if lam == 0.0:
        return ConstantResult(0.0, "poisson_series/empty", 0.0, diag)
    # E xi^p >= max(P(xi >= 1), (E xi)^p), the latter by Jensen from p = 1 on
    # and capped at 1 before its power
    lower = max(-math.expm1(-lam), min(1.0, lam) ** p if p >= 1.0 else 0.0)
    K, tail = _truncation_depth(lam, p, 1.0, tol * min(1.0, lower))
    # the terms below the bulk weigh at most k_lo^p P(xi < k_lo) = k_lo^p Q(k_lo, lam)
    k_lo = max(1, int(lam - _spread(lam, p)))
    q = specfun.reg_upper_inc_gamma(k_lo, lam) if k_lo > 1 else 0.0
    below = math.exp(p * math.log(k_lo) + math.log(q)) if q > 0.0 else 0.0
    ks = np.arange(float(k_lo), K + 1)
    terms = _poisson_terms(lam, p, ks)
    diag.update({"K": K, "tail_bound": tail})
    return ConstantResult(math.fsum(terms.tolist()), "poisson_series",
                          tail + below + _rounding(lam, p, ks, terms), diag)

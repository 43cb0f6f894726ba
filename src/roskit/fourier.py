"""Absolute moments of symmetric laws, and of sums of independent ones, from
their real characteristic functions.

For a symmetric X and 2k < p < 2k + 2 (B. von Bahr, Ann. Math. Statist. 36,
1965),

    E|X|^p = C_p int_0^inf (-1)^(k+1) [phi(u) - sum_{j<=k} (-1)^j a_j u^(2j)] u^(-p-1) du

with C_p = (2 / pi) Gamma(p + 1) |sin(pi p / 2)| and a_j = E X^(2j) / (2j)!,
the Taylor coefficients of phi.  abs_moment takes X scaled so that the
Taylor series of phi serves on [0, 1], and splits the integral in three:

- on [0, 1], phi - P_k integrated term by term, truncated where the next
  coefficient certifies the remainder, |phi - P_J| <= a_(J+1) u^(2J+2);
- the polynomial part of P_k beyond 1, in closed form;
- phi - 1 on [1, R] by Gauss-Legendre panels, geometric near 1 and of
  the caller's width beyond: 1 where the caller's scaling keeps phi's
  frequencies below about 1, wider where phi is band-limited (a sum of
  bounded summands, plan_sum), and on [R, inf) by the caller's tail(R):
  the midpoint and half-width of what int_R^inf (1 - phi) u^(-p-1) du can
  be.  R is the smallest of a geometric ladder of reaches whose half-width
  stays below tol lower / 10.

The error bound is the sum of five terms: the Taylor remainder, the gap
between the 20- and 12-point rules summed over the panels, the tail's
half-width, the round-off from the caller's bound on each evaluation of
1 - phi and a few ulps of every summed term, and the caller's relative
error of the Taylor coefficients.  Near p = 2k + 2 the first Taylor term
grows like 1 / (2k + 2 - p) while |sin(pi p / 2)| vanishes with it, and near
p = 2k the same holds for the last polynomial term: sin is taken of the
distance to the nearer even integer, so that both products keep their
relative accuracy.

Sums of independent summands (plan_sum, sum_abs_moment).  A Term is c theta
V repeated count times: V a law, c > 0 its scale, theta a switch on with
probability mu (the activation).  Every law answers abs_moment(r),
char_gap(t), 1 - phi(t) to full relative accuracy (within _GAP_ULPS ulps
where t <= char_cap(), its Taylor series, and _GAP_ABS ulps absolute
beyond), char_taylor(n, s), the coefficients E (s V)^(2i) / (2i)! for
i <= n and their relative error bound, char_envelope(t), a nonincreasing
bound on |phi| from t on, and char_cap(p), the largest frequency at which
the route takes its Taylor series at order p.  Then

    phi_S(t) = prod_j (1 - mu_j + mu_j phi_j(c_j t))^(k_j),

and plan_sum sizes the route before any quadrature:

- X = t0 S, t0 = min(sqrt(p / 4) / sd(S), min_j cap_j(p) / c_j): the sum's own
  standard deviation sets the unit, so that the Taylor depth does not grow
  with the count, and no summand is taken past its cap;
- the Taylor coefficients of phi_X in w = -u^2: each factor
  1 + mu sum_i E (t0 c V)^(2i) / (2i)! w^i has nonnegative coefficients, so
  their product, by convolution with powers by repeated squaring, cancels
  nothing; at even p the moment is (2k)! a_k itself;
- the tail: 1 - phi_X = (1 - q) - psi with q = prod_j (1 - mu_j)^(k_j) the
  chance that no summand is on, and |psi(u)| <= prod_j (1 - mu_j + mu_j
  e_j(t0 c_j u))^(k_j) - q for the envelopes e_j, so beyond R the midpoint
  is (1 - q) R^-p / p and the half-width that bound times R^-p / p;
- the panel width: where every law has a support bound b_j
  (support_bound(); the Gaussian has none, and laws without the method,
  the logistic and the log-concave family members, are not taken to have
  one), phi_X is band-limited, |X| <= B = t0 sum_j k_j c_j b_j, and a panel
  _PANEL_PHASE / B wide holds at most _PANEL_PHASE radians of its top
  frequency; the width is that, or 1 where it is less or no B is known;
- R and the panel count, on the very edges sum_abs_moment integrates: past
  MAX_SUM_PANELS panels the plan's route is "grid" (verify.sum_moment then
  takes the n-fold grid of its law, verify.nfold_moment); on the Fourier
  route the panels are halved only up to MAX_SUM_PANELS, so that budget
  bounds the work of every sum it admits.

A thinned factor tends to 1 - mu, not 0, so a rare wide summand keeps |phi_X|
up and its plan needs thousands of panels.  plan_conditioned then takes
E|S|^p = sum_pattern P(pattern) E|S given the pattern|^p over the active counts
of the widest thinned terms (condition), each pattern a plan of its own whose
terms are on or removed; the patterns left out are bounded by Minkowski.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, InputError
from .result import ConstantResult

__all__ = ["MAX_PANELS", "MAX_SUM_PANELS", "SUBPLAN_PANELS", "ConditionedPlan", "FourierMoment",
           "SumPlan", "Term", "abs_moment", "cap_series", "cap_split_gap", "condition",
           "conditioned_abs_moment", "laplace_gap", "plan_conditioned", "plan_sum", "stretch",
           "sum_abs_moment", "taylor_cos", "taylor_exp", "taylor_laplace", "taylor_uniform",
           "uniform_envelope"]

_EPS = sys.float_info.epsilon
_RATIO = 1.25  # geometric panels [u, 1.25 u] up to the panel width, panels of that width beyond
# The phase, in radians, that phi_X's top frequency B turns through across one panel
# of a sum of bounded summands (|X| <= B), whose panels are then _PANEL_PHASE / B wide
# where that exceeds 1.  Over 16 rad the 12-point rule integrates cos(B u + s) within
# 2e-10 of the panel's width times its amplitude and the 20-point rule at round-off
# (1e-15 up to 24 rad, 5e-13 at 32), so the gap between them still bounds the finer
# rule's error.
_PANEL_PHASE = 16.0
_REFINE = 4  # halvings of every panel while the bound exceeds tol |value|
MAX_PANELS = 1 << 17  # R is cut to keep within it, and the tail beyond R bounded
_CHUNK = 8192  # panels evaluated at once
_MAX_TAYLOR = 2048  # Taylor coefficients; a_n decays like t0^n / n! for a bounded law
_REACHES = np.geomspace(2.0, 0.5 * MAX_PANELS, 600)  # the candidate R, 1.8 % apart
# A sum needing more panels takes the "grid" route (conditioned on summand
# activity where thinned, plan_conditioned), and the Fourier route halves its
# panels only up to this many.  Measured with
# tools/sum_routes.py on 30 rare uniforms and one unthinned one (p = 5), on
# unit panels, before panels were widened to the band limit: at 6,865 panels
# the Fourier bound was 2.9e-6 relative against the grid's 7.9e6, at 9,062
# panels 7.5e-6 against 1.4e-7; ordering sums stay below 210.  The rare
# uniforms' band limit keeps those sums on unit panels.
MAX_SUM_PANELS = 8192
_GAP_ULPS = 64  # char_gap's relative error where its series serves, t <= char_cap()
_GAP_ABS = 16  # and its absolute error beyond, where 1 - phi is of order 1


class FourierMoment(NamedTuple):
    value: float
    error_bound: float
    panels: int  # Gauss-Legendre panels on [1, R]
    reach: float  # R


def taylor_exp(x: float, n: int) -> np.ndarray:
    """x^i / i! for i = 0..n, by a running product: entry i within 2 i ulps."""
    steps = np.empty(n + 1)
    steps[0] = 1.0
    steps[1:] = x / np.arange(1.0, n + 1)
    return np.cumprod(steps)


def taylor_cos(x: float, n: int) -> np.ndarray:
    """x^(2i) / (2i)! for i = 0..n, by a running product: entry i within 3 i ulps."""
    i = np.arange(1.0, n + 1)
    steps = np.empty(n + 1)
    steps[0] = 1.0
    steps[1:] = x * x / ((2.0 * i - 1.0) * (2.0 * i))
    return np.cumprod(steps)


def taylor_uniform(x: float, n: int) -> tuple[np.ndarray, float]:
    """E (xU)^(2i) / (2i)! = x^(2i) / (2i + 1)! for i = 0..n, U uniform on
    [-1, 1], and their relative error bound."""
    return taylor_cos(x, n) / np.arange(1.0, 2 * n + 2, 2), (3.0 * n + 1.0) * _EPS


def taylor_laplace(x: float, n: int) -> tuple[np.ndarray, float]:
    """E (xY)^(2i) / (2i)! = x^(2i) for i = 0..n, Y standard Laplace, and their
    relative error bound."""
    return x ** (2.0 * np.arange(n + 1)), (2.0 * n + 1.0) * _EPS


def laplace_gap(rate: float, t) -> np.ndarray:
    """1 - phi(t) = t^2 / (rate^2 + t^2) of the Laplace law of the rate."""
    t2 = np.asarray(t, dtype=float) ** 2
    return t2 / (rate * rate + t2)


def uniform_envelope(width: float, t) -> np.ndarray:
    """min(1, 1 / (width t)), a nonincreasing bound on |sin(width t) / (width t)|."""
    with np.errstate(divide="ignore"):
        return np.minimum(1.0, 1.0 / (width * np.asarray(t, dtype=float)))


def stretch(p: float) -> float:
    """How far past 1 / its support bound a bounded law's Taylor series is taken
    at order p: its coefficients fall like (t b)^(2i) / (2i)!, and a unit near
    p / 4 keeps E|X|^p of the order of C_p times the low terms (as cpoisson's
    Fourier route does)."""
    return max(1.0, 0.25 * p)


def _series_gap(coefs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_(i>=1) (-1)^(i+1) coefs[i] x^(2i), by Horner's rule from the last
    coefficient: 1 - phi(s x) for the coefficients E (s V)^(2i) / (2i)! of a
    law at scale s.  Where every coefficient is at most a quarter of the one
    before and x <= 1, no step cancels, and the sum is within a few ulps."""
    x2 = x * x
    acc = np.full_like(x2, coefs[-1])
    for c in coefs[-2:0:-1]:
        acc = c - x2 * acc
    return x2 * acc


def cap_series(law) -> np.ndarray:
    """The law's char_taylor coefficients at its cap, the 32 terms that
    cap_split_gap sums; a law builds them once, as a functools.cached_property."""
    return law.char_taylor(32, law.char_cap())[0]


def cap_split_gap(law, t, closed: Callable, series: np.ndarray) -> np.ndarray:
    """1 - phi(t) of a law: its Taylor series at its cap, cap_series(law),
    where |t| <= law.char_cap() (the coefficients there fall at least
    fourfold), closed(|t|) beyond, where 1 - phi is of order 1."""
    t = np.abs(np.asarray(t, dtype=float))
    cap = law.char_cap()
    near = t <= cap
    out = np.empty_like(t)
    out[near] = _series_gap(series, t[near] / cap)
    out[~near] = closed(t[~near])
    return out


def _edges(reach: float, ratio: float, width: float) -> np.ndarray:
    """Panel edges from 1 to reach: geometric by ratio until a panel is width
    wide (from width / (ratio - 1) on), then width apart.  abs_moment and
    plan_sum both count their panels here."""
    turn = min(width / (ratio - 1.0), reach)
    geometric = ratio ** np.arange(math.ceil(math.log(turn) / math.log(ratio)) + 1)
    start = min(geometric[-1], reach)
    uniform = start + width * np.arange(1, math.ceil((reach - start) / width) + 1)
    return np.unique(np.minimum(np.concatenate((geometric, uniform)), reach))


@functools.cache
def _rules() -> tuple:
    """The 20- and 12-point Gauss-Legendre rules on [-1, 1], made on first use."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(20), leggauss(12)


def _panel_integrals(gap, p: float, edges: np.ndarray):
    """Per panel: int of (1 - phi) u^(-p-1) by each rule, and the round-off
    bound of the first; _CHUNK panels at a time, with one call of gap on both
    rules' nodes."""
    rules = _rules()
    sums, roundoff = [[], []], 0.0
    for lo in range(0, edges.size - 1, _CHUNK):
        chunk = edges[lo : lo + _CHUNK + 1]
        mid, half = 0.5 * (chunk[1:] + chunk[:-1]), 0.5 * np.diff(chunk)
        us = [mid[:, None] + half[:, None] * nodes for nodes, _ in rules]
        g, err = gap(np.concatenate([u.ravel() for u in us]))
        parts = (slice(0, us[0].size), slice(us[0].size, None))
        for rule, (u, (_, weights), part) in enumerate(zip(us, rules, parts)):
            w = half[:, None] * weights * u ** (-p - 1.0)
            sums[rule].append((g[part].reshape(u.shape) * w).sum(axis=1))
            if rule == 0:
                roundoff += float((err[part].reshape(u.shape) * w).sum())
    fine, coarse = (np.concatenate(out) for out in sums)
    return fine, coarse, roundoff


def _prefactor(p: float) -> tuple[int, float]:
    """(k, C_p) for 2k < p < 2k + 2."""
    k = int(p // 2)
    near = min(p - 2 * k, 2 * k + 2 - p)
    return k, 2.0 / math.pi * math.gamma(p + 1.0) * math.sin(0.5 * math.pi * near)


def _reach(p: float, tail: Callable, lower: float, tol: float) -> float:
    """The smallest candidate R whose tail half-width, times C_p, is at most
    tol lower / 10; the largest candidate where none is."""
    _, half = tail(_REACHES)
    ok = np.flatnonzero(_prefactor(p)[1] * half <= 0.1 * tol * lower)
    return float(_REACHES[ok[0] if ok.size else -1])


def abs_moment(p: float, gap: Callable, taylor: Callable, tail: Callable, lower: float,
               tol: float, max_panels: int = MAX_PANELS, width: float = 1.0,
               reach: float | None = None, series: tuple | None = None) -> FourierMoment:
    """E|X|^p of a symmetric X at non-even p > 0 from phi.

    gap(u) returns 1 - phi(u) and a bound on its evaluation error, both on an
    array of u >= 1.  taylor(n) returns a_0..a_n, a_j = E X^(2j) / (2j)!, and
    a bound on their relative error; n doubles until they reach the
    remainder.  tail(R), on an array of R, returns the midpoint and the
    half-width of int_R^inf (1 - phi) u^(-p-1) du; the half-width must not
    increase with R.  lower <= E|X|^p sizes R so that the tail stays below
    tol lower / 10, and at most MAX_PANELS / 2.  The panels on [1, R] are
    geometric until they are width wide, then of that width: 1 where phi's
    frequencies reach about 1, up to _PANEL_PHASE / B where phi is
    band-limited at B (plan_sum).  While the bound exceeds tol |value| and
    the rules' gap is most of it, every panel is halved, up to _REFINE times
    and max_panels panels.  So the work stays bounded at any tol, and the
    bound exceeds tol |value| only where the tol cannot be met within
    max_panels.  A caller that has sized R already (plan_sum) passes it as
    reach, and taylor(2k + 16), where it has it, as series.
    """
    k, C = _prefactor(p)
    if 2 * k == p:
        raise ValueError(f"von Bahr's integral needs a non-even p, got {p!r}")
    sign = -1.0 if k % 2 == 0 else 1.0  # (-1)^(k+1)
    # [0, 1]: the Taylor remainder term by term, to the first J whose next
    # coefficient certifies what is left below tol lower / 100
    n = 2 * k + 16
    a, rel = series or taylor(n)
    while True:
        J = next((j for j in range(k + 1, n)
                  if C * a[j + 1] / (2 * j + 2 - p) <= 0.01 * tol * lower), None)
        if J is not None:
            break
        if n >= _MAX_TAYLOR:
            raise DomainError(f"von Bahr's integral at p = {p!r}: {n} Taylor coefficients do "
                              "not reach the remainder")
        n *= 2
        a, rel = taylor(n)
    taylor_terms = [(-1.0) ** j * float(a[j]) / (2 * j - p) for j in range(k + 1, J + 1)]
    remainder = float(a[J + 1]) / (2 * J + 2 - p)
    # [1, inf): the polynomial part in closed form, and the caller's tail beyond R
    poly_terms = [-((-1.0) ** j) * float(a[j]) / (p - 2 * j) for j in range(1, k + 1)]
    if reach is None:
        reach = _reach(p, tail, lower, tol)
    mid, half = (float(x[0]) for x in tail(np.array([reach])))
    closed = math.fsum(taylor_terms + poly_terms) - mid
    coefficients = math.fsum(map(abs, taylor_terms + poly_terms))
    absolute = coefficients + mid

    ratio = _RATIO
    for _ in range(_REFINE + 1):
        edges = _edges(reach, ratio, width)
        fine, coarse, roundoff = _panel_integrals(gap, p, edges)
        quad = math.fsum(fine.tolist())
        value = C * sign * (closed - quad)
        gap_term = C * float(np.abs(fine - coarse).sum())
        err = gap_term + C * (remainder + half + roundoff + rel * coefficients
                              + 8.0 * _EPS * (absolute + float(np.abs(fine).sum())))
        if (err <= tol * abs(value) or 2.0 * gap_term <= err  # finer panels cannot help
                or 2 * edges.size > max_panels):
            break
        width, ratio = 0.5 * width, math.sqrt(ratio)
    return FourierMoment(value, err, edges.size - 1, reach)


# ---------------------------------------------------------------------------
# sums of independent summands


class Term(NamedTuple):
    """c theta V, repeated count times, independently: law V, scale c and
    activation P(theta = 1) = mu."""

    law: object
    scale: float = 1.0
    activation: float = 1.0
    count: int = 1


class SumPlan(NamedTuple):
    route: str  # "fourier", or "grid" for the caller's grid sum
    p: float
    terms: tuple  # the terms that can be nonzero
    t0: float  # X = t0 S
    spread: float  # sum_j k_j mu_j E|t0 c_j V_j|, how fast phi_X can move with u
    lower: float  # a lower bound of E|X|^p
    reach: float  # R, 0 where no quadrature runs
    panels: int
    tol: float
    width: float = 1.0  # the panel width on [1, R] (see _band_width)
    series: tuple | None = None  # _sum_taylor at order k for even p, 2k + 16 otherwise


def _series_power(f: np.ndarray, k: int, n: int) -> tuple[np.ndarray, int]:
    """f^k truncated after w^n, by repeated squaring, and its convolutions."""
    out, convolutions = None, 0
    while True:
        if k & 1:
            out = f if out is None else np.convolve(out, f)[: n + 1]
            convolutions += 1
        k >>= 1
        if not k:
            return out, convolutions
        f = np.convolve(f, f)[: n + 1]
        convolutions += 1


def _sum_taylor(terms: tuple, t0: float, n: int) -> tuple[np.ndarray, float]:
    """a_0..a_n of phi_X, X = t0 S, and their relative error bound.

    Every product that makes a_j holds at most j coefficients of the laws
    (a factor's constant term is exactly 1), and a convolution of
    nonnegative sequences adds at most j + 1 <= 2 j ulps to entry j: so a_j is
    within j (law error + 2 ulps per convolution in the chain + 1 ulp for mu)."""
    a = np.zeros(n + 1)
    a[0] = 1.0
    convolutions, law_rel = 0, 0.0
    for term in terms:
        coefs, rel = term.law.char_taylor(n, t0 * term.scale)
        factor = term.activation * coefs
        factor[0] = 1.0
        power, used = _series_power(factor, term.count, n)
        a = np.convolve(a, power)[: n + 1]
        convolutions += used + 1
        law_rel = max(law_rel, rel)
    return a, n * (law_rel + (2.0 * convolutions + 1.0) * _EPS)


def _sum_tail(p: float, terms: tuple, t0: float) -> Callable:
    """tail(R) for abs_moment: (1 - q) R^-p / p, and the envelope bound on |psi|
    times R^-p / p (see the module docstring)."""
    certain = any(term.activation == 1.0 for term in terms)
    log_q = math.fsum(term.count * math.log1p(-term.activation) for term in terms
                      if term.activation < 1.0)
    q = 0.0 if certain else math.exp(log_q)
    one_minus_q = 1.0 if certain else -math.expm1(log_q)

    def tail(reach):
        reach = np.asarray(reach, dtype=float)
        log_sum = np.zeros_like(reach)
        with np.errstate(divide="ignore"):
            for term in terms:
                e = term.activation * term.law.char_envelope(t0 * term.scale * reach)
                log_sum += term.count * (np.log(1.0 - term.activation + e) if certain
                                         else np.log1p(e / (1.0 - term.activation)))
        excess = np.exp(log_sum) if certain else q * np.expm1(log_sum)
        base = reach ** -p / p
        return one_minus_q * base, excess * base

    return tail


def _sum_gap(terms: tuple, t0: float, spread: float) -> Callable:
    """gap(u) for abs_moment: 1 - phi_X as -expm1 of sum_j k_j log|1 - mu_j g_j|
    (1 + |phi_X| where phi_X < 0), and its error bound: each g_j's error
    (_GAP_ULPS, _GAP_ABS) and an ulp of mu_j g_j, weighed by
    |d phi_X / d f_j| = k_j |phi_X / f_j| <= k_j; a few ulps of each log and of
    expm1; and the arguments t0 c_j u, rounded by up to 4 ulps each in the
    product and in the law, moving phi_X by at most 4 ulps of u spread."""

    def gap(u):
        log_abs = np.zeros_like(u)
        negative = np.zeros(u.shape, dtype=bool)
        parts = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for term in terms:
                x = t0 * term.scale * u
                g = term.law.char_gap(x)
                mg = term.activation * g
                # 1 - mg is exact for mg in [0.5, 2], and log1p is accurate below
                lf = np.where(mg < 0.5, np.log1p(-mg), np.log(np.abs(1.0 - mg)))
                log_abs += term.count * lf
                if term.count % 2:
                    negative ^= mg > 1.0
                delta = _GAP_ULPS * _EPS * g + _GAP_ABS * _EPS * (x > term.law.char_cap())
                parts.append((term.count, lf, term.activation * delta + _EPS * mg))
            phi_abs = np.exp(log_abs)
            one_minus = np.where(negative, 1.0 + phi_abs, -np.expm1(log_abs))
            err = _EPS * (4.0 * one_minus + 8.0 * u * spread)  # expm1, or 1 + exp, and the nodes
            for count, lf, df in parts:
                weight = np.fmin(1.0, np.exp(log_abs - lf))  # |phi_X / f_j|, 1 where f_j = 0
                err += count * (weight * df + 4.0 * _EPS * phi_abs * np.abs(lf))
        return one_minus, err

    return gap


def _band_width(terms: tuple, t0: float) -> float:
    """The panel width for phi_X, X = t0 S: max(1, _PANEL_PHASE / B) where every
    law has a support bound b_j, so that |X| <= B = t0 sum_j k_j c_j b_j, and 1
    where one has none."""
    bounds = [getattr(term.law, "support_bound", lambda: None)() for term in terms]
    if None in bounds:
        return 1.0
    band = t0 * math.fsum(term.count * term.scale * b for term, b in zip(terms, bounds))
    return max(1.0, _PANEL_PHASE / band)


def plan_sum(p: float, terms, tol: float = 1e-9) -> SumPlan:
    """The route ("fourier", or "grid" past MAX_SUM_PANELS panels), unit and
    reach of E|S|^p for S the sum of the terms, sized before any quadrature
    (see the module docstring).  Every law answers char_gap."""
    if not 2.0 < p <= 170.0:
        raise DomainError(f"a Fourier sum needs 2 < p <= 170, got p = {p!r}")
    live = tuple(term for term in terms
                 if term.scale > 0.0 and term.activation > 0.0 and term.count > 0)
    if not live:
        return SumPlan("fourier", p, live, 1.0, 0.0, 0.0, 0.0, 0, tol)
    var = math.fsum(term.count * term.activation * term.scale**2 * term.law.abs_moment(2.0)
                    for term in live)
    t0 = min([math.sqrt(0.25 * p / var)] + [term.law.char_cap(p) / term.scale for term in live])
    k = int(p // 2)
    # the series sum_abs_moment starts from: a_k itself at even p, else abs_moment's first order
    series = _sum_taylor(live, t0, k if 2 * k == p else 2 * k + 16)
    # E|X|^p >= max(sum_j E|X_j|^p, (E X^(2k))^(p / 2k)) for independent symmetric X_j, p >= 2
    single = math.fsum(term.count * term.activation * term.law.abs_moment(p)
                       * (t0 * term.scale) ** p for term in live)
    lower = max(single, (float(series[0][k]) * math.factorial(2 * k)) ** (p / (2 * k)))
    spread = t0 * math.fsum(term.count * term.activation * term.scale * term.law.abs_moment(1.0)
                            for term in live)
    if 2 * k == p:
        return SumPlan("fourier", p, live, t0, spread, lower, 0.0, 0, tol, series=series)
    reach = _reach(p, _sum_tail(p, live, t0), lower, tol)
    width = _band_width(live, t0)
    panels = _edges(reach, _RATIO, width).size - 1
    route = "fourier" if panels <= MAX_SUM_PANELS else "grid"
    return SumPlan(route, p, live, t0, spread, lower, reach, panels, tol, width, series)


def sum_abs_moment(plan: SumPlan) -> ConstantResult:
    """E|S|^p on a plan whose route is "fourier": (2k)! a_k at even p = 2k,
    von Bahr's integral over phi_X otherwise, scaled back by t0^-p."""
    p, terms, t0 = plan.p, plan.terms, plan.t0
    diag = {"n": sum(term.count for term in terms), "p": p}
    if not terms:
        return ConstantResult(0.0, "sum_fourier", 0.0, diag)
    k = int(p // 2)
    if 2 * k == p:
        a, rel = plan.series
        value = float(a[k]) * math.factorial(2 * k)
        err = (rel + 2.0 * _EPS) * value
    else:
        res = abs_moment(p, _sum_gap(terms, t0, plan.spread),
                         functools.partial(_sum_taylor, terms, t0), _sum_tail(p, terms, t0),
                         plan.lower, plan.tol, MAX_SUM_PANELS, plan.width, plan.reach, plan.series)
        value, err = res.value, res.error_bound
        if not err < abs(value):
            # the alternating Taylor sums cancel past all accuracy (bounded laws at large p)
            raise DomainError(f"the Fourier sum at p = {p!r} has a bound {err * t0 ** -p:.3g} "
                              f"not below its value {value * t0 ** -p:.3g}; use a smaller p")
        diag.update({"fourier_panels": res.panels, "fourier_reach": res.reach / t0,
                     "fourier_width": plan.width})
    scale = t0 ** -p
    diag["t0"] = t0
    return ConstantResult(value * scale, "sum_fourier",
                          err * scale + 4.0 * _EPS * abs(value * scale), diag)


# ---------------------------------------------------------------------------
# sums conditioned on the activity of their thinned summands

# The panel cap of each sub-plan.  tools/sum_routes.py --search (36 uniform candidates
# at p = 3 for each of search seeds 0, 6 and 1234) took 0.70, 0.39, 0.29, 0.32, 0.40
# and 0.62 s in all at caps 128, 256, 512, 1,024, 2,048 and 8,192 on unit panels, and
# 0.17, 0.12, 0.11, 0.10, 0.12 and 0.25 s on panels sized by the band limit
# (_PANEL_PHASE = 16; 0.35, 0.14 and 0.09 s at 1, 8 and 32), 2-core x86-64
SUBPLAN_PANELS = 512


class ConditionedPlan(NamedTuple):
    parts: tuple  # (P(pattern), its relative error, SumPlan of S given the pattern)
    truncation: float  # a bound on sum P(pattern) E|S given it|^p over the patterns left out
    depth: int  # m, the thinned terms conditioned on


def _kept(log_w, rel, reach, p: float, budget: float):
    """(indices kept, bound left out) of patterns of log-probability log_w (within
    rel) whose Minkowski bounds P reach^p, the least first, sum to at most budget."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_b = log_w + p * np.log(reach)
        bounds = np.where(reach > 0.0, np.exp(log_b) * (1.0 + rel + 4.0 * _EPS * np.abs(log_b)),
                          0.0)
    order = np.argsort(bounds)
    out = int(np.searchsorted(np.cumsum(bounds[order]), budget, side="right"))
    return np.sort(order[out:]), float(bounds[order[:out]].sum())


def condition(p: float, terms, chosen, tol: float, budget: float) -> ConditionedPlan:
    """The sum of the terms conditioned on the active counts J_i ~ Bin(k_i, mu_i)
    of terms[i], i in chosen: per pattern of counts its weight, and the plan of
    the sum with each chosen term on (activation 1) J_i times.  By Minkowski,
    E|S given a pattern|^p <= (sum_rest k c mu^(1/p) ||V||_p + sum_i J_i c_i ||V_i||_p)^p,
    and counts whose bounds sum to budget / 2 over the chosen are left out, then
    patterns whose bounds sum to budget / 2.  The log-weights are running sums
    from (1 - mu)^k, each step within 4 ulps."""
    terms = list(terms)
    units = [t.scale * t.law.abs_moment(p) ** (1 / p) for t in terms]
    norms = [t.count * t.activation ** (1 / p) * u for t, u in zip(terms, units)]
    axes, truncation = [], 0.0
    for i in chosen:
        k, mu = terms[i].count, terms[i].activation
        j = np.arange(k + 1.0)
        steps = np.log((k - j[:-1]) / (j[:-1] + 1.0)) + (math.log(mu) - math.log1p(-mu))
        log_w = k * math.log1p(-mu) + np.concatenate(([0.0], np.cumsum(steps)))
        rel = 4.0 * _EPS * (abs(log_w[0]) + j + np.concatenate(([1.0], np.cumsum(np.abs(steps)))))
        keep, cut = _kept(log_w, rel, math.fsum(norms) - norms[i] + j * units[i], p,
                          0.5 * budget / len(chosen))
        axes.append([(int(x), log_w[x], rel[x]) for x in keep])
        truncation += cut
    patterns = list(itertools.product(*axes))
    log_w, rel = (np.array([math.fsum(e[n] for e in pat) for pat in patterns]) for n in (1, 2))
    reach = math.fsum(n for i, n in enumerate(norms) if i not in chosen) + np.array(
        [math.fsum(units[i] * j for i, (j, *_) in zip(chosen, pat)) for pat in patterns])
    keep, cut = _kept(log_w, rel, reach, p, 0.5 * budget)
    rest = [t for i, t in enumerate(terms) if i not in chosen]
    parts = []
    for x in keep:
        on = [Term(terms[i].law, terms[i].scale, 1.0, j) for i, (j, *_) in zip(chosen, patterns[x])]
        parts.append((float(np.exp(log_w[x])), float(rel[x]) + 2.0 * _EPS,
                      plan_sum(p, rest + on, tol)))
    return ConditionedPlan(tuple(parts), truncation + cut, len(chosen))


def _cost(plan: ConditionedPlan) -> float:
    """The panels of all sub-plans, inf where one is past MAX_SUM_PANELS."""
    subs = [sub for *_, sub in plan.parts]
    return math.inf if any(s.route != "fourier" for s in subs) else sum(s.panels for s in subs)


def plan_conditioned(p: float, terms, tol: float = 1e-9) -> ConditionedPlan:
    """The plan of E|S|^p = sum_pattern P(pattern) E|S given the pattern|^p.

    A thinned factor 1 - mu + mu phi(ct) tends to 1 - mu, not 0, so a rare wide
    summand keeps |phi_S| from decaying, and its plan needs many panels.  Where
    the plan of the whole sum passes SUBPLAN_PANELS, the sum is conditioned on
    the counts of its m widest thinned terms (condition, leaving out patterns
    whose bounds sum to tol lower / 10), for the smallest m whose sub-plans all
    fit that cap; only on terms whose envelope falls below 1/2 at the plan's
    reach (an atomic law's never falls).  Where no m fits, the plan of fewest
    panels in all (m = 0 included) whose sub-plans fit MAX_SUM_PANELS, or an
    InputError naming that cap where none does."""
    plan = plan_sum(p, terms, tol)
    levels = [ConditionedPlan(((1.0, 0.0, plan),), 0.0, 0)]
    if plan.route == "fourier" and plan.panels <= SUBPLAN_PANELS:
        return levels[0]
    live = plan.terms
    thinned = [i for i, t in enumerate(live) if t.activation < 1.0
               and t.law.char_envelope(np.array([plan.t0 * t.scale * plan.reach]))[0] < 0.5]
    thinned.sort(key=lambda i: -live[i].scale * math.sqrt(live[i].law.abs_moment(2.0)))
    for m in range(1, len(thinned) + 1):
        levels.append(condition(p, live, thinned[:m], tol, 0.1 * tol * plan.lower * plan.t0 ** -p))
        if max(sub.panels for *_, sub in levels[-1].parts) <= SUBPLAN_PANELS:
            return levels[-1]
    best = min(levels, key=_cost)
    if _cost(best) == math.inf:
        raise InputError(f"the sum needs more than MAX_SUM_PANELS = {MAX_SUM_PANELS} panels, "
                         f"conditioned on the activity of up to {len(thinned)} thinned terms")
    return best


def conditioned_abs_moment(plan: ConditionedPlan, moment: Callable = sum_abs_moment
                           ) -> ConstantResult:
    """E|S|^p on a conditioned plan: the weighted sum of moment(sub-plan) and of
    their bounds, with the weights' round-off and the truncation."""
    results = [(w, rel, moment(sub)) for w, rel, sub in plan.parts]
    if plan.depth == 0:
        results[0][2].diagnostics["depth"] = 0
        return results[0][2]
    value = math.fsum(w * res.value for w, _, res in results)
    err = math.fsum(w * (res.error_bound + rel * abs(res.value)) for w, rel, res in results)
    diag = {"p": plan.parts[0][2].p, "depth": plan.depth, "subplans": len(results),
            "fourier_panels": max(sub.panels for *_, sub in plan.parts)}
    return ConstantResult(value, "sum_fourier", err + plan.truncation + 4.0 * _EPS * value, diag)

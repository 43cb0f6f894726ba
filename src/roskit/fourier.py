"""Absolute moments of symmetric laws from their real characteristic functions.

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
  unit width beyond (the caller's scaling keeps phi's frequencies below
  about 1), and on [R, inf) by the midpoint of |phi - 1| <= far.

The error bound is the sum of four terms: the Taylor remainder, the gap
between the 20- and 12-point rules summed over the panels, the half-width
of the tail beyond R, and the round-off, from the caller's bound on each
evaluation of 1 - phi and a few ulps of every summed term.  Near p = 2k + 2
the first Taylor term grows like 1 / (2k + 2 - p) while |sin(pi p / 2)|
vanishes with it, and near p = 2k the same holds for the last polynomial
term: sin is taken of the distance to the nearer even integer, so that
both products keep their relative accuracy.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["MAX_PANELS", "FourierMoment", "abs_moment"]

_EPS = sys.float_info.epsilon
_RATIO = 1.25  # geometric panels [u, 1.25 u] up to width 1, unit panels beyond
_REFINE = 4  # halvings of every panel while the bound exceeds tol |value|
MAX_PANELS = 1 << 17  # R is cut to keep within it, and the tail beyond R bounded
_CHUNK = 8192  # panels evaluated at once
_MAX_TAYLOR = 2048  # Taylor coefficients; a_n decays like t0^n / n! for a bounded law


class FourierMoment(NamedTuple):
    value: float
    error_bound: float
    panels: int  # Gauss-Legendre panels on [1, R]
    reach: float  # R


def _edges(reach: float, ratio: float, width: float) -> np.ndarray:
    """Panel edges from 1 to reach: geometric by ratio until a panel is width
    wide, then width apart."""
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
    bound of the first; _CHUNK panels at a time."""
    sums, roundoff = [[], []], 0.0
    for lo in range(0, edges.size - 1, _CHUNK):
        chunk = edges[lo : lo + _CHUNK + 1]
        mid, half = 0.5 * (chunk[1:] + chunk[:-1]), 0.5 * np.diff(chunk)
        for rule, (nodes, weights) in enumerate(_rules()):
            u = mid[:, None] + half[:, None] * nodes
            g, err = gap(u.ravel())
            w = half[:, None] * weights * u ** (-p - 1.0)
            sums[rule].append((g.reshape(u.shape) * w).sum(axis=1))
            if rule == 0:
                roundoff += float((err.reshape(u.shape) * w).sum())
    fine, coarse = (np.concatenate(out) for out in sums)
    return fine, coarse, roundoff


def abs_moment(p: float, gap: Callable, taylor, far: float, lower: float,
               tol: float) -> FourierMoment:
    """E|X|^p of a symmetric X at non-even p > 0 from phi.

    gap(u) returns 1 - phi(u) and a bound on its evaluation error, both on an
    array of u >= 1.  taylor(n) returns a_0..a_n, a_j = E X^(2j) / (2j)!; n
    doubles until they reach the remainder.  far >= sup |1 - phi| (2 P(X != 0)
    serves), and
    lower <= E|X|^p sizes R so that the tail stays below tol lower / 10,
    and at most MAX_PANELS / 2.  While the bound exceeds tol |value| and the
    rules' gap is most of it, every panel is halved, up to _REFINE times and
    MAX_PANELS panels.  So the work stays bounded at any tol, and the bound
    exceeds tol |value| only where the tol cannot be met.
    """
    k = int(p // 2)
    if 2 * k == p:
        raise ValueError(f"von Bahr's integral needs a non-even p, got {p!r}")
    sign = -1.0 if k % 2 == 0 else 1.0  # (-1)^(k+1)
    near = min(p - 2 * k, 2 * k + 2 - p)
    C = 2.0 / math.pi * math.gamma(p + 1.0) * math.sin(0.5 * math.pi * near)
    # [0, 1]: the Taylor remainder term by term, to the first J whose next
    # coefficient certifies what is left below tol lower / 100
    n = 2 * k + 16
    while True:
        a = taylor(n)
        J = next((j for j in range(k + 1, n)
                  if C * a[j + 1] / (2 * j + 2 - p) <= 0.01 * tol * lower), None)
        if J is not None:
            break
        if n >= _MAX_TAYLOR:
            raise ValueError(f"{n} Taylor coefficients do not reach the remainder")
        n *= 2
    taylor_terms = [(-1.0) ** j * a[j] / (2 * j - p) for j in range(k + 1, J + 1)]
    remainder = a[J + 1] / (2 * J + 2 - p)
    # [1, inf): the polynomial part in closed form, and the midpoint of
    # -far <= phi - 1 <= 0 beyond R
    poly_terms = [-((-1.0) ** j) * a[j] / (p - 2 * j) for j in range(1, k + 1)]
    reach = min(max(2.0, (5.0 * C * far / (p * tol * lower)) ** (1.0 / p)), 0.5 * MAX_PANELS)
    tail = 0.5 * far * reach ** (-p) / p
    closed = math.fsum(taylor_terms + poly_terms) - tail
    absolute = math.fsum(map(abs, taylor_terms + poly_terms)) + tail

    width = 1.0
    ratio = _RATIO
    for _ in range(_REFINE + 1):
        edges = _edges(reach, ratio, width)
        fine, coarse, roundoff = _panel_integrals(gap, p, edges)
        quad = math.fsum(fine.tolist())
        value = C * sign * (closed - quad)
        gap_term = C * float(np.abs(fine - coarse).sum())
        err = gap_term + C * (remainder + tail + roundoff
                              + 8.0 * _EPS * (absolute + float(np.abs(fine).sum())))
        if (err <= tol * abs(value) or 2.0 * gap_term <= err  # finer panels cannot help
                or 2 * edges.size > MAX_PANELS):
            break
        width, ratio = 0.5 * width, math.sqrt(ratio)
    return FourierMoment(value, err, edges.size - 1, reach)

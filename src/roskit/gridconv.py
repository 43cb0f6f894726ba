"""Grid kernels: cell masses on uniform grids, and moments of sums of
independent summands by one product of characteristic vectors.

Every grid route of the package runs on the kernels here: exact cell
masses from a CDF (from_cdf), the sub-Gaussian truncation radius with its
certified tail (truncation_radius) and the pair of radii that sizes a
grid's period (window_radii), the |x|^p moment of a mass window with the
measured FFT noise floor clamped (window_abs_moment), and the one grid
estimate whose value and bound every grid route takes (grid_moment).  A
grid reference is a list of independent Summands, each a CDF and atoms
with its own variance proxy; grid_moment sizes its window from them and
puts their masses on one wrap-around grid of even length N.  Every summand
is symmetric about 0, so its characteristic vector is real: the cosine
transform of its one-sided masses, DCT-I for cells centred on multiples of
the step and DCT-II for cells half a step off, one per distinct summand.
Their product (k copies enter as phi^k), its map when the count is random
(exp(lam (phi - 1)) for a Poisson count) and one inverse cosine transform
run on float64 vectors of N/2 + 1 entries and give the sum's one-sided
masses, each point weighed for itself and its mirror.  Each runs at a fine
and a coarse step: steps with a law's support ends on cell edges
(edge_steps), or a grid density's step h and 2 h; a sum of unequal
summands coarsens its finest summand's steps until it fits SUM_GRID_CELLS
cells (sum_steps).  grid_moment returns the fine value, bounded by 3 x the
coarse/fine gap (conservative for convergence of order 1 or more), the
measured round-off, the window and wrap tails and 1e-13 of the value.

The grid's period comes from the window the moment reads, |x| <= T: a
period of T + T2, one step per summand and one summand's width (grid_period)
lets mass wrap into the window only from sums beyond a second radius T2,
whose certified tail bounds what that mass adds (window_radii).  A
fixed-count sum never takes a period longer than its whole sum.

Every CDF in the package is an array function, cdf(edges: ndarray) ->
ndarray, that also accepts a scalar; from_cdf calls it once per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.fft import dct, idct, next_fast_len
from scipy.special import gammaincc

from .errors import InputError

__all__ = ["GridMoment", "MAX_GRID_CELLS", "SUM_GRID_CELLS", "Summand", "edge_steps",
           "from_cdf", "grid_moment", "grid_period", "grid_size", "sum_steps",
           "truncation_radius", "window_abs_moment", "window_radii"]

MAX_GRID_CELLS = 1 << 23  # longest spectral grid: 64 MB per float64 vector
SUM_GRID_CELLS = MAX_GRID_CELLS >> 5  # a sum of unequal summands coarsens its step to fit


@dataclass(frozen=True)
class Summand:
    """An independent summand of a spectral sum, repeated count times.

    cdf, or None, is the CDF of its continuous part, which lies in
    [-half, half]; its cells are centred on (j + offset) h, offset 0 or 1/2.
    atoms is a {location: mass} dict with every |location| <= half.  proxy is
    the variance proxy of one copy, Hoeffding's half ** 2 when None.
    """

    cdf: Callable | None
    half: float
    atoms: dict = field(default_factory=dict)
    count: int = 1
    offset: float = 0.0
    proxy: float | None = None

    def reach(self, h: float) -> int:
        """Largest |j| of a grid point (j + offset) h that can carry mass."""
        return int(self.half / h + self.offset) + 1

    def masses(self, h: float, size: int) -> np.ndarray:
        """The summand's masses on a wrap-around grid of size points."""
        out = np.zeros(size)

        def split(x, m):  # mass m at index x, shared by its two nearest points keeping its mean
            base = math.floor(x)
            out[base % size] += m * (1.0 - (x - base))
            out[(base + 1) % size] += m * (x - base)

        r = self.reach(h)
        if self.cdf is not None:
            lo = (self.offset - r - 0.5) * h
            cells = from_cdf(self.cdf, lo, lo + (2 * r + 1) * h, 2 * r + 1)  # j = -r..r
            out[: r + 1] = cells[r:]
            out[size - r :] = cells[:r]
            # a cell cut by -+half keeps its mass at the middle of its part inside,
            # so that the cell-centre error stays of second order in h
            for j in {math.floor(sign * self.half / h - self.offset + 0.5) for sign in (-1, 1)}:
                inside = np.clip((j + self.offset + np.array([-0.5, 0.5])) * h, -self.half,
                                 self.half)
                moved, out[j % size] = out[j % size], 0.0
                split(inside.mean() / h - self.offset, moved)
        for loc, m in self.atoms.items():
            split(loc / h - self.offset, m)
        return out


def from_cdf(cdf, lo: float, hi: float, n_cells: int) -> np.ndarray:
    """Exact masses of the n_cells equal cells of [lo, hi] under the continuous
    part described by cdf.

    cdf is called once, on the whole edge vector: cdf(edges: ndarray) -> ndarray.
    """
    edges = lo + (hi - lo) / n_cells * np.arange(n_cells + 1)
    return np.maximum(np.diff(cdf(edges)), 0.0)


def edge_steps(b: float, n: int) -> tuple[float, float]:
    """A fine and a coarse step with +-b on cell edges: 2 n + 1 and n + 1
    cells centred on multiples of the step cover [-b, b]."""
    return 2.0 * b / (2 * n + 1), 2.0 * b / (n + 1)


def sum_steps(summands: list[Summand], steps: tuple[float, float]) -> tuple[float, float]:
    """The (fine, coarse) steps a caller asks for, both coarsened by one
    factor until the sum of the summands spans at most SUM_GRID_CELLS fine
    cells."""
    span = math.fsum(2.0 * s.half * s.count for s in summands)
    factor = max(1.0, span / (SUM_GRID_CELLS * steps[0]))
    return steps[0] * factor, steps[1] * factor


def truncation_radius(
    p: float, sigma2: float, tol: float, full: float, weights=(1.0,)
) -> tuple[float, float]:
    """Smallest T = (3 + j) s whose certified tail moment beyond T is below
    tol / 100, and that tail: the mixture sum_k weights[k-1] S_k's, S_k a sum
    of k summands of variance proxy sigma2 and |X| <= full each (one by
    default), s the square root of the mixture's mean proxy.

    E[|S_k|^p ; |S_k| > T] <= p (2 k sigma2)^(p/2) Gamma(p/2) Q(p/2, T^2 / (2 k sigma2))
    for symmetric sub-Gaussian summands (Hoeffding for bounded laws), Q the
    regularized upper gamma, evaluated over every k at once."""
    w = np.asarray(weights, dtype=float)
    k = np.arange(1, w.size + 1)
    step = math.sqrt(sigma2 * np.average(k, weights=w))
    log_pref = math.log(p) + 0.5 * p * np.log(2.0 * sigma2 * k) + math.lgamma(0.5 * p)

    def tail_at(T):
        live = T < k * full  # S_k cannot pass k full
        q = gammaincc(0.5 * p, T * T / (2.0 * sigma2 * k[live]))
        hit = q > 0.0
        return float(np.sum(w[live][hit] * np.exp(log_pref[live][hit] + np.log(q[hit]))))

    T = 3.0 * step
    while (tail := tail_at(T)) > 0.01 * tol:
        T += step
    return T, tail


def window_radii(p: float, sigma2: float, tol: float, full: float, weights=(1.0,),
                 wrap_weights=None) -> tuple[float, float, float]:
    """(T, T2, bound) for a grid that reads the window |x| <= T: T is the
    truncation_radius (same arguments), T2 >= T a second one at tol / 1000
    over wrap_weights (weights by default), the counts of every sum the grid
    holds.  grid_moment's period lets only mass beyond T2 wrap into
    the window, where it weighs at most (T / T2)^p tail(T2); bound is that
    plus the window's own tail."""
    T, tail = truncation_radius(p, sigma2, tol, full, weights)
    T2, wrap_tail = truncation_radius(p, sigma2, 1e-3 * tol, full,
                                      weights if wrap_weights is None else wrap_weights)
    T2 = max(T2, T)
    return T, T2, tail + (T / T2) ** p * wrap_tail


def window_abs_moment(masses: np.ndarray, weights: np.ndarray) -> tuple[float, float, float]:
    """sum w m over a window, the round-off term and the noise floor.

    True masses are nonnegative, so the largest |negative mass| measures the
    FFT noise: masses at most that floor (or 10^-18 times the largest) are
    zeroed, so the |x|^p weights cannot amplify them, and floor * sum w is
    the round-off term.  numpy's pairwise sum wakes no BLAS thread pool.
    """
    floor = float(max(1e-18 * masses.max(initial=0.0), -masses.min(initial=0.0)))
    hidden = floor * float(weights.sum())
    masses = np.where(masses > floor, masses, 0.0)
    return float((weights * masses).sum()), hidden, floor


def grid_size(cells: int) -> int:
    """The length of a grid of at least cells + 1 points: even, so that its
    one-sided masses have the cosine transforms of its period, and twice a
    real-transform fast length.  InputError, before anything is allocated,
    past MAX_GRID_CELLS."""
    size = 2 * next_fast_len(cells // 2 + 1, real=True)
    if size > MAX_GRID_CELLS:
        raise InputError(f"spectral grid of {size} cells exceeds the cap "
                         f"MAX_GRID_CELLS = {MAX_GRID_CELLS}")
    return size


def _spectrum(s: Summand, step: float, size: int) -> np.ndarray:
    """The summand's characteristic vector at the frequencies k = 0..size/2,
    real since it is symmetric: the cosine transform of its one-sided masses
    (those at +-x averaged), DCT-I for points on multiples of the step and
    DCT-II for points half a step off, which vanishes at k = size/2."""
    out = s.masses(step, size)
    half = size // 2
    if s.offset:  # (j + 1/2) and -(j + 1/2) sit at j and -1 - j
        return np.append(dct(0.5 * (out[:half] + out[: half - 1 : -1]), type=2), 0.0)
    side = out[: half + 1]  # j and -j sit at j and size - j
    side[1:half] += out[:half:-1]
    side[1:half] *= 0.5
    return dct(side, type=1)


def _power(phi: np.ndarray, n: int) -> np.ndarray:
    # phi ** n by repeated squaring: numpy's float pow takes ~60 ns per element
    out = None
    while True:
        if n & 1:
            out = phi if out is None else out * phi
        n >>= 1
        if not n:
            return out
        phi = phi * phi


def grid_period(summands: list[Summand], steps: tuple[float, float], T: float, T2: float,
                jumps: int | None = None) -> float:
    """The period of a grid that reads the window |x| <= T of a sum of up to
    jumps summands (the summands' counts by default): T + T2, one coarse step
    per summand, since a grid sum lies within that of the true one, and the
    widest summand's width.  Only sums beyond T2 then wrap into the window."""
    n = sum(s.count for s in summands) if jumps is None else jumps
    return T + T2 + n * steps[1] + 2.0 * max(s.half for s in summands)


class GridMoment(NamedTuple):
    value: float  # the windowed moment at the fine step
    error_bound: float
    coarse: float  # the same at the coarse step
    mass: float  # total mass on the fine grid: the product's DC term
    floor: float  # the fine grid's measured noise floor: smaller masses were zeroed
    T: float  # the window's radius


def grid_moment(summands: list[Summand], steps: tuple[float, float], p: float, tol: float,
                weights=(1.0,), wrap_weights=None, transform=None,
                jumps: int | None = None) -> GridMoment:
    """E|S|^p over |S| <= T for the sum S of independent symmetric summands, on
    one wrap-around grid at each of the (fine, coarse) steps.

    The window comes from window_radii(p, sigma2, tol, full, weights,
    wrap_weights), sigma2 and full the summands' proxies and halves summed
    over their counts.  The characteristic vector of S is the product of
    every summand's real phi ** count, mapped by transform when it is given
    (exp(lam (phi - 1)) for a Poisson(lam) count of such sums, weighed by
    weights; the offsets must then be 0), and its inverse cosine transform
    gives S's one-sided masses.  Each grid spans grid_period(summands, steps,
    T, T2, jumps), or the summands' whole sum when that is shorter; a
    transform's random count, which has no whole sum, needs jumps, the most
    summands whose sums T2 bounds.  The fine value is bounded by 3 x the
    coarse/fine gap, the measured round-off, the window and wrap tails and
    1e-13 of the value.  A grid longer than MAX_GRID_CELLS raises InputError
    before it is allocated.
    """
    sigma2 = math.fsum(s.count * (s.half**2 if s.proxy is None else s.proxy) for s in summands)
    full = math.fsum(s.count * s.half for s in summands)
    T, T2, tails = window_radii(p, sigma2, tol, full, weights, wrap_weights)
    period = grid_period(summands, steps, T, T2, jumps)
    offset = math.fmod(sum(s.count * s.offset for s in summands), 1.0)  # S sits at (j + offset) step
    vals = []
    table = None  # 2 |j + offset|^p: the points +-(j + offset) share it
    for step in steps:  # the longer grid first: its size meets the cap
        whole = math.inf if transform else sum(s.count * (2 * s.reach(step) + 1) for s in summands)
        size = grid_size(math.ceil(min(whole, period / step)))
        phi = None
        for s in summands:
            factor = _power(_spectrum(s, step, size), s.count)
            phi = factor if phi is None else phi * factor
        if transform is not None:
            phi = transform(phi)
        mass = float(phi[0])
        half = size // 2
        side = idct(phi[:half], type=2) if offset else idct(phi, type=1)
        del phi, factor
        last = math.floor(min(T / step, half - 0.5) - offset)  # index half wraps to -half
        if table is None or table.size <= last:
            table = 2.0 * np.abs(np.arange(last + 1) + offset) ** p
        value, hidden, floor = window_abs_moment(side[: last + 1], table[: last + 1])
        scale = float(step) ** p
        vals.append((value * scale, hidden * scale, floor, mass))
    (fine, hidden, floor, mass), (coarse, *_) = vals
    err = 3.0 * abs(fine - coarse) + hidden + tails + 1e-13 * abs(fine)
    return GridMoment(fine, err, coarse, mass, floor, T)

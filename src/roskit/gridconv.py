"""Grid kernels: cell masses on uniform grids, and moments of sums of
independent summands by one product of characteristic vectors.

Every grid route of the package runs on the kernels here: exact cell
masses from a CDF (from_cdf), the sub-Gaussian truncation radius with its
certified tail (truncation_radius), the |x|^p moment of a mass window with
the measured FFT noise floor clamped (window_abs_moment), and the spectral
kernel (spectral_abs_moment).  The kernel puts each independent Summand's
masses on one wrap-around grid, takes one rfft per distinct summand,
multiplies them (k copies enter as phi^k), maps the product when the count
is random (exp(lam (phi - 1)) for a Poisson count) and takes one irfft,
at a fine and a coarse step that each caller turns into its own error
estimate: steps with a law's support ends on cell edges (edge_steps), or
h and 2 h for a GridLaw; a sum of unequal summands coarsens its finest
summand's steps until it fits SUM_GRID_CELLS cells (sum_steps).

Every CDF in the package is an array function, cdf(edges: ndarray) ->
ndarray, that also accepts a scalar; from_cdf calls it once per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from . import specfun
from .errors import InputError

__all__ = ["GridLaw", "MAX_GRID_CELLS", "SUM_GRID_CELLS", "SpectralMoment", "Summand",
           "edge_steps", "from_cdf", "spectral_abs_moment", "sum_steps", "truncation_radius",
           "window_abs_moment"]

MAX_GRID_CELLS = 1 << 23  # longest spectral grid: 64 MB per float64 vector
SUM_GRID_CELLS = MAX_GRID_CELLS >> 5  # a sum of unequal summands coarsens its step to fit


@dataclass(frozen=True)
class Summand:
    """An independent summand of a spectral sum, repeated count times.

    cdf, or None, is the CDF of its continuous part, which lies in
    [-half, half]; its cells are centred on (j + offset) h, offset 0 or 1/2.
    atoms is a {location: mass} dict with every |location| <= half.
    """

    cdf: Callable | None
    half: float
    atoms: dict = field(default_factory=dict)
    count: int = 1
    offset: float = 0.0

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
            cells = from_cdf(self.cdf, lo, lo + (2 * r + 1) * h, 2 * r + 1).masses  # j = -r..r
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


@dataclass
class GridLaw:
    """Cell masses at x0 + j h (cell j is [x0 + (j - 1/2) h, x0 + (j + 1/2) h])
    plus a {location: mass} dict of exact atoms kept off the grid."""

    x0: float
    h: float
    masses: np.ndarray
    atoms: dict = field(default_factory=dict)

    def total_mass(self) -> float:
        return float(self.masses.sum()) + math.fsum(self.atoms.values())

    def summand(self, count: int = 1) -> Summand:
        """The law, symmetric about 0, as a spectral summand: its cells as the
        piecewise-constant density they describe, so that at steps h and 2 h
        the kernel's cells are this law's cells and their merged pairs."""
        edges = self.x0 + self.h * (np.arange(self.masses.size + 1) - 0.5)
        cum = np.concatenate(([0.0], np.cumsum(self.masses)))
        half = max([-edges[0], edges[-1]] + [abs(loc) for loc in self.atoms])
        return Summand(lambda x: np.interp(x, edges, cum), half, dict(self.atoms), count,
                       0.5 if self.masses.size % 2 == 0 else 0.0)


def from_cdf(cdf, lo: float, hi: float, n_cells: int, atoms: dict | None = None) -> GridLaw:
    """Exact cell masses of the continuous part described by cdf on [lo, hi].

    cdf is called once, on the whole edge vector: cdf(edges: ndarray) -> ndarray.
    """
    h = (hi - lo) / n_cells
    edges = lo + h * np.arange(n_cells + 1)
    masses = np.maximum(np.diff(cdf(edges)), 0.0)
    return GridLaw(lo + 0.5 * h, h, masses, dict(atoms or {}))


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


def _subgaussian_tail_moment(p: float, sigma2: float, T: float) -> float:
    """Upper bound on E[|S|^p ; |S| > T] for a sum S of independent
    symmetric sub-Gaussian summands with total variance proxy sigma2
    (Hoeffding for bounded laws)."""
    u = T * T / (2.0 * sigma2)
    if u <= 0.0:
        return math.inf
    log_pref = math.log(p) + 0.5 * p * math.log(2.0 * sigma2) + math.lgamma(0.5 * p)
    q = specfun.reg_upper_inc_gamma(0.5 * p, u)
    if q == 0.0:
        return 0.0
    return math.exp(log_pref + math.log(q))


def truncation_radius(
    p: float, sigma2: float, tol: float, full: float, weights=(1.0,)
) -> tuple[float, float]:
    """Smallest T = (3 + j) s whose certified tail moment beyond T is below
    tol / 100, and that tail: the mixture sum_k weights[k-1] S_k's, S_k a sum
    of k summands of variance proxy sigma2 and |X| <= full each (one by
    default), s the square root of the mixture's mean proxy."""
    step = math.sqrt(sigma2 * np.average(np.arange(1, len(weights) + 1), weights=weights))

    def tail_at(T):
        return math.fsum(w * _subgaussian_tail_moment(p, k * sigma2, T)
                         for k, w in enumerate(weights, 1) if T < k * full)

    T = 3.0 * step
    while (tail := tail_at(T)) > 0.01 * tol:
        T += step
    return T, tail


def window_abs_moment(
    positions: np.ndarray, masses: np.ndarray, p: float, T: float
) -> tuple[float, float, float]:
    """sum |x|^p m(x) over the cells with |x| <= T, the round-off term and the noise floor.

    True masses are nonnegative, so the largest |negative mass| measures the
    FFT noise: masses at most that floor (or 10^-18 times the largest) are
    zeroed, so the |x|^p weights cannot amplify them, and floor * sum |x|^p
    is the round-off term.  numpy's pairwise sum wakes no BLAS thread pool.
    """
    keep = np.abs(positions) <= T
    masses = masses[keep]
    weights = np.abs(positions[keep]) ** p
    floor = max(1e-18 * float(masses.max(initial=0.0)), -float(masses.min(initial=0.0)))
    hidden = floor * float(weights.sum())
    masses = np.where(masses > floor, masses, 0.0)
    return float((weights * masses).sum()), hidden, floor


class SpectralMoment(NamedTuple):
    fine: float  # the windowed moment at the fine step
    coarse: float  # the same at the coarse step
    hidden: float  # the round-off term of the fine value
    mass: float  # total mass on the fine grid: the product's DC term
    floor: float  # the fine grid's measured noise floor: smaller masses were zeroed


def spectral_abs_moment(summands: list[Summand], steps: tuple[float, float], p: float,
                        T: float, transform=None, copies: int = 1) -> SpectralMoment:
    """E|S|^p over |S| <= T for the sum S of independent summands, on one
    wrap-around grid at each of the (fine, coarse) steps.

    The characteristic vector of S is the product of every summand's
    phi ** count, mapped by transform when it is given (exp(lam (phi - 1))
    for a Poisson(lam) count of such sums; the offsets must then be 0).
    The grid holds copies of the summands' sum without wrapping; the window
    tail, and mass a random count may wrap into the window, are the
    caller's to bound.  A grid longer than MAX_GRID_CELLS raises InputError
    before it is allocated.
    """
    offset = sum(s.count * s.offset for s in summands)  # index k sits at (k + offset) step
    vals = []
    for step in steps:  # the longer grid first: its size meets the cap
        cells = copies * sum(s.count * (2 * s.reach(step) + 1) for s in summands)
        size = next_fast_len(cells + 1)
        if size > MAX_GRID_CELLS:
            n = copies * sum(s.count for s in summands)
            raise InputError(f"spectral grid of {size} cells for sums of up to {n} "
                             f"summands exceeds the cap MAX_GRID_CELLS = {MAX_GRID_CELLS}")
        phi = None
        for s in summands:
            factor = rfft(s.masses(step, size))
            if s.count != 1:
                factor **= s.count
            phi = factor if phi is None else phi * factor
        if transform is not None:
            phi = transform(phi)
        mass = float(phi[0].real)
        half_span = 0.5 * (size - 1)  # indices past it wrap
        lo = math.ceil(max(-T / step, -half_span) - offset)
        hi = math.floor(min(T / step, half_span) - offset)
        window = np.roll(irfft(phi, size), -lo)[: hi - lo + 1]
        del phi, factor
        positions = np.arange(lo, hi + 1) + offset
        positions *= step
        vals.append((*window_abs_moment(positions, window, p, T), mass))
    (fine, hidden, floor, mass), (coarse, *_) = vals
    return SpectralMoment(fine, coarse, hidden, mass, floor)

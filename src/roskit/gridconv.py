"""Grid kernels: cell masses on uniform grids, their convolution and moments.

A GridLaw carries cell masses at positions x0 + j*h plus an optional dict
of exact atoms kept off the grid.  Convolving two laws convolves the mass
vectors (FFT), shifts mass vectors by atom locations (mean-preserving
two-cell splits for off-grid shifts), and adds atom locations exactly.

The kernels shared by every grid route of the package live here: exact
cell masses from a CDF (from_cdf), the sub-Gaussian truncation radius with
its certified tail (truncation_radius), the |x|^p moment of a mass window
with the measured FFT noise floor clamped (window_abs_moment), and the
spectral kernel for sums of i.i.d. summands, a fixed count or a Poisson
count of them, on one wrap-around grid (spectral_abs_moment).

Every CDF in the package is an array function, cdf(edges: ndarray) ->
ndarray, that also accepts a scalar; from_cdf calls it once per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from . import specfun
from .errors import GridTooSmallError, InputError

__all__ = ["GridLaw", "MAX_GRID_CELLS", "convolve_grid", "from_cdf", "nfold_grid",
           "spectral_abs_moment", "truncated_abs_moment", "truncation_radius",
           "window_abs_moment"]

MAX_GRID_CELLS = 1 << 23  # longest spectral grid: 64 MB per float64 vector


@dataclass
class GridLaw:
    x0: float
    h: float
    masses: np.ndarray
    atoms: dict = field(default_factory=dict)

    @property
    def positions(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.masses.size)

    def total_mass(self) -> float:
        return float(self.masses.sum()) + math.fsum(self.atoms.values())

    def effective_bound(self) -> float:
        """Largest |x| carrying grid or atom mass (every grid law is bounded)."""
        nz = np.nonzero(self.masses > 0.0)[0]
        b = 0.0
        if nz.size:
            b = max(abs(self.x0 + self.h * nz[0]), abs(self.x0 + self.h * nz[-1]))
        for loc in self.atoms:
            b = max(b, abs(loc))
        return b

    def variance_proxy(self) -> float:
        b = self.effective_bound()
        return b * b


def from_cdf(cdf, lo: float, hi: float, n_cells: int, atoms: dict | None = None) -> GridLaw:
    """Exact cell masses of the continuous part described by cdf on [lo, hi].

    cdf is called once, on the whole edge vector: cdf(edges: ndarray) -> ndarray.
    """
    h = (hi - lo) / n_cells
    edges = lo + h * np.arange(n_cells + 1)
    masses = np.maximum(np.diff(cdf(edges)), 0.0)
    return GridLaw(lo + 0.5 * h, h, masses, dict(atoms or {}))


def _shift_masses(masses: np.ndarray, cells: float) -> tuple[int, np.ndarray]:
    """Shift a mass vector by a (possibly fractional) number of cells.

    Returns the integer base offset and the shifted vector (one cell
    longer); the fractional part is split between neighbors so the mean is
    preserved exactly.
    """
    base = int(math.floor(cells))
    frac = cells - base
    out = np.zeros(masses.size + 1)
    out[:-1] += masses * (1.0 - frac)
    out[1:] += masses * frac
    return base, out


def convolve_grid(a: GridLaw, b: GridLaw) -> GridLaw:
    """Law of X + Y for independent X ~ a, Y ~ b (steps must match)."""
    if abs(a.h - b.h) > 1e-12 * max(a.h, b.h):
        raise ValueError("grid steps must match; resample first")
    h = a.h
    pieces: list[tuple[float, np.ndarray]] = []  # (x0, masses)

    if a.masses.size and b.masses.size:
        n = a.masses.size + b.masses.size - 1
        nfft = next_fast_len(n)
        conv = irfft(rfft(a.masses, nfft) * rfft(b.masses, nfft), nfft)[:n]
        pieces.append((a.x0 + b.x0, np.maximum(conv, 0.0)))

    for law, other in ((a, b), (b, a)):
        if not law.atoms or not other.masses.size:
            continue
        for loc, mass in law.atoms.items():
            base, shifted = _shift_masses(other.masses * mass, loc / h)
            pieces.append((other.x0 + base * h, shifted))

    atoms: dict = {}
    for loc_a, m_a in a.atoms.items():
        for loc_b, m_b in b.atoms.items():
            key = loc_a + loc_b
            atoms[key] = atoms.get(key, 0.0) + m_a * m_b

    if not pieces:
        return GridLaw(0.0, h, np.zeros(0), atoms)

    x0 = min(p[0] for p in pieces)
    end = max(p[0] + (p[1].size - 1) * h for p in pieces)
    size = int(round((end - x0) / h)) + 1
    masses = np.zeros(size)
    for px0, pm in pieces:
        start = int(round((px0 - x0) / h))
        masses[start : start + pm.size] += pm
    return GridLaw(x0, h, masses, atoms)


def resample(law: GridLaw, h: float) -> GridLaw:
    """Mass-preserving resample onto step h (mean-preserving two-cell split)."""
    if abs(law.h - h) <= 1e-12 * h:
        return law
    old_pos = law.positions
    lo = float(old_pos[0]) - law.h
    n_new = int(math.ceil((old_pos[-1] + law.h - lo) / h)) + 2
    idx_f = (old_pos - lo) / h
    base = np.floor(idx_f).astype(int)
    frac = idx_f - base
    masses = np.zeros(n_new)
    np.add.at(masses, base, law.masses * (1.0 - frac))
    np.add.at(masses, base + 1, law.masses * frac)
    return GridLaw(lo, h, masses, dict(law.atoms))


def nfold_grid(laws: list[GridLaw]) -> GridLaw:
    """Convolve a list of laws, resampling to the finest common step."""
    h = min(law.h for law in laws)
    acc = resample(laws[0], h)
    for law in laws[1:]:
        acc = convolve_grid(acc, resample(law, h))
    return acc


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
) -> tuple[float, float]:
    """sum |x|^p m(x) over the cells with |x| <= T, and the round-off term.

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
    return float((weights * masses).sum()), hidden


def spectral_abs_moment(jump, b: float, transform, p: float, count: int, T: float,
                        n_base: int) -> tuple[float, float]:
    """E|S|^p over |S| <= T for the sum S whose characteristic vector is
    transform(phi): phi ** k for k summands, exp(lam (phi - 1)) for a
    Poisson(lam) count.  Returns the value on 2 n_base + 1 cells over [-b, b]
    and 3 x its gap to n_base + 1 cells (conservative for convergence order
    >= 1) plus the round-off term; the window tail and sums of more than
    count summands, which may wrap, are the caller's to bound.

    jump, the summand's law on [-b, b], is a CDF (cell centres on j h, +-b
    on cell edges) or a {location: mass} dict (each atom split between its
    two cells, keeping its mean).  A grid longer than MAX_GRID_CELLS raises
    InputError before it is allocated.
    """
    vals = []
    for n in (2 * n_base, n_base):  # the longer grid first: its size meets the cap
        h = 2.0 * b / (n + 1)
        size = next_fast_len(count * (n + 3) + 1)  # a summand's |j| <= (n + 3) / 2
        if size > MAX_GRID_CELLS:
            raise InputError(f"spectral grid of {size} cells for sums of up to {count} "
                             f"summands exceeds the cap MAX_GRID_CELLS = {MAX_GRID_CELLS}")
        masses = np.zeros(size)
        if callable(jump):
            cells = from_cdf(jump, -b, b, n + 1).masses  # centres j h, |j| <= n / 2
            masses[: n // 2 + 1] = cells[n // 2 :]
            masses[size - n // 2 :] = cells[: n // 2]
        else:
            for loc, m in jump.items():
                base = math.floor(loc / h)
                frac = loc / h - base
                masses[base % size] += m * (1.0 - frac)
                masses[(base + 1) % size] += m * frac
        masses = transform(rfft(masses))  # rebinding frees each vector once used
        dist = irfft(masses, size)
        reach = min(int(T / h), (size - 1) // 2)
        window = np.concatenate((dist[size - reach :], dist[: reach + 1]))
        vals.append(window_abs_moment(h * np.arange(-reach, reach + 1), window, p, T))
    (fine, hidden), (coarse, _) = vals
    return fine, 3.0 * abs(fine - coarse) + hidden


def truncated_abs_moment(
    law: GridLaw, p: float, sigma2_total: float, tol: float
) -> tuple[float, float]:
    """E|X|^p over the law with certified truncation of the far support.

    sigma2_total is a sub-Gaussian variance proxy for the whole sum (sum
    of the per-summand proxies); returns the moment and a certified error
    contribution (discarded tail bound + what the noise floor can hide).
    """
    T, tail = truncation_radius(p, sigma2_total, tol, law.effective_bound())
    value, hidden = window_abs_moment(law.positions, law.masses, p, T)
    value += math.fsum(m * abs(loc) ** p for loc, m in law.atoms.items() if loc != 0.0)
    return value, tail + hidden


def check_mass_conservation(law: GridLaw, expected: float, tol: float) -> None:
    leak = abs(law.total_mass() - expected)
    if leak > tol:
        raise GridTooSmallError(
            f"mass leak {leak:.3e} beyond the grid exceeds tolerance {tol:.1e}"
        )

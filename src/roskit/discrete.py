"""Exact arithmetic with finite atomic laws.

A law is a plain dict {location: mass}.  Convolutions sum supports and
multiply masses.  One support point reached along different paths comes
out as float sums that differ in their last bits, so each convolution sorts
its pair sums and merges every run of them that stays within a merge radius
(MERGE_RTOL times the largest possible |sum|: far above that noise, far
below the gaps between distinct points), and a k-fold power holds its true
support.  A run that chains past the radius keeps its distinct sums apart.
A merged key is the point of its run nearest zero, so sums of symmetric laws
stay exactly symmetric.  enum_abs_moment turns the radius and the rounding
into an error bound on the p-th absolute moment.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SupportOverflowError

MERGE_RTOL = 1e-12
_EPS = float(np.finfo(float).eps)
_CHUNK_PAIRS = 1 << 16  # bounds the temporaries to a few MB


def _arrays(d: dict):
    return (np.fromiter(v, float, len(d)) for v in (d.keys(), d.values()))


def _merge_runs(sums: np.ndarray, masses: np.ndarray, radius: float):
    """Keys and summed masses of the runs of sorted sums whose gaps and whole
    width stay within radius; each key is its run's point nearest zero."""
    gap = np.diff(sums, prepend=-np.inf)
    starts = np.flatnonzero(gap > radius)
    ends = np.append(starts[1:], sums.size)
    wide = sums[ends - 1] - sums[starts] > radius
    if wide.any():  # a chain of close points: only equal sums merge there
        starts = np.flatnonzero((gap > radius) | (np.repeat(wide, ends - starts) & (gap > 0.0)))
        ends = np.append(starts[1:], sums.size)
    return np.clip(0.0, sums[starts], sums[ends - 1]), np.add.reduceat(masses, starts)


def convolve_atoms(d1: dict, d2: dict, max_support: int | None = None) -> dict:
    """Law of X + Y for independent atomic X, Y, keyed in ascending order.

    Pairs are taken d1-major in chunks.  A chunk's sums within the merge
    radius of a key found in an earlier chunk join the nearest such key; the
    rest merge among themselves and are inserted in order.  Raises
    SupportOverflowError (an OverflowError) once the merged support exceeds
    max_support.
    """
    x1, m1 = _arrays(d1)
    x2, m2 = _arrays(d2)
    if not (x1.size and x2.size):
        return {}
    radius = MERGE_RTOL * (np.abs(x1).max() + np.abs(x2).max())
    keys, masses = np.zeros(0), np.zeros(0)
    rows = max(1, _CHUNK_PAIRS // x2.size)
    for start in range(0, x1.size, rows):
        sums = np.add.outer(x1[start:start + rows], x2).ravel()
        order = np.argsort(sums)
        sums = sums[order]
        products = np.multiply.outer(m1[start:start + rows], m2).ravel()[order]
        if keys.size:
            above = np.searchsorted(keys, sums).clip(max=keys.size - 1)
            below = (above - 1).clip(min=0)
            near = np.where(sums - keys[below] <= keys[above] - sums, below, above)
            hit = np.abs(keys[near] - sums) <= radius
            masses += np.bincount(near[hit], products[hit], minlength=keys.size)
            sums, products = sums[~hit], products[~hit]
            if not sums.size:
                continue
        new_keys, new_masses = _merge_runs(sums, products, radius)
        if max_support is not None and keys.size + new_keys.size > max_support:
            raise SupportOverflowError(
                f"atomic convolution support {keys.size + new_keys.size} "
                f"exceeds cap {max_support}"
            )
        at = np.searchsorted(keys, new_keys)
        keys, masses = np.insert(keys, at, new_keys), np.insert(masses, at, new_masses)
    return dict(zip(keys.tolist(), masses.tolist()))


def scale_atoms(d: dict, c: float) -> dict:
    out: dict = {}
    for x, m in d.items():
        key = c * x
        out[key] = out.get(key, 0.0) + m
    return out


def thin_atoms(d: dict, activation: float) -> dict:
    """Bernoulli thinning: the law of theta*X with P(theta=1) = activation."""
    out = {x: activation * m for x, m in d.items() if x != 0.0}
    out[0.0] = d.get(0.0, 0.0) * activation + (1.0 - activation)
    return out


def abs_moment_atoms(d: dict, p: float) -> float:
    locs, masses = _arrays(d)
    keep = locs != 0.0
    return math.fsum((masses[keep] * np.abs(locs[keep]) ** p).tolist())


def enum_abs_moment(dist: dict, p: float, laws) -> tuple[float, float]:
    """abs_moment_atoms(dist, p) for dist = nfold_atoms(laws), and a bound on
    its distance from E|S|^p of the exact sum S of the laws.

    The i-th convolution rounds each sum once and merges it into a key within
    its radius, both relative to reach_i, the sum of max |x| over laws[:i+1]
    (the scaling of a law rounds once more), so each key lies within delta =
    (MERGE_RTOL + 2 eps) sum_i reach_i of the points it stands for and moves
    |x|^p by at most p delta (|x| + delta)^(p-1).  Each mass carries one
    product and a sum of at most len(law) terms per convolution, and each
    moment term a rounded power and product before the exactly rounded fsum.
    """
    value = abs_moment_atoms(dist, p)
    reach = np.cumsum([max(map(abs, law)) for law in laws])
    delta = (MERGE_RTOL + 2.0 * _EPS) * float(reach.sum())
    locs, masses = _arrays(dist)
    shift = p * delta * float((masses * (np.abs(locs) + delta) ** (p - 1.0)).sum())
    rounding = (sum(len(law) + 1 for law in laws) + 3) * _EPS * value
    return value, shift + rounding


def nfold_atoms(laws: list[dict], max_support: int | None = None) -> dict:
    acc = {0.0: 1.0}
    for law in laws:
        acc = convolve_atoms(acc, law, max_support=max_support)
    return acc

"""Exact arithmetic with finite atomic laws.

A law is a plain dict {location: mass}.  The law of a sum of independent
laws is multiplied out inside this module on (locs, masses) arrays, one
factor at a time: every point of the partial sum plus every atom of the next
law, every mass times every mass.  One support point reached along different
paths comes out as float sums that differ in their last bits, so each
factor's pair sums are sorted and every run of them that stays within a
merge radius (MERGE_RTOL times the largest possible |sum|: far above that
noise, far below the gaps between distinct points) is merged, and the sum
holds its true support.  A run that chains past the radius keeps its
distinct sums apart.  A merged key is the point of its run nearest zero, so
sums of symmetric laws stay exactly symmetric.

Merging at every factor keeps each partial sum as small as its support (n
equal random signs stay at 2n + 1 points).  The pairs are taken atom-major,
so a factor's sums are len(law) ascending runs, which a stable sort merges.
enum_sum and enum_powers turn the radius and the rounding into an error
bound on the p-th absolute moment.  The moment's N terms are nonnegative
and are summed pairwise, in d = ceil(log2 N) vectorised halvings, which
adds d eps value to the bound's rounding term.  A merged key moves |x|^p
by at most p delta (|x| + delta)^(p-1) for p >= 1, and by delta^p below,
where t^p is subadditive.
"""

from __future__ import annotations

import numpy as np

from .errors import SupportOverflowError

MERGE_RTOL = 1e-12
_EPS = float(np.finfo(float).eps)
_CHUNK_PAIRS = 1 << 16  # bounds the temporaries to a few MB


def _pair(law: dict) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.fromiter(v, float, len(law)) for v in (law.keys(), law.values()))


def _merge_runs(sums: np.ndarray, masses: np.ndarray, radius: float):
    """Keys and summed masses of the runs of sorted sums whose gaps and whole
    width stay within radius; each key is its run's point nearest zero."""
    gap = np.diff(sums, prepend=-np.inf)
    starts = np.flatnonzero(gap > radius)
    if starts.size == sums.size:  # no two sums within radius
        return sums, masses
    ends = np.append(starts[1:], sums.size)
    wide = sums[ends - 1] - sums[starts] > radius
    if wide.any():  # a chain of close points: only equal sums merge there
        starts = np.flatnonzero((gap > radius) | (np.repeat(wide, ends - starts) & (gap > 0.0)))
        ends = np.append(starts[1:], sums.size)
    return np.clip(0.0, sums[starts], sums[ends - 1]), np.add.reduceat(masses, starts)


def _check_cap(support: int, max_support: int | None) -> None:
    if max_support is not None and support > max_support:
        raise SupportOverflowError(
            f"atomic convolution support {support} exceeds cap {max_support}")


def _sorted_pairs(x1, m1, x2, m2):
    """Every sum x1 + x2, sorted, and its mass product.  Taken x2-major, the
    sums are x2.size runs that ascend when x1 does."""
    sums = np.add.outer(x2, x1).ravel()
    order = np.argsort(sums, kind="stable")
    return sums[order], np.multiply.outer(m2, m1).ravel()[order]


def _convolve(x1, m1, x2, m2, max_support: int | None):
    """The merged law of the sum of a merged law (x1, m1), keys ascending, and
    (x2, m2), both nonempty.

    Pairs are taken in chunks of _CHUNK_PAIRS, a slice of x1 at a time.  A
    chunk's sums within the merge radius of a key found in an earlier chunk
    join the nearest such key; the rest merge among themselves and are
    inserted in order.  The cap is checked as keys are inserted.
    """
    radius = MERGE_RTOL * (max(-x1[0], x1[-1]) + np.abs(x2).max())
    rows = max(1, _CHUNK_PAIRS // x2.size)
    keys, masses = _merge_runs(*_sorted_pairs(x1[:rows], m1[:rows], x2, m2), radius)
    _check_cap(keys.size, max_support)
    for start in range(rows, x1.size, rows):
        sums, products = _sorted_pairs(x1[start:start + rows], m1[start:start + rows], x2, m2)
        above = np.searchsorted(keys, sums).clip(max=keys.size - 1)
        below = (above - 1).clip(min=0)
        near = np.where(sums - keys[below] <= keys[above] - sums, below, above)
        hit = np.abs(keys[near] - sums) <= radius
        masses += np.bincount(near[hit], products[hit], minlength=keys.size)
        sums, products = sums[~hit], products[~hit]
        if not sums.size:
            continue
        new_keys, new_masses = _merge_runs(sums, products, radius)
        _check_cap(keys.size + new_keys.size, max_support)
        at = np.searchsorted(keys, new_keys)
        keys, masses = np.insert(keys, at, new_keys), np.insert(masses, at, new_masses)
    return keys, masses


def _partial_sums(laws: list[dict], max_support: int | None):
    """Yield (locs, masses) of the sum of laws[:i], keys ascending, for i = 0,
    1, ..., len(laws); SupportOverflowError once a support exceeds
    max_support."""
    locs, masses = np.zeros(1), np.ones(1)
    yield locs, masses
    for law in laws:
        if locs.size and law:
            locs, masses = _convolve(locs, masses, *_pair(law), max_support)
        else:
            locs, masses = np.zeros(0), np.zeros(0)
        yield locs, masses


def _nfold(laws: list[dict], max_support: int | None) -> tuple[np.ndarray, np.ndarray]:
    for locs, masses in _partial_sums(laws, max_support):
        pass
    return locs, masses


def _depth(n: int) -> int:
    """d = ceil(log2 n), the halvings _pairwise_sum takes on n terms (0 for n <= 1)."""
    return max(n - 1, 0).bit_length()


def _pairwise_sum(terms: np.ndarray) -> float:
    """The sum of nonnegative terms by halving: padded with zeros to 2^d terms,
    d = _depth(terms.size), the two contiguous halves are added until one value
    is left.  Each term passes at most d roundings, so the sum is within
    d eps times itself (Higham, SIAM J. Sci. Comput. 14, 1993)."""
    size = 1 << _depth(terms.size)
    acc = np.zeros(size)
    acc[:terms.size] = terms
    while size > 1:
        size //= 2
        np.add(acc[:size], acc[size:2 * size], out=acc[:size])
    return float(acc[0])


def _abs_moment(ax: np.ndarray, masses: np.ndarray, p: float) -> float:
    """The sum of masses |x|^p over the nonzero |x| = ax, by _pairwise_sum:
    within _depth(ax.size) eps of the sum of the rounded terms."""
    keep = ax != 0.0
    return _pairwise_sum(masses[keep] * ax[keep] ** p)


def _enum_moment(locs: np.ndarray, masses: np.ndarray, p: float, laws: list[dict]):
    """The moment of the enumerated sum (locs, masses) of laws, and its bound
    (see enum_sum)."""
    ax = np.abs(locs)
    value = _abs_moment(ax, masses, p)
    reach = np.cumsum([max(map(abs, law)) for law in laws])
    delta = (MERGE_RTOL + 2.0 * _EPS) * float(reach.sum())
    if p < 1.0:  # t^p is subadditive: | |x'|^p - |x|^p | <= delta^p
        shift = delta ** p * float(masses.sum())
    else:
        shift = p * delta * float((masses * (ax + delta) ** (p - 1.0)).sum())
    rounding = (sum(len(law) + 1 for law in laws) + 2 + _depth(locs.size)) * _EPS * value
    return value, shift + rounding


def convolve_atoms(d1: dict, d2: dict, max_support: int | None = None) -> dict:
    """Law of X + Y for independent atomic X, Y, keyed in ascending order;
    SupportOverflowError (an OverflowError) once the merged support exceeds
    max_support."""
    return nfold_atoms([d1, d2], max_support)


def nfold_atoms(laws: list[dict], max_support: int | None = None) -> dict:
    """Law of the sum of independent atomic laws, keyed in ascending order;
    SupportOverflowError once a partial sum's support exceeds max_support."""
    locs, masses = _nfold(laws, max_support)
    return dict(zip(locs.tolist(), masses.tolist()))


def abs_moment_atoms(d: dict, p: float) -> float:
    locs, masses = _pair(d)
    return _abs_moment(np.abs(locs), masses, p)


def enum_sum(laws: list[dict], p: float,
             max_support: int | None = None) -> tuple[float, float, int]:
    """(E|S|^p, error bound, support size) for the sum S of independent atomic
    laws by exact enumeration; SupportOverflowError once a partial sum's
    support exceeds max_support.

    The i-th factor rounds each sum once and merges it into a key within its
    radius, both relative to reach_i, the sum of max |x| over laws[:i+1] (the
    scaling of a law rounds once more), so each key lies within delta =
    (MERGE_RTOL + 2 eps) sum_i reach_i of the points it stands for and moves
    |x|^p by at most p delta (|x| + delta)^(p-1) for p >= 1; for p < 1, where
    t^p is subadditive, by at most delta^p, so the shift term is delta^p
    times the total mass.  Each mass carries one product and a sum of at
    most len(law) terms per factor (a thinned zero atom rounds twice), and
    each moment term a rounded power and product.  The N terms, all
    nonnegative, are summed pairwise in d = ceil(log2 N) halvings, each term
    through at most d roundings, which adds at most d eps value.  So the
    rounding term is (sum_i (len(law_i) + 1) + 2 + d) eps value.
    """
    locs, masses = _nfold(laws, max_support)
    return (*_enum_moment(locs, masses, p, laws), locs.size)


def enum_powers(law: dict, ks, p: float, max_support: int) -> tuple[dict, int]:
    """E|S_k|^p for each requested k >= 1, S_k the sum of k independent
    copies of law, by exact convolution powers.

    Returns ({k: (value, error bound)}, support size of the largest power),
    the bound as in enum_sum; SupportOverflowError once a power's support
    exceeds max_support.
    """
    wanted = set(ks)
    values = {}
    for k, (locs, masses) in enumerate(_partial_sums([law] * max(wanted), max_support)):
        if k in wanted:
            values[k] = _enum_moment(locs, masses, p, [law] * k)
    return values, locs.size

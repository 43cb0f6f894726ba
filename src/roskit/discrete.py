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

enum_sum meets in the middle (Horowitz and Sahni, J. ACM 21, 1974) where a
tuple of n >= 4 laws has nothing to merge: it enumerates the halves
laws[:n // 2] and laws[n // 2:] as above, and where no two laws of the
tuple are equal (two copies of a law, one in each half, put the sums x + y
and y + x on one point) and neither half merged a point (each half's
support is the product of its laws' sizes) it sums
m_a m_b |a + b|^p over every pair across them, in chunks of rows, with no
sort and no merge: |A| + |B| points are enumerated in place of |A| |B|.
Every other tuple, one whose |A| |B| terms exceed the support cap among
them, and enum_powers take the merged enumeration of the whole tuple, which
refuses only a support past the cap.
"""

from __future__ import annotations

import math

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


def _partial_sums(laws: list[dict], max_support: int | None, locs=None, masses=None):
    """Yield (locs, masses) of the sum of laws[:i], keys ascending, for i = 0,
    1, ..., len(laws), added to the merged law (locs, masses) if given, else
    to a point mass at 0; SupportOverflowError once a support exceeds
    max_support."""
    if locs is None:
        locs, masses = np.zeros(1), np.ones(1)
    yield locs, masses
    for law in laws:
        if locs.size and law:
            locs, masses = _convolve(locs, masses, *_pair(law), max_support)
        else:
            locs, masses = np.zeros(0), np.zeros(0)
        yield locs, masses


def _nfold(laws: list[dict], max_support: int | None, *start) -> tuple[np.ndarray, np.ndarray]:
    for locs, masses in _partial_sums(laws, max_support, *start):
        pass
    return locs, masses


def _unmerged(laws: list[dict], max_support: int | None):
    """(locs, masses) of the sum of laws where no factor merged a point, else
    None, stopped at the first factor that did."""
    sums = _partial_sums(laws, max_support)
    locs, masses = next(sums)
    size = 1
    for law, (locs, masses) in zip(laws, sums):
        size *= len(law)
        if locs.size < size:
            return None
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


def _delta(laws: list[dict]) -> float:
    """How far a key of the sum of laws may lie from its points (see enum_sum)."""
    reach = np.cumsum([max(map(abs, law)) for law in laws])
    return (MERGE_RTOL + 2.0 * _EPS) * float(reach.sum())


def _enum_moment(locs: np.ndarray, masses: np.ndarray, p: float, laws: list[dict]):
    """The moment of the enumerated sum (locs, masses) of laws, and its bound
    (see enum_sum)."""
    ax = np.abs(locs)
    value = _abs_moment(ax, masses, p)
    delta = _delta(laws)
    if p < 1.0:  # t^p is subadditive: | |x'|^p - |x|^p | <= delta^p
        shift = delta ** p * float(masses.sum())
    else:
        shift = p * delta * float((masses * (ax + delta) ** (p - 1.0)).sum())
    rounding = (sum(len(law) + 1 for law in laws) + 2 + _depth(locs.size)) * _EPS * value
    return value, shift + rounding


def _cross_moment(x1, m1, x2, m2, p: float) -> tuple[float, int]:
    """The sum of m1[i] m2[j] |x1[i] + x2[j]|^p over every pair, and the
    roundings its pairwise sums put each term through.

    The pairs are taken a slice of x1 at a time, _CHUNK_PAIRS of them; each
    chunk's terms are summed by _pairwise_sum, then the chunk totals are."""
    rows = max(1, _CHUNK_PAIRS // max(x2.size, 1))
    totals = []
    for start in range(0, x1.size, rows):
        terms = np.abs(np.add.outer(x1[start:start + rows], x2))
        np.power(terms, p, out=terms)
        terms *= np.multiply.outer(m1[start:start + rows], m2)
        totals.append(_pairwise_sum(terms.ravel()))
    depth = _depth(min(rows, x1.size) * x2.size) + _depth(len(totals))
    return _pairwise_sum(np.array(totals)), depth


def _cross_result(first, second, p: float, laws: list[dict]):
    """enum_sum's (value, bound, term count) across the unmerged sums of the
    halves, first = (locs, masses) and second."""
    (x1, m1), (x2, m2) = first, second
    terms = x1.size * x2.size
    value, depth = _cross_moment(x1, m1, x2, m2, p)
    rounding = (sum(len(law) + 1 for law in laws) + 3 + depth) * _EPS * value
    delta = _delta(laws)
    mass = float(m1.sum()) * float(m2.sum())
    if p < 1.0:
        shift = delta ** p * mass
    else:  # Hoelder with exponents p and p / (p - 1), then Minkowski in L^p
        m = mass ** (1.0 / p)
        shift = p * delta * m * ((value + rounding) ** (1.0 / p) + delta * m) ** (p - 1.0)
    return value, shift + rounding, terms


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
    laws by exact enumeration, p > 0; SupportOverflowError once a partial
    sum's support exceeds max_support.

    The route (see the module docstring): a tuple of n >= 4 distinct laws
    whose halves laws[:n // 2] and laws[n // 2:] merge no point, and whose
    halves' supports A and B give at most max_support terms |A| |B|, takes
    the cross route, the sum over every pair of a point a of the first
    half's sum and b of the second's; any other tuple is enumerated whole,
    merged at every factor.

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

    On the cross route each sum a + b rounds once more, within eps reach_n,
    so it too lies within delta of its point.  Each term's mass is one more
    product m_a m_b, and d is the depth of a chunk's pairwise sum plus that
    of the sum of the chunk totals: the rounding term is (sum_i (len(law_i)
    + 1) + 3 + d) eps value.  The shift term is a closed form in the
    computed value V inflated by that rounding term, and the total mass M,
    in place of a second power pass over the terms: for p >= 1, Hoelder with
    exponents p and p/(p-1) bounds the sum of m (|x| + delta)^(p-1) by
    M^(1/p) times the (p-1)-th power of the L^p norm of |x| + delta, and
    Minkowski that norm by V^(1/p) + delta M^(1/p), so the shift term is
    p delta M^(1/p) (V^(1/p) + delta M^(1/p))^(p-1); below, delta^p M.
    There the third value is the term count |A| |B|, the support itself for
    generic laws and an upper bound on it where sums across the halves fall
    on one point (+-1, +-2, +-3, +-4: 16 terms on 11 points).
    """
    half = len(laws) // 2
    first = _nfold(laws[:half], max_support)
    if (half >= 2 and len({frozenset(law.items()) for law in laws}) == len(laws)
            and first[0].size == math.prod(len(law) for law in laws[:half])):
        second = _unmerged(laws[half:], max_support)
        if second is not None and (max_support is None
                                   or first[0].size * second[0].size <= max_support):
            return _cross_result(first, second, p, laws)
    locs, masses = _nfold(laws[half:], max_support, *first)
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

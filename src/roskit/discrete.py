"""Exact arithmetic with finite atomic laws.

A law is a plain dict {location: mass}.  The law of a sum of independent
laws is multiplied out inside this module on (locs, masses) arrays, one
factor at a time: every point of the partial sum plus every atom of the next
law, every mass times every mass.  One support point reached along different
paths comes out as float sums that differ in their last bits, so each
factor's pair sums are sorted and every run of them that stays within a
merge radius (MERGE_RTOL times the largest possible |sum|: far above that
noise, far below the gaps between distinct points) is merged, and the sum
holds its true support (n equal random signs stay at 2n + 1 points).  A
run that chains past the radius keeps its distinct sums apart.  A merged key
is the point of its run nearest zero, so sums of symmetric laws stay exactly
symmetric.  The pairs are taken atom-major, so a factor's sums are len(law)
ascending runs, which a stable sort merges.

enum_sum takes the first of four routes that applies (bounds in its
docstring; a moment's N nonnegative terms are summed pairwise in d =
ceil(log2 N) vectorised halvings, which adds d eps value to each):
- the even-p series: at p = 2k, where every law is symmetric (law[-x] ==
  law[x]), E S^(2k) = (2k)! [w^k] prod_j sum_i E X_j^(2i) w^i / (2i)! is a
  product of series with nonnegative coefficients; nothing is enumerated;
- the outer pass: at most _OUTER_TERMS paths, every path sum and mass by
  np.add.outer and np.multiply.outer a law at a time, unmerged;
- the cross route, meet in the middle (Horowitz and Sahni, J. ACM 21,
  1974): on n >= 4 distinct laws (two copies of a law, one in each half,
  would put x + y and y + x on one point) whose halves laws[:n // 2] and
  laws[n // 2:] merge no point (the merged enumeration of each keeps every
  path), the sum of m_a m_b |a + b|^p over every pair across them, in
  chunks of rows, unmerged;
- the merged enumeration: every other tuple, one whose terms pass the
  support cap among them, going on from the merged sum of its first half,
  and enum_powers.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import SupportOverflowError

MERGE_RTOL = 1e-12
_EPS = float(np.finfo(float).eps)
_CHUNK_PAIRS = 1 << 16  # bounds the temporaries to a few MB
# At p = 5.37 on 2-core x86-64 the outer pass took 0.35-0.6 of the other routes'
# time on 625 to 15,625 paths, but 1.3-1.5 times theirs on 16,807 and 19,683
_OUTER_TERMS = 1 << 13


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


def _outer(laws: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    """Every path sum of laws and its mass, unmerged."""
    locs, masses = np.zeros(1), np.ones(1)
    for law in laws:
        x, m = _pair(law)
        locs, masses = np.add.outer(x, locs).ravel(), np.multiply.outer(m, masses).ravel()
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


def _delta(laws: list[dict], rtol: float = MERGE_RTOL) -> float:
    """How far a key of the sum of laws, merged within rtol, may lie from its
    points (see enum_sum)."""
    reach = np.cumsum([max(map(abs, law), default=0.0) for law in laws])
    return (rtol + 2.0 * _EPS) * float(reach.sum())


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


def _path_bound(value: float, mass: float, depth: int, p: float, laws: list[dict]) -> float:
    """The bound of a moment value over the unmerged path sums of laws, of
    total mass mass, summed pairwise through depth roundings (see enum_sum)."""
    rounding = (3 * len(laws) + 1 + depth) * _EPS * value
    delta = _delta(laws, 0.0)
    if p < 1.0:
        return delta ** p * mass + rounding
    # Hoelder with exponents p and p / (p - 1), then Minkowski in L^p
    m = mass ** (1.0 / p)
    return p * delta * m * ((value + rounding) ** (1.0 / p) + delta * m) ** (p - 1.0) + rounding


def _even_moment(laws: list[dict], k: int):
    """(E S^(2k), bound) of the sum S of symmetric laws by the moment series,
    else None (see enum_sum)."""
    if any(law.get(-x) != m for law in laws for x, m in law.items()):
        return None
    fact = [float(math.factorial(2 * i)) for i in range(k + 1)]
    a, floor = [1.0] + [0.0] * k, 1.0 / fact[k]
    for law in laws:
        c = [0.0] * (k + 1)
        for x, m in law.items():
            for i in range(k + 1):
                c[i], m = c[i] + m, m * x * x
        c = [ci / f for ci, f in zip(c, fact)]
        a = [sum(a[j - i] * c[i] for i in range(j + 1)) for j in range(k + 1)]
        floor *= min((m * (min(1.0, x * x) ** k if x else 1.0) for x, m in law.items() if m > 0.0),
                     default=0.0)
    value = float(fact[k] * a[k])
    if not (math.isfinite(value) and floor > sys.float_info.min):
        return None
    return value, (len(laws) * (k + 2) + sum(map(len, laws)) + 2 * k + 2) * _EPS * value


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
    laws, p > 0, by the first route of the module docstring that applies;
    SupportOverflowError once an enumerated support exceeds max_support.
    The series, the outer pass and the cross route report the term count
    (prod_j len(law_j), or |A| |B| across the halves): the support itself
    for generic laws, an upper bound where sums collide (+-1, +-2, +-3, +-4:
    16 terms on 11 points).  The series refuses no cap.

    Merged enumeration.  The i-th factor rounds each sum once and merges it
    into a key within its radius, both relative to reach_i, the sum of max
    |x| over laws[:i+1] (the scaling of a law rounds once more), so each key
    lies within delta = (MERGE_RTOL + 2 eps) sum_i reach_i of the points it
    stands for and moves |x|^p by at most p delta (|x| + delta)^(p-1) for p
    >= 1; for p < 1, where t^p is subadditive, by at most delta^p, so the
    shift term is delta^p times the total mass.  Each mass carries one
    product and a sum of at most len(law) terms per factor (a thinned zero
    atom rounds twice), and each moment term a rounded power and product:
    the rounding term is (sum_i (len(law_i) + 1) + 2 + d) eps value.

    Outer pass and cross route.  A point is its path's float sum: n - 1
    roundings (on the cross route the last is a + b) and the scaling of
    each law keep it within delta = 2 eps sum_i reach_i of the exact sum.
    A mass is n - 1 products of the laws' masses (each up to two roundings
    from thinning) and a term one more power and product: the rounding term
    is (3 n + 1 + d) eps value, d on the cross route a chunk's depth plus
    that of the chunk totals.  The shift term is a closed form in the
    computed value V, inflated by the rounding term, and the total mass M:
    Hoelder with exponents p and p/(p-1), then Minkowski in L^p, give p
    delta M^(1/p) (V^(1/p) + delta M^(1/p))^(p-1) for p >= 1; below,
    delta^p M.

    Even-p series, p = 2k <= 170.  A law's coefficient E X^(2i) / (2i)!
    passes 2i roundings in m x x ... x, L - 1 in the sum over its L atoms
    and two in the division by the float (2i)!; each of the n convolutions
    adds a product and at most k sums, and the product by (2k)! two.  So a
    term of the result, one coefficient per law with sum_j i_j = k, passes
    R = n (k + 2) + sum_j L_j + 2k + 2 roundings, on nonnegative numbers
    only (as in fourier._sum_taylor): the bound is R eps value.  A tuple is
    left to the other routes where a law is not symmetric, the value
    overflows, or a term may fall below the normal floats (the product over
    the laws of their least m min(1, x^2)^k, over (2k)!, bounds all from below).
    """
    terms = math.prod(len(law) for law in laws)
    if p % 2.0 == 0.0 and 2.0 <= p <= 170.0:  # (2k)! fits a float up to 170!
        series = _even_moment(laws, int(p) // 2)
        if series is not None:
            return (*series, terms)
    if terms <= _OUTER_TERMS and (max_support is None or terms <= max_support):
        locs, masses = _outer(laws)
        value = _abs_moment(np.abs(locs), masses, p)
        return value, _path_bound(value, float(masses.sum()), _depth(terms), p, laws), terms
    half = len(laws) // 2
    first = _nfold(laws[:half], max_support)
    if (half >= 2 and len({frozenset(law.items()) for law in laws}) == len(laws)
            and first[0].size == math.prod(len(law) for law in laws[:half])):
        (x1, m1), (x2, m2) = first, _nfold(laws[half:], max_support)
        if x1.size * x2.size == terms and (max_support is None or terms <= max_support):
            value, depth = _cross_moment(x1, m1, x2, m2, p)
            mass = float(m1.sum()) * float(m2.sum())
            return value, _path_bound(value, mass, depth, p, laws), terms
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

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
  and enum_powers at non-even p (at even p on a symmetric law, the series).

uniform_sum takes the moment of a sum of thinned uniforms the same way as
the outer pass, a signed sum over its activity and sign paths (bound in its
docstring).
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

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


def _shift_below_one(ax: np.ndarray, masses: np.ndarray, p: float, delta: float) -> float:
    """For p < 1, the sum of masses times how far |x|^p moves where x moves by
    delta, |x| = ax: p delta (|x| - delta)^(p-1), the largest slope of the
    concave t^p on [|x| - delta, |x| + delta], where |x| > delta; delta^p, as
    t^p is subadditive, within delta of zero."""
    far = ax > delta
    return (p * delta * float((masses[far] * (ax[far] - delta) ** (p - 1.0)).sum())
            + delta ** p * float(masses[~far].sum()))


def _enum_moment(locs: np.ndarray, masses: np.ndarray, p: float, laws: list[dict]):
    """The moment of the enumerated sum (locs, masses) of laws, and its bound
    (see enum_sum)."""
    ax = np.abs(locs)
    value = _abs_moment(ax, masses, p)
    delta = _delta(laws)
    if p < 1.0:
        shift = _shift_below_one(ax, masses, p, delta)
    else:
        shift = p * delta * float((masses * (ax + delta) ** (p - 1.0)).sum())
    rounding = (sum(len(law) + 1 for law in laws) + 2 + _depth(locs.size)) * _EPS * value
    return value, shift + rounding


def _cross_moment(x1, m1, x2, m2, p: float, delta: float) -> tuple[float, int, float]:
    """The sum of m1[i] m2[j] |x1[i] + x2[j]|^p over every pair, the roundings
    its pairwise sums put each term through, and for p < 1 their
    _shift_below_one at delta (else 0).

    The pairs are taken a slice of x1 at a time, _CHUNK_PAIRS of them; each
    chunk's terms are summed by _pairwise_sum, then the chunk totals are."""
    rows = max(1, _CHUNK_PAIRS // max(x2.size, 1))
    totals, shift = [], 0.0
    for start in range(0, x1.size, rows):
        ax = np.abs(np.add.outer(x1[start:start + rows], x2)).ravel()
        masses = np.multiply.outer(m1[start:start + rows], m2).ravel()
        if p < 1.0:
            shift += _shift_below_one(ax, masses, p, delta)
        totals.append(_pairwise_sum(masses * ax ** p))
    depth = _depth(min(rows, x1.size) * x2.size) + _depth(len(totals))
    return _pairwise_sum(np.array(totals)), depth, shift


def _path_bound(value: float, mass: float, depth: int, p: float, laws: list[dict],
                shift: float) -> float:
    """The bound of a moment value over the unmerged path sums of laws, of
    total mass mass, summed pairwise through depth roundings; for p < 1 the
    shift term is the given _shift_below_one of the paths (see enum_sum)."""
    rounding = (3 * len(laws) + 1 + depth) * _EPS * value
    delta = _delta(laws, 0.0)
    if p < 1.0:
        return shift + rounding
    # Hoelder with exponents p and p / (p - 1), then Minkowski in L^p
    m = mass ** (1.0 / p)
    return p * delta * m * ((value + rounding) ** (1.0 / p) + delta * m) ** (p - 1.0) + rounding


def _even_moments(laws: list[dict], k: int, at) -> dict | None:
    """{i: (E S_i^(2k), bound)} for S_i the sum of laws[:i], i in at, by the
    moment series, each distinct law's coefficients taken once; None where a
    law is not symmetric or a wanted value leaves the normal floats (see enum_sum)."""
    distinct = {id(law): law for law in laws}.values()
    if any(law.get(-x) != m for law in distinct for x, m in law.items()):
        return None
    fact = [float(math.factorial(2 * i)) for i in range(k + 1)]
    a, floor, atoms = [1.0] + [0.0] * k, 1.0 / fact[k], 0
    coefs, out = {}, {}
    for i, law in enumerate(laws, 1):
        if id(law) not in coefs:
            c = [0.0] * (k + 1)
            for x, m in law.items():
                for j in range(k + 1):
                    c[j], m = c[j] + m, m * x * x
            least = min((m * (min(1.0, x * x) ** k if x else 1.0)
                         for x, m in law.items() if m > 0.0), default=0.0)
            coefs[id(law)] = [cj / f for cj, f in zip(c, fact)], least
        c, least = coefs[id(law)]
        a = [sum(a[j - l] * c[l] for l in range(j + 1)) for j in range(k + 1)]
        floor, atoms = floor * least, atoms + len(law)
        if i in at:
            value = float(fact[k] * a[k])
            if not (math.isfinite(value) and floor > sys.float_info.min):
                return None
            out[i] = value, (i * (k + 2) + atoms + 2 * k + 2) * _EPS * value
    return out


def _even_moment(laws: list[dict], k: int):
    """(E S^(2k), bound) of the sum S of symmetric laws by the moment series,
    else None (see enum_sum)."""
    if not laws:
        return 0.0, 0.0
    out = _even_moments(laws, k, {len(laws)})
    return None if out is None else out[len(laws)]


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
    >= 1; for p < 1 by at most p delta (|x| - delta)^(p-1) where |x| >
    delta (t^p is concave) and delta^p within delta of zero (t^p is
    subadditive), _shift_below_one.  Each mass carries one
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
    delta M^(1/p) (V^(1/p) + delta M^(1/p))^(p-1) for p >= 1; below, the
    per-point _shift_below_one of the paths.

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
        ax = np.abs(locs)
        value = _abs_moment(ax, masses, p)
        shift = _shift_below_one(ax, masses, p, _delta(laws, 0.0)) if p < 1.0 else 0.0
        return value, _path_bound(value, float(masses.sum()), _depth(terms), p, laws, shift), terms
    half = len(laws) // 2
    first = _nfold(laws[:half], max_support)
    if (half >= 2 and len({frozenset(law.items()) for law in laws}) == len(laws)
            and first[0].size == math.prod(len(law) for law in laws[:half])):
        (x1, m1), (x2, m2) = first, _nfold(laws[half:], max_support)
        if x1.size * x2.size == terms and (max_support is None or terms <= max_support):
            value, depth, shift = _cross_moment(x1, m1, x2, m2, p, _delta(laws, 0.0))
            mass = float(m1.sum()) * float(m2.sum())
            return value, _path_bound(value, mass, depth, p, laws, shift), terms
    locs, masses = _nfold(laws[half:], max_support, *first)
    return (*_enum_moment(locs, masses, p, laws), locs.size)


def enum_powers(law: dict, ks, p: float, max_support: int) -> tuple[dict, int]:
    """E|S_k|^p for each requested k >= 1, S_k the sum of k independent
    copies of law: at even p = 2k <= 170 on a symmetric law, by the even-p
    series of enum_sum, one product of series per copy; else by exact
    convolution powers.

    Returns ({k: (value, error bound)}, support size of the largest power, or
    its term count len(law)^k where the series serves), the bound as in
    enum_sum; SupportOverflowError once an enumerated power's support exceeds
    max_support (the series refuses no cap).
    """
    wanted = set(ks)
    if p % 2.0 == 0.0 and 2.0 <= p <= 170.0:
        series = _even_moments([law] * max(wanted), int(p) // 2, wanted)
        if series is not None:
            return series, len(law) ** max(wanted)
    values = {}
    for k, (locs, masses) in enumerate(_partial_sums([law] * max(wanted), max_support)):
        if k in wanted:
            values[k] = _enum_moment(locs, masses, p, [law] * k)
    return values, locs.size


@functools.lru_cache(maxsize=64)
def _antiderivative_coefs(p: float, n: int) -> np.ndarray:
    """1 / ((p + 1) ... (p + m)) for m = 0..n, each rounded once from the exact product."""
    out, prod = [1.0], Fraction(1)
    for m in range(1, n + 1):
        prod *= Fraction(p) + m
        out.append(float(1 / prod))
    return np.array(out)


def uniform_sum(scales, activations, p: float, width: float = 1.0,
                max_paths: int | None = None) -> tuple[float, float, int] | None:
    """(E|S|^p, error bound, path count) for S = sum_j theta_j c_j U_j, U_j
    uniform on [-width, width] and P(theta_j = 1) = mu_j, p >= 1; None where
    the paths pass max_paths, the weights leave the normal floats or the
    value overflows one.

    Given its active summands, S has the density of a sum of uniforms, and
    E|S|^p = sum_eps (prod_j eps_j) G_m(sum_j eps_j a_j) / prod_j (2 a_j) over
    the 2^m sign patterns, a_j = c_j width and G_m(x) = sgn(x)^m |x|^(p+m) /
    ((p+1)...(p+m)) the m-th antiderivative of |x|^p.  So E|S|^p is a signed
    sum over 3^n paths (summand j off, weight 1 - mu_j; or at +-a_j, weight
    +-mu_j / (2 a_j); an unthinned summand has no off path), built as the
    outer pass builds atomic sums, with no sort and no merge, and summed by
    math.fsum.  The scales are first divided by a power of two 2^e above
    their sum, exactly, so every |x| <= 1, and the value is scaled back by
    (2^e width)^p.

    The bound.  A weight passes 2n - 1 roundings, G_m two powers (each
    within an ulp), two products, its coefficient (the exact product rounded
    once) and its product; with fsum's last rounding and the scaling back,
    each term is within (2n + 8) eps of itself, and the weights are signed,
    so the rounding term charges the sum of |term|.  A path sum x is n - 1
    roundings from its exact value, within delta = n eps s (s the sum of its
    active a_j), which moves w G_m(x) by at most |w| (p + m) (|x| +
    delta)^(p+m-1) delta / ((p+1)...(p+m)).  A power may underflow: each
    term's operations add at most 2^-1070 (|w| + 1) beyond the relative
    roundings, the weights themselves staying normal.
    """
    live = [(float(c), float(mu)) for c, mu in zip(scales, activations) if c > 0.0 and mu > 0.0]
    paths = math.prod(2 if mu >= 1.0 else 3 for _, mu in live)
    if max_paths is not None and paths > max_paths:
        return None
    if not live:
        return 0.0, 0.0, 1
    e = math.frexp(math.fsum(c for c, _ in live))[1]
    x, w, m, s = np.zeros(1), np.ones(1), np.zeros(1, dtype=np.int64), np.zeros(1)
    low = high = 1.0  # bounds on the magnitude of every partial product of weights
    for c, mu in live:
        a = math.ldexp(c, -e)
        if a < sys.float_info.min:
            return None
        on, off = mu / (2.0 * a), 1.0 - mu
        paths_of = slice(None) if off > 0.0 else slice(2)  # (+a, -a, off)
        fx, fw = [a, -a, 0.0][paths_of], [on, -on, off][paths_of]
        fm, fs = [1, 1, 0][paths_of], [a, a, 0.0][paths_of]
        low *= min([1.0, on] + fw[2:])
        high *= max(1.0, on)
        x, w = np.add.outer(fx, x).ravel(), np.multiply.outer(fw, w).ravel()
        m, s = np.add.outer(fm, m).ravel(), np.add.outer(fs, s).ravel()
    if not (low > 2.0 ** -1000 and high < 2.0 ** 1000):
        return None
    n = len(live)
    coef = _antiderivative_coefs(p, n)[m]
    ax = np.abs(x)
    terms = ax ** p * x ** m.astype(float) * w * coef
    delta = n * _EPS * s
    weight = np.abs(w) * coef
    shift = float((weight * (p + m) * (ax + delta) ** (p + m - 1.0) * delta).sum())
    bound = ((2 * n + 8) * _EPS * float(np.abs(terms).sum()) + shift
             + 2.0 ** -1070 * (float(np.abs(w).sum()) + paths))
    try:
        scale = math.ldexp(width, e) ** p
    except OverflowError:
        return None
    value = math.fsum(terms.tolist()) * scale
    if not math.isfinite(value + bound * scale):
        return None
    return value, bound * scale, paths

"""The atomic kernels against an integer-lattice reference.

A sum of k jumps drawn from the signed atoms +-a_1, ..., +-a_m of generic
magnitudes a takes the values n . a for the lattice vectors n in Z^m with
|n|_1 <= k and |n|_1 = k mod 2, and distinct vectors give distinct values.
The reference convolves the lattice vectors themselves (a dict keyed by
integer tuples, so no two paths to one point can split) and evaluates each
n . a and |n . a|^p in mpmath.  Thinned tuples, the laws of exact enumeration
in constants, are checked against a 40-digit sum over every path of atoms.
"""

import functools
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from roskit import basedist as bd
from roskit import constants as ct
from roskit import discrete
from roskit.errors import SupportOverflowError

# magnitudes and masses of a jump law with no rational relation between the magnitudes
GENERIC = [(0.30742540036145816, 0.36), (1.1414238828695873, 0.13), (1.5731788245917877, 0.51)]


def _signed(jump):
    law = {}
    for loc, mass in jump:
        law[loc] = law[-loc] = mass / 2.0
    return law


def _lattice_power(jump, k):
    """{lattice vector: mass} of the k-fold sum, in exact integer coordinates."""
    m = len(jump)
    steps = {}
    for i, (_, mass) in enumerate(jump):
        for sign in (1, -1):
            steps[tuple(sign if j == i else 0 for j in range(m))] = mass / 2.0
    acc = {(0,) * m: 1.0}
    for _ in range(k):
        out = {}
        for n, mass in acc.items():
            for step, w in steps.items():
                key = tuple(a + b for a, b in zip(n, step))
                out[key] = out.get(key, 0.0) + mass * w
        acc = out
    return acc


def _lattice_law(jump, k):
    """Sorted mpmath values n . a and their masses."""
    with mpmath.workdps(40):
        locs = [mpmath.mpf(loc) for loc, _ in jump]
        pts = sorted((mpmath.fsum(c * a for c, a in zip(n, locs)), mass)
                     for n, mass in _lattice_power(jump, k).items())
    return pts


def _lattice_moment(pts, p):
    with mpmath.workdps(40):
        return float(mpmath.fsum(mass * abs(x) ** p for x, mass in pts))


def _law(laws, max_support=None):
    """The merged enumeration of the sum of laws, as a {location: mass} dict."""
    locs, masses = discrete._nfold(laws, max_support)
    return dict(zip(locs.tolist(), masses.tolist()))


def _power(law, k):
    return _law([law] * k)


@pytest.mark.parametrize("m,k,points", [(1, 9, 10), (2, 12, 169), (3, 7, 344), (3, 18, 4579)])
def test_support_is_the_lattice_support(m, k, points):
    # (3, 18): the 18-fold sum of three generic three-point jumps, whose points
    # a dedup by rounding each sum to 12 digits splits over 25,703 to 49,656 keys
    jump = GENERIC[:m]
    assert len(_lattice_power(jump, k)) == points
    assert len(_power(_signed(jump), k)) == points


@pytest.mark.parametrize("p", [2.0, 5.0, 8.0])
def test_keys_and_moment_within_the_bound(p):
    jump, k = GENERIC, 18
    law = _signed(jump)
    dist = _power(law, k)
    pts = _lattice_law(jump, k)
    # the merged enumeration, by name: enum_sum takes the even-p series at p = 2 and 8
    locs, masses = discrete._nfold([law] * k, None)
    value, bound = discrete._enum_moment(locs, masses, p, [law] * k)
    support = locs.size
    assert support == len(dist)
    reach = max(law) * k * (k + 1) / 2.0
    delta = (discrete.MERGE_RTOL + 2.0 * np.finfo(float).eps) * reach
    moved = max(abs(float(x) - key) for (x, _), key in zip(pts, dist))
    assert moved <= delta
    assert list(dist) == sorted(dist)
    assert abs(value - _lattice_moment(pts, p)) <= bound
    # the bound is the merge radius's, not the drift of rounded keys
    assert bound < 1e-9 * value


def test_chunks_give_the_single_chunk_law(monkeypatch):
    law = _signed(GENERIC)
    whole = _power(law, 9)
    monkeypatch.setattr(discrete, "_CHUNK_PAIRS", 7)
    chunked = _power(law, 9)
    assert len(chunked) == len(whole) == len(_lattice_power(GENERIC, 9))
    for (x, m), (y, w) in zip(whole.items(), chunked.items()):
        assert abs(x - y) <= 1e-12 * 9 * max(law) and m == pytest.approx(w, rel=1e-13)
    value, bound, _ = discrete.enum_sum([law] * 9, 5.0)
    assert abs(value - _lattice_moment(_lattice_law(GENERIC, 9), 5.0)) <= bound


@pytest.mark.parametrize("chunk", [1 << 16, 2])
def test_walk_merges_to_its_integer_support(monkeypatch, chunk):
    # in chunks of one row, most rows only add to keys found before
    monkeypatch.setattr(discrete, "_CHUNK_PAIRS", chunk)
    walk = {1.0: 0.5, -1.0: 0.5}
    dist = _power(walk, 12)
    assert list(dist) == [float(x) for x in range(-12, 13, 2)]
    assert dist[0.0] == math.comb(12, 6) / 4096.0
    assert math.isclose(discrete.abs_moment_atoms(dist, 2.0), 12.0)


def test_float_noise_merges_but_close_chains_stay_apart():
    # 0.1 + 0.2 and 0.3 differ by one ulp: one point
    dist = _law([{0.1: 0.5, 0.3: 0.5}, {0.0: 0.5, 0.2: 0.5}])
    assert len(dist) == 3 and dist[0.3] == 0.5
    # three points 0.6e-12 apart chain past the 1e-12 radius: none is merged
    eps = 0.6e-12
    dist = _law([{0.0: 0.5, 1.0: 0.5}, {-eps: 1 / 3, 0.0: 1 / 3, eps: 1 / 3}])
    assert sorted(dist) == [-eps, 0.0, eps, 1.0 - eps, 1.0, 1.0 + eps]


def test_convolve_atoms_support_cap():
    law = {-1.0: 0.25, 0.0: 0.5, 1.0: 0.25}
    square = _law([law, law], max_support=5)
    assert list(square) == [-2.0, -1.0, 0.0, 1.0, 2.0]
    with pytest.raises(SupportOverflowError, match="exceeds cap 4"):
        _law([law, law], max_support=4)
    assert _law([{}, law]) == {}


# ---------------------------------------------------------------------------
# thinned tuples: the laws constants._thinned_enum_result enumerates

RANDOM_SIGN = bd.rademacher()
FIVE_POINT = bd.symmetric_atoms([(0.0, 0.2), (0.7, 0.5), (1.3, 0.3)])


def _thinned_tuple(V, n, seed):
    rng = np.random.default_rng(seed)
    return [ct._thinned_atoms(V, float(c), float(mu))
            for c, mu in zip(rng.uniform(0.3, 2.0, n), rng.uniform(0.1, 0.9, n))]


def _path_moment(laws, p):
    """E|S|^p summed over every path of atoms, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        atoms = [[(mpmath.mpf(x), mpmath.mpf(m)) for x, m in law.items()] for law in laws]
        total = mpmath.mpf(0)
        for path in itertools.product(*atoms):
            total += mpmath.fprod(m for _, m in path) * abs(mpmath.fsum(x for x, _ in path)) ** p
        return float(total)


@pytest.mark.parametrize("V,n", [(RANDOM_SIGN, 1), (RANDOM_SIGN, 4), (RANDOM_SIGN, 6),
                                 (FIVE_POINT, 2), (FIVE_POINT, 5), (FIVE_POINT, 6)])
@pytest.mark.parametrize("p", [4.0, 5.37])
def test_thinned_tuple_against_every_path(V, n, p):
    laws = _thinned_tuple(V, n, 28 + n)
    value, bound, support = discrete.enum_sum(laws, p)
    assert abs(value - _path_moment(laws, p)) <= bound
    assert support == len(laws[0]) ** n
    assert list(_law(laws)) == sorted(_law(laws))


@pytest.mark.parametrize("chunk", [2, 7, 729])
def test_chunked_factors_agree(monkeypatch, chunk):
    # equal scales merge and generic ones do not; a chunk of 729 splits only the
    # last factor, of 225 x 5 pairs, and chunks of 2 or 7 split every factor
    rng = np.random.default_rng(5)
    laws = ([ct._thinned_atoms(RANDOM_SIGN, 0.8, 0.4)] * 4
            + [ct._thinned_atoms(FIVE_POINT, float(c), 0.6) for c in rng.uniform(0.3, 2.0, 3)])
    whole = _law(laws)
    monkeypatch.setattr(discrete, "_CHUNK_PAIRS", chunk)
    chunked = _law(laws)
    reach = np.cumsum([max(map(abs, law)) for law in laws])
    delta = (discrete.MERGE_RTOL + 2.0 * np.finfo(float).eps) * reach.sum()
    assert len(chunked) == len(whole) == 9 * 5**3
    for (x, m), (y, w) in zip(whole.items(), chunked.items()):
        assert abs(x - y) <= delta and abs(m - w) <= 1e-13


@pytest.mark.parametrize("chunk", [1 << 16, 9])
def test_cap_in_a_chunked_factor(monkeypatch, chunk):
    # three generic three-point laws: the third factor's 27 sums come in one
    # chunk, or, with a chunk of 9, in three, and the last passes the cap
    monkeypatch.setattr(discrete, "_CHUNK_PAIRS", chunk)
    laws = _thinned_tuple(RANDOM_SIGN, 3, 3)
    with pytest.raises(SupportOverflowError, match="support 27 exceeds cap 26$"):
        discrete.enum_sum(laws, 5.0, max_support=26)
    assert discrete.enum_sum(laws, 5.0, max_support=27)[2] == 27


@pytest.mark.parametrize("V,n", [(RANDOM_SIGN, 1), (RANDOM_SIGN, 10), (FIVE_POINT, 3),
                                 (FIVE_POINT, 7)])
def test_enum_support_of_generic_scales(V, n):
    rng = np.random.default_rng(n)
    res = ct._thinned_enum_result(5.0, V, rng.uniform(0.3, 2.0, n), rng.uniform(0.1, 0.9, n),
                                  10**6)
    # a thinned law is the nonzero atoms of V and zero
    assert res.diagnostics["support"] == len(set(V.signed_atoms()) | {0.0}) ** n


@pytest.mark.parametrize("n", [1, 6, 12])
def test_enum_support_of_equal_random_signs(n):
    # the outer pass reports its 3^n terms, the merged enumeration its 2n + 1 points
    res = ct._thinned_enum_result(5.0, RANDOM_SIGN, [0.7] * n, [0.3] * n, 10**6)
    assert res.diagnostics["support"] == (3**n if 3**n <= discrete._OUTER_TERMS else 2 * n + 1)
    # every partial sum is merged, so none holds more than its 2i + 1 points
    law = ct._thinned_atoms(RANDOM_SIGN, 0.7, 0.3)
    sizes = [locs.size for locs, _ in discrete._partial_sums([law] * n, None)]
    assert sizes == [2 * i + 1 for i in range(n + 1)]


def test_powers_are_the_sums_of_copies():
    law = _signed(GENERIC)
    values, support = discrete.enum_powers(law, [1, 4, 6], 5.0, 10**6)
    assert sorted(values) == [1, 4, 6] and support == len(_lattice_power(GENERIC, 6))
    for k, got in values.items():
        # the merged enumeration, by name: enum_sum takes the outer pass at k = 1 and 4
        assert got == discrete._enum_moment(*discrete._nfold([law] * k, None), 5.0, [law] * k)
    with pytest.raises(SupportOverflowError, match="exceeds cap 40$"):
        discrete.enum_powers(law, [6], 5.0, 40)


# ---------------------------------------------------------------------------
# the moment's pairwise sum and its bound


def _halvings(n):
    return math.ceil(math.log2(n)) if n > 1 else 0


@pytest.mark.parametrize("n", [0, 1, 2, 3, 31, 32, 33, 4095, 4096, 4097])
def test_pairwise_sum_within_its_depth(n):
    # nonnegative terms spread over 30 decades
    rng = np.random.default_rng(n)
    terms = rng.uniform(0.5, 1.0, n) * 10.0 ** rng.uniform(-15.0, 15.0, n)
    got = discrete._pairwise_sum(terms)
    with mpmath.workdps(40):
        want = mpmath.fsum(mpmath.mpf(float(t)) for t in terms)
        assert abs(mpmath.mpf(got) - want) <= _halvings(n) * np.finfo(float).eps * want
    if n <= 1:
        assert got == math.fsum(terms.tolist())


@functools.lru_cache(maxsize=8)
def _exact_abs_law(items):
    """({|S| as an integer of one binary unit: 40-digit mass}, unit) of the sum
    of the laws given as tuples of their items, the path sums exact."""
    unit = min(math.frexp(x)[1] for law in items for x, _ in law if x) - 53
    with mpmath.workdps(40):
        acc = {0: mpmath.mpf(1)}
        for law in items:
            steps = [(int(math.ldexp(x, -unit)), mpmath.mpf(m)) for x, m in law]
            out = {}
            for s, m in acc.items():
                for step, w in steps:
                    out[s + step] = out.get(s + step, 0) + m * w
            acc = out
        by_abs = {}
        for s, m in acc.items():
            by_abs[abs(s)] = by_abs.get(abs(s), 0) + m
    return by_abs, unit


def _exact_moment(laws, p):
    """E|S|^p over every path, the path sums exact as integers of one binary
    unit, |S| and the masses in 40-digit arithmetic."""
    by_abs, unit = _exact_abs_law(tuple(tuple(law.items()) for law in laws))
    with mpmath.workdps(40):
        return float(mpmath.fsum(m * mpmath.ldexp(mpmath.mpf(s), unit) ** p
                                 for s, m in by_abs.items()))


def test_enum_sum_of_ten_generic_laws_within_the_bound():
    # ten generic three-point laws: 59,049 points, 16 halvings in the moment's sum
    laws = _thinned_tuple(RANDOM_SIGN, 10, 30)
    value, bound, support = discrete.enum_sum(laws, 5.37)
    assert support == 3**10
    assert abs(value - _exact_moment(laws, 5.37)) <= bound


@pytest.mark.parametrize("p", [0.25, 0.5])
def test_shift_below_p_one(p):
    # the sums +-(b - 1) = +-9e-13 merge into the key 0, which moves their
    # terms by (9e-13)^p: more than p delta (|x| + delta)^(p-1) bounds below p = 1
    b = 1.0 + 9e-13
    laws = [{1.0: 0.5, -1.0: 0.5}, {b: 0.5, -b: 0.5}]
    # the merged enumeration, by name: enum_sum takes the outer pass, which merges nothing
    locs, masses = discrete._nfold(laws, None)
    value, bound = discrete._enum_moment(locs, masses, p, laws)
    assert locs.size == 3
    with mpmath.workdps(50):
        want = mpmath.fsum(abs(mpmath.mpf(x) + mpmath.mpf(y)) ** p / 4
                           for x in (1.0, -1.0) for y in (b, -b))
    assert abs(value - float(want)) <= bound


@pytest.mark.parametrize("V,n", [(RANDOM_SIGN, 9), (FIVE_POINT, 6)])
@pytest.mark.parametrize("p", [2.0, 5.37])
def test_abs_moment_atoms_against_fsum(V, n, p):
    law = _law(_thinned_tuple(V, n, n))
    got = discrete.abs_moment_atoms(law, p)
    want = math.fsum(m * abs(x) ** p for x, m in law.items())
    assert abs(got - want) <= _halvings(len(law)) * np.finfo(float).eps * want


# ---------------------------------------------------------------------------
# tuples of four or more laws: both halves' sums, and every pair across them

# the sums of +-1, +-2 and of +-3, +-4 are four points each, but the 16 sums
# across the halves fall on 11 points (3 - 7 = -3 - 1, ...)
COLLAPSING = [{x: 0.5, -x: 0.5} for x in (1.0, 2.0, 3.0, 4.0)]
CROSS_TUPLES = {
    "five-point n=4": _thinned_tuple(FIVE_POINT, 4, 35),
    "five-point n=7": _thinned_tuple(FIVE_POINT, 7, 36),
    "collapsing": COLLAPSING,
}


# p = 0.5 falls in the shift term's case below p = 1, 1.5 and 3 on either side
# of p = 2 in the case above, and 5.37 is not an integer
@pytest.mark.parametrize("p", [0.5, 1.5, 3.0, 5.37])
@pytest.mark.parametrize("name", list(CROSS_TUPLES))
def test_enum_sum_of_four_or_more_laws_within_the_bound(name, p):
    laws = CROSS_TUPLES[name]
    value, bound, _ = discrete.enum_sum(laws, p)
    assert abs(value - _exact_moment(laws, p)) <= bound
    # the merged enumeration of the whole tuple, the route of tuples of three or fewer
    locs, masses = discrete._nfold(laws, None)
    merged, merged_bound = discrete._enum_moment(locs, masses, p, laws)
    assert abs(value - merged) <= bound + merged_bound


def test_cross_route_counts_terms():
    # the collapsing tuple's halves merge nothing: 16 terms across them, on 11 points
    value, bound, terms = discrete.enum_sum(COLLAPSING, 3.0)
    assert terms == 16 and len(_law(COLLAPSING)) == 11
    assert abs(value - _exact_moment(COLLAPSING, 3.0)) <= bound


@pytest.mark.parametrize("chunk", [2, 60])
def test_cross_route_in_chunks(monkeypatch, chunk):
    # 25 x 25 pairs, in 25 chunks of one row or 13 of two
    laws = CROSS_TUPLES["five-point n=4"]
    whole = discrete.enum_sum(laws, 5.37)
    monkeypatch.setattr(discrete, "_CHUNK_PAIRS", chunk)
    value, bound, terms = discrete.enum_sum(laws, 5.37)
    assert terms == whole[2] == 625
    assert abs(value - _exact_moment(laws, 5.37)) <= bound


def _refuse_cross_steps(monkeypatch):
    def cross(*args):
        raise AssertionError("a cross step was taken")
    monkeypatch.setattr(discrete, "_cross_moment", cross)


def test_cross_route_cap_before_the_cross_step(monkeypatch):
    # seven generic five-point laws: halves of 125 and 625 points, whose 78,125
    # terms past the cap leave the tuple to the merged enumeration, which
    # refuses its support
    laws = CROSS_TUPLES["five-point n=7"]
    _refuse_cross_steps(monkeypatch)
    with pytest.raises(SupportOverflowError, match=r"support \d+ exceeds cap 78124$"):
        discrete.enum_sum(laws, 5.0, max_support=78124)
    # a half past the cap is refused as that half's support
    with pytest.raises(SupportOverflowError, match="support 625 exceeds cap 600$"):
        discrete.enum_sum(laws, 5.0, max_support=600)


@pytest.mark.parametrize("case", ["first", "second", "across", "commensurate"])
def test_a_merged_half_takes_the_merged_route(monkeypatch, case):
    # two equal random signs in one half merge their sums 0.7 - 0.7 and
    # -0.7 + 0.7.  Across the halves: a, b, c, d, a, b, c, d has halves of
    # four distinct generic five-point laws that merge nothing, but its 5^8
    # terms fall on the 13^4 points of the merged law; the distinct signs
    # +-1, +-2, +-4, +-8 and three times them give 16 points a half and 256
    # terms on 61 points.  Each fits a cap of its merged support.
    sign = ct._thinned_atoms(RANDOM_SIGN, 0.7, 0.3)
    generic = _thinned_tuple(FIVE_POINT, 3, 37)
    laws = {"first": [sign, sign, *generic], "second": [*generic[:2], sign, sign, generic[2]],
            "across": _thinned_tuple(FIVE_POINT, 4, 38) * 2,
            "commensurate": [{x: 0.5, -x: 0.5} for x in (1.0, 2.0, 4.0, 8.0, 3.0, 6.0, 12.0, 24.0)],
            }[case]
    _refuse_cross_steps(monkeypatch)
    locs, masses = discrete._nfold(laws, None)
    assert discrete.enum_sum(laws, 5.37, max_support=locs.size) == (
        *discrete._enum_moment(locs, masses, 5.37, laws), locs.size)


@pytest.mark.parametrize("chunk", [1 << 16, 2, 60])
def test_cross_route_past_the_outer_pass(monkeypatch, chunk):
    # with the outer pass capped below the 625 paths of four generic five-point
    # laws, they meet in the middle across halves of 25 paths, in one chunk,
    # 25 chunks of one row or 13 of two
    laws = CROSS_TUPLES["five-point n=4"]
    monkeypatch.setattr(discrete, "_OUTER_TERMS", 1)
    monkeypatch.setattr(discrete, "_CHUNK_PAIRS", chunk)
    steps = []
    kernel = discrete._cross_moment
    monkeypatch.setattr(discrete, "_cross_moment", lambda *a: steps.append(a) or kernel(*a))
    value, bound, terms = discrete.enum_sum(laws, 5.37)
    assert terms == 625 and len(steps) == 1
    assert abs(value - _exact_moment(laws, 5.37)) <= bound


def test_a_half_with_close_sums_takes_the_merged_route(monkeypatch):
    # the distinct signs +-1, +-2, +-3 put 1 + 2 - 3 and -1 - 2 + 3 on 0: the
    # first half's merged enumeration finds it, and the tuple is enumerated
    # whole, going on from that half: six factors, not nine
    laws = [{x: 0.5, -x: 0.5} for x in (1.0, 2.0, 3.0, 5.0, 7.0, 11.0)]
    locs, masses = discrete._nfold(laws, None)
    monkeypatch.setattr(discrete, "_OUTER_TERMS", 1)
    _refuse_cross_steps(monkeypatch)
    factors = []
    convolve = discrete._convolve
    monkeypatch.setattr(discrete, "_convolve", lambda *a: factors.append(a) or convolve(*a))
    assert discrete.enum_sum(laws, 5.37) == (
        *discrete._enum_moment(locs, masses, 5.37, laws), locs.size)
    assert len(factors) == 6


# ---------------------------------------------------------------------------
# the outer pass and the even-p series

ROUTE_TUPLES = {
    "generic": CROSS_TUPLES["five-point n=4"],
    "equal": [ct._thinned_atoms(RANDOM_SIGN, 0.7, 0.3)] * 6,  # 729 paths on 13 points
    "collapsing": COLLAPSING,
}


def _refuse(monkeypatch, *names):
    def refuse(*args):
        raise AssertionError("another route was taken")
    for name in names:
        monkeypatch.setattr(discrete, name, refuse)


@pytest.mark.parametrize("p", [0.5, 1.5, 3.0, 5.37])
@pytest.mark.parametrize("name", list(ROUTE_TUPLES))
def test_outer_pass_within_the_bound(monkeypatch, name, p):
    laws = ROUTE_TUPLES[name]
    merged = discrete._enum_moment(*discrete._nfold(laws, None), p, laws)
    _refuse(monkeypatch, "_nfold", "_cross_moment")
    value, bound, terms = discrete.enum_sum(laws, p)
    assert terms == math.prod(map(len, laws))
    assert abs(value - _exact_moment(laws, p)) <= bound
    # rounding alone: no merge radius in the bound
    assert bound < merged[1]
    if name == "generic" and p == 0.5:
        # below p = 1 each path is charged its own delta: the all-off path, on 0,
        # is exact, and no other path lands near 0
        assert bound < 1e-13 * value


def _fraction_moment(laws, j):
    """E S^j in exact rationals, by the binomial expansion of (S' + X)^j a law at a time."""
    moments = [Fraction(1)] + [Fraction(0)] * j
    for law in laws:
        own = [sum(Fraction(m) * Fraction(x) ** i for x, m in law.items()) for i in range(j + 1)]
        moments = [sum(math.comb(i, l) * moments[l] * own[i - l] for l in range(i + 1))
                   for i in range(j + 1)]
    return moments[j]


@pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 8.0])
@pytest.mark.parametrize("name", [*ROUTE_TUPLES, "ten generic", "twelve generic"])
def test_even_series_within_the_bound(monkeypatch, name, p):
    laws = {**ROUTE_TUPLES, "ten generic": _thinned_tuple(RANDOM_SIGN, 10, 30),
            "twelve generic": _thinned_tuple(FIVE_POINT, 12, 41)}[name]
    _refuse(monkeypatch, "_outer", "_nfold", "_cross_moment")
    value, bound, terms = discrete.enum_sum(laws, p)
    assert terms == math.prod(map(len, laws))
    want = _fraction_moment(laws, int(p))
    assert abs(Fraction(value) - want) <= Fraction(bound) and bound < 1e-13 * value
    if name != "twelve generic":  # 5^12 paths
        assert abs(value - _exact_moment(laws, p)) <= bound


def test_outer_pass_up_to_its_cap(monkeypatch):
    # a point mass and a law of T or T + 1 generic atoms: T paths take the outer
    # pass, T + 1 the merged enumeration, bit for bit
    rng = np.random.default_rng(43)
    T = discrete._OUTER_TERMS

    def law(size):
        return dict(zip(rng.uniform(-2.0, 2.0, size).tolist(), [1.0 / size] * size))

    at_cap, past = [{0.37: 1.0}, law(T)], [{0.37: 1.0}, law(T + 1)]
    locs, masses = discrete._nfold(past, None)
    assert discrete.enum_sum(past, 5.37) == (
        *discrete._enum_moment(locs, masses, 5.37, past), locs.size)
    _refuse(monkeypatch, "_nfold")
    value, bound, terms = discrete.enum_sum(at_cap, 5.37)
    assert terms == T
    assert abs(value - _exact_moment(at_cap, 5.37)) <= bound


def test_even_p_enumerates_a_nonsymmetric_tuple(monkeypatch):
    # one mass off by an ulp, or one law off zero, and the series is not taken
    half = math.nextafter(0.2, 1.0)
    spied = []
    outer = discrete._outer
    monkeypatch.setattr(discrete, "_outer", lambda laws: spied.append(laws) or outer(laws))
    for laws in ([{-1.0: 0.3, 2.0: 0.7}, {1.5: 0.5, -1.5: 0.5}],
                 [{0.0: 0.6, 0.4: 0.2, -0.4: half}, {1.5: 0.5, -1.5: 0.5}]):
        assert discrete._even_moment(laws, 2) is None
        value, bound, terms = discrete.enum_sum(laws, 4.0)
        assert spied.pop() == laws and terms == math.prod(map(len, laws))
        assert abs(value - _exact_moment(laws, 4.0)) <= bound


@pytest.mark.parametrize("p", [3.0, 4.0])
@pytest.mark.parametrize("null", [{}, {1.0: 0.0, -1.0: 0.0}], ids=["empty", "massless"])
def test_a_law_without_mass_gives_zero(null, p):
    # no atom of positive mass: the series has no least term and leaves the
    # tuple to the outer pass, which sums no mass
    laws = [null, {1.5: 0.5, -1.5: 0.5}]
    assert discrete._even_moment(laws, 2) is None
    assert discrete.enum_sum(laws, p) == (0.0, 0.0, math.prod(map(len, laws)))


def test_even_series_leaves_the_normal_floats_to_enumeration():
    # (1e-80)^8 underflows: the series would lose that term's relative accuracy
    laws = [{1e-80: 0.5, -1e-80: 0.5}, {1.0: 0.5, -1.0: 0.5}]
    assert discrete._even_moment(laws, 4) is None
    value, bound, terms = discrete.enum_sum(laws, 8.0)
    assert terms == 4 and abs(value - _exact_moment(laws, 8.0)) <= bound


@pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 8.0])
def test_powers_at_even_p_are_the_series_of_copies(monkeypatch, p):
    # a symmetric law's k-fold powers at even p: enum_sum's series on k copies,
    # bit for bit, with nothing enumerated; within the bound of exact rationals
    # and of the merged enumeration, called by name
    law = _signed([(0.3 * i + 0.1, 0.1) for i in range(10)])
    merged = {k: discrete._enum_moment(*discrete._nfold([law] * k, None), p, [law] * k)
              for k in (1, 4, 8)}
    _refuse(monkeypatch, "_partial_sums", "_nfold", "_outer")
    values, support = discrete.enum_powers(law, [1, 4, 8], p, 10)
    assert sorted(values) == [1, 4, 8] and support == len(law) ** 8
    for k, (value, bound) in values.items():
        assert (value, bound) == discrete.enum_sum([law] * k, p)[:2]
        assert abs(Fraction(value) - _fraction_moment([law] * k, int(p))) <= Fraction(bound)
        assert bound < 1e-13 * value and bound < merged[k][1]
        assert abs(value - merged[k][0]) <= bound + merged[k][1]


def test_powers_at_even_p_enumerate_a_nonsymmetric_law():
    law = {-1.0: 0.3, 2.0: 0.7}
    values, support = discrete.enum_powers(law, [3], 4.0, 10**6)
    locs, masses = discrete._nfold([law] * 3, None)
    assert values[3] == discrete._enum_moment(locs, masses, 4.0, [law] * 3)
    assert support == locs.size


@pytest.mark.parametrize("p", [0.25, 0.5])
@pytest.mark.parametrize("route", ["outer", "cross"])
@pytest.mark.parametrize("name", ["signs", "thinned", "collapsing"])
def test_shift_below_p_one_per_point(monkeypatch, name, route, p):
    # p delta (|x| - delta)^(p-1) a point away from zero, delta^p only within
    # delta of it, where delta^p M charged every path: generic signs put no
    # path there, and their bound is rounding-sized; thinned laws put their
    # all-off path on 0, and +-1, +-2, +-3, +-4 two of 16 paths, which keep
    # delta^p.  The outer pass charges each path its own delta, zero on the
    # all-off path, which then keeps no delta^p.  Against 40-digit path sums,
    # on both unmerged routes
    laws = {"signs": [{x: 0.5, -x: 0.5} for x, _ in GENERIC] + [{0.7071: 0.5, -0.7071: 0.5}],
            "thinned": CROSS_TUPLES["five-point n=4"], "collapsing": COLLAPSING}[name]
    if route == "cross":
        monkeypatch.setattr(discrete, "_OUTER_TERMS", 1)
        _refuse(monkeypatch, "_outer")
    else:
        _refuse(monkeypatch, "_cross_moment")
    value, bound, terms = discrete.enum_sum(laws, p)
    assert terms == math.prod(map(len, laws))
    assert abs(value - _exact_moment(laws, p)) <= bound
    delta = discrete._delta(laws, 0.0)
    at_zero = {"signs": 0.0, "thinned": math.prod(law.get(0.0, 0.0) for law in laws),
               "collapsing": 0.125}[name]
    if route == "outer" and name == "thinned":
        at_zero = 0.0
    assert delta**p * at_zero <= bound < delta**p * at_zero + 1e-12 * value
    assert bound < 0.2 * delta**p * math.prod(sum(law.values()) for law in laws)

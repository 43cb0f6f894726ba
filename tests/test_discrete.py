"""The atomic kernels against an integer-lattice reference.

A sum of k jumps drawn from the signed atoms +-a_1, ..., +-a_m of generic
magnitudes a takes the values n . a for the lattice vectors n in Z^m with
|n|_1 <= k and |n|_1 = k mod 2, and distinct vectors give distinct values.
The reference convolves the lattice vectors themselves (a dict keyed by
integer tuples, so no two paths to one point can split) and evaluates each
n . a and |n . a|^p in mpmath.
"""

import math

import mpmath
import numpy as np
import pytest

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


def _power(law, k):
    acc = {0.0: 1.0}
    for _ in range(k):
        acc = discrete.convolve_atoms(acc, law)
    return acc


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
    value, bound = discrete.enum_abs_moment(dist, p, [law] * k)
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
    value, bound = discrete.enum_abs_moment(chunked, 5.0, [law] * 9)
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
    dist = discrete.convolve_atoms({0.1: 0.5, 0.3: 0.5}, {0.0: 0.5, 0.2: 0.5})
    assert len(dist) == 3 and dist[0.3] == 0.5
    # three points 0.6e-12 apart chain past the 1e-12 radius: none is merged
    eps = 0.6e-12
    dist = discrete.convolve_atoms({0.0: 0.5, 1.0: 0.5}, {-eps: 1 / 3, 0.0: 1 / 3, eps: 1 / 3})
    assert sorted(dist) == [-eps, 0.0, eps, 1.0 - eps, 1.0, 1.0 + eps]


def test_convolve_atoms_support_cap():
    law = {-1.0: 0.25, 0.0: 0.5, 1.0: 0.25}
    square = discrete.convolve_atoms(law, law, max_support=5)
    assert list(square) == [-2.0, -1.0, 0.0, 1.0, 2.0]
    with pytest.raises(SupportOverflowError, match="exceeds cap 4"):
        discrete.convolve_atoms(law, law, max_support=4)
    assert discrete.convolve_atoms({}, law) == {}

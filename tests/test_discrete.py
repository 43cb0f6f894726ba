"""The vectorised atomic kernels against the plain double-loop definitions."""

import math

import numpy as np
import pytest

from roskit import discrete


def _loop_convolve(d1, d2, max_support=None):
    out = {}
    for x1, m1 in d1.items():
        for x2, m2 in d2.items():
            key = discrete.round_sig(x1 + x2)
            out[key] = out.get(key, 0.0) + m1 * m2
    if max_support is not None and len(out) > max_support:
        raise OverflowError("cap")
    return out


def _bits(law):
    return [(float(x).hex(), float(m).hex()) for x, m in law.items()]


def _symmetric(rng, n_locs):
    law = {0.0: float(rng.uniform(0.0, 0.5))}
    rest = (1.0 - law[0.0]) / (2 * n_locs)
    for loc in rng.uniform(0.1, 3.0, n_locs):
        law[float(loc)] = law[float(-loc)] = rest
    return law


def test_round_sig_array_matches_round_sig_bit_for_bit():
    rng = np.random.default_rng(5)
    mags = 10.0 ** rng.uniform(-15, 14, 20_000)
    random = mags * rng.choice([-1.0, 1.0], mags.size)
    # 13 significant digits ending in 5: the nearest doubles sit just
    # above or below a decimal tie, where rounding x * 10**n goes wrong
    digits = rng.integers(10**11, 10**12, 5_000) * 10 + 5
    near_ties = digits / 10.0 ** rng.integers(10, 14, digits.size)
    exact_ties = np.array([1.5 + 1.0 / 4096, -(2.0 + 3.0 / 8192), 0.25 + 1.0 / 8192])
    decades = 10.0 ** np.arange(-12, 12)
    edges = np.concatenate([decades, np.nextafter(decades, 0.0), np.nextafter(decades, 2 * decades)])
    specials = np.array([0.0, -0.0, 1e-300, -3e-17, 2.5e12, 7.0e15])
    x = np.concatenate([random, near_ties, -near_ties, exact_ties, edges, -edges, specials])
    got = discrete._round_sig_array(x)
    want = [discrete.round_sig(v) for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got.tolist(), want)
           if g.hex() != float(w).hex()]
    assert not bad, bad[:5]


@pytest.mark.parametrize("chunk", [1 << 16, 7])
def test_convolve_atoms_matches_double_loop(monkeypatch, chunk):
    monkeypatch.setattr(discrete, "_CHUNK_PAIRS", chunk)
    rng = np.random.default_rng(11)
    for n_laws in (1, 2, 4):
        laws = [_symmetric(rng, int(rng.integers(1, 4))) for _ in range(n_laws)]
        fast, slow = {0.0: 1.0}, {0.0: 1.0}
        for law in laws:
            fast = discrete.convolve_atoms(fast, law)
            slow = _loop_convolve(slow, law)
            assert _bits(fast) == _bits(slow)
    walk = {1.0: 0.5, -1.0: 0.5}
    fast, slow = {0.0: 1.0}, {0.0: 1.0}
    for _ in range(12):
        fast, slow = discrete.convolve_atoms(fast, walk), _loop_convolve(slow, walk)
    assert _bits(fast) == _bits(slow)
    assert math.isclose(discrete.abs_moment_atoms(fast, 2.0), 12.0)


def test_convolve_atoms_support_cap():
    law = {-1.0: 0.25, 0.0: 0.5, 1.0: 0.25}
    square = discrete.convolve_atoms(law, law, max_support=5)
    assert sorted(square) == [-2.0, -1.0, 0.0, 1.0, 2.0]
    with pytest.raises(OverflowError, match="exceeds cap 4"):
        discrete.convolve_atoms(law, law, max_support=4)
    assert discrete.convolve_atoms({}, law) == {}

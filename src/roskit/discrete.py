"""Exact arithmetic with finite atomic laws.

A law is a plain dict {location: mass}.  Convolutions sum supports and
multiply masses; support points are deduplicated after rounding to 12
significant digits, which keeps double precision exactness while avoiding
support blowup from floating-point near-collisions.  Convolutions run
vectorised and give the same dict, bit for bit and in the same order, as
the plain double loop over (d1, d2) pairs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SupportOverflowError

SIG_DIGITS = 12
_POW10 = np.array([float(10**i) for i in range(23)])  # exact doubles
_CHUNK_PAIRS = 1 << 16  # bounds the temporaries to a few MB


def round_sig(x: float, digits: int = SIG_DIGITS) -> float:
    if x == 0.0:
        return 0.0
    return round(x, digits - 1 - int(math.floor(math.log10(abs(x)))))


def _split(a: np.ndarray):
    c = 134217729.0 * a  # Veltkamp: a = hi + lo, each half fits 26 bits
    hi = c - (c - a)
    return hi, a - hi


def _round_sig_array(x: np.ndarray) -> np.ndarray:
    """round_sig of every element, bit for bit.

    For |x| in [10**e, 10**(e+1)) and n = 11 - e in [0, 22], 10**n is an
    exact double and the exact x * 10**n is t + err (Dekker's product), so
    the sign of (t - (floor(t) + 1/2)) + err decides the correctly rounded
    integer r, and r / 10**n is the double Python's round returns.  Exact
    ties, elements near a power of ten and those outside that range go
    through round_sig.
    """
    out = np.zeros_like(x)
    a = np.abs(x)
    nz = a > 0.0
    lg = np.log10(a, out=np.zeros_like(a), where=nz)
    n = (SIG_DIGITS - 1) - np.floor(lg)
    scale = _POW10[np.clip(n, 0, 22).astype(np.intp)]
    t = x * scale
    (xh, xl), (sh, sl) = _split(x), _split(scale)
    err = ((xh * sh - t) + xh * sl + xl * sh) + xl * sl
    low = np.floor(t)
    gap = (t - (low + 0.5)) + err
    fast = (nz & (n >= 0) & (n <= 22) & (np.abs(lg - np.rint(lg)) > 1e-9)
            & (gap != 0.0))
    out[fast] = (low[fast] + (gap[fast] > 0.0)) / scale[fast]
    for i in np.flatnonzero(nz & ~fast):
        out[i] = round_sig(float(x[i]))
    return out


def convolve_atoms(d1: dict, d2: dict, max_support: int | None = None) -> dict:
    """Law of X + Y for independent atomic X, Y.

    Raises SupportOverflowError (an OverflowError) once the merged support
    exceeds max_support, so callers can fall back to a grid method.  Pairs
    are taken d1-major in chunks; each mass accumulates its products in pair
    order (np.add.at) and keys keep their first-appearance order, as in the
    double loop.
    """
    x1, m1 = (np.fromiter(v, float, len(d1)) for v in (d1.keys(), d1.values()))
    x2, m2 = (np.fromiter(v, float, len(d2)) for v in (d2.keys(), d2.values()))
    seen, seen_ids = np.zeros(0), np.zeros(0, np.intp)  # sorted keys so far
    ordered, total = [np.zeros(0)], np.zeros(0)
    rows = max(1, _CHUNK_PAIRS // max(1, len(d2)))
    for start in range(0, len(d1), rows):
        sums = np.add.outer(x1[start:start + rows], x2).ravel()
        keys, first, inverse = np.unique(
            _round_sig_array(sums), return_index=True, return_inverse=True
        )
        pos = np.searchsorted(seen, keys).clip(max=max(seen.size - 1, 0))
        old = seen[pos] == keys if seen.size else np.zeros(keys.size, bool)
        new = np.flatnonzero(~old)  # ascending keys
        fresh = new[np.argsort(first[new])]  # first-appearance order
        ids = np.empty(keys.size, np.intp)
        ids[old] = seen_ids[pos[old]]
        ids[fresh] = total.size + np.arange(fresh.size)
        if max_support is not None and total.size + fresh.size > max_support:
            raise SupportOverflowError(
                f"atomic convolution support {total.size + fresh.size} "
                f"exceeds cap {max_support}"
            )
        ordered.append(keys[fresh])
        total = np.concatenate([total, np.zeros(fresh.size)])
        products = np.multiply.outer(m1[start:start + rows], m2).ravel()
        np.add.at(total, ids[inverse], products)
        at = np.searchsorted(seen, keys[new])
        seen, seen_ids = np.insert(seen, at, keys[new]), np.insert(seen_ids, at, ids[new])
    return dict(zip(np.concatenate(ordered).tolist(), total.tolist()))


def scale_atoms(d: dict, c: float) -> dict:
    out: dict = {}
    for x, m in d.items():
        key = round_sig(c * x)
        out[key] = out.get(key, 0.0) + m
    return out


def thin_atoms(d: dict, activation: float) -> dict:
    """Bernoulli thinning: the law of theta*X with P(theta=1) = activation."""
    out = {round_sig(x): activation * m for x, m in d.items() if x != 0.0}
    zero = d.get(0.0, 0.0) * activation + (1.0 - activation)
    out[0.0] = out.get(0.0, 0.0) + zero
    return out


def abs_moment_atoms(d: dict, p: float) -> float:
    locs = np.fromiter(d.keys(), float, len(d))
    masses = np.fromiter(d.values(), float, len(d))
    keep = locs != 0.0
    return math.fsum((masses[keep] * np.abs(locs[keep]) ** p).tolist())


def nfold_atoms(laws: list[dict], max_support: int | None = None) -> dict:
    acc = {0.0: 1.0}
    for law in laws:
        acc = convolve_atoms(acc, law, max_support=max_support)
    return acc

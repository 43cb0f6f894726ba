"""Extremal symmetric laws under second- and p-th-moment constraints.

Two two-parameter density families bracket every symmetric log-concave
law with matched moments: plateau-with-exponential-tail densities on the
minus side and truncated exponentials on the plus side, with the uniform
and two-sided exponential densities as shared boundary members.  The
analogous tail-law families (exponential tail with an offset; truncated
exponential tail with an atom at the cutoff) bracket the laws with
log-concave survival functions.

Matching a (second, p-th) moment pair to a family member is one monotone
one-dimensional solve (_match) along a path (t, a) -> member that pins the
second moment; limits (uniform, exponential, two-point) are handled by
tags, never by feeding infinities into formulas.

In every family |X| is a mixture of at most two of four pieces: uniform on
[0, w), an offset plus an exponential (the plain exponential at offset 0),
an exponential cut at c, and an atom at c.  The plateau density is uniform
plus offset exponential, the truncated density a cut exponential, the
tail-minus law an offset exponential and the tail-plus law a cut exponential
plus an atom; the end members are one-piece mixtures.  _PieceLaw answers,
once for all four, the calls verify uses (pdf, cdf, atoms and
support_halfwidth) and the closed-form characteristic function the Fourier
route for sums takes (fourier.plan_sum: char_gap, char_taylor and
char_envelope) as weighted sums over the pieces.  Each family states its
pieces, its own abs_moment (the matchers' moment equation) and its char_cap.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fourier, specfun
from .errors import DomainError, FeasibilityError

__all__ = [
    "PlateauExpDensity",
    "TruncatedExpDensity",
    "TailLawMinus",
    "TailLawPlus",
    "MatchTarget",
    "feasibility_interval_density",
    "feasibility_interval_tail",
    "match_density_minus",
    "match_density_plus",
    "match_tail",
]

_BOUNDARY_RTOL = 1e-12
# ln(1e16): an exponential tail falls below 1e-16 of its peak this many rates out
_DECAY = 16.0 * math.log(10.0)
_EPS = sys.float_info.epsilon


def _offset_exp_integral(r: float, offset: float, rate: float) -> float:
    """J = integral_0^inf (offset + u)^r exp(-rate u) du, for offset > 0 and r > -1."""
    if float(r).is_integer() and r >= 0:
        r_int = int(r)
        try:
            return math.fsum(
                math.comb(r_int, k) * offset ** (r_int - k) * math.factorial(k) / rate ** (k + 1)
                for k in range(r_int + 1)
            )
        except OverflowError:  # a power past the float range: the same sum in logs
            logs = [math.lgamma(r + 1.0) - math.lgamma(r - k + 1.0) + (r - k) * math.log(offset)
                    - (k + 1.0) * math.log(rate) for k in range(r_int + 1)]
            top = max(logs)
            return math.exp(top) * math.fsum(math.exp(x - top) for x in logs)
    x = offset * rate
    log_j = specfun.log_upper_gamma_exp_scaled(r + 1.0, x) - (r + 1.0) * math.log(rate)
    return math.exp(log_j)


def _kummer(b: np.ndarray, kappa: float) -> tuple[np.ndarray, float]:
    """e^-kappa M(1, b, kappa) = sum_l e^-kappa kappa^l / (b)_l for an array of
    b >= 1, each term a running product of ratios below 1 once l > 2 kappa,
    and their relative error bound; kappa <= _KUMMER_MAX keeps e^-kappa normal.
    At b = r + 2 it gives E[Y^r; Y < c] = kappa c^r e^-kappa M(1, r + 2, kappa)
    / (r + 1) for Y exponential of rate kappa / c (the lower incomplete gamma
    gamma(s, kappa) = kappa^s e^-kappa M(1, s + 1, kappa) / s)."""
    terms = int(2.0 * kappa + 10.0 * math.sqrt(kappa)) + 60  # the ratios reach 2^-60
    ratios = kappa / (np.asarray(b, dtype=float)[:, None] + np.arange(terms - 1.0))
    steps = np.concatenate((np.full((ratios.shape[0], 1), math.exp(-kappa)), ratios), axis=1)
    return np.cumprod(steps, axis=1).sum(axis=1), (3.0 * terms + 4.0) * _EPS


_KUMMER_MAX = 700.0
# past this log of Gamma(s) / rate^r, the truncated-exponential and tail-plus
# moments are taken as c^r e^-kappa M(1, ., kappa), in logs: that power passes
# the float range from about 709 on, where the regularised gamma beside it
# underflows
_LOG_SAFE = 600.0


# ---------------------------------------------------------------------------
# the pieces of |X|: each answers cdf and pdf on x >= 0, its reach (a bound
# on |X| past which the mass is below 1e-16), taylor(n, s) = E (s|X|)^(2i) / (2i)!
# for i <= n and their relative error bound, gap(t) = 1 - phi(t) in closed
# form (exact everywhere where exact is set) and envelope(t) >= |phi| from t on


class _Uniform:
    """|X| uniform on [0, width)."""

    exact = False  # 1 - sin(x) / x cancels near 0

    def __init__(self, width: float):
        self.width = self.reach = width

    def cdf(self, x):
        return np.minimum(x, self.width) / self.width

    def pdf(self, x: float) -> float:
        return 1.0 / self.width if x < self.width else 0.0

    def taylor(self, n: int, s: float) -> tuple[np.ndarray, float]:
        return fourier.taylor_uniform(s * self.width, n)

    def gap(self, t):
        return 1.0 - np.sin(self.width * t) / (self.width * t)

    def envelope(self, t):
        with np.errstate(divide="ignore"):  # inf at t = 0, which char_envelope clips to 1
            return 1.0 / (self.width * t)


class _OffsetExp:
    """|X| = offset + Y, Y exponential of the rate."""

    exact = False

    def __init__(self, rate: float, offset: float = 0.0):
        self.rate, self.offset = rate, offset
        self.reach = offset + (_DECAY + 4.0) / rate

    def cdf(self, x):
        return -np.expm1(-self.rate * np.maximum(x - self.offset, 0.0))

    def pdf(self, x: float) -> float:
        return self.rate * math.exp(-self.rate * (x - self.offset)) if x >= self.offset else 0.0

    def taylor(self, n: int, s: float) -> tuple[np.ndarray, float]:
        """sum_m o^m / m! r^-(2i - m) for o = s offset and r = rate / s, a
        convolution of nonnegative terms."""
        powers = np.cumprod(np.full(2 * n + 1, 1.0 / (self.rate / s)))
        powers = np.concatenate(([1.0], powers[:-1]))  # r^-l, l = 0..2n
        out = np.convolve(fourier.taylor_exp(s * self.offset, 2 * n), powers)[: 2 * n + 1 : 2]
        return out, (8.0 * n + 4.0) * _EPS

    def gap(self, t):
        """1 - phi(t) = (t^2 + 2 r^2 sin^2(ot / 2) + r t sin(ot)) / (r^2 + t^2), every term
        nonnegative while ot <= pi, t^2 / (r^2 + t^2) at offset 0."""
        r, o = self.rate, self.offset
        half = np.sin(0.5 * o * t)
        return (t * t + 2.0 * r * r * half * half + r * t * np.sin(o * t)) / (r * r + t * t)

    def envelope(self, t):
        return self.rate / np.hypot(self.rate, t)


class _Exp(_OffsetExp):
    """|X| exponential of the rate, the offset exponential at offset 0: its
    1 - phi is exact everywhere, and |phi| = rate^2 / (rate^2 + t^2) its own envelope."""

    exact = True

    def taylor(self, n: int, s: float) -> tuple[np.ndarray, float]:
        return fourier.taylor_laplace(s / self.rate, n)

    def envelope(self, t):
        return self.rate * self.rate / (self.rate * self.rate + t * t)


class _CutExp:
    """|X| exponential of the rate g conditioned below the cutoff c, at
    kappa = g c <= _KUMMER_MAX, where m = e^-kappa is normal."""

    exact = False

    def __init__(self, rate: float, cutoff: float):
        self.rate, self.cutoff, self.reach = rate, cutoff, cutoff
        self.m, self.one_minus_m = math.exp(-rate * cutoff), -math.expm1(-rate * cutoff)

    def cdf(self, x):
        return -np.expm1(-self.rate * np.minimum(x, self.cutoff)) / self.one_minus_m

    def pdf(self, x: float) -> float:
        return self.rate * math.exp(-self.rate * x) / self.one_minus_m if x < self.cutoff else 0.0

    def taylor(self, n: int, s: float) -> tuple[np.ndarray, float]:
        """(s / g)^(2i) P(2i + 1, kappa) / (1 - m), through _kummer at b = 2i + 2."""
        kappa = self.rate * self.cutoff
        uniform, uniform_rel = fourier.taylor_uniform(s * self.cutoff, n)
        kummer, rel = _kummer(2.0 * np.arange(n + 1) + 2.0, kappa)
        return kappa / self.one_minus_m * uniform * kummer, rel + uniform_rel + 3.0 * _EPS

    def gap(self, t):
        """1 - phi(t), phi = g [g - m (g cos(ct) - t sin(ct))] / ((1 - m)(g^2 + t^2))."""
        g, c, m = self.rate, self.cutoff, self.m
        return 1.0 - g * (g - m * (g * np.cos(c * t) - t * np.sin(c * t))) / (
            self.one_minus_m * (g * g + t * t))

    def envelope(self, t):
        g = self.rate
        return g * (g + self.m * np.hypot(g, t)) / (self.one_minus_m * (g * g + t * t))


def _cut_exp(rate: float, cutoff: float):
    # past _KUMMER_MAX the cut tail e^-kappa is below every rounding
    return _Exp(rate) if rate * cutoff > _KUMMER_MAX else _CutExp(rate, cutoff)


class _Atom:
    """|X| = at."""

    exact = True

    def __init__(self, at: float):
        self.at = self.reach = at

    def cdf(self, x):
        return 0.0  # atoms() reports the atom, cdf the continuous part

    def pdf(self, x: float) -> float:
        return 0.0

    def taylor(self, n: int, s: float) -> tuple[np.ndarray, float]:
        return fourier.taylor_cos(s * self.at, n), 3.0 * n * _EPS

    def gap(self, t):
        return 2.0 * np.sin(0.5 * self.at * t) ** 2

    def envelope(self, t):
        return np.ones_like(t)


class _PieceLaw:
    """A symmetric law whose |X| is a mixture of the pieces above:
    self._pieces holds (weight, piece) pairs, built once per law.  pdf and cdf
    describe the continuous part, atoms() the rest."""

    def _mix(self, answer):
        """sum_i w_i answer(piece_i), or the one piece's own answer."""
        pieces = self._pieces
        if len(pieces) == 1:
            return answer(pieces[0][1])
        return sum(w * answer(piece) for w, piece in pieces)

    def pdf(self, x: float) -> float:
        """Density of the continuous part of the signed law."""
        ax = abs(x)
        return 0.5 * self._mix(lambda piece: piece.pdf(ax))

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """CDF of the continuous part (the whole law unless it has atoms)."""
        ax = np.abs(x)
        half = 0.5 * self._mix(lambda piece: piece.cdf(ax))
        below = 0.5 * math.fsum(w for w, piece in self._pieces if not isinstance(piece, _Atom))
        return np.where(x < 0.0, below - half, below + half)[()]

    def atoms(self) -> dict:
        return {loc: w / 2.0 for w, piece in self._pieces if isinstance(piece, _Atom)
                for loc in (-piece.at, piece.at)}

    def support_halfwidth(self) -> float:
        return max(piece.reach for _, piece in self._pieces)

    def char_taylor(self, n: int, s: float = 1.0) -> tuple[np.ndarray, float]:
        """E (sX)^(2i) / (2i)!: the pieces' nonnegative coefficients, weighted."""
        parts = [(w, *piece.taylor(n, s)) for w, piece in self._pieces]
        if len(parts) == 1:
            return parts[0][1:]
        return sum(w * coefs for w, coefs, _ in parts), max(rel for _, _, rel in parts) + 4.0 * _EPS

    def char_gap(self, t) -> np.ndarray:
        """1 - phi(t), the weighted sum of the pieces' nonnegative gaps: in
        closed form where every piece's is exact, else split at char_cap()."""
        if all(piece.exact for _, piece in self._pieces):
            t = np.asarray(t, dtype=float)
            return self._mix(lambda piece: piece.gap(t))
        return fourier.cap_split_gap(self, t, lambda t: self._mix(lambda piece: piece.gap(t)),
                                     self._cap_series)

    _cap_series = functools.cached_property(fourier.cap_series)

    def char_envelope(self, t) -> np.ndarray:
        """|phi(t)| <= min(1, sum_i w_i e_i(t)) for the pieces' envelopes e_i."""
        t = np.asarray(t, dtype=float)
        return np.minimum(1.0, self._mix(lambda piece: piece.envelope(t)))


# ---------------------------------------------------------------------------
# density families


@dataclass(frozen=True)
class PlateauExpDensity(_PieceLaw):
    """Symmetric density constant on [-alpha, alpha] with exponential decay
    of rate gamma outside; gamma = inf tags the uniform limit, alpha = 0 the
    two-sided exponential limit."""

    side = "minus"  # its extremal family, which check_interlacing reads
    alpha: float
    gamma: float

    def __post_init__(self):
        if self.alpha < 0.0:
            raise DomainError("plateau half-width must be nonnegative")
        if not self.gamma > 0.0:
            raise DomainError("tail rate must be positive (inf for the uniform limit)")
        if math.isinf(self.gamma) and self.alpha == 0.0:
            raise DomainError("uniform limit needs a positive half-width")

    @property
    def limit(self) -> str:
        if math.isinf(self.gamma):
            return "uniform"
        if self.alpha == 0.0:
            return "exponential"
        return "interior"

    @functools.cached_property
    def _pieces(self) -> tuple:
        # uniform on [0, alpha] with probability alpha gamma / (alpha gamma + 1),
        # else alpha plus an exponential of rate gamma
        if math.isinf(self.gamma):
            return ((1.0, _Uniform(self.alpha)),)
        if self.alpha == 0.0:
            return ((1.0, _Exp(self.gamma)),)
        w = self.alpha * self.gamma
        return ((w / (w + 1.0), _Uniform(self.alpha)),
                (1.0 / (w + 1.0), _OffsetExp(self.gamma, self.alpha)))

    def normalizer(self) -> float:
        if self.limit == "uniform":
            return 1.0 / (2.0 * self.alpha)
        return 1.0 / (2.0 * (self.alpha + 1.0 / self.gamma))

    def abs_moment(self, r: float) -> float:
        if not r > 0.0:
            raise DomainError("moment order must be positive")
        if self.limit == "uniform":
            return self.alpha**r / (r + 1.0)
        if self.limit == "exponential":
            return math.exp(math.lgamma(r + 1.0) - r * math.log(self.gamma))
        num = self.alpha ** (r + 1.0) / (r + 1.0) + _offset_exp_integral(
            r, self.alpha, self.gamma
        )
        return num / (self.alpha + 1.0 / self.gamma)

    def char_cap(self, p: float = 4.0) -> float:
        # the plateau's width, and the poles of phi at +-i gamma
        if self.limit == "exponential":
            return 0.5 * self.gamma
        # gamma = inf for the uniform limit
        return min(fourier.stretch(p) / self.alpha, 0.5 * self.gamma)

    def to_record(self) -> dict:
        return {"family": "fminus", "alpha": self.alpha, "gamma": self.gamma}


@dataclass(frozen=True)
class TruncatedExpDensity(_PieceLaw):
    """Symmetric exponential density of rate gamma truncated to
    [-alpha, alpha]; gamma = 0 tags the uniform limit, alpha = inf the
    two-sided exponential limit."""

    side = "plus"  # its extremal family, which check_interlacing reads
    alpha: float
    gamma: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise DomainError("truncation point must be positive (inf for the exponential limit)")
        if self.gamma < 0.0:
            raise DomainError("rate must be nonnegative (0 for the uniform limit)")
        if math.isinf(self.alpha) and self.gamma == 0.0:
            raise DomainError("exponential limit needs a positive rate")

    @property
    def limit(self) -> str:
        if self.gamma == 0.0:
            return "uniform"
        if math.isinf(self.alpha):
            return "exponential"
        return "interior"

    @functools.cached_property
    def _pieces(self) -> tuple:
        if self.gamma == 0.0:
            return ((1.0, _Uniform(self.alpha)),)
        return ((1.0, _cut_exp(self.gamma, self.alpha)),)

    def abs_moment(self, r: float) -> float:
        if not r > 0.0:
            raise DomainError("moment order must be positive")
        if self.limit == "uniform":
            return self.alpha**r / (r + 1.0)
        if self.limit == "exponential":
            return math.exp(math.lgamma(r + 1.0) - r * math.log(self.gamma))
        kappa = self.alpha * self.gamma
        log_val = math.lgamma(r + 1.0) - r * math.log(self.gamma)
        if log_val > _LOG_SAFE and kappa <= _KUMMER_MAX:
            kummer = float(_kummer(np.array([r + 2.0]), kappa)[0][0])
            return math.exp(r * math.log(self.alpha) + math.log(kappa * kummer / (r + 1.0))
                            - math.log(-math.expm1(-kappa)))
        p_reg = specfun.reg_lower_inc_gamma(r + 1.0, kappa)
        return math.exp(log_val) * p_reg / -math.expm1(-kappa)

    def char_cap(self, p: float = 4.0) -> float:
        # bounded by alpha, and below half the rate its coefficients fall fourfold;
        # alpha = inf and gamma = 0 at the limits
        return max(fourier.stretch(p) / self.alpha, 0.5 * self.gamma)

    def to_record(self) -> dict:
        return {"family": "fplus", "alpha": self.alpha, "gamma": self.gamma}


# ---------------------------------------------------------------------------
# tail-law families


@dataclass(frozen=True)
class TailLawMinus(_PieceLaw):
    """Survival of |X| equal to exp(-rate (t - offset)_+): no mass inside
    (-offset, offset), exponential tail outside.  rate = inf tags the
    two-point law at +-offset."""

    side = "minus"  # its extremal family, which check_interlacing reads
    rate: float
    offset: float

    def __post_init__(self):
        if not self.rate > 0.0:
            raise DomainError("tail rate must be positive (inf for the two-point limit)")
        if self.offset < 0.0:
            raise DomainError("offset must be nonnegative")
        if math.isinf(self.rate) and self.offset == 0.0:
            raise DomainError("two-point limit needs a positive offset")

    @property
    def limit(self) -> str:
        if math.isinf(self.rate):
            return "two_point"
        if self.offset == 0.0:
            return "exponential"
        return "interior"

    @functools.cached_property
    def _pieces(self) -> tuple:
        if math.isinf(self.rate):
            return ((1.0, _Atom(self.offset)),)
        return ((1.0, _OffsetExp(self.rate, self.offset) if self.offset else _Exp(self.rate)),)

    def survival(self, t: float) -> float:
        if t < 0.0:
            raise DomainError("survival is defined on t >= 0")
        if self.limit == "two_point":
            return 1.0 if t < self.offset else 0.0
        return math.exp(-self.rate * max(t - self.offset, 0.0))

    def abs_moment(self, r: float) -> float:
        if not r > 0.0:
            raise DomainError("moment order must be positive")
        if self.limit == "two_point":
            return self.offset**r
        if self.limit == "exponential":
            return math.exp(math.lgamma(r + 1.0) - r * math.log(self.rate))
        return self.offset**r + r * _offset_exp_integral(r - 1.0, self.offset, self.rate)

    def char_cap(self, p: float = 4.0) -> float:
        # the offset, and the poles of phi at +-i rate
        if self.limit == "exponential":
            return 0.5 * self.rate
        # rate = inf for the two-point limit
        return min(fourier.stretch(p) / self.offset, 0.5 * self.rate)

    def to_record(self) -> dict:
        return {"family": "gminus", "rate": self.rate, "offset": self.offset}


@dataclass(frozen=True)
class TailLawPlus(_PieceLaw):
    """Survival of |X| equal to exp(-rate t) on [0, cutoff), zero beyond:
    |X| = min(exponential, cutoff), with an atom of mass exp(-rate cutoff)
    at the cutoff.  rate = 0 tags the two-point law, cutoff = inf the
    exponential limit."""

    side = "plus"  # its extremal family, which check_interlacing reads
    rate: float
    cutoff: float

    def __post_init__(self):
        if self.rate < 0.0:
            raise DomainError("rate must be nonnegative (0 for the two-point limit)")
        if not self.cutoff > 0.0:
            raise DomainError("cutoff must be positive (inf for the exponential limit)")
        if math.isinf(self.cutoff) and self.rate == 0.0:
            raise DomainError("exponential limit needs a positive rate")

    @property
    def limit(self) -> str:
        if self.rate == 0.0:
            return "two_point"
        if math.isinf(self.cutoff):
            return "exponential"
        return "interior"

    @functools.cached_property
    def _pieces(self) -> tuple:
        # the exponential cut at the cutoff with probability 1 - e^-kappa, else the atom
        if self.rate == 0.0:
            return ((1.0, _Atom(self.cutoff)),)
        kappa = self.rate * self.cutoff
        cut, m = _cut_exp(self.rate, self.cutoff), math.exp(-kappa)
        return ((1.0, cut),) if m == 0.0 else ((-math.expm1(-kappa), cut), (m, _Atom(self.cutoff)))

    def survival(self, t: float) -> float:
        if t < 0.0:
            raise DomainError("survival is defined on t >= 0")
        if t >= self.cutoff:
            return 0.0
        return math.exp(-self.rate * t)

    def abs_moment(self, r: float) -> float:
        if not r > 0.0:
            raise DomainError("moment order must be positive")
        if self.limit == "two_point":
            return self.cutoff**r
        if self.limit == "exponential":
            return math.exp(math.lgamma(r + 1.0) - r * math.log(self.rate))
        kappa = self.rate * self.cutoff
        log_val = math.lgamma(r) - r * math.log(self.rate)
        if log_val > _LOG_SAFE and kappa <= _KUMMER_MAX:
            # r gamma(r, kappa) = kappa^r e^-kappa M(1, r + 1, kappa)
            kummer = float(_kummer(np.array([r + 1.0]), kappa)[0][0])
            return math.exp(r * math.log(self.cutoff) + math.log(kummer))
        p_reg = specfun.reg_lower_inc_gamma(r, kappa)
        return r * math.exp(log_val) * p_reg

    def atom_mass(self) -> float:
        if self.limit == "two_point":
            return 1.0
        if self.limit == "exponential":
            return 0.0
        return math.exp(-self.rate * self.cutoff)

    def char_cap(self, p: float = 4.0) -> float:
        # bounded by the cutoff, and below half the rate its coefficients fall fourfold;
        # cutoff = inf and rate = 0 at the limits
        return max(fourier.stretch(p) / self.cutoff, 0.5 * self.rate)

    def to_record(self) -> dict:
        return {"family": "gplus", "rate": self.rate, "cutoff": self.cutoff}


# ---------------------------------------------------------------------------
# feasibility and matching


@dataclass(frozen=True)
class MatchTarget:
    """Target moment pair: EX^2 = a^2 and E|X|^p = b^p."""

    p: float
    a: float
    b: float

    def __post_init__(self):
        if not self.p > 2.0:
            raise DomainError("matching requires p > 2")
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError("moment roots a, b must be positive")
        for name, root, power in (("a^2", self.a, 2.0), ("b^p", self.b, self.p)):
            try:
                moment = root**power
            except OverflowError:
                moment = math.inf
            if not 0.0 < moment < math.inf:
                raise DomainError(f"the target moment {name} = {root!r}^{power!r} is "
                                  f"{moment!r} in double precision")


def feasibility_interval_density(p: float):
    """Range of b/a achievable by symmetric log-concave laws: from the
    uniform endpoint sqrt(3) (p+1)^(-1/p) to the two-sided exponential
    endpoint Gamma(p+1)^(1/p) / sqrt(2)."""
    if not p > 2.0:
        raise DomainError("feasibility interval requires p > 2")
    lo = math.sqrt(3.0) * (p + 1.0) ** (-1.0 / p)
    hi = math.exp(math.lgamma(p + 1.0) / p) / math.sqrt(2.0)
    return lo, hi


def feasibility_interval_tail(p: float):
    """Range of b/a for laws with log-concave tails, derived from the
    boundary members of the tail families: the two-point law (ratio 1)
    and the exponential tail (shared with the density interval)."""
    _, hi = feasibility_interval_density(p)
    return 1.0, hi


def _classify_ratio(ratio: float, lo: float, hi: float) -> str:
    if abs(ratio - lo) <= _BOUNDARY_RTOL * lo:
        return "lo"
    if abs(ratio - hi) <= _BOUNDARY_RTOL * hi:
        return "hi"
    if lo < ratio < hi:
        return "interior"
    raise FeasibilityError(
        f"moment ratio b/a = {ratio:.12g} outside the feasible interval "
        f"[{lo:.12g}, {hi:.12g}]"
    )


_ROOT_XTOL, _ROOT_RTOL, _ROOT_ITER = 1e-300, 1e-15, 200


def _bracketed_root(g, lo: float, hi: float) -> float:
    """Root of a monotone g with a sign change on [lo, hi] by Brent's method.

    A line-for-line port of scipy.optimize.brentq (scipy's
    optimize/Zeros/brentq.c, after Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4): the same steps in the same double arithmetic
    at xtol = 1e-300, rtol = 1e-15 and 200 iterations, so every root is bit
    for bit the float brentq returns, without loading scipy.optimize.  A NaN
    from g raises ValueError, as brentq does; 200 iterations without
    convergence raise FeasibilityError."""

    def f(x: float) -> float:
        fx = float(g(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = lo, hi
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise FeasibilityError(
            "failed to bracket the moment equation (target outside the "
            "family's reachable range)"
        )
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_ITER):
        # xcur is the best estimate, [xcur, xblk] brackets the root, xpre the previous xcur
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_XTOL + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise FeasibilityError(
        f"the moment equation did not converge in {_ROOT_ITER} Brent steps on [{lo!r}, {hi!r}]")


def _check_match(member, target: MatchTarget, rtol: float = 1e-8):
    m2 = member.abs_moment(2.0)
    mp = member.abs_moment(target.p)
    if abs(m2 - target.a**2) > rtol * target.a**2 or abs(
        mp - target.b**target.p
    ) > rtol * target.b**target.p:
        raise FeasibilityError(
            f"matched member failed the moment check: EX^2 = {m2!r} vs "
            f"{target.a**2!r}, E|X|^p = {mp!r} vs {target.b ** target.p!r}"
        )
    return member


def _gamma_of_rho(rho: float, a: float) -> float:
    # tail rate along the minus-family path with the second moment pinned at a^2
    return math.sqrt(2.0 + (rho**3 + 3.0 * rho**2) / (3.0 * (rho + 1.0))) / a


def _match(target: MatchTarget, interval, ends: dict, member_of, bracket):
    """The family member with the target moments: ends["lo"] or ends["hi"]
    of a at either end of the feasible interval, else member_of(t, a) at the
    root t in bracket of E|X|^p / b^p - 1 along that second-moment-pinned path,
    or the nearer end member where the bracket does not reach the ratio and
    that member's moments pass _check_match."""
    lo, hi = interval(target.p)
    ratio = target.b / target.a
    where = _classify_ratio(ratio, lo, hi)
    if where != "interior":
        return ends[where](target.a)
    bp = target.b**target.p

    def excess(t: float) -> float:
        try:
            return member_of(t, target.a).abs_moment(target.p) / bp - 1.0
        except OverflowError:  # a moment past the float range, so past b^p
            return sys.float_info.max

    try:
        t = _bracketed_root(excess, *bracket)
    except FeasibilityError:
        # between an end and the bracket's reach: the end member, where its moments match
        return _check_match(ends["lo" if ratio - lo < hi - ratio else "hi"](target.a), target)
    return _check_match(member_of(t, target.a), target)


def _fminus_path(rho: float, a: float) -> PlateauExpDensity:
    gam = _gamma_of_rho(rho, a)
    return PlateauExpDensity(rho / gam, gam)


def _fplus_path(kappa: float, a: float) -> TruncatedExpDensity:
    gam = math.sqrt(2.0 * specfun.reg_lower_inc_gamma(3.0, kappa) / -math.expm1(-kappa)) / a
    return TruncatedExpDensity(kappa / gam, gam)


def _gminus_path(rho: float, a: float) -> TailLawMinus:
    rate = math.sqrt(rho * rho + 2.0 * rho + 2.0) / a
    return TailLawMinus(rate, rho / rate)


def _gplus_path(kappa: float, a: float) -> TailLawPlus:
    rate = math.sqrt(2.0 * specfun.reg_lower_inc_gamma(2.0, kappa)) / a
    return TailLawPlus(rate, kappa / rate)


def match_density_minus(target: MatchTarget) -> PlateauExpDensity:
    """The unique plateau-exponential density with the target moments."""
    return _match(target, feasibility_interval_density,
                  {"lo": lambda a: PlateauExpDensity(math.sqrt(3.0) * a, math.inf),
                   "hi": lambda a: PlateauExpDensity(0.0, math.sqrt(2.0) / a)},
                  _fminus_path, (1e-6, 1e6))


def match_density_plus(target: MatchTarget) -> TruncatedExpDensity:
    """The unique truncated-exponential density with the target moments."""
    return _match(target, feasibility_interval_density,
                  {"lo": lambda a: TruncatedExpDensity(math.sqrt(3.0) * a, 0.0),
                   "hi": lambda a: TruncatedExpDensity(math.inf, math.sqrt(2.0) / a)},
                  _fplus_path, (1e-12, 500.0))


# tail family -> (end members, path, root bracket), the last three arguments of _match
_TAIL_PATHS = {
    "minus": ({"lo": lambda a: TailLawMinus(math.inf, a),
               "hi": lambda a: TailLawMinus(math.sqrt(2.0) / a, 0.0)},
              _gminus_path, (1e-12, 1e8)),
    "plus": ({"lo": lambda a: TailLawPlus(0.0, a),
              "hi": lambda a: TailLawPlus(math.sqrt(2.0) / a, math.inf)},
             _gplus_path, (1e-12, 600.0)),
}


def match_tail(target: MatchTarget, family: str):
    """The unique tail-family law with the target moments.

    family "minus" parametrizes by rate*offset, "plus" by rate*cutoff;
    both paths pin the second moment and solve the p-th monotonically.
    """
    if family not in _TAIL_PATHS:
        raise DomainError(f"unknown tail family {family!r}; use 'minus' or 'plus'")
    return _match(target, feasibility_interval_tail, *_TAIL_PATHS[family])

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
tags, never by feeding infinities into formulas.  Every law here answers
pdf, cdf, abs_moment, atoms and support_halfwidth, the calls verify uses,
and the closed-form characteristic function the Fourier route for sums
takes (fourier.plan_sum): char_gap, char_taylor, char_envelope and char_cap.
"""

from __future__ import annotations

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


def _offset_exp_taylor(n: int, offset: float, rate: float) -> tuple[np.ndarray, float]:
    """E (offset + Y)^(2i) / (2i)! for i = 0..n, Y exponential of the rate:
    sum_m offset^m / m! rate^-(2i - m), a convolution of nonnegative terms,
    and its relative error bound."""
    powers = np.cumprod(np.full(2 * n + 1, 1.0 / rate))
    powers = np.concatenate(([1.0], powers[:-1]))  # rate^-l, l = 0..2n
    out = np.convolve(fourier.taylor_exp(offset, 2 * n), powers)[: 2 * n + 1 : 2]
    return out, (8.0 * n + 4.0) * _EPS


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
# density families


@dataclass(frozen=True)
class PlateauExpDensity:
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

    def normalizer(self) -> float:
        if self.limit == "uniform":
            return 1.0 / (2.0 * self.alpha)
        return 1.0 / (2.0 * (self.alpha + 1.0 / self.gamma))

    def pdf(self, x: float) -> float:
        ax = abs(x)
        if self.limit == "uniform":
            return self.normalizer() if ax <= self.alpha else 0.0
        return self.normalizer() * math.exp(-self.gamma * max(ax - self.alpha, 0.0))

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        ax = np.abs(x)
        c = self.normalizer()
        upper = 0.5 + c * np.minimum(ax, self.alpha)
        if self.limit != "uniform":
            decay = np.exp(-self.gamma * np.maximum(ax - self.alpha, 0.0))
            upper = upper + c / self.gamma * (1.0 - decay)
        return np.where(x < 0.0, 1.0 - upper, upper)[()]

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

    def atoms(self) -> dict:
        return {}

    def support_halfwidth(self) -> float:
        return self.alpha if self.limit == "uniform" else self.alpha + _DECAY / self.gamma

    def char_cap(self, p: float = 4.0) -> float:
        # the plateau's width, and the poles of phi at +-i gamma
        if self.limit == "exponential":
            return 0.5 * self.gamma
        # gamma = inf for the uniform limit
        return min(fourier.stretch(p) / self.alpha, 0.5 * self.gamma)

    def char_taylor(self, n: int, s: float = 1.0) -> tuple[np.ndarray, float]:
        """E (sX)^(2i) / (2i)!: |X| is uniform on [0, alpha] with probability
        alpha gamma / (alpha gamma + 1), else alpha plus an exponential of rate
        gamma."""
        uniform, uniform_rel = fourier.taylor_uniform(s * self.alpha, n)
        if self.limit == "uniform":
            return uniform, uniform_rel
        tail, rel = _offset_exp_taylor(n, s * self.alpha, self.gamma / s)
        w = self.alpha * self.gamma
        return (w * uniform + tail) / (w + 1.0), max(rel, uniform_rel) + 4.0 * _EPS

    def char_gap(self, t) -> np.ndarray:
        """1 - phi(t), phi = 2c [sin(alpha t) / t + (gamma cos(alpha t) - t sin(alpha t))
        / (gamma^2 + t^2)] with 2c = 1 / (alpha + 1 / gamma)."""
        a, g = self.alpha, self.gamma
        if self.limit == "exponential":
            return fourier.laplace_gap(g, t)
        if self.limit == "uniform":
            return fourier.cap_split_gap(self, t, lambda t: 1.0 - np.sin(a * t) / (a * t))
        return fourier.cap_split_gap(self, t, lambda t: 1.0 - g / (a * g + 1.0) * (
            np.sin(a * t) / t + (g * np.cos(a * t) - t * np.sin(a * t)) / (g * g + t * t)))

    def char_envelope(self, t) -> np.ndarray:
        """|phi(t)| <= 2c (1 / t + 1 / sqrt(gamma^2 + t^2)), gamma^2 / (gamma^2 + t^2)
        for the exponential and 1 / (alpha t) for the uniform limit."""
        t = np.asarray(t, dtype=float)
        a, g = self.alpha, self.gamma
        if self.limit == "exponential":
            return g * g / (g * g + t * t)
        if self.limit == "uniform":
            return fourier.uniform_envelope(a, t)
        with np.errstate(divide="ignore"):
            return np.minimum(1.0, g / (a * g + 1.0) * (1.0 / t + 1.0 / np.hypot(g, t)))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        signs = rng.integers(0, 2, size=n) * 2 - 1
        u = rng.random(n)
        if self.limit == "uniform":
            return signs * self.alpha * u
        if self.limit == "exponential":
            return signs * rng.exponential(1.0 / self.gamma, size=n)
        plateau_mass = self.alpha / (self.alpha + 1.0 / self.gamma)
        width = self.alpha + 1.0 / self.gamma
        mags = np.where(
            u < plateau_mass,
            u * width,
            self.alpha + rng.exponential(1.0 / self.gamma, size=n),
        )
        return signs * mags

    def to_record(self) -> dict:
        return {"family": "fminus", "alpha": self.alpha, "gamma": self.gamma}


@dataclass(frozen=True)
class TruncatedExpDensity:
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

    def normalizer(self) -> float:
        if self.limit == "uniform":
            return 1.0 / (2.0 * self.alpha)
        if self.limit == "exponential":
            return self.gamma / 2.0
        return self.gamma / (2.0 * -math.expm1(-self.alpha * self.gamma))

    def pdf(self, x: float) -> float:
        ax = abs(x)
        if ax > self.alpha:
            return 0.0
        if self.limit == "uniform":
            return self.normalizer()
        return self.normalizer() * math.exp(-self.gamma * ax)

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        ax = np.abs(x)
        if self.limit == "uniform":
            upper = 0.5 + np.minimum(ax, self.alpha) / (2.0 * self.alpha)
        elif self.limit == "exponential":
            upper = 1.0 - 0.5 * np.exp(-self.gamma * ax)
        else:
            num = -np.expm1(-self.gamma * np.minimum(ax, self.alpha))
            den = -math.expm1(-self.alpha * self.gamma)
            upper = 0.5 + 0.5 * num / den
        return np.where(x < 0.0, 1.0 - upper, upper)[()]

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

    def atoms(self) -> dict:
        return {}

    def support_halfwidth(self) -> float:
        return _DECAY / self.gamma if self.limit == "exponential" else self.alpha

    @property
    def _char_limit(self) -> str:
        # past _KUMMER_MAX the cut tail e^-kappa is below every rounding
        return "exponential" if self.alpha * self.gamma > _KUMMER_MAX else self.limit

    def char_cap(self, p: float = 4.0) -> float:
        # bounded by alpha, and below half the rate its coefficients fall fourfold
        if self._char_limit == "uniform":
            return fourier.stretch(p) / self.alpha
        if self._char_limit == "exponential":
            return 0.5 * self.gamma
        return max(fourier.stretch(p) / self.alpha, 0.5 * self.gamma)

    def char_taylor(self, n: int, s: float = 1.0) -> tuple[np.ndarray, float]:
        """E (sX)^(2i) / (2i)! = (s / gamma)^(2i) P(2i + 1, kappa) / (1 - e^-kappa),
        kappa = alpha gamma, through _kummer at b = 2i + 2."""
        if self._char_limit == "exponential":
            return fourier.taylor_laplace(s / self.gamma, n)
        uniform, uniform_rel = fourier.taylor_uniform(s * self.alpha, n)
        if self.limit == "uniform":
            return uniform, uniform_rel
        kappa = self.alpha * self.gamma
        kummer, rel = _kummer(2.0 * np.arange(n + 1) + 2.0, kappa)
        return kappa / -math.expm1(-kappa) * uniform * kummer, rel + uniform_rel + 3.0 * _EPS

    def char_gap(self, t) -> np.ndarray:
        """1 - phi(t), phi = gamma [gamma - e^-kappa (gamma cos(alpha t) - t sin(alpha t))]
        / ((1 - e^-kappa)(gamma^2 + t^2))."""
        a, g = self.alpha, self.gamma
        if self._char_limit == "exponential":
            return fourier.laplace_gap(g, t)
        if self.limit == "uniform":
            return fourier.cap_split_gap(self, t, lambda t: 1.0 - np.sin(a * t) / (a * t))
        m, one_minus_m = math.exp(-a * g), -math.expm1(-a * g)
        return fourier.cap_split_gap(self, t, lambda t: 1.0 - g * (
            g - m * (g * np.cos(a * t) - t * np.sin(a * t))) / (one_minus_m * (g * g + t * t)))

    def char_envelope(self, t) -> np.ndarray:
        """|phi(t)| <= [gamma^2 + gamma e^-kappa sqrt(gamma^2 + t^2)]
        / ((1 - e^-kappa)(gamma^2 + t^2)), and 1 / (alpha t) for the uniform limit."""
        t = np.asarray(t, dtype=float)
        a, g = self.alpha, self.gamma
        if self.limit == "uniform":
            return fourier.uniform_envelope(a, t)
        m, one_minus_m = math.exp(-a * g), -math.expm1(-a * g)  # 0 and 1 for the exponential
        return np.minimum(1.0, g * (g + m * np.hypot(g, t)) / (one_minus_m * (g * g + t * t)))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        signs = rng.integers(0, 2, size=n) * 2 - 1
        u = rng.random(n)
        if self.limit == "uniform":
            return signs * self.alpha * u
        if self.limit == "exponential":
            return signs * rng.exponential(1.0 / self.gamma, size=n)
        mags = -np.log1p(u * np.expm1(-self.alpha * self.gamma)) / self.gamma
        return signs * mags

    def to_record(self) -> dict:
        return {"family": "fplus", "alpha": self.alpha, "gamma": self.gamma}


# ---------------------------------------------------------------------------
# tail-law families


@dataclass(frozen=True)
class TailLawMinus:
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

    def atoms(self) -> dict:
        if self.limit == "two_point":
            return {-self.offset: 0.5, self.offset: 0.5}
        return {}

    def support_halfwidth(self) -> float:
        if self.limit == "two_point":
            return self.offset
        return self.offset + (_DECAY + 4.0) / self.rate

    def char_cap(self, p: float = 4.0) -> float:
        # the offset, and the poles of phi at +-i rate
        if self.limit == "exponential":
            return 0.5 * self.rate
        # rate = inf for the two-point limit
        return min(fourier.stretch(p) / self.offset, 0.5 * self.rate)

    def char_taylor(self, n: int, s: float = 1.0) -> tuple[np.ndarray, float]:
        """E (sX)^(2i) / (2i)! for |X| = offset plus an exponential of the rate."""
        if self.limit == "two_point":
            return fourier.taylor_cos(s * self.offset, n), 3.0 * n * _EPS
        return _offset_exp_taylor(n, s * self.offset, self.rate / s)

    def char_gap(self, t) -> np.ndarray:
        """1 - phi(t), phi = rate (rate cos(offset t) - t sin(offset t)) / (rate^2 + t^2),
        cos(offset t) for the two-point law."""
        t = np.asarray(t, dtype=float)
        r, o = self.rate, self.offset
        if self.limit == "two_point":
            return 2.0 * np.sin(0.5 * o * t) ** 2
        if self.limit == "exponential":
            return fourier.laplace_gap(r, t)
        return fourier.cap_split_gap(self, t, lambda t: 1.0 - r * (
            r * np.cos(o * t) - t * np.sin(o * t)) / (r * r + t * t))

    def char_envelope(self, t) -> np.ndarray:
        """|phi(t)| <= rate / sqrt(rate^2 + t^2); 1 for the two-point law."""
        t = np.asarray(t, dtype=float)
        if self.limit == "two_point":
            return np.ones_like(t)
        return self.rate / np.hypot(self.rate, t)

    def pdf(self, x: float) -> float:
        """Density of the continuous part of the signed law."""
        if self.limit == "two_point":
            return 0.0
        ax = abs(x)
        if ax < self.offset:
            return 0.0
        return 0.5 * self.rate * math.exp(-self.rate * (ax - self.offset))

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """CDF of the continuous part (the whole law unless two-point)."""
        if self.limit == "two_point":
            return np.zeros(np.shape(x))[()]
        decay = np.exp(-self.rate * np.maximum(np.abs(x) - self.offset, 0.0))
        upper = 1.0 - 0.5 * decay
        return np.where(x < 0.0, 1.0 - upper, upper)[()]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        signs = rng.integers(0, 2, size=n) * 2 - 1
        if self.limit == "two_point":
            return signs * self.offset
        return signs * (self.offset + rng.exponential(1.0 / self.rate, size=n))

    def to_record(self) -> dict:
        return {"family": "gminus", "rate": self.rate, "offset": self.offset}


@dataclass(frozen=True)
class TailLawPlus:
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

    def atoms(self) -> dict:
        m = self.atom_mass()
        if m == 0.0:
            return {}
        return {-self.cutoff: m / 2.0, self.cutoff: m / 2.0}

    def support_halfwidth(self) -> float:
        return _DECAY / self.rate if self.limit == "exponential" else self.cutoff

    @property
    def _char_limit(self) -> str:
        # past _KUMMER_MAX the atom e^-kappa is below every rounding
        return "exponential" if self.rate * self.cutoff > _KUMMER_MAX else self.limit

    def char_cap(self, p: float = 4.0) -> float:
        # bounded by the cutoff, and below half the rate its coefficients fall fourfold
        if self._char_limit == "two_point":
            return fourier.stretch(p) / self.cutoff
        if self._char_limit == "exponential":
            return 0.5 * self.rate
        return max(fourier.stretch(p) / self.cutoff, 0.5 * self.rate)

    def char_taylor(self, n: int, s: float = 1.0) -> tuple[np.ndarray, float]:
        """E (sX)^(2i) / (2i)! = (s / rate)^(2i) P(2i + 1, kappa) + m (s c)^(2i) / (2i)!,
        kappa = rate * cutoff c and m = e^-kappa the atom, through _kummer at b = 2i + 2."""
        if self._char_limit == "exponential":
            return fourier.taylor_laplace(s / self.rate, n)
        atom = fourier.taylor_cos(s * self.cutoff, n)
        if self.limit == "two_point":
            return atom, 3.0 * n * _EPS
        kappa = self.rate * self.cutoff
        kummer, rel = _kummer(2.0 * np.arange(n + 1) + 2.0, kappa)
        uniform, uniform_rel = fourier.taylor_uniform(s * self.cutoff, n)
        return kappa * uniform * kummer + math.exp(-kappa) * atom, rel + uniform_rel + 3.0 * _EPS

    def char_gap(self, t) -> np.ndarray:
        """1 - phi(t), phi = rate (rate - m (rate cos(ct) - t sin(ct))) / (rate^2 + t^2)
        + m cos(ct) for the cutoff c and the atom m; the atom's part of 1 - phi is
        2 m sin^2(ct / 2)."""
        t = np.asarray(t, dtype=float)
        r, c = self.rate, self.cutoff
        if self.limit == "two_point":
            return 2.0 * np.sin(0.5 * c * t) ** 2
        if self._char_limit == "exponential":
            return fourier.laplace_gap(r, t)
        m = self.atom_mass()
        return fourier.cap_split_gap(self, t, lambda t: (
            (1.0 - m) + 2.0 * m * np.sin(0.5 * c * t) ** 2
            - r * (r - m * (r * np.cos(c * t) - t * np.sin(c * t))) / (r * r + t * t)))

    def char_envelope(self, t) -> np.ndarray:
        """|phi(t)| <= rate^2 / (rate^2 + t^2) + m rate / sqrt(rate^2 + t^2) + m."""
        t = np.asarray(t, dtype=float)
        if self.limit == "two_point":
            return np.ones_like(t)
        r, m = self.rate, self.atom_mass()
        return np.minimum(1.0, r * r / (r * r + t * t) + m * r / np.hypot(r, t) + m)

    def pdf(self, x: float) -> float:
        """Density of the continuous part of the signed law."""
        ax = abs(x)
        if self.limit == "two_point" or ax >= self.cutoff:
            return 0.0
        return 0.5 * self.rate * math.exp(-self.rate * ax)

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """CDF of the continuous part only (atoms reported separately)."""
        if self.limit == "two_point":
            return np.zeros(np.shape(x))[()]
        cont = 1.0 - self.atom_mass()
        decay = np.exp(-self.rate * np.minimum(np.abs(x), self.cutoff))
        upper = 0.5 * cont + 0.5 * (1.0 - decay)
        return np.where(x < 0.0, cont - upper, upper)[()]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        signs = rng.integers(0, 2, size=n) * 2 - 1
        if self.limit == "two_point":
            return signs * self.cutoff
        mags = rng.exponential(1.0 / self.rate, size=n)
        return signs * np.minimum(mags, self.cutoff)

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
    try:
        t = _bracketed_root(
            lambda t: member_of(t, target.a).abs_moment(target.p) / bp - 1.0, *bracket)
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

"""Special functions backing the closed-form constant formulas.

Pure deterministic functions: the package calls ``math.lgamma`` for
log-gamma directly, and the regularized incomplete gamma functions are
``scipy.special.gammainc`` / ``gammaincc``.
Written here is only what scipy lacks: the exponentially scaled upper gamma
e^x Gamma(s) Q(s, x), whose e^x overflows past x ~ 709.  Also absolute
moments of a standard Gaussian and the normalizer 1/E|cos(2*pi*U)|^p of the
real projection of a Steinhaus variable.
"""

from __future__ import annotations

import math

from scipy.special import gammainc, gammaincc

from .errors import DomainError

__all__ = [
    "reg_lower_inc_gamma",
    "reg_upper_inc_gamma",
    "log_upper_gamma_exp_scaled",
    "gaussian_abs_moment",
    "steinhaus_beta",
]

_HALF_LOG_PI = 0.5 * math.log(math.pi)


def _check(name: str, s: float, x: float) -> None:
    if not s > 0.0:
        raise DomainError(f"{name} requires s > 0, got {s!r}")
    if x < 0.0:
        raise DomainError(f"{name} requires x >= 0, got {x!r}")


def reg_lower_inc_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x), in [0, 1].

    Nondecreasing in x with P(s, 0) = 0 and P(s, inf) = 1.
    """
    _check("reg_lower_inc_gamma", s, x)
    return float(gammainc(s, x))


def reg_upper_inc_gamma(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = 1 - P(s, x), computed
    directly so that tiny tail values keep full relative accuracy."""
    _check("reg_upper_inc_gamma", s, x)
    return float(gammaincc(s, x))


def log_upper_gamma_exp_scaled(s: float, x: float) -> float:
    """log of integral_x^inf t^(s-1) exp(x - t) dt  ( = e^x Gamma(s) Q(s,x) ).

    The exponential rescaling keeps the value representable for large x,
    where e^x and Q(s, x) would individually over/underflow.  Used for
    moments of densities with exponential tails starting at an offset.
    Below x = s+1 it is x + lnGamma(s) + ln Q(s, x); from there on it is
    s ln x + ln h, where Q(s, x) = exp(-x + s ln x - lnGamma(s)) h and h is
    a continued fraction summed by the modified Lentz iteration.
    """
    _check("log_upper_gamma_exp_scaled", s, x)
    if x < s + 1.0:
        return x + math.lgamma(s) + math.log(gammaincc(s, x))
    tiny = 1e-300
    b = x + 1.0 - s  # >= 2
    c = 1.0 / tiny
    d = h = 1.0 / b
    for i in range(1, 600):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return s * math.log(x) + math.log(h)


def gaussian_abs_moment(p: float) -> float:
    """E|Z|^p for a standard Gaussian Z: 2^(p/2) Gamma((p+1)/2) / sqrt(pi)."""
    if p < 0.0:
        raise DomainError(f"gaussian_abs_moment requires p >= 0, got {p!r}")
    return math.exp(0.5 * p * math.log(2.0) + math.lgamma(0.5 * (p + 1.0)) - _HALF_LOG_PI)


def steinhaus_beta(p: float) -> float:
    """1 / E|cos(2 pi U)|^p = sqrt(pi) Gamma((p+2)/2) / Gamma((p+1)/2)."""
    if not p > 0.0:
        raise DomainError(f"steinhaus_beta requires p > 0, got {p!r}")
    return math.exp(
        _HALF_LOG_PI + math.lgamma(0.5 * (p + 2.0)) - math.lgamma(0.5 * (p + 1.0))
    )

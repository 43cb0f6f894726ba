"""Symmetric base laws of mixtures.

A BaseDistribution is the law of a symmetric V (independent fair signs),
one small subclass per kind, each answering its own methods: the random
sign, the symmetric uniform, the standard Gaussian, the real projection
cos(2*pi*U) of a Steinhaus variable, and finite symmetric atomic laws.
These cover every closed-form example the constants need while keeping all
moments exact, and each has a closed-form real characteristic function
(char_fn; char_gap is 1 - phi to full relative accuracy).

A k-fold sum V~_1 + ... + V~_k is the thinned sum of constants at unit
scales and activations: its moment is constants._thinned_sum_moment's, and
its spectral grid reference constants._thinned_grid_result's.  walk_law
gives the exact law of a random-sign walk.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy import special

from . import fourier, specfun
from .errors import DegenerateLawError, DomainError, UnsupportedMethodError

__all__ = [
    "BaseDistribution",
    "RandomSign", "Uniform", "Gaussian", "Cosine", "Atoms",
    "ConditionedBase",
    "rademacher", "uniform", "gaussian", "cosine_projection", "symmetric_atoms",
    "parse_base_spec",
    "abs_moment",
    "condition_nonzero",
]

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class BaseDistribution:
    """The law of a symmetric V; each kind is a subclass.  Equality and hashing
    go by class and fields."""

    kind: ClassVar[str]
    cp_route: ClassVar[str] = "fourier"  # cpoisson's route at non-even p
    thinned_route: ClassVar[str] = "fourier"  # constants' route of a short thinned sum
    is_atomic: ClassVar[bool] = False
    zero_mass: ClassVar[float] = 0.0

    def abs_moment(self, r: float) -> float:
        """E|V|^r (the module's abs_moment)."""
        return abs_moment(self, r)

    def char_fn(self, t: np.ndarray) -> np.ndarray:
        """phi(t) = E cos(tV): cos t, sin(wt) / (wt), exp(-t^2 / 2), J0(t) or
        sum m cos(a t), to an absolute error of a few ulps."""
        return 1.0 - self.char_gap(t)

    def char_cap(self, p: float = 4.0) -> float:
        """The largest t at which the Fourier sum route takes the Taylor series of
        phi at order p: max(1, p / 4) / the support bound (at the default p = 4,
        where char_gap's series ends), and 2 sqrt(max(1, p / 4)) for the
        Gaussian.  Its Taylor terms (t^2 / 2)^i / i! peak near exp(t^2 / 2), so
        their alternating sum loses about exp(p / 2) of its relative accuracy at
        that cap, where a cap linear in p would lose exp(p^2 / 8); and the unit
        sqrt(p / 4) / sqrt(n) of n i.i.d. unit Gaussians stays below it."""
        bound = self.support_bound()
        if bound is None:
            return 2.0 * math.sqrt(fourier.stretch(p))
        return fourier.stretch(p) / bound

    def scaled(self, c: float) -> "BaseDistribution":
        """The law of c V, c > 0: uniform and atomic laws scale, the rest only by 1."""
        if c == 1.0:
            return self
        raise UnsupportedMethodError(f"no scaled {self.kind} law")

    def signed_atoms(self) -> dict:
        """Signed law as {location: mass} for atomic kinds."""
        raise UnsupportedMethodError(f"{self.kind} law is not atomic")

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """CDF of the signed law (continuous kinds only), elementwise:
        cdf(edges: ndarray) -> ndarray, and a scalar for a scalar."""
        raise UnsupportedMethodError(f"no continuous CDF for kind {self.kind!r}")


@dataclass(frozen=True)
class Atoms(BaseDistribution):
    """A finite symmetric atomic law: |V| = location with its mass."""

    atoms: tuple  # ((location, mass), ...), locations >= 0 increasing
    kind = "atoms"
    is_atomic = True
    thinned_route = "exact_enum"

    def __post_init__(self):
        if not self.atoms:
            raise DomainError("atomic law needs at least one atom")
        locs, masses = zip(*self.atoms)
        if not all(map(math.isfinite, locs + masses)):
            raise DomainError(f"atom locations and masses must be finite, got {self.atoms!r}")
        if any(loc < 0 for loc in locs):
            raise DomainError("atom locations must be nonnegative")
        if any(l2 <= l1 for l1, l2 in zip(locs, locs[1:])):
            raise DomainError("atom locations must be strictly increasing")
        if any(m <= 0 for m in masses):
            raise DomainError("atom masses must be positive")
        if abs(math.fsum(masses) - 1.0) > 1e-12:
            raise DomainError("atom masses must sum to 1")
        if self.zero_mass >= 1.0:
            raise DegenerateLawError("law is identically zero")

    @property
    def zero_mass(self) -> float:
        return self.atoms[0][1] if self.atoms[0][0] == 0.0 else 0.0

    def support_bound(self) -> float | None:
        """Largest possible |V|, or None for unbounded support."""
        return self.atoms[-1][0]

    def variance_proxy(self) -> float:
        """s^2 with E exp(tV) <= exp(s^2 t^2 / 2): a certified s^2 >= sup_t 2 L(t)
        / t^2, L(t) = log E cosh(tV), near E V^2 = m2 where Hoeffding gives b^2 =
        max V^2.  Below t = 0.1 / b, L(t) <= m2 (cosh(tb) - 1) / b^2 termwise;
        above 2 b / m2, L(t) <= tb; between, L increases, so 2 L(t_{j+1}) / t_j^2
        bounds the ratio on [t_j, t_{j+1}] of a geometric grid."""
        law = self.signed_atoms()
        locs, masses = np.array(list(law)), np.array(list(law.values()))
        b, m2 = float(locs.max()), float((masses * locs**2).sum())
        t = (0.1 / b) * 1.001 ** np.arange(int(math.log(20.0 * b * b / m2) / math.log(1.001)) + 3)
        L = special.logsumexp(np.outer(t[1:], locs), axis=1, b=masses)
        return max(m2 * (math.cosh(0.1) - 1.0) / 0.005, float((2.0 * L / t[:-1] ** 2).max()))

    def signed_atoms(self) -> dict:
        out: dict = {}
        for loc, mass in self.atoms:
            if loc == 0.0:
                out[0.0] = mass
            else:
                out[loc] = mass / 2.0
                out[-loc] = mass / 2.0
        return out

    def scaled(self, c: float) -> "BaseDistribution":
        return self if c == 1.0 else symmetric_atoms((loc * c, mass) for loc, mass in self.atoms)

    def char_gap(self, t: np.ndarray) -> np.ndarray:
        """1 - phi(t) = 2 sum m sin^2(a t / 2), to full relative accuracy."""
        t = np.abs(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        for loc, mass in self.atoms:
            out += 2.0 * mass * np.sin(0.5 * loc * t) ** 2
        return out

    def char_taylor(self, n: int, s: float = 1.0) -> tuple[np.ndarray, float]:
        """sum m (s a)^(2i) / (2i)! for i = 0..n, and a bound on their relative error."""
        out = sum(mass * fourier.taylor_cos(s * loc, n) for loc, mass in self.atoms)
        return out, (3.0 * n + len(self.atoms) + 2.0) * _EPS

    def char_envelope(self, t: np.ndarray) -> np.ndarray:
        """A nonincreasing bound on |phi| from t >= 0 on: 1."""
        return np.ones_like(np.asarray(t, dtype=float))

    def _moment(self, r: float) -> float:
        return math.fsum(mass * loc**r for loc, mass in self.atoms)


@dataclass(frozen=True)
class RandomSign(Atoms):
    """V = +-1 with probability 1/2 each: its signed law and moments in closed form."""

    atoms: tuple = field(default=((1.0, 1.0),), init=False, repr=False)
    kind = "rademacher"
    cp_route = "exact_walk"

    def signed_atoms(self) -> dict:
        return {-1.0: 0.5, 1.0: 0.5}

    def _moment(self, r: float) -> float:
        return 1.0


@dataclass(frozen=True)
class Gaussian(BaseDistribution):
    """The standard Gaussian, also verify's matching source (pdf, atoms, support_halfwidth)."""

    kind = "gaussian"
    cp_route = "exact_gaussian"

    def support_bound(self) -> float | None:
        return None

    def variance_proxy(self) -> float:
        return 1.0

    def char_gap(self, t: np.ndarray) -> np.ndarray:
        return -np.expm1(-0.5 * np.square(np.asarray(t, dtype=float)))

    def char_taylor(self, n: int, s: float = 1.0) -> tuple[np.ndarray, float]:
        """(s^2 / 2)^i / i! for i = 0..n, and a bound on their relative error."""
        return fourier.taylor_exp(0.5 * s * s, n), (2.0 * n + 2.0) * _EPS

    def char_envelope(self, t: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * np.square(np.asarray(t, dtype=float)))

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        return 0.5 * special.erfc(-x / math.sqrt(2.0))

    def pdf(self, x: float) -> float:
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def atoms(self) -> dict:
        return {}

    def support_halfwidth(self) -> float:
        return 10.0  # density below 1e-16 of the peak beyond ~8.6

    def _moment(self, r: float) -> float:
        return specfun.gaussian_abs_moment(r)


@dataclass(frozen=True)
class Uniform(BaseDistribution):
    """The uniform law on [-w, w], w = half_width."""

    half_width: float = 1.0
    kind = "uniform"
    thinned_route = "exact_uniform"

    def __post_init__(self):
        if not 0.0 < self.half_width < math.inf:
            raise DomainError(f"uniform half_width must be finite and positive: {self.half_width}")

    def support_bound(self) -> float | None:
        return self.half_width

    def variance_proxy(self) -> float:
        return self.half_width**2 / 3.0  # sinh(tb) / (tb) <= exp(t^2 b^2 / 6)

    def scaled(self, c: float) -> "BaseDistribution":
        return self if c == 1.0 else uniform(self.half_width * c)

    def char_gap(self, t: np.ndarray) -> np.ndarray:
        """1 - sin(wt) / (wt): the Taylor series up to char_cap() = 1 / w, the
        closed form beyond."""
        return fourier.cap_split_gap(self, t, self._far_gap, self._cap_series)

    _cap_series = functools.cached_property(fourier.cap_series)

    def _far_gap(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - np.sin(self.half_width * x) / (self.half_width * x)

    def char_taylor(self, n: int, s: float = 1.0) -> tuple[np.ndarray, float]:
        """(s w)^(2i) / (2i + 1)! for i = 0..n, and a bound on their relative error."""
        return fourier.taylor_uniform(s * self.half_width, n)

    def char_envelope(self, t: np.ndarray) -> np.ndarray:
        """A nonincreasing bound on |phi| from t >= 0 on: 1 / (w t)."""
        return fourier.uniform_envelope(self.half_width, np.asarray(t, dtype=float))

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        return np.clip((x + self.half_width) / (2.0 * self.half_width), 0.0, 1.0)

    def _moment(self, r: float) -> float:
        return self.half_width**r / (r + 1.0)


@dataclass(frozen=True)
class Cosine(BaseDistribution):
    """cos(2 pi U), U uniform on [0, 1]: the real projection of a Steinhaus variable."""

    kind = "cosine"

    def support_bound(self) -> float | None:
        return 1.0

    def variance_proxy(self) -> float:
        return 0.5  # I_0(t) <= exp(t^2 / 4)

    def char_gap(self, t: np.ndarray) -> np.ndarray:
        """1 - J0(t): the Taylor series up to char_cap() = 1, the closed form beyond."""
        return fourier.cap_split_gap(self, t, self._far_gap, self._cap_series)

    _cap_series = functools.cached_property(fourier.cap_series)

    def _far_gap(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - special.j0(x)

    def char_taylor(self, n: int, s: float = 1.0) -> tuple[np.ndarray, float]:
        """((s / 2)^i / i!)^2 for i = 0..n, and a bound on their relative error."""
        return fourier.taylor_exp(0.5 * s, n) ** 2, (4.0 * n + 2.0) * _EPS

    def char_envelope(self, t: np.ndarray) -> np.ndarray:
        """min(1, sqrt(2 / (pi t))) >= |J0(t)|: x (J0^2 + Y0^2) increases to 2 / pi."""
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.minimum(1.0, np.sqrt(2.0 / (math.pi * t)))

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        return 1.0 - np.arccos(np.clip(x, -1.0, 1.0)) / math.pi

    def _moment(self, r: float) -> float:
        return 1.0 / specfun.steinhaus_beta(r)


def rademacher() -> BaseDistribution:
    return RandomSign()


def uniform(half_width: float = 1.0) -> BaseDistribution:
    return Uniform(float(half_width))


def gaussian() -> BaseDistribution:
    return Gaussian()


def cosine_projection() -> BaseDistribution:
    return Cosine()


def symmetric_atoms(atoms) -> BaseDistribution:
    return Atoms(tuple(sorted((float(loc), float(mass)) for loc, mass in atoms)))


def parse_number(chunk: str, context: str) -> float:
    """float(chunk), or a DomainError naming the chunk and the text around it."""
    try:
        return float(chunk)
    except ValueError:
        raise DomainError(f"bad number {chunk!r} in {context!r}") from None


def parse_base_spec(text: str) -> BaseDistribution:
    """Parse the textual constructor syntax used by the CLI.

    Accepted forms: ``rademacher``, ``uniform:w=1``, ``gaussian``,
    ``cosine``, ``atoms:0:0.5,1:0.5``.
    """
    head, _, rest = text.strip().partition(":")
    head = head.lower()
    plain = {"rademacher": rademacher, "gaussian": gaussian, "cosine": cosine_projection}
    if head in plain:
        if rest:
            raise DomainError(f"{head} takes no parameters, got {rest!r} in {text!r}")
        return plain[head]()
    if head == "uniform":
        w = 1.0
        if rest:
            key, _, val = rest.partition("=")
            if key != "w":
                raise DomainError(f"bad uniform parameter {rest!r}")
            w = parse_number(val, text)
        return uniform(w)
    if head == "atoms":
        if not rest:
            raise DomainError("atoms spec needs loc:mass pairs")
        pairs = []
        for chunk in rest.split(","):
            loc_s, _, mass_s = chunk.partition(":")
            if not mass_s:
                raise DomainError(f"bad atom entry {chunk!r}")
            pairs.append((parse_number(loc_s, chunk), parse_number(mass_s, chunk)))
        return symmetric_atoms(pairs)
    raise DomainError(f"unknown base distribution spec {text!r}")


def format_base_spec(V: BaseDistribution) -> str:
    if V.kind == "uniform":
        return f"uniform:w={V.half_width:g}"
    if V.kind == "atoms":
        return "atoms:" + ",".join(f"{loc:g}:{mass:g}" for loc, mass in V.atoms)
    return V.kind


@dataclass(frozen=True)
class ConditionedBase:
    """Base law conditioned on being nonzero: P(V~ = 0) = 0."""

    base: BaseDistribution

    def __post_init__(self):
        if self.base.zero_mass != 0.0:
            raise DomainError("conditioned base must carry no mass at zero")

    def abs_moment(self, r: float) -> float:
        return abs_moment(self.base, r)

    def char_fn(self, t: np.ndarray) -> np.ndarray:
        """The base's phi: the base carries no mass at zero."""
        return self.base.char_fn(t)


def abs_moment(V: BaseDistribution, r: float) -> float:
    """E|V|^r, exact for every supported kind; DomainError past the float range."""
    if r < 0:
        raise DomainError("moment order must be nonnegative")
    if r == 0:
        return 1.0
    try:
        return V._moment(r)
    except OverflowError:
        raise DomainError(f"E|V|^{r:g} of {format_base_spec(V)} overflows a float") from None


def condition_nonzero(V: BaseDistribution) -> ConditionedBase:
    """The law of V conditioned on V != 0 (atom at zero removed)."""
    if V.zero_mass == 0.0:
        return ConditionedBase(V)
    keep = 1.0 - V.zero_mass
    scaled = tuple((loc, mass / keep) for loc, mass in V.atoms if loc != 0.0)
    return ConditionedBase(Atoms(scaled))


def walk_law(k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(points 2i - k, P(S_k = 2i - k), their relative error) for the simple
    random-sign walk, i = 0..k, the weights from log-gamma."""
    i = np.arange(k + 1.0)
    top = float(special.gammaln(k + 1.0))
    log_w = top - special.gammaln(i + 1.0) - special.gammaln(k - i + 1.0) - k * math.log(2.0)
    return 2.0 * i - k, np.exp(log_w), 8.0 * _EPS * (top + k + 1.0)


def gaussian_tail_abs_moment(p: float, L: float) -> float:
    """E[|Z|^p ; |Z| > L] for a standard Gaussian."""
    return specfun.gaussian_abs_moment(p) * specfun.reg_upper_inc_gamma(
        0.5 * (p + 1.0), 0.5 * L * L
    )


def _gaussian_grid_halfwidth(p: float, tol: float) -> float:
    """Truncation point of a standard Gaussian summand so the lost moment mass is << tol."""
    L = 8.0
    while gaussian_tail_abs_moment(p, L) > 0.01 * tol:
        L += 1.0
        if L > 60.0:
            break
    return L

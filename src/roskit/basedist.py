"""Symmetric base laws of mixtures.

A BaseDistribution stores the law of |V| for a symmetric variable V;
signs are always independent fair signs.  Supported kinds are the random
sign, the symmetric uniform, the standard Gaussian, the real projection
cos(2*pi*U) of a Steinhaus variable, and finite symmetric atomic laws.
These cover every closed-form example the constants need while keeping
all moments exact, and each has a closed-form real characteristic
function (char_fn; char_gap is 1 - phi to full relative accuracy).

k-fold sum moments E|V~_1 + ... + V~_k|^p come from closed forms, exact
atomic convolution powers, or the gridconv spectral kernel with phi^k in
place of the compound Poisson exp(lambda (phi - 1)).  The samplers serve
cpoisson.cp_sample; walk_law gives the exact law of a random-sign walk.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import discrete, fourier, gridconv, specfun
from .errors import DegenerateLawError, DomainError, InputError, UnsupportedMethodError
from .result import ConstantResult

__all__ = [
    "BaseDistribution",
    "ConditionedBase",
    "rademacher",
    "uniform",
    "gaussian",
    "cosine_projection",
    "symmetric_atoms",
    "parse_base_spec",
    "abs_moment",
    "condition_nonzero",
    "sample_abs",
    "sample_signed",
    "kfold_abs_moment",
]

_KINDS = ("rademacher", "uniform", "gaussian", "cosine", "atoms")
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class BaseDistribution:
    kind: str
    half_width: float = 1.0  # uniform only
    atoms: tuple = ()        # atoms only: ((location, mass), ...), locations >= 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown base kind {self.kind!r}")
        if self.kind == "uniform" and not 0.0 < self.half_width < math.inf:
            raise DomainError(f"uniform half_width must be finite and positive: {self.half_width}")
        if self.kind == "atoms":
            if not self.atoms:
                raise DomainError("atomic law needs at least one atom")
            locs = [a[0] for a in self.atoms]
            masses = [a[1] for a in self.atoms]
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
        if self.kind == "atoms" and self.atoms[0][0] == 0.0:
            return self.atoms[0][1]
        return 0.0

    @property
    def is_atomic(self) -> bool:
        return self.kind in ("rademacher", "atoms")

    def support_bound(self) -> float | None:
        """Largest possible |V|, or None for unbounded support."""
        if self.kind in ("rademacher", "cosine"):
            return 1.0
        if self.kind == "uniform":
            return self.half_width
        if self.kind == "atoms":
            return self.atoms[-1][0]
        return None

    def variance_proxy(self) -> float:
        """The tightest s^2 used here with E exp(tV) <= exp(s^2 t^2 / 2)."""
        if self.is_atomic:
            return _atomic_variance_proxy(self.signed_atoms())
        # sinh(tb) / (tb) <= exp(t^2 b^2 / 6); I_0(t) <= exp(t^2 / 4)
        return {"uniform": self.half_width**2 / 3.0, "cosine": 0.5, "gaussian": 1.0}[self.kind]

    def signed_atoms(self) -> dict:
        """Signed law as {location: mass} for atomic kinds."""
        if self.kind == "rademacher":
            return {-1.0: 0.5, 1.0: 0.5}
        if self.kind != "atoms":
            raise UnsupportedMethodError(f"{self.kind} law is not atomic")
        out: dict = {}
        for loc, mass in self.atoms:
            if loc == 0.0:
                out[0.0] = mass
            else:
                out[loc] = mass / 2.0
                out[-loc] = mass / 2.0
        return out

    def scaled(self, c: float) -> "BaseDistribution":
        """The law of c V, c > 0: uniform and atomic laws scale, the rest only by 1."""
        if c == 1.0:
            return self
        if self.kind == "uniform":
            return uniform(self.half_width * c)
        if self.is_atomic:
            return symmetric_atoms((loc * c, mass) for loc, mass in self.atoms or ((1.0, 1.0),))
        raise UnsupportedMethodError(f"no scaled {self.kind} law")

    def char_gap(self, t: np.ndarray) -> np.ndarray:
        """1 - phi(t), phi = E cos(tV) the real characteristic function, to
        full relative accuracy also where phi is near 1: 2 sum m sin^2(a t / 2)
        for atoms, -expm1(-t^2 / 2) for the Gaussian, and for uniform and
        cosine laws their Taylor series in the even moments below |t| b = 1."""
        t = np.abs(np.asarray(t, dtype=float))
        if self.is_atomic:
            out = np.zeros_like(t)
            for loc, mass in self.atoms or ((1.0, 1.0),):
                out += 2.0 * mass * np.sin(0.5 * loc * t) ** 2
            return out
        if self.kind == "gaussian":
            return -np.expm1(-0.5 * t * t)
        out = np.empty_like(t)
        b = self.support_bound()
        near = t * b < 1.0
        x = t[~near]
        # sin(w t) / (w t) for the uniform law, J0(t) for cos(2 pi U)
        out[~near] = 1.0 - (np.sin(b * x) / (b * x) if self.kind == "uniform" else special.j0(x))
        t2 = t[near] ** 2
        terms = [coef * t2**j for j, coef in _gap_series(self)]
        series = terms[0]
        for term in terms[1:]:  # in order, in place: np.sum's additions over the stacked
            series += term      # terms, without stacking them
        out[near] = series
        return out

    def abs_moment(self, r: float) -> float:
        """E|V|^r (the module's abs_moment)."""
        return abs_moment(self, r)

    def char_taylor(self, n: int, s: float = 1.0) -> tuple[np.ndarray, float]:
        """E (sV)^(2i) / (2i)! for i = 0..n, and a bound on their relative error:
        sum m (s a)^(2i) / (2i)! for atoms, (s w)^(2i) / (2i + 1)! for the uniform
        law, (s^2 / 2)^i / i! for the Gaussian and ((s / 2)^i / i!)^2 for cosine."""
        if self.is_atomic:
            out = sum(mass * fourier.taylor_cos(s * loc, n)
                      for loc, mass in self.atoms or ((1.0, 1.0),))
            return out, (3.0 * n + len(self.atoms) + 2.0) * _EPS
        if self.kind == "uniform":
            return fourier.taylor_uniform(s * self.half_width, n)
        if self.kind == "gaussian":
            return fourier.taylor_exp(0.5 * s * s, n), (2.0 * n + 2.0) * _EPS
        return fourier.taylor_exp(0.5 * s, n) ** 2, (4.0 * n + 2.0) * _EPS

    def char_envelope(self, t: np.ndarray) -> np.ndarray:
        """A nonincreasing bound on |phi| from t >= 0 on: 1 for atoms, 1 / (w t) for
        the uniform law, exp(-t^2 / 2) for the Gaussian and sqrt(2 / (pi t)) for
        J0 (x (J0^2 + Y0^2) increases to 2 / pi)."""
        t = np.asarray(t, dtype=float)
        if self.is_atomic:
            return np.ones_like(t)
        if self.kind == "gaussian":
            return np.exp(-0.5 * t * t)
        if self.kind == "uniform":
            return fourier.uniform_envelope(self.half_width, t)
        with np.errstate(divide="ignore"):
            return np.minimum(1.0, np.sqrt(2.0 / (math.pi * t)))

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

    def char_fn(self, t: np.ndarray) -> np.ndarray:
        """phi(t) = E cos(tV): cos t, sin(wt) / (wt), exp(-t^2 / 2), J0(t) or
        sum m cos(a t), to an absolute error of a few ulps."""
        return 1.0 - self.char_gap(t)

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """CDF of the signed law (continuous kinds only), elementwise:
        cdf(edges: ndarray) -> ndarray, and a scalar for a scalar."""
        if self.kind == "uniform":
            w = self.half_width
            return np.clip((x + w) / (2.0 * w), 0.0, 1.0)
        if self.kind == "gaussian":
            return 0.5 * special.erfc(-x / math.sqrt(2.0))
        if self.kind == "cosine":
            return 1.0 - np.arccos(np.clip(x, -1.0, 1.0)) / math.pi
        raise UnsupportedMethodError(f"no continuous CDF for kind {self.kind!r}")


@functools.lru_cache(maxsize=256)
def _gap_series(V: BaseDistribution) -> tuple:
    """(j, (-1)^(j+1) E V^(2j) / (2j)!) for j = 12..1, the terms of char_gap's
    series, smallest first: 12 terms reach 1e-24 at |t| b = 1."""
    return tuple((j, (-1.0) ** (j + 1) * abs_moment(V, 2.0 * j) / math.factorial(2 * j))
                 for j in range(12, 0, -1))


def _atomic_variance_proxy(law: dict) -> float:
    """A certified s^2 >= sup_t 2 L(t) / t^2, L(t) = log E cosh(tV), for a
    finite symmetric law {location: mass}: near E V^2 = m2 where Hoeffding
    gives b^2 = max V^2.  Below t = 0.1 / b, L(t) <= m2 (cosh(tb) - 1) / b^2
    termwise; above 2 b / m2, L(t) <= tb; between, L increases, so 2 L(t_{j+1})
    / t_j^2 bounds the ratio on [t_j, t_{j+1}] of a geometric grid."""
    locs, masses = np.array(list(law)), np.array(list(law.values()))
    b, m2 = float(locs.max()), float((masses * locs**2).sum())
    t = (0.1 / b) * 1.001 ** np.arange(int(math.log(20.0 * b * b / m2) / math.log(1.001)) + 3)
    L = special.logsumexp(np.outer(t[1:], locs), axis=1, b=masses)
    return max(m2 * (math.cosh(0.1) - 1.0) / 0.005, float((2.0 * L / t[:-1] ** 2).max()))


def rademacher() -> BaseDistribution:
    return BaseDistribution("rademacher")


def uniform(half_width: float = 1.0) -> BaseDistribution:
    return BaseDistribution("uniform", half_width=float(half_width))


def gaussian() -> BaseDistribution:
    return BaseDistribution("gaussian")


def cosine_projection() -> BaseDistribution:
    return BaseDistribution("cosine")


def symmetric_atoms(atoms) -> BaseDistribution:
    pairs = tuple(sorted((float(loc), float(mass)) for loc, mass in atoms))
    return BaseDistribution("atoms", atoms=pairs)


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
        """(phi - z) / (1 - z) for the base's phi and zero mass z (0 here by construction)."""
        z = self.base.zero_mass
        return (self.base.char_fn(t) - z) / (1.0 - z)


def abs_moment(V: BaseDistribution, r: float) -> float:
    """E|V|^r, exact for every supported kind; DomainError past the float range."""
    if r < 0:
        raise DomainError("moment order must be nonnegative")
    if r == 0:
        return 1.0
    try:
        if V.kind == "rademacher":
            return 1.0
        if V.kind == "uniform":
            return V.half_width**r / (r + 1.0)
        if V.kind == "gaussian":
            return specfun.gaussian_abs_moment(r)
        if V.kind == "cosine":
            return 1.0 / specfun.steinhaus_beta(r)
        return math.fsum(mass * loc**r for loc, mass in V.atoms)
    except OverflowError:
        raise DomainError(f"E|V|^{r:g} of {format_base_spec(V)} overflows a float") from None


def condition_nonzero(V: BaseDistribution) -> ConditionedBase:
    """The law of V conditioned on V != 0 (atom at zero removed)."""
    if V.zero_mass >= 1.0:
        raise DegenerateLawError("cannot condition the zero law on being nonzero")
    if V.zero_mass == 0.0:
        return ConditionedBase(V)
    keep = 1.0 - V.zero_mass
    scaled = tuple((loc, mass / keep) for loc, mass in V.atoms if loc != 0.0)
    return ConditionedBase(BaseDistribution("atoms", atoms=scaled))


def sample_abs(V: BaseDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. draws of |V|; deterministic given the generator state."""
    if n < 0:
        raise DomainError("sample count must be nonnegative")
    if V.kind == "rademacher":
        return np.ones(n)
    if V.kind == "uniform":
        return V.half_width * rng.random(n)
    if V.kind == "gaussian":
        return np.abs(rng.standard_normal(n))
    if V.kind == "cosine":
        return np.abs(np.cos(2.0 * np.pi * rng.random(n)))
    locs = np.array([a[0] for a in V.atoms])
    masses = np.array([a[1] for a in V.atoms])
    return rng.choice(locs, size=n, p=masses / masses.sum())


def sample_signed(V: BaseDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. draws of V itself (independent fair signs applied to |V|)."""
    mags = sample_abs(V, rng, n)
    signs = rng.integers(0, 2, size=n) * 2 - 1
    return mags * signs


def sample_count_sums(
    V: BaseDistribution, rng: np.random.Generator, counts: np.ndarray
) -> np.ndarray:
    """Entry i is the sum of counts[i] independent draws of V."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(counts.size)
    idx = np.repeat(np.arange(counts.size), counts)
    return np.bincount(idx, weights=sample_signed(V, rng, total), minlength=counts.size)


# ---------------------------------------------------------------------------
# k-fold sums: E|V~_1 + ... + V~_k|^p


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


def _gaussian_grid_halfwidth(k: int, p: float, tol: float) -> float:
    """Single-summand truncation point so the lost moment mass is << tol."""
    L = 8.0
    while k ** (p / 2.0) * gaussian_tail_abs_moment(p, L / math.sqrt(k)) > 0.01 * tol:
        L += 1.0
        if L > 60.0:
            break
    return L


def kfold_abs_moment(
    V: ConditionedBase,
    k: int,
    p: float,
    method: str = "exact",
    tol: float = 1e-9,
) -> ConstantResult:
    """E|S_k|^p for S_k the sum of k i.i.d. copies of the conditioned base.

    method "exact" needs a closed form (random sign walk or Gaussian);
    "grid" takes gridconv.grid_moment of phi^k on 8,192 to 32,768 cells
    (exact enumeration for atomic kinds).
    """
    if p <= 0:
        raise DomainError("kfold_abs_moment requires p > 0")
    if k < 0:
        raise DomainError("k must be a nonnegative count")
    base = V.base
    diag = {"k": k, "p": p}
    if k == 0:
        return ConstantResult(0.0, method="empty_sum", error_bound=0.0, diagnostics=diag)

    if method == "exact":
        if base.kind == "rademacher":
            x, w, rel = walk_law(k)
            val = float(w @ np.abs(x) ** p)
            return ConstantResult(val, "exact/binomial_walk", (rel + 4.0 * (p + 2.0) * _EPS) * val,
                                  diag)
        if base.kind == "gaussian":
            val = k ** (p / 2.0) * specfun.gaussian_abs_moment(p)
            return ConstantResult(val, "exact/gaussian_scaling", 1e-14 * val, diag)
        raise UnsupportedMethodError(
            f"no exact k-fold moment for kind {base.kind!r}; use grid"
        )

    if method == "grid":
        if base.is_atomic:
            values, support = discrete.enum_powers(base.signed_atoms(), [k], p, 2_000_000)
            diag["support"] = support
            val, err = values[k]
            return ConstantResult(val, "grid/atoms_exact", err, diag)
        L = base.support_bound() or _gaussian_grid_halfwidth(k, p, tol)
        for n_cells in (8192, 16384, 32768):
            try:
                val, err, *_ = gridconv.grid_moment(
                    [gridconv.Summand(base.cdf, L, count=k, proxy=base.variance_proxy())],
                    gridconv.edge_steps(L, n_cells), p, tol)
            except InputError:  # a refinement past the grid cap keeps the coarser value
                if n_cells == 8192:
                    raise
                n_cells //= 2
                break
            if err <= tol * max(1.0, abs(val)):
                break
        diag["n_cells"] = 2 * n_cells
        return ConstantResult(val, "grid/fft", err, diag)

    raise UnsupportedMethodError(f"unknown k-fold method {method!r}")

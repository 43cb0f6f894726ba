"""Independent numerical oracles and property checks.

Everything here double-checks a closed-form claim through a different
route: the sum moments of the ordering checks (sum_moment: von Bahr's
integral over phi^n on the Fourier route, fourier.plan_sum and
sum_abs_moment, and n-fold grid densities on the gridconv spectral kernel
where the plan's route is "grid": a law without char_gap, or a sum past
fourier.MAX_SUM_PANELS panels), the moments of search candidates
(constants._thinned_sum_moment: exact enumeration for atomic ones and the
signed path sum for uniform ones within the summand cap, else the Fourier route, conditioned on summand activity
past fourier.SUBPLAN_PANELS), randomized search over
feasible tuples against the theorem-side suprema, sign-change counting
for density differences, convexity and determinant checks for the
auxiliary functions, and the compound Poisson domination of finite sums.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import special

from . import basedist, constants, cpoisson, discrete, fourier, gridconv, logconcave
from .errors import DomainError, GridTooSmallError, InputError, InvalidComparisonError
from .result import ConstantResult

__all__ = [
    "GridDensity",
    "SearchReport",
    "GaussianSource",
    "LogisticSource",
    "grid_density",
    "nfold_moment",
    "search_sup_U",
    "check_poissonisation",
    "count_sign_changes",
    "SignChangeReport",
    "check_psi_convexity",
    "check_h_signature",
    "HSignatureReport",
    "check_det_inequality",
    "check_interlacing",
    "check_logconcave_ordering",
    "check_tail_ordering",
    "OrderingReport",
    "ordering_report",
    "sum_moment",
    "check_easy_lower_bound",
]


_EPS = sys.float_info.epsilon

# ---------------------------------------------------------------------------
# sources (closed-form symmetric log-concave densities that are not members)

GaussianSource = basedist.Gaussian  # the standard Gaussian as a matching source


class LogisticSource:
    """Symmetric logistic density exp(-x/s) / (s (1 + exp(-x/s))^2)."""

    def __init__(self, scale: float = 1.0):
        if not scale > 0.0:
            raise DomainError("logistic scale must be positive")
        self.scale = scale

    def pdf(self, x: float) -> float:
        u = math.exp(-abs(x) / self.scale)
        return u / (self.scale * (1.0 + u) ** 2)

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        return 1.0 / (1.0 + np.exp(-x / self.scale))

    def abs_moment(self, r: float) -> float:
        """E|X|^r = 2 s^r Gamma(r + 1) (1 - 2^(1 - r)) zeta(r), and 2 s ln 2 at r = 1."""
        if r == 0.0:
            return 1.0
        if r == 1.0:
            return 2.0 * self.scale * math.log(2.0)
        eta = -math.expm1((1.0 - r) * math.log(2.0)) * float(special.zeta(r))
        return 2.0 * math.exp(math.lgamma(r + 1.0) + r * math.log(self.scale)) * eta

    def char_gap(self, t) -> np.ndarray:
        """1 - y / sinh(y), y = pi s t: the Taylor series up to char_cap(), and
        1 - 2 y e^-y / (1 - e^-2y) beyond."""
        return fourier.cap_split_gap(self, t, lambda t: 1.0 - self.char_envelope(t),
                                     self._cap_series)

    _cap_series = functools.cached_property(fourier.cap_series)

    def char_taylor(self, n: int, s: float = 1.0) -> tuple[np.ndarray, float]:
        """E (sX)^(2i) / (2i)! = 2 (s scale)^(2i) (1 - 2^(1 - 2i)) zeta(2i), i >= 1."""
        i = np.arange(1.0, n + 1)
        powers = np.cumprod(np.full(n, (s * self.scale) ** 2))
        eta = -np.expm1((1.0 - 2.0 * i) * math.log(2.0)) * special.zeta(2.0 * i)
        return np.concatenate(([1.0], 2.0 * powers * eta)), (n + 8.0) * _EPS

    def char_envelope(self, t) -> np.ndarray:
        """|phi(t)| = y / sinh(y), y = pi s t, nonincreasing."""
        y = math.pi * self.scale * np.abs(np.asarray(t, dtype=float))
        with np.errstate(invalid="ignore"):
            out = 2.0 * y * np.exp(-y) / -np.expm1(-2.0 * y)
        return np.where(y > 0.0, out, 1.0)

    def char_cap(self, p: float = 4.0) -> float:
        return 0.5 / self.scale  # half the distance to the poles of phi at +-i / s

    def atoms(self) -> dict:
        return {}

    def support_halfwidth(self) -> float:
        return 40.0 * self.scale  # density below 1e-16 of the peak


# ---------------------------------------------------------------------------
# grid densities


@dataclass
class GridDensity:
    """Cell-averaged density values on a symmetric uniform grid, plus exact
    off-grid atoms.  values[i] belongs to the cell
    [lower + i*step, lower + (i+1)*step]."""

    lower: float
    upper: float
    step: float
    values: np.ndarray
    atom_list: tuple = ()

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.values.size
        if n and abs(self.lower + n * self.step - self.upper) > 1e-9 * self.step * n:
            raise DomainError("grid extent does not match the cell count")
        total = self.total_mass()
        if abs(total - 1.0) > 1e-8:
            raise GridTooSmallError(
                f"grid density mass {total!r} deviates from 1 beyond 1e-8"
            )
        sym = self.values - self.values[::-1]
        if sym.size and float(np.abs(sym).max()) * self.step > 1e-10:
            raise DomainError("grid density is not symmetric about 0")

    def total_mass(self) -> float:
        return float(self.values.sum() * self.step) + math.fsum(
            m for _, m in self.atom_list
        )

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """CDF of the continuous part, linear within each cell."""
        edges = self.lower + self.step * np.arange(self.values.size + 1)
        return np.interp(x, edges, np.concatenate(([0.0], np.cumsum(self.values * self.step))))

    def atoms(self) -> dict:
        return dict(self.atom_list)

    def support_halfwidth(self) -> float:
        return self.upper

    def summand(self, count: int = 1) -> gridconv.Summand:
        """count copies as a spectral summand whose cells at the step h are this
        density's cells; at 2 h each merges two of them (for an odd cell count,
        one cell and the halves of its two neighbours)."""
        half = max([-self.lower, self.upper] + [abs(loc) for loc, _ in self.atom_list])
        return gridconv.Summand(self.cdf, half, self.atoms(), count,
                                0.5 if self.values.size % 2 == 0 else 0.0)


def grid_density(law, n_cells: int = 8192) -> GridDensity:
    """Build the cell-averaged grid density of a symmetric law.

    Cell masses are exact CDF differences of the continuous part over
    |x| <= law.support_halfwidth(); atoms (two-point limits, truncation
    atoms) stay exact in atom_list.
    """
    L = law.support_halfwidth()
    atoms = tuple(sorted(law.atoms().items()))
    cont_mass = 1.0 - math.fsum(m for _, m in atoms)
    if cont_mass <= 1e-15:
        return GridDensity(-L, L, 2.0 * L / max(n_cells, 1), np.zeros(n_cells), atoms)
    masses = gridconv.from_cdf(law.cdf, -L, L, n_cells)
    total = masses.sum()
    if total > 0.0:
        masses *= cont_mass / total  # absorb the truncated 1e-16-level tail
    step = 2.0 * L / n_cells
    return GridDensity(-L, L, step, masses / step, atoms)


def _nfold_value(densities, p: float, tol: float) -> gridconv.GridMoment:
    """E|sum of independent grid densities|^p by gridconv.grid_moment at the finest
    density's step h and at 2 h (both coarsened to fit gridconv.SUM_GRID_CELLS); k equal
    densities enter once, as phi^k.  Leaked mass raises GridTooSmallError; a sum wider than
    MAX_GRID_CELLS cells of step h raises InputError (coarsened that far, it would blur its
    summands)."""
    counts: dict = {}
    for d in densities:
        key = (d.lower, d.step, d.values.tobytes(), d.atom_list)
        counts.setdefault(key, [d, 0])[1] += 1
    summands = [d.summand(k) for d, k in counts.values()]
    h = min(d.step for d, _ in counts.values())
    cells = round(2.0 * math.fsum(s.half * s.count for s in summands) / h)
    if cells > gridconv.MAX_GRID_CELLS:
        raise InputError(f"a sum of {sum(s.count for s in summands)} grid densities spans "
                         f"{cells} cells of step {h:.3g}, past the cap MAX_GRID_CELLS = "
                         f"{gridconv.MAX_GRID_CELLS}")
    grid = gridconv.grid_moment(summands, gridconv.sum_steps(summands, (h, 2.0 * h)), p, tol)
    leak = abs(grid.mass - 1.0)
    if leak > 1e-6:
        raise GridTooSmallError(f"mass leak {leak:.3e} beyond the grid exceeds tolerance 1e-06")
    return grid


def nfold_moment(densities: list[GridDensity], p: float, tol: float = 1e-9) -> ConstantResult:
    """E|X_1 + ... + X_n|^p of independent grid densities on the spectral grid
    (_nfold_value): the value at the finest density's step, with gridconv.grid_moment's
    bound.
    """
    if not densities:
        raise DomainError("need at least one density")
    if not p > 0.0:
        raise DomainError("nfold_moment requires p > 0")
    grid = _nfold_value(densities, p, tol)
    diag = {
        "n": len(densities),
        "p": p,
        "steps": [d.step for d in densities],
        "coarse_value": grid.coarse,
    }
    return ConstantResult(grid.value, "nfold_grid", grid.error_bound, diag)


# ---------------------------------------------------------------------------
# randomized search over the feasible class


@dataclass
class SearchReport:
    best_value: float
    best_error_bound: float  # the best candidate's own bound
    best_config: dict
    theorem_value: float
    theorem_error_bound: float
    gap: float
    trials: int
    seed: int
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "best_value": self.best_value,
            "best_error_bound": self.best_error_bound,
            "best_config": self.best_config,
            "theorem_value": self.theorem_value,
            "theorem_error_bound": self.theorem_error_bound,
            "gap": self.gap,
            "trials": self.trials,
            "seed": self.seed,
            **{f"detail_{k}": v for k, v in self.details.items()},
        }


def _solve_candidate(p, A, B, nv2, nvp, shares_2, shares_p):
    """Per-summand (scale, activation) hitting the allocated budget shares,
    for a base law of norms ||V||_2 = nv2 and ||V||_p = nvp.

    Activation above 1 is clamped to 1 with the 2-norm share kept exact,
    so every candidate stays feasible."""
    scales, activations = [], []
    for s2, sp in zip(shares_2, shares_p):
        budget_2 = float(s2) * A * A / nv2**2
        budget_p = float(sp) * B**p / nvp**p
        if budget_2 <= 0.0 or budget_p <= 0.0:
            scales.append(0.0)
            activations.append(0.0)
            continue
        c = (budget_p / budget_2) ** (1.0 / (p - 2.0))
        mu = budget_2 / (c * c)
        if mu > 1.0:
            mu = 1.0
            c = math.sqrt(budget_2)
        scales.append(c)
        activations.append(mu)
    return scales, activations


def _candidates(p, V, A, B, n_max: int, trials: int, seed: int):
    """(trial, scales, activations) of every search candidate: the random
    allocations of trials 0..trials-1, then the equal splits (trial -1)."""
    children = np.random.SeedSequence(seed).spawn(trials)
    shares = []
    for trial in range(trials):
        rng = np.random.default_rng(children[trial])
        n = int(rng.integers(1, n_max + 1))
        shares.append((trial, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))))
    shares += [(-1, np.full(n, 1.0 / n), np.full(n, 1.0 / n)) for n in range(1, n_max + 1)]
    nv2 = math.sqrt(basedist.abs_moment(V, 2.0))
    nvp = basedist.abs_moment(V, p) ** (1.0 / p)
    for trial, shares_2, shares_p in shares:
        yield (trial, *_solve_candidate(p, A, B, nv2, nvp, shares_2, shares_p))


def search_sup_U(
    p: float,
    V: basedist.BaseDistribution,
    A: float,
    B: float,
    n_max: int,
    trials: int,
    seed: int,
    tol: float = 1e-6,
) -> SearchReport:
    """Random search for feasible tuples beating the theorem-side supremum.

    Candidates are tuples of scaled Bernoulli-thinned copies of V (the
    shape of the extremisers), with both budget rows allocated by random
    Dirichlet shares and enforced exactly.  Each candidate's moment is
    constants._thinned_sum_moment's (at most 1,000,000 enumerated support
    points): atomic candidates are enumerated exactly, uniform ones summed
    over their activity and sign paths (exact_uniform) where that bound meets
    tol, and the rest take the Fourier route, conditioned on the activity of
    their widest thinned summands where the plan passes fourier.SUBPLAN_PANELS
    panels.  The report
    records the best value found and its
    method, the theorem value, equal-split diagnostics and the count of
    candidates per method (details["routes"]); the invariant
    best <= theorem * (1 + 1e-6) is the oracle.
    """
    theorem = constants.mixture_sup(p, V, A, B, tol=1e-9)
    best_value = best_error = -math.inf
    best_config: dict = {}
    violations = 0
    iid_values = []
    routes: Counter = Counter()
    for trial, scales, activations in _candidates(p, V, A, B, n_max, trials, seed):
        res = constants._thinned_sum_moment(p, V, scales, activations, tol, 1_000_000)
        value, err = res.value, res.error_bound
        routes[res.method] += 1
        if trial < 0:
            iid_values.append(value)
        elif value - err > theorem.value * (1.0 + 1e-6) + theorem.error_bound:
            violations += 1
        if value > best_value:
            best_value, best_error = value, err
            best_config = {
                "n": len(scales),
                "scales": list(scales),
                "activations": list(activations),
                "trial": trial,
                "method": res.method,
            }
    gap = (theorem.value - best_value) / theorem.value
    return SearchReport(
        best_value=best_value,
        best_error_bound=best_error,
        best_config=best_config,
        theorem_value=theorem.value,
        theorem_error_bound=theorem.error_bound,
        gap=gap,
        trials=trials,
        seed=seed,
        details={
            "violations": violations,
            "iid_values": iid_values,
            "routes": dict(sorted(routes.items())),
            "n_max": n_max,
            "p": p,
            "V": basedist.format_base_spec(V),
            "A": A,
            "B": B,
        },
    )


# ---------------------------------------------------------------------------
# Poissonisation and the elementary lower bound


def _validate_symmetric_atomic(law: dict) -> dict:
    total = math.fsum(law.values())
    if abs(total - 1.0) > 1e-10:
        raise DomainError(f"atomic law mass {total!r} is not 1")
    for loc, mass in law.items():
        if loc != 0.0 and abs(law.get(-loc, 0.0) - mass) > 1e-12:
            raise DomainError("atomic law is not symmetric")
    return law


def check_poissonisation(laws: list[dict], p: float, tol: float = 1e-9):
    """E|sum X_j|^p <= E|T|^p for the compound Poisson T accumulating the
    nonzero parts of the X_j; needs p >= 3 so the |x|^p test function has a
    convex second derivative.  Returns (holds, left, right)."""
    if p < 3.0:
        raise DomainError("poissonisation check requires p >= 3")
    laws = [_validate_symmetric_atomic(law) for law in laws]
    left = discrete.enum_sum(laws, p)[0]
    lam = math.fsum(
        mass for law in laws for loc, mass in law.items() if loc != 0.0
    )
    if lam == 0.0:
        return True, 0.0, 0.0
    merged: dict = {}
    for law in laws:
        for loc, mass in law.items():
            if loc != 0.0:
                key = abs(loc)
                merged[key] = merged.get(key, 0.0) + mass / lam
    jump = basedist.condition_nonzero(
        basedist.symmetric_atoms(sorted(merged.items()))
    )
    right = cpoisson.cp_abs_moment(
        cpoisson.CompoundPoissonSpec(lam, jump), p, tol
    ).value
    return left <= right + tol + 1e-12 * right, left, right


def check_easy_lower_bound(laws: list[dict], p: float):
    """E|sum X_j|^p >= max((sum ||X_j||_2^2)^(p/2), sum ||X_j||_p^p)."""
    laws = [_validate_symmetric_atomic(law) for law in laws]
    left = discrete.enum_sum(laws, p)[0]
    sum_2 = math.fsum(discrete.abs_moment_atoms(law, 2.0) for law in laws)
    sum_p = math.fsum(discrete.abs_moment_atoms(law, p) for law in laws)
    right = max(sum_2 ** (p / 2.0), sum_p)
    return left >= right - 1e-12 * max(right, 1.0), left, right


# ---------------------------------------------------------------------------
# sign patterns, convexity, determinants


@dataclass
class SignChangeReport:
    count: int
    locations: list
    signature: list
    indeterminate: bool = False


def count_sign_changes(xs, values, zero_band: float) -> SignChangeReport:
    """Count strict sign alternations after collapsing the zero band.

    Values with |v| <= zero_band are treated as exact zeros so quadrature
    noise cannot create spurious alternations.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.size < 3:
        raise DomainError("need at least 3 grid points")
    signs = np.where(np.abs(values) <= zero_band, 0.0, np.sign(values))
    nonzero = signs != 0.0
    if not nonzero.any():
        return SignChangeReport(0, [], [], indeterminate=True)
    seq = signs[nonzero]
    pos = xs[nonzero]
    signature = [int(seq[0])]
    locations = []
    for i in range(1, seq.size):
        if seq[i] != seq[i - 1]:
            signature.append(int(seq[i]))
            locations.append(0.5 * (pos[i - 1] + pos[i]))
    return SignChangeReport(len(locations), locations, signature)


def _psi(p: float, x: float) -> float:
    s = math.sqrt(x)
    return abs(s + 1.0) ** p + abs(s - 1.0) ** p - 2.0 * x ** (p / 2.0)


def check_psi_convexity(p: float, xs) -> bool:
    """Positivity of second divided differences of
    psi(x) = |sqrt x + 1|^p + |sqrt x - 1|^p - 2 x^(p/2) on the grid."""
    if not p > 4.0:
        raise DomainError("the convexity claim needs p > 4")
    xs = np.asarray(xs, dtype=float)
    vals = np.array([_psi(p, x) for x in xs])
    left = (vals[1:-1] - vals[:-2]) / (xs[1:-1] - xs[:-2])
    right = (vals[2:] - vals[1:-1]) / (xs[2:] - xs[1:-1])
    second = 2.0 * (right - left) / (xs[2:] - xs[:-2])
    return bool(np.all(second > 0.0))


@dataclass
class HSignatureReport:
    count: int
    signature: list
    locations: list
    ok: bool
    x_max: float


def _h(p: float, alpha: float, beta: float, gamma: float, x: np.ndarray) -> np.ndarray:
    return (
        np.abs(x + 1.0) ** p
        + np.abs(x - 1.0) ** p
        - alpha
        - beta * x**2
        - gamma * x**p
    )


def _h_no_root_beyond(p: float, alpha: float, beta: float, gamma: float) -> float:
    """A point beyond which h keeps the sign of its leading term.

    Uses |x+1|^p + |x-1|^p - 2x^p <= 2 p^2 x^(p-2) for x >= p, so past the
    returned point the (2 - gamma) x^p term (or the x^(p-2) term when
    gamma = 2) dominates the rest.
    """
    x = max(p, 2.0)
    for _ in range(200):
        rest = abs(alpha) + abs(beta) * x * x + 1.0
        if gamma == 2.0:
            # the even-term bracket itself is >= ~p(p-1) x^(p-2) out here
            ok = 0.45 * p * (p - 1.0) * x ** (p - 2.0) > rest
        else:
            ok = abs(gamma - 2.0) * x**p > 2.0 * p * p * x ** (p - 2.0) + rest
        if ok:
            return x
        x *= 1.5
    return x


def check_h_signature(
    p: float,
    alpha: float,
    beta: float,
    gamma: float,
    n_points: int = 4000,
) -> HSignatureReport:
    """Sign-change pattern of |x+1|^p + |x-1|^p - alpha - beta x^2 - gamma x^p
    on (0, x_max], with x_max chosen so no roots exist beyond it.

    At most 3 changes are expected; when exactly 3 occur the signature must
    be +,-,+,-.
    """
    if not p > 4.0:
        raise DomainError("the signature claim needs p > 4")
    x_max = _h_no_root_beyond(p, alpha, beta, gamma)
    xs = np.concatenate(
        [
            np.geomspace(1e-6, 1.0, n_points // 2, endpoint=False),
            np.linspace(1.0, x_max, n_points // 2),
        ]
    )
    vals = _h(p, alpha, beta, gamma, xs)
    band = 1e-11 * float(np.abs(vals).max())
    rep = count_sign_changes(xs, vals, band)
    ok = rep.count <= 3
    if rep.count == 3:
        ok = ok and rep.signature == [1, -1, 1, -1]
    return HSignatureReport(rep.count, rep.signature, rep.locations, ok, x_max)


def check_det_inequality(phi, x1: float, x2: float, x3: float):
    """det [[1, x_i, phi(x_i)]] >= 0 for convex phi and 0 < x1 < x2 < x3."""
    if not 0.0 < x1 < x2 < x3:
        raise DomainError("needs 0 < x1 < x2 < x3")
    f1, f2, f3 = phi(x1), phi(x2), phi(x3)
    # expansion along the first column
    det = (x2 * f3 - x3 * f2) - (x1 * f3 - x3 * f1) + (x1 * f2 - x2 * f1)
    scale = max(abs(f1), abs(f2), abs(f3), 1.0) * (x3 - x1)
    return det >= -1e-12 * scale, det


# ---------------------------------------------------------------------------
# interlacing and the sum orderings


def _density_kinks(law) -> list[float]:
    for attr in ("alpha", "offset", "cutoff"):
        k = getattr(law, attr, None)
        if k is not None and math.isfinite(k) and k > 0.0:
            return [-k, k]
    return []


def _shifted_moment_quad(law, z: float, p: float) -> tuple[float, float]:
    """E|X + z|^p by adaptive quadrature with kink-aware breakpoints."""
    from scipy import integrate  # here, not at the top: `import roskit` need not load it

    L = law.support_halfwidth()
    atoms = law.atoms()
    pts = sorted({x for x in [-z, 0.0] + _density_kinks(law) if -L < x < L})
    val, err = integrate.quad(
        lambda x: law.pdf(x) * abs(x + z) ** p,
        -L,
        L,
        points=pts or None,
        limit=500,
    )
    val += math.fsum(m * abs(loc + z) ** p for loc, m in atoms.items())
    return val, err


def check_interlacing(source, member, z: float, p: float, tol: float = 1e-9):
    """Shifted-moment domination of a matched extremal member.

    For minus-family members (member.side == "minus") E|X + z|^p >=
    E|member + z|^p; for plus-family members the inequality is reversed.
    The source must have the member's second and p-th moments (mismatch
    beyond 1e-6 relative is an invalid comparison).
    """
    for r in (2.0, p):
        ms, mm = source.abs_moment(r), member.abs_moment(r)
        if abs(ms - mm) > 1e-6 * abs(mm):
            raise InvalidComparisonError(
                f"moment mismatch at order {r}: source {ms!r} vs member {mm!r}"
            )
    lhs, err_l = _shifted_moment_quad(source, z, p)
    rhs, err_r = _shifted_moment_quad(member, z, p)
    budget = err_l + err_r + tol * max(abs(lhs), abs(rhs))
    holds = lhs >= rhs - budget if member.side == "minus" else lhs <= rhs + budget
    return holds, lhs, rhs


class OrderingReport(NamedTuple):
    holds: bool
    values: tuple  # (minus, source, plus) sum moments
    combined_error: float  # the sum of their error bounds
    method: str  # the routes of the three sums, each named once, joined by "+"


# the route of a sum of n copies of a law, by the plan's choice
_SUM_ROUTES = {
    "fourier": lambda plan, law, n, n_cells: fourier.sum_abs_moment(plan),
    "grid": lambda plan, law, n, n_cells: nfold_moment([grid_density(law, n_cells)] * n,
                                                       plan.p, plan.tol),
}

# The largest p of the ordering checks.  At a non-even p, von Bahr's integral sums
# Taylor terms whose cancellation grows with p: for two copies of the Gaussian and of
# its density members the combined error is 3e-5 of the source at p = 40.5 and 0.3 at
# p = 60.5, and at p = 150.5 the bound overflows.  An even p takes the exact (2k)! a_k,
# up to the p whose moments still fit a float.
MAX_ORDERING_P = 40.0
MAX_EVEN_ORDERING_P = 168.0

# ordering family -> (minus matcher, plus matcher)
_ORDERING_FAMILIES = {
    "density": (logconcave.match_density_minus, logconcave.match_density_plus),
    "tail": (lambda target: logconcave.match_tail(target, "minus"),
             lambda target: logconcave.match_tail(target, "plus")),
}


def sum_moment(law, n: int, p: float, tol: float = 1e-9, n_cells: int = 8192) -> ConstantResult:
    """E|X_1 + ... + X_n|^p for n independent copies of law: the Fourier route
    (fourier.sum_abs_moment) where plan_sum takes it, else nfold_moment over
    grid densities of n_cells cells."""
    plan = fourier.plan_sum(p, [fourier.Term(law, count=n)], tol)
    return _SUM_ROUTES[plan.route](plan, law, n, n_cells)


def ordering_report(n: int, source, p: float, family: str = "density", n_cells: int = 8192,
                    tol: float = 1e-9) -> OrderingReport:
    """E|sum minus|^p <= E|sum source|^p <= E|sum plus|^p for n copies of the
    source and of the members of the family ("density" or "tail") matched to
    its second and p-th moments, each sum by sum_moment; a DomainError past
    MAX_ORDERING_P, or MAX_EVEN_ORDERING_P for an even p."""
    if p > (MAX_EVEN_ORDERING_P if p % 2 == 0 else MAX_ORDERING_P):
        raise DomainError(f"the ordering checks admit p <= {MAX_ORDERING_P:g}, or an even "
                          f"p <= {MAX_EVEN_ORDERING_P:g}; got p = {p!r}")
    a = math.sqrt(source.abs_moment(2.0))
    b = source.abs_moment(p) ** (1.0 / p)
    target = logconcave.MatchTarget(p, a, b)
    match_minus, match_plus = _ORDERING_FAMILIES[family]
    res_m, res_s, res_p = (sum_moment(law, n, p, tol, n_cells)
                           for law in (match_minus(target), source, match_plus(target)))
    err = res_m.error_bound + res_s.error_bound + res_p.error_bound
    holds = (res_m.value <= res_s.value + err) and (res_s.value <= res_p.value + err)
    method = "+".join(dict.fromkeys(res.method for res in (res_m, res_s, res_p)))
    return OrderingReport(holds, (res_m.value, res_s.value, res_p.value), err, method)


def check_logconcave_ordering(
    n: int, source, p: float, n_cells: int = 8192, tol: float = 1e-9
):
    """Sum-moment bracketing by the matched extremal densities:
    E|sum minus|^p <= E|sum source|^p <= E|sum plus|^p.

    Returns (holds, (v_minus, v_source, v_plus), combined_error)."""
    return ordering_report(n, source, p, "density", n_cells, tol)[:3]


def check_tail_ordering(
    n: int, source, p: float, n_cells: int = 8192, tol: float = 1e-9
):
    """Same bracketing with the log-concave-tail families (atom-aware)."""
    return ordering_report(n, source, p, "tail", n_cells, tol)[:3]

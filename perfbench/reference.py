"""Reference values computed apart from roskit.

Nothing here imports roskit.  Every formula is rebuilt from the paper's
statements and from textbook facts, with numpy / scipy doing the
arithmetic, so that the benchmark's answer checks do not share code with
the program they check:

- base-law moments from their closed forms (gamma functions from
  ``math.lgamma``, not roskit's Lanczos approximation);
- compound Poisson moments by routes roskit does not use: the Skellam law
  for random signs, the Poisson mixture of n^{p/2} E|Z|^p for Gaussian
  jumps, exact integer-lattice convolution for atom laws on a lattice, and
  the general moment-cumulant recursion for even exponents;
- the log-convexity bracket for exponents between two even ones;
- full numpy enumeration of finite atomic sums (no deduplication);
- ``scipy.integrate.quad`` moments of the log-concave family members,
  rebuilt from their parameters.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# scipy.stats and scipy.integrate are imported inside the functions that
# use them: the batch processes import this module for the feasible
# intervals alone, and must not pay for scipy.stats in set-up or memory.

# ---------------------------------------------------------------------------
# base laws


def parse_law(spec: str) -> tuple[str, object]:
    """(kind, parameter) from the CLI spelling of a base law."""
    head, _, rest = spec.partition(":")
    if head in ("rademacher", "gaussian", "cosine"):
        return head, None
    if head == "uniform":
        return "uniform", float(rest.partition("=")[2] or 1.0)
    if head == "atoms":
        pairs = []
        for chunk in rest.split(","):
            loc, _, mass = chunk.partition(":")
            pairs.append((float(loc), float(mass)))
        return "atoms", tuple(sorted(pairs))
    raise ValueError(f"unknown base law {spec!r}")


def gaussian_abs_moment(r: float) -> float:
    """E|Z|^r = 2^{r/2} Gamma((r+1)/2) / sqrt(pi)."""
    return math.exp(0.5 * r * math.log(2.0) + math.lgamma(0.5 * (r + 1.0))) / math.sqrt(math.pi)


def law_abs_moment(law, r: float) -> float:
    """E|V|^r of a base law given as (kind, parameter)."""
    kind, par = law
    if r == 0:
        return 1.0
    if kind == "rademacher":
        return 1.0
    if kind == "uniform":
        return par**r / (r + 1.0)
    if kind == "gaussian":
        return gaussian_abs_moment(r)
    if kind == "cosine":
        # E|cos(2 pi U)|^r = Gamma((r+1)/2) / (sqrt(pi) Gamma(r/2 + 1))
        return math.exp(math.lgamma(0.5 * (r + 1.0)) - math.lgamma(0.5 * r + 1.0)) / math.sqrt(math.pi)
    return math.fsum(m * loc**r for loc, m in par)


def zero_mass(law) -> float:
    kind, par = law
    if kind == "atoms":
        return math.fsum(m for loc, m in par if loc == 0.0)
    return 0.0


def conditioned_moment(law, r: float) -> float:
    """E|V~|^r for V conditioned on being nonzero."""
    return law_abs_moment(law, r) / (1.0 - zero_mass(law))


def mixture_parameters(p: float, law, A: float, B: float) -> tuple[float, float]:
    """(lambda, prefactor) of the p >= 4 supremum, from the paper's formula:
    lambda = (A ||V||_p / (B ||V||_2))^{2p/(p-2)} P(V != 0) and
    prefactor = (B^p ||V||_2^2 / (A^2 ||V||_p^p))^{p/(p-2)}."""
    n2 = law_abs_moment(law, 2.0)
    npp = law_abs_moment(law, p)
    lam = (A * npp ** (1.0 / p) / (B * math.sqrt(n2))) ** (2.0 * p / (p - 2.0)) * (1.0 - zero_mass(law))
    pref = (B**p * n2 / (A**2 * npp)) ** (p / (p - 2.0))
    return lam, pref


# ---------------------------------------------------------------------------
# moments and cumulants


def moments_from_cumulants(kappa: dict, order: int) -> list[float]:
    """Raw moments m_0..m_order from cumulants kappa[1..order] by the
    recursion m_n = sum_{k<n} C(n-1, k) kappa_{k+1} m_{n-1-k}."""
    m = [1.0]
    for n in range(1, order + 1):
        m.append(math.fsum(math.comb(n - 1, k) * kappa.get(k + 1, 0.0) * m[n - 1 - k] for k in range(n)))
    return m


def cumulants_from_moments(m: list[float]) -> dict:
    """Inverse of moments_from_cumulants."""
    kappa: dict = {}
    for n in range(1, len(m)):
        kappa[n] = m[n] - math.fsum(math.comb(n - 1, k) * kappa[k + 1] * m[n - 1 - k] for k in range(n - 1))
    return kappa


def cp_even_moment(lam: float, jump_moment, p: int) -> float:
    """E T^p for compound Poisson T with symmetric jumps: kappa_r = lam E V~^r."""
    kappa = {r: (lam * jump_moment(r) if r % 2 == 0 else 0.0) for r in range(1, p + 1)}
    return moments_from_cumulants(kappa, p)[p]


def sum_even_moment(single_moments: dict, n: int, p: int) -> float:
    """E (X_1 + ... + X_n)^p for i.i.d. symmetric X with even moments given."""
    m = [single_moments.get(r, 0.0) if r % 2 == 0 else 0.0 for r in range(p + 1)]
    m[0] = 1.0
    kappa = cumulants_from_moments(m)
    return moments_from_cumulants({r: n * k for r, k in kappa.items()}, p)[p]


def log_convexity_bracket(p: float, even_moment) -> tuple[float, float]:
    """Bounds on M_p = E|X|^p from the even moments around p.

    With r0 < p < r1 = r0 + 2 even, Lyapunov gives M_p >= M_{r0}^{p/r0}
    and log-convexity of r -> log M_r gives
    M_p <= M_{r0}^{(r1-p)/2} M_{r1}^{(p-r0)/2}.
    """
    r0 = 2 * int(p // 2)
    r1 = r0 + 2
    m0, m1 = even_moment(r0), even_moment(r1)
    return m0 ** (p / r0), m0 ** ((r1 - p) / 2.0) * m1 ** ((p - r0) / 2.0)


def _poisson_window(lam: float) -> np.ndarray:
    top = int(lam + 40.0 * math.sqrt(lam + 1.0) + 60)
    return np.arange(0, top + 1)


def skellam_abs_moment(lam: float, p: float) -> float:
    """E|N_1 - N_2|^p with N_1, N_2 ~ Poisson(lam/2): the compound Poisson
    sum of random signs."""
    from scipy import stats

    top = int(_poisson_window(lam)[-1])
    k = np.arange(-top, top + 1)
    pmf = stats.skellam.pmf(k, lam / 2.0, lam / 2.0)
    return float(np.sum(pmf * np.abs(k).astype(float) ** p))


def gaussian_cp_abs_moment(lam: float, p: float) -> float:
    """E|T|^p for Gaussian jumps: T given N = n is N(0, n), so the moment
    is the Poisson mixture of n^{p/2} E|Z|^p."""
    from scipy import stats

    n = _poisson_window(lam)
    pmf = stats.poisson.pmf(n, lam)
    return float(np.sum(pmf * n.astype(float) ** (p / 2.0))) * gaussian_abs_moment(p)


def lattice_step(locs) -> Fraction:
    """Largest step d with every location an integer multiple of d."""
    fracs = [Fraction(loc).limit_denominator(1000) for loc in locs]
    num = 0
    den = 1
    for f in fracs:
        den = den * f.denominator // math.gcd(den, f.denominator)
    for f in fracs:
        num = math.gcd(num, int(f * den))
    return Fraction(num, den)


def lattice_cp_abs_moment(lam: float, atoms, p: float, rel: float = 1e-15) -> float:
    """E|T|^p for a compound Poisson sum of conditioned atom-law jumps whose
    locations share a lattice step: k-fold laws by integer convolution."""
    nonzero = [(loc, m) for loc, m in atoms if loc != 0.0]
    total = math.fsum(m for _, m in nonzero)
    step = lattice_step([loc for loc, _ in nonzero])
    h = float(step)
    idx = [round(loc / h) for loc, _ in nonzero]
    top = max(idx)
    jump = np.zeros(2 * top + 1)
    for i, (_, m) in zip(idx, nonzero):
        jump[top + i] += 0.5 * m / total
        jump[top - i] += 0.5 * m / total
    law = np.ones(1)
    value = 0.0
    k = 0
    log_lam = math.log(lam)
    while True:
        k += 1
        law = np.convolve(law, jump)
        half = (law.size - 1) // 2
        pos = h * np.abs(np.arange(-half, half + 1, dtype=float))
        weight = math.exp(-lam + k * log_lam - math.lgamma(k + 1))
        value += weight * float(np.dot(law, pos**p))
        # every later term is at most w_j (j * top * h)^p
        bound = 0.0
        for j in range(k + 1, k + 400):
            term = math.exp(-lam + j * log_lam - math.lgamma(j + 1) + p * math.log(j * top * h))
            bound += term
            if term < 1e-30 * max(value, 1.0):
                break
        if bound < rel * value:
            return value


def poisson_power_moment(lam: float, p: float) -> float:
    """E xi^p for xi ~ Poisson(lam): the Touchard polynomial for integer p,
    a direct pmf sum otherwise."""
    if float(p).is_integer():
        q = int(p)
        # Stirling numbers of the second kind, S(q, k)
        row = [1]
        for n in range(1, q + 1):
            new = [0] * (n + 1)
            for k in range(1, n + 1):
                new[k] = k * (row[k] if k < len(row) else 0) + row[k - 1]
            row = new
        return math.fsum(s * lam**k for k, s in enumerate(row))
    from scipy import stats

    n = _poisson_window(lam)
    return float(np.sum(stats.poisson.pmf(n, lam) * n.astype(float) ** p))


def steinhaus_beta(p: float) -> float:
    """beta_p = 1 / E|cos(2 pi U)|^p."""
    return 1.0 / law_abs_moment(("cosine", None), p)


# ---------------------------------------------------------------------------
# finite atomic sums


def enumerate_abs_moment(laws, p: float) -> float:
    """E|X_1 + ... + X_n|^p for independent finite laws [(loc, mass), ...]
    by enumerating every combination of atoms."""
    locs = np.zeros(1)
    masses = np.ones(1)
    for law in laws:
        l = np.array([loc for loc, _ in law], dtype=float)
        m = np.array([mass for _, mass in law], dtype=float)
        locs = (locs[:, None] + l[None, :]).ravel()
        masses = (masses[:, None] * m[None, :]).ravel()
    return math.fsum(masses * np.abs(locs) ** p)


def three_point(c: float, mu: float) -> list:
    return [(-c, mu / 2.0), (0.0, 1.0 - mu), (c, mu / 2.0)]


def thinned_scaled(atoms, c: float, mu: float) -> list:
    """Signed law of c * theta * V with P(theta = 1) = mu, V symmetric atomic."""
    out = [(0.0, 1.0 - mu)]
    for loc, m in atoms:
        if loc == 0.0:
            out.append((0.0, mu * m))
        else:
            out.append((c * loc, mu * m / 2.0))
            out.append((-c * loc, mu * m / 2.0))
    return out


def signed_atoms(law) -> list:
    kind, par = law
    if kind == "rademacher":
        return [(-1.0, 0.5), (1.0, 0.5)]
    out = []
    for loc, m in par:
        if loc == 0.0:
            out.append((0.0, m))
        else:
            out += [(loc, m / 2.0), (-loc, m / 2.0)]
    return out


# ---------------------------------------------------------------------------
# log-concave family members, rebuilt from their parameters


def member_abs_moment(record: dict, r: float) -> float:
    """E|X|^r of a matched member by quadrature over |X| (plus atoms)."""
    from scipy import integrate

    fam = record["family"]
    quad = lambda f, a, b: integrate.quad(f, a, b, limit=400, epsabs=0.0, epsrel=1e-13)[0]
    if fam == "fminus":
        alpha, gamma = record["alpha"], record["gamma"]
        if math.isinf(gamma):
            return alpha**r / (r + 1.0)
        c = 1.0 / (alpha + 1.0 / gamma)  # density of |X| on the plateau
        head = quad(lambda x: c * x**r, 0.0, alpha) if alpha > 0.0 else 0.0
        tail = quad(lambda u: c * (alpha + u) ** r * math.exp(-gamma * u), 0.0, math.inf)
        return head + tail
    if fam == "fplus":
        alpha, gamma = record["alpha"], record["gamma"]
        if gamma == 0.0:
            return alpha**r / (r + 1.0)
        if math.isinf(alpha):
            return quad(lambda x: x**r * gamma * math.exp(-gamma * x), 0.0, math.inf)
        c = gamma / -math.expm1(-alpha * gamma)
        return quad(lambda x: c * x**r * math.exp(-gamma * x), 0.0, alpha)
    if fam == "gminus":
        rate, offset = record["rate"], record["offset"]
        if math.isinf(rate):
            return offset**r
        return quad(lambda u: (offset + u) ** r * rate * math.exp(-rate * u), 0.0, math.inf)
    if fam == "gplus":
        rate, cutoff = record["rate"], record["cutoff"]
        if rate == 0.0:
            return cutoff**r
        if math.isinf(cutoff):
            return quad(lambda x: x**r * rate * math.exp(-rate * x), 0.0, math.inf)
        cont = quad(lambda x: x**r * rate * math.exp(-rate * x), 0.0, cutoff)
        return cont + cutoff**r * math.exp(-rate * cutoff)
    raise ValueError(f"unknown family {fam!r}")


def member_limit(record: dict) -> str:
    """The limit tag a member's parameters imply."""
    fam = record["family"]
    if fam == "fminus":
        return "uniform" if math.isinf(record["gamma"]) else ("exponential" if record["alpha"] == 0.0 else "interior")
    if fam == "fplus":
        return "uniform" if record["gamma"] == 0.0 else ("exponential" if math.isinf(record["alpha"]) else "interior")
    if fam == "gminus":
        return "two_point" if math.isinf(record["rate"]) else ("exponential" if record["offset"] == 0.0 else "interior")
    return "two_point" if record["rate"] == 0.0 else ("exponential" if math.isinf(record["cutoff"]) else "interior")


def density_feasible_interval(p: float) -> tuple[float, float]:
    """b/a range over symmetric log-concave laws: uniform to two-sided
    exponential, sqrt(3) (p+1)^{-1/p} to Gamma(p+1)^{1/p} / sqrt(2)."""
    return math.sqrt(3.0) * (p + 1.0) ** (-1.0 / p), math.exp(math.lgamma(p + 1.0) / p) / math.sqrt(2.0)


def logistic_abs_moment(r: float, scale: float = 1.0) -> float:
    """E|X|^r of the logistic law by quadrature of its density."""
    from scipy import integrate

    f = lambda x: 2.0 * x**r * math.exp(-x / scale) / (scale * (1.0 + math.exp(-x / scale)) ** 2)
    return integrate.quad(f, 0.0, math.inf, limit=400, epsabs=0.0, epsrel=1e-13)[0]

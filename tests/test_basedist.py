import mpmath
import numpy as np
import pytest
from scipy import special

from roskit import basedist as bd
from roskit.errors import DegenerateLawError, DomainError, UnsupportedMethodError

ALL_KINDS = [
    bd.rademacher(),
    bd.uniform(1.0),
    bd.uniform(2.5),
    bd.gaussian(),
    bd.cosine_projection(),
    bd.symmetric_atoms([(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)]),
    bd.symmetric_atoms([(0.5, 0.3), (1.5, 0.7)]),
]


class TestAbsMoment:
    def test_rademacher_any_order(self):
        assert bd.abs_moment(bd.rademacher(), 7.3) == 1.0

    def test_uniform(self):
        assert bd.abs_moment(bd.uniform(1.0), 4.0) == pytest.approx(0.2, rel=1e-14)
        for r in (1.0, 2.0, 3.7):
            assert bd.abs_moment(bd.uniform(1.0), r) == pytest.approx(
                1.0 / (r + 1.0), rel=1e-14
            )

    def test_cosine(self):
        assert bd.abs_moment(bd.cosine_projection(), 2.0) == pytest.approx(0.5, rel=1e-13)

    def test_atoms(self):
        v = bd.symmetric_atoms([(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)])
        assert bd.abs_moment(v, 2.0) == pytest.approx(0.5 + 4 * 0.25, rel=1e-14)

    @pytest.mark.parametrize("V", ALL_KINDS)
    def test_lyapunov_monotone(self, V):
        # r -> (E|V|^r)^(1/r) nondecreasing
        norms = [bd.abs_moment(V, r) ** (1.0 / r) for r in (1, 2, 3, 4, 6)]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(norms, norms[1:]))


def _mp_char_gap(V, t):
    """1 - phi(t) in 40-digit mpmath from the closed forms."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        phi = {"rademacher": lambda: mpmath.cos(t),
               "uniform": lambda: mpmath.sinc(V.half_width * t),
               "gaussian": lambda: mpmath.exp(-t * t / 2),
               "cosine": lambda: mpmath.besselj(0, t),
               "atoms": lambda: mpmath.fsum(m * mpmath.cos(a * t) for a, m in V.atoms)}[V.kind]()
        return float(1 - phi)


class TestCharacteristicFunction:
    LAWS = [bd.rademacher(), bd.uniform(1.0), bd.uniform(2.5), bd.gaussian(),
            bd.cosine_projection(), bd.symmetric_atoms([(0.0, 0.3), (1.0, 0.4), (2.5, 0.3)])]

    @pytest.mark.parametrize("V", LAWS, ids=lambda V: bd.format_base_spec(V))
    def test_gap_relative_accuracy(self, V):
        # also near t = 0, where phi - 1 cancels, and on both sides of |t| b = 1,
        # where the uniform and cosine laws switch from their series
        t = np.array([1e-7, 1e-3, 0.3, 0.39, 0.41, 0.99, 1.01, 3.0, 50.0, 1234.5])
        got = V.char_gap(t)
        want = np.array([_mp_char_gap(V, x) for x in t])
        assert np.all(np.abs(got - want) <= 8.0 * np.finfo(float).eps * want)

    @pytest.mark.parametrize("V", LAWS, ids=lambda V: bd.format_base_spec(V))
    def test_char_fn(self, V):
        t = np.linspace(0.0, 20.0, 41)
        closed = {"rademacher": lambda: np.cos(t), "gaussian": lambda: np.exp(-t * t / 2),
                  "uniform": lambda: np.sinc(V.half_width * t / np.pi),
                  "cosine": lambda: special.j0(t),
                  "atoms": lambda: sum(m * np.cos(a * t) for a, m in V.atoms)}[V.kind]()
        assert np.allclose(V.char_fn(t), closed, rtol=0.0, atol=4e-16)
        assert np.array_equal(V.char_fn(-t), V.char_fn(t))

    def test_conditioned(self):
        V = bd.symmetric_atoms([(0.0, 0.25), (2.0, 0.75)])
        t = np.linspace(0.0, 5.0, 11)
        want = (V.char_fn(t) - 0.25) / 0.75
        assert np.allclose(bd.condition_nonzero(V).char_fn(t), want, rtol=0.0, atol=1e-15)

    def test_scaled(self):
        assert bd.uniform(2.0).scaled(0.5) == bd.uniform(1.0)
        assert bd.rademacher().scaled(2.0) == bd.symmetric_atoms([(2.0, 1.0)])
        assert bd.gaussian().scaled(1.0) == bd.gaussian()
        with pytest.raises(UnsupportedMethodError):
            bd.cosine_projection().scaled(2.0)


class TestConditionNonzero:
    def test_removes_zero_atom(self):
        v = bd.symmetric_atoms([(0.0, 0.5), (1.0, 0.5)])
        c = bd.condition_nonzero(v)
        assert c.base.atoms == ((1.0, 1.0),)

    def test_rademacher_unchanged(self):
        c = bd.condition_nonzero(bd.rademacher())
        assert c.base.kind == "rademacher"

    def test_three_atom_second_moment(self):
        v = bd.symmetric_atoms([(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)])
        c = bd.condition_nonzero(v)
        assert c.abs_moment(2.0) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("V", ALL_KINDS)
    @pytest.mark.parametrize("r", [2.0, 3.5, 5.0])
    def test_conditioning_identity(self, V, r):
        # E|V~|^r * (1 - zero_mass) = E|V|^r
        c = bd.condition_nonzero(V)
        lhs = c.abs_moment(r) * (1.0 - V.zero_mass)
        assert lhs == pytest.approx(bd.abs_moment(V, r), rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateLawError):
            bd.symmetric_atoms([(0.0, 1.0)])


class TestKfold:
    def test_rademacher_k2_p4(self):
        # enumeration of S_2 in {-2, 0, 2} with masses 1/4, 1/2, 1/4
        c = bd.condition_nonzero(bd.rademacher())
        res = bd.kfold_abs_moment(c, 2, 4.0, "exact")
        assert res.value == pytest.approx(8.0, rel=1e-14)

    def test_gaussian_variance_additivity(self):
        c = bd.condition_nonzero(bd.gaussian())
        res = bd.kfold_abs_moment(c, 4, 2.0, "exact")
        assert res.value == pytest.approx(4.0, rel=1e-13)

    def test_empty_sum(self):
        c = bd.condition_nonzero(bd.rademacher())
        for method in ("exact", "grid"):
            assert bd.kfold_abs_moment(c, 0, 5.0, method).value == 0.0

    def test_exact_unsupported(self):
        c = bd.condition_nonzero(bd.uniform(1.0))
        with pytest.raises(UnsupportedMethodError):
            bd.kfold_abs_moment(c, 3, 4.0, "exact")

    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    @pytest.mark.parametrize("k", [1, 5, 20])
    @pytest.mark.parametrize("p", [4.0, 5.0, 6.5])
    def test_grid_agrees_with_exact(self, kind, k, p):
        base = bd.rademacher() if kind == "rademacher" else bd.gaussian()
        c = bd.condition_nonzero(base)
        exact = bd.kfold_abs_moment(c, k, p, "exact")
        grid = bd.kfold_abs_moment(c, k, p, "grid", tol=1e-7)
        assert abs(grid.value - exact.value) <= max(
            grid.error_bound, 1e-11 * exact.value
        )

    @pytest.mark.parametrize("V", ALL_KINDS)
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_triangle_inequality(self, V, k):
        # ||S_k||_p <= k ||V~||_p
        p = 4.0
        c = bd.condition_nonzero(V)
        res = bd.kfold_abs_moment(c, k, p, "grid", tol=1e-7)
        val = max(res.value - res.error_bound, 0.0)
        assert val ** (1.0 / p) <= k * c.abs_moment(p) ** (1.0 / p) * (1 + 1e-9)

    def test_atoms_grid_is_exact_enumeration(self):
        c = bd.condition_nonzero(bd.symmetric_atoms([(1.0, 0.6), (2.0, 0.4)]))
        got = bd.kfold_abs_moment(c, 2, 4.0, "grid").value
        # direct enumeration over the 4x4 signed product
        law = {1.0: 0.3, -1.0: 0.3, 2.0: 0.2, -2.0: 0.2}
        want = sum(
            m1 * m2 * abs(x1 + x2) ** 4 for x1, m1 in law.items() for x2, m2 in law.items()
        )
        assert got == pytest.approx(want, rel=1e-12)


class TestParseSpec:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("rademacher", "rademacher"),
            ("gaussian", "gaussian"),
            ("cosine", "cosine"),
            ("uniform:w=2", "uniform"),
            ("atoms:0:0.5,1:0.5", "atoms"),
        ],
    )
    def test_roundtrip(self, text, kind):
        v = bd.parse_base_spec(text)
        assert v.kind == kind
        again = bd.parse_base_spec(bd.format_base_spec(v))
        # equal and hashing alike: _gap_series is an lru_cache keyed by the law
        assert again == v and hash(again) == hash(v)
        assert isinstance(v, bd.BaseDistribution)

    def test_kinds_differ(self):
        assert bd.gaussian() != bd.cosine_projection()
        assert bd.rademacher() != bd.symmetric_atoms([(1, 1)])

    def test_uniform_width(self):
        assert bd.parse_base_spec("uniform:w=2.5").half_width == 2.5

    def test_bad_specs(self):
        for text in ("triangular", "uniform:q=1", "atoms:", "atoms:1", "gaussian:w=3",
                     "cosine:0.5", "rademacher:junk", "uniform:w=inf", "atoms:inf:1",
                     "atoms:nan:1", "atoms:1:nan"):
            with pytest.raises(DomainError):
                bd.parse_base_spec(text)

    def test_atom_validation(self):
        with pytest.raises(DomainError):
            bd.symmetric_atoms([(1.0, 0.5), (1.0, 0.5)])
        with pytest.raises(DomainError):
            bd.symmetric_atoms([(-1.0, 1.0)])
        with pytest.raises(DomainError):
            bd.symmetric_atoms([(1.0, 0.4)])

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from roskit import specfun
from roskit.errors import DomainError


class TestRegLowerIncGamma:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_exponential_cdf(self, x):
        assert specfun.reg_lower_inc_gamma(1.0, x) == pytest.approx(
            1.0 - math.exp(-x), abs=1e-14
        )

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 7.0])
    def test_zero(self, s):
        assert specfun.reg_lower_inc_gamma(s, 0.0) == 0.0

    def test_series_oracle_s2_x1(self):
        # independent oracle: P(s,x) = sum_k x^(s+k) e^(-x) / Gamma(s+k+1)
        s, x = 2.0, 1.0
        oracle = sum(
            x ** (s + k) * math.exp(-x) / math.gamma(s + k + 1) for k in range(60)
        )
        assert oracle == pytest.approx(1.0 - 2.0 * math.exp(-1.0), abs=1e-15)
        assert specfun.reg_lower_inc_gamma(s, x) == pytest.approx(oracle, abs=1e-12)

    def test_monotone_and_clamped(self):
        for s in (0.4, 1.7, 6.0, 23.0):
            vals = [specfun.reg_lower_inc_gamma(s, x) for x in np.linspace(0, 8 * s, 300)]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_accuracy_vs_scipy(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            s = float(rng.uniform(0.05, 60.0))
            x = float(rng.uniform(0.0, 3.0 * s + 10.0))
            assert abs(
                specfun.reg_lower_inc_gamma(s, x) - special.gammainc(s, x)
            ) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.reg_lower_inc_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            specfun.reg_lower_inc_gamma(2.0, -0.5)


class TestUpperIncGamma:
    def test_complement(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = float(rng.uniform(0.1, 40.0))
            x = float(rng.uniform(0.0, 3.0 * s + 5.0))
            p = specfun.reg_lower_inc_gamma(s, x)
            q = specfun.reg_upper_inc_gamma(s, x)
            assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_scaled_matches_quadrature(self):
        # log of integral_x^inf t^(s-1) e^(x-t) dt
        for s, x in [(1.5, 0.3), (3.0, 2.5), (5.7, 40.0), (2.2, 300.0)]:
            val, _ = integrate.quad(
                lambda t, _x=x, _s=s: t ** (_s - 1.0) * math.exp(_x - t), x, np.inf
            )
            assert specfun.log_upper_gamma_exp_scaled(s, x) == pytest.approx(
                math.log(val), rel=1e-10
            )

    @settings(max_examples=200, deadline=None)
    @given(s=st.floats(0.05, 60.0))
    def test_scaled_continuous_at_switch(self, s):
        # x < s+1 goes through scipy's Q(s, x), x >= s+1 through the continued
        # fraction; the scaled integrals on either side agree to 1e-12 relative
        x = s + 1.0
        below = specfun.log_upper_gamma_exp_scaled(s, math.nextafter(x, 0.0))
        above = specfun.log_upper_gamma_exp_scaled(s, x)
        assert math.exp(below - above) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, 0.7, 9.0, math.inf])
    def test_returns_float(self, x):
        # a leaked np.float64 would print as np.float64(...) in CLI output
        assert type(specfun.reg_lower_inc_gamma(2.5, x)) is float
        assert type(specfun.reg_upper_inc_gamma(2.5, x)) is float
        if math.isfinite(x):
            assert type(specfun.log_upper_gamma_exp_scaled(2.5, x)) is float


class TestGaussianAbsMoment:
    def test_trivial(self):
        assert specfun.gaussian_abs_moment(2.0) == pytest.approx(1.0, rel=1e-14)
        assert specfun.gaussian_abs_moment(4.0) == pytest.approx(3.0, rel=1e-14)
        assert specfun.gaussian_abs_moment(0.0) == pytest.approx(1.0, rel=1e-14)

    def test_p3_quadrature_oracle(self):
        oracle, _ = integrate.quad(
            lambda x: abs(x) ** 3 * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
            -np.inf,
            np.inf,
        )
        assert oracle == pytest.approx(1.5957691216057308, rel=1e-10)
        assert specfun.gaussian_abs_moment(3.0) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.7, 6.0, 10.0])
    def test_quadrature_agreement(self, p):
        oracle, _ = integrate.quad(
            lambda x: abs(x) ** p * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
            -np.inf,
            np.inf,
        )
        assert specfun.gaussian_abs_moment(p) == pytest.approx(oracle, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.gaussian_abs_moment(-0.1)


class TestSteinhausBeta:
    def test_p2(self):
        assert specfun.steinhaus_beta(2.0) == pytest.approx(2.0, rel=1e-13)

    def test_p4_quadrature_oracle(self):
        m4, _ = integrate.quad(lambda u: abs(math.cos(2 * math.pi * u)) ** 4, 0.0, 1.0)
        assert 1.0 / m4 == pytest.approx(8.0 / 3.0, rel=1e-9)
        assert specfun.steinhaus_beta(4.0) == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_p1(self):
        # E|cos| = 2/pi by direct integration, so beta_1 = pi/2
        assert specfun.steinhaus_beta(1.0) == pytest.approx(math.pi / 2.0, rel=1e-13)

    @pytest.mark.parametrize("p", [2.5, 4.0, 5.5])
    def test_normalizer_identity(self, p):
        mp, _ = integrate.quad(
            lambda u: abs(math.cos(2 * math.pi * u)) ** p, 0.0, 1.0, limit=200
        )
        assert specfun.steinhaus_beta(p) * mp == pytest.approx(1.0, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.steinhaus_beta(0.0)

"""Closed-form reference distributions against independent oracles."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from hdwhite.distributions import (
    chi2_4_cdf,
    chi2_4_quantile,
    chi2_4_sf,
    gumbel_cdf,
    gumbel_quantile,
    gumbel_sf,
    std_normal_cdf,
    std_normal_quantile,
    std_normal_sf,
)
from hdwhite.errors import ConfigError

from oracles import bisection_chi2_4_quantile, bisection_gumbel_quantile


class TestGumbelLimit:
    def test_value_at_zero(self):
        assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0 / math.sqrt(math.pi)), abs=1e-15)
        assert gumbel_cdf(0.0) == pytest.approx(0.568821, abs=1e-6)

    def test_upper_limit(self):
        assert abs(gumbel_cdf(800.0) - 1.0) < 1e-15

    def test_cdf_sf_complement(self):
        for y in (-8.0, -1.0, 0.0, 2.5, 10.0, 40.0):
            assert gumbel_cdf(y) + gumbel_sf(y) == pytest.approx(1.0, abs=1e-15)

    def test_sf_keeps_precision_in_far_tail(self):
        # 1 - cdf would round to 0 around y ~ 150; sf must not.
        assert gumbel_sf(150.0) > 0.0
        assert gumbel_sf(150.0) == pytest.approx(
            math.exp(-75.0) / math.sqrt(math.pi), rel=1e-12
        )

    def test_quantile_at_05(self):
        assert gumbel_quantile(0.05) == pytest.approx(4.795660612234929, rel=1e-12)
        assert gumbel_quantile(0.05) == pytest.approx(4.7958, abs=1e-3)
        assert gumbel_cdf(gumbel_quantile(0.05)) == pytest.approx(0.95, abs=1e-12)

    def test_quantile_matches_bisection_oracle(self):
        for alpha in (0.2, 0.1, 0.05, 0.01, 0.001):
            want = bisection_gumbel_quantile(alpha)
            assert gumbel_quantile(alpha) == pytest.approx(want, abs=1e-9)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.7):
            with pytest.raises(ConfigError):
                gumbel_quantile(bad)

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(0.001, 0.999))
    def test_roundtrip(self, alpha):
        assert gumbel_cdf(gumbel_quantile(alpha)) == pytest.approx(1.0 - alpha, abs=1e-10)

    def test_strictly_increasing(self):
        ys = np.linspace(-12.0, 30.0, 200)
        values = [gumbel_cdf(y) for y in ys]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestChi2Four:
    def test_cdf_at_zero(self):
        assert chi2_4_cdf(0.0) == 0.0
        assert chi2_4_cdf(-3.0) == 0.0

    def test_upper_limit(self):
        assert abs(chi2_4_cdf(1500.0) - 1.0) < 1e-15

    def test_value_at_critical_point(self):
        assert chi2_4_cdf(9.4877) == pytest.approx(0.95, abs=1e-4)

    def test_cdf_sf_complement(self):
        for x in (0.1, 1.0, 4.0, 9.5, 30.0):
            assert chi2_4_cdf(x) + chi2_4_sf(x) == pytest.approx(1.0, abs=1e-15)

    def test_matches_scipy(self):
        ref = scipy.stats.chi2(df=4)
        for x in np.linspace(0.05, 40.0, 50):
            assert chi2_4_cdf(x) == pytest.approx(ref.cdf(x), abs=1e-13)

    def test_cdf_holds_relative_precision_down_to_tiny_x(self):
        # 1 - (1+u)e^-u in 60-digit decimal arithmetic, u = x/2.  The
        # closed form in double precision cancels as u -> 0: its relative
        # error reached 2.4e-8 at x = 2e-8.
        def reference(x):
            with localcontext() as ctx:
                ctx.prec = 60
                u = Decimal(x) / 2
                return float(1 - (1 + u) * (-u).exp())

        for x in np.geomspace(1e-10, 50.0, 4001):
            want = reference(float(x))
            assert abs(chi2_4_cdf(float(x)) - want) <= 1e-14 * want, x

    def test_quantile_inverts_the_cdf_at_small_levels(self):
        for q in (1e-300, 1e-100, 1e-20, 1e-8, 1e-4):
            assert chi2_4_cdf(chi2_4_quantile(q)) == pytest.approx(q, rel=1e-14)

    def test_quantile_matches_simpson_bisection_oracle(self):
        for q in (0.5, 0.9, 0.95, 0.99):
            want = bisection_chi2_4_quantile(q)
            assert chi2_4_quantile(q) == pytest.approx(want, abs=1e-7)

    def test_quantile_roundtrip(self):
        for q in (0.01, 0.3, 0.77, 0.999):
            assert chi2_4_cdf(chi2_4_quantile(q)) == pytest.approx(q, abs=1e-11)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(ConfigError):
                chi2_4_quantile(bad)


class TestStdNormal:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_upper_quantile_value(self):
        assert std_normal_cdf(1.644854) == pytest.approx(0.95, abs=1e-6)

    def test_far_tail_underflows_to_zero(self):
        assert std_normal_cdf(-1e9) < 1e-300

    def test_sf_precision_large_x(self):
        assert std_normal_sf(10.0) == pytest.approx(
            scipy.stats.norm.sf(10.0), rel=1e-12
        )
        assert std_normal_sf(38.0) > 0.0

    def test_symmetry(self):
        for x in (-4.0, -0.7, 0.3, 2.2):
            assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-15)

    def test_matches_scipy(self):
        for x in np.linspace(-6.0, 6.0, 60):
            assert std_normal_cdf(x) == pytest.approx(scipy.stats.norm.cdf(x), abs=1e-13)

    def test_quantile(self):
        assert std_normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-12)
        assert std_normal_quantile(0.5) == 0.0
        with pytest.raises(ConfigError):
            std_normal_quantile(1.0)

    def test_quantile_matches_scipy(self):
        levels = np.concatenate([
            np.geomspace(1e-300, 0.5, 200), 1.0 - np.geomspace(1e-16, 0.5, 200),
            np.linspace(0.001, 0.999, 999),
        ])
        for q in levels:
            want = scipy.special.ndtri(q)
            assert std_normal_quantile(float(q)) == pytest.approx(want, rel=2e-15, abs=1e-300)

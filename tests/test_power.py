"""Analytic power for the sum test and envelope bounds for the max test."""

import math
import warnings

import numpy as np
import pytest

from hdwhite.distributions import gumbel_quantile, std_normal_cdf, std_normal_quantile
from hdwhite.errors import ConfigError, LagError
from hdwhite.power import (
    PowerInputs,
    max_power_bounds,
    signal_detectable,
    sum_power,
    sum_variance_terms,
)


def diagonal_term_oracle(a, b, c, d, t, nu4):
    """All twelve variance pieces written out by hand for diagonal
    coefficient matrices diag(a, b) and diag(c, d).

    With S0 = diag(a^2, b^2), S1 = diag(c^2, d^2) and the cross matrix
    diag(ac, bd), every trace reduces to a two-term power sum.
    """
    return {
        "term_1": (2.0 / t**2) * (a**4 + b**4 + c**4 + d**4) ** 2,
        "term_2": (6.0 / t**2) * (a**2 * c**2 + b**2 * d**2) ** 2,
        "term_3": (4.0 / t) * (2.0 + nu4 - 3.0) * (a**4 * c**4 + b**4 * d**4),
        "term_4": (8.0 / t**2)
        * (a**2 * c**2 + b**2 * d**2)
        * (a**4 + b**4 + c**4 + d**4),
        "term_5": (16.0 / t**2) * (a * c**3 + b * d**3) * (a**3 * c + b**3 * d),
        "term_6": (16.0 / t**2)
        * (a**2 + b**2 + c**2 + d**2)
        * (a**4 * c**2 + b**4 * d**2 + a**2 * c**4 + b**2 * d**4),
        "term_7": (16.0 / t**2)
        * (a * c + b * d)
        * (
            a**5 * c
            + b**5 * d
            + a * c**5
            + b * d**5
            + 2.0 * (a**3 * c**3 + b**3 * d**3)
        ),
        "term_8": (4.0 / t)
        * (
            a**6 * c**2
            + b**6 * d**2
            + a**2 * c**6
            + b**2 * d**6
            + 2.0 * (a**4 * c**4 + b**4 * d**4)
        ),
        "term_9": (4.0 / t) * (a**4 * c**4 + b**4 * d**4),
        "term_10": (12.0 / t**2) * (a**2 * c**2 + b**2 * d**2) ** 2,
        "term_11": (16.0 / t**2) * (a * c + b * d) * (a**3 * c**3 + b**3 * d**3),
        "term_12": (4.0 / t**2)
        * ((a**3 * c + b**3 * d) ** 2 + (a * c**3 + b * d**3) ** 2),
    }


class TestVarianceTerms:
    def test_each_term_against_diagonal_oracle(self):
        a, b, c, d = 1.1, 0.7, 0.4, -0.3
        t, nu4 = 50, 4.1
        a0 = np.diag([a, b])
        a1 = np.diag([c, d])
        s0 = a0.T @ a0
        s1 = a1.T @ a1
        cross = a0.T @ a1
        got = sum_variance_terms(s0, s1, cross, t, nu4)
        want = diagonal_term_oracle(a, b, c, d, t, nu4)
        for name, value in want.items():
            assert getattr(got, name) == pytest.approx(value, rel=1e-12), name

    def test_total_is_term_sum(self):
        a0 = np.diag([1.1, 0.7])
        a1 = np.diag([0.4, -0.3])
        got = sum_variance_terms(a0.T @ a0, a1.T @ a1, a0.T @ a1, 50, 4.1)
        manual = sum(getattr(got, f"term_{i}") for i in range(1, 13))
        assert got.total() == pytest.approx(manual, rel=1e-15)

    def test_gaussian_kurtosis_reduction(self):
        # At nu4 = 3 the kurtosis correction vanishes, leaving exactly
        # (8/n) tr((S0 S1)^2).
        rng = np.random.default_rng(31)
        a0 = rng.standard_normal((4, 4)) * 0.5
        a1 = rng.standard_normal((4, 4)) * 0.3
        s0, s1 = a0.T @ a0, a1.T @ a1
        got = sum_variance_terms(s0, s1, a0.T @ a1, 80, 3.0)
        prod = s0 @ s1
        want = (8.0 / 80) * float(np.trace(prod @ prod))
        assert got.term_3 == pytest.approx(want, rel=1e-12)

    def test_cross_terms_vanish_without_signal(self):
        rng = np.random.default_rng(32)
        a0 = rng.standard_normal((3, 3))
        zero = np.zeros((3, 3))
        got = sum_variance_terms(a0.T @ a0, zero, zero, 60, 4.5)
        for i in range(2, 13):
            assert getattr(got, f"term_{i}") == 0.0, f"term_{i}"
        assert got.term_1 > 0.0


class TestSumPower:
    def test_power_equals_level_under_null(self):
        rng = np.random.default_rng(33)
        a0 = rng.standard_normal((5, 5))
        inp = PowerInputs(a0=a0, a1=np.zeros((5, 5)), n=150, nu4=3.0, alpha=0.05)
        out = sum_power(inp)
        assert out.mu_s == 0.0
        assert abs(out.beta_sum - 0.05) < 1e-10

    def test_breakdown_self_consistency(self):
        inp = PowerInputs(a0=np.eye(5), a1=0.3 * np.eye(5), n=200, nu4=3.0, alpha=0.05)
        out = sum_power(inp)
        sigma = math.sqrt(out.variance_terms.total())
        assert out.sigma_s1 == pytest.approx(sigma, rel=1e-12)
        z_alpha = std_normal_quantile(1.0 - 0.05)
        want = std_normal_cdf(
            out.mu_s / out.sigma_s1
            - z_alpha * math.sqrt(2.0) * out.xi0 / (200 * out.sigma_s1)
        )
        assert out.beta_sum == pytest.approx(want, rel=1e-12)

    def test_identity_plus_scaled_identity_case(self):
        # Spelled-out case with A0 = I_5 and A1 = 0.3 I_5 at n = 200:
        # mean tr(S0 S1) + (2/n) tr(C)^2 = 0.45 + 0.0225.
        inp = PowerInputs(a0=np.eye(5), a1=0.3 * np.eye(5), n=200, nu4=3.0, alpha=0.05)
        out = sum_power(inp)
        assert out.mu_s == pytest.approx(0.45 + 2.0 / 200 * 1.5**2, rel=1e-12)
        assert out.xi0 == pytest.approx(5 + 5 * 0.3**4 + 2 * 5 * 0.09, rel=1e-12)
        assert out.beta_sum == pytest.approx(0.9988652341977389, rel=1e-9)

    def test_power_increases_with_signal(self):
        betas = []
        for c in np.linspace(0.0, 0.6, 13):
            inp = PowerInputs(
                a0=np.eye(4), a1=float(c) * np.eye(4), n=120, nu4=3.0, alpha=0.05
            )
            betas.append(sum_power(inp).beta_sum)
        assert betas[0] == pytest.approx(0.05, abs=1e-10)
        for lo, hi in zip(betas, betas[1:]):
            assert hi >= lo - 1e-12

    def test_joint_rescaling_leaves_power_unchanged(self):
        # Both the mean and the deviation pieces are homogeneous in the
        # coefficient pair, so (cA0, cA1) gives the same power exactly.
        rng = np.random.default_rng(34)
        a0 = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        a1 = 0.25 * rng.standard_normal((4, 4))
        base = sum_power(PowerInputs(a0=a0, a1=a1, n=90, nu4=4.5, alpha=0.1))
        for factor in (3.7, 1e-30, 1e30):
            scaled = sum_power(
                PowerInputs(a0=factor * a0, a1=factor * a1, n=90, nu4=4.5, alpha=0.1)
            )
            assert scaled.beta_sum == pytest.approx(base.beta_sum, rel=1e-12)

    @pytest.mark.parametrize(
        "scale, kind", [(1e40, "overflow"), (1e200, "overflow"), (1e-60, "underflow")]
    )
    def test_trace_terms_out_of_float64_range_are_config_errors(self, scale, kind):
        # These raised a bare OverflowError, printed numpy RuntimeWarnings
        # first, and blamed zero matrices.  The same pair times 1e-30 and
        # 1e30 keeps its power (test_joint_rescaling_leaves_power_unchanged).
        rng = np.random.default_rng(34)
        a0 = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        a1 = 0.25 * rng.standard_normal((4, 4))
        inp = PowerInputs(a0=scale * a0, a1=scale * a1, n=90, nu4=4.5, alpha=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as exc:
                sum_power(inp)
        assert f"trace terms {kind} float64" in str(exc.value)
        assert "scaling A0 and A1 together leaves the power unchanged" in str(exc.value)

    def test_input_validation(self):
        eye = np.eye(3)
        with pytest.raises(ConfigError):
            PowerInputs(a0=eye, a1=np.eye(4), n=100, nu4=3.0, alpha=0.05)
        with pytest.raises(ConfigError):
            PowerInputs(a0=np.ones((3, 2)), a1=np.ones((3, 2)), n=100, nu4=3.0, alpha=0.05)
        with pytest.raises(ConfigError):
            PowerInputs(a0=eye, a1=eye, n=1, nu4=3.0, alpha=0.05)
        with pytest.raises(ConfigError):
            PowerInputs(a0=eye, a1=eye, n=100, nu4=0.5, alpha=0.05)
        with pytest.raises(ConfigError):
            PowerInputs(a0=eye, a1=eye, n=100, nu4=3.0, alpha=1.0)
        bad = eye.copy()
        bad[0, 0] = math.inf
        with pytest.raises(ConfigError):
            PowerInputs(a0=bad, a1=eye, n=100, nu4=3.0, alpha=0.05)

    @pytest.mark.parametrize("nu4", [math.nan, math.inf])
    def test_non_finite_fourth_moment_rejected(self, nu4):
        with pytest.raises(ConfigError, match="nu4 must be finite"):
            PowerInputs(a0=np.eye(3), a1=np.eye(3), n=100, nu4=nu4, alpha=0.05)

    @pytest.mark.parametrize("n", [100.5, 100.0, "100", True])
    def test_non_integer_sample_size_rejected(self, n):
        with pytest.raises(ConfigError, match="n must be an integer"):
            PowerInputs(a0=np.eye(3), a1=np.eye(3), n=n, nu4=3.0, alpha=0.05)

    def test_degenerate_coefficients_rejected(self):
        zero = np.zeros((3, 3))
        message = r"degenerate \(both coefficient matrices are zero\?\)$"
        with pytest.raises(ConfigError, match=message):
            sum_power(PowerInputs(a0=zero, a1=zero, n=100, nu4=3.0, alpha=0.05))

    def test_a_nonzero_pair_whose_expansion_is_not_positive_is_named(self):
        # At nu4 = 1 (Rademacher innovations) term_3's (nu4 - 3) part
        # outweighs the rest; the message blamed zero matrices.
        a0 = np.array([[-0.5, -0.5], [-0.5, -0.1]])
        a1 = np.array([[1.2, -0.7], [-0.9, 0.2]])
        with pytest.raises(ConfigError) as exc:
            sum_power(PowerInputs(a0=a0, a1=a1, n=1000, nu4=1.0, alpha=0.05))
        assert str(exc.value) == (
            "the truncated variance expansion totals -5.970e-04 at nu4 = 1.0, which is not a "
            "positive variance; the approximation gives no power for this (A0, A1)"
        )
        assert sum_power(PowerInputs(a0=a0, a1=a1, n=1000, nu4=2.0, alpha=0.05)).sigma_s1 > 0.0


class TestMaxPowerBounds:
    def test_zero_signal_lower_bound_value(self):
        lower, upper = max_power_bounds(0.0, 200, 60, 1, 0.05)
        assert lower == pytest.approx(1.259913942456973e-05, rel=1e-9)
        assert upper == pytest.approx(lower + 0.05, rel=1e-9)

    def test_bounds_are_ordered_and_in_unit_interval(self):
        for rho in (0.0, 0.05, 0.2, 0.5, 0.9):
            lower, upper = max_power_bounds(rho, 100, 40, 2, 0.05)
            assert 0.0 <= lower <= upper <= 1.0

    def test_lower_bound_nondecreasing_in_signal(self):
        values = [max_power_bounds(r, 150, 50, 1, 0.05)[0] for r in np.linspace(0, 0.8, 17)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-15

    def test_strong_signal_saturates(self):
        lower, upper = max_power_bounds(0.9, 2000, 30, 1, 0.05)
        assert lower > 1.0 - 1e-12
        assert upper == 1.0

    def test_matches_limit_profile_at_huge_dimension(self):
        # On the detection boundary sqrt(n) rho = sqrt(4 log p + c1 sqrt(log p))
        # the lower bound approaches Phi(c1 / 4).  The centering error
        # decays like 1 / sqrt(log p), so the profile needs p far out
        # before it settles inside 0.02.
        n, p, alpha = 10**8, 10**14, 0.05
        for c1 in (-2.0, 0.0, 2.0, 4.0):
            log_p = math.log(p)
            rho = math.sqrt((4.0 * log_p + c1 * math.sqrt(log_p)) / n)
            lower, _ = max_power_bounds(rho, n, p, 1, alpha)
            limit = std_normal_cdf(c1 / 4.0)
            assert abs(lower - limit) < 0.02, f"c1={c1}: {lower} vs {limit}"

    def test_symmetric_in_signal_sign(self):
        lower_pos, upper_pos = max_power_bounds(0.3, 100, 40, 1, 0.05)
        lower_neg, upper_neg = max_power_bounds(-0.3, 100, 40, 1, 0.05)
        assert lower_pos == lower_neg
        assert upper_pos == upper_neg

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            max_power_bounds(0.2, 100, 1, 1, 0.05)
        with pytest.raises(ConfigError):
            max_power_bounds(0.2, 100, 40, 0, 0.05)
        with pytest.raises(ConfigError):
            max_power_bounds(0.2, 1, 40, 1, 0.05)
        with pytest.raises(ConfigError):
            max_power_bounds(0.2, 100, 40, 1, 1.0)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, 1.5, -1.0000001])
    def test_rho_must_be_a_correlation(self, rho):
        with pytest.raises(ConfigError, match=r"rho must be a correlation in \[-1, 1\]"):
            max_power_bounds(rho, 100, 40, 1, 0.05)

    @pytest.mark.parametrize("rho, n, p, lags, alpha", [
        (0.1, 100, 2, 1, 0.9),
        (0.0, 100, 2, 1, 0.99),
        (-0.5, 100, 3, 1, 0.99),
    ])
    def test_negative_critical_value_rejects_every_panel(self, rho, n, p, lags, alpha):
        # x_alpha < 0 here, so t_max^2 >= 0 always clears it.
        log_np = math.log(lags * p * p)
        assert 2.0 * log_np - math.log(log_np) + gumbel_quantile(alpha) < 0.0
        assert max_power_bounds(rho, n, p, lags, alpha) == (1.0, 1.0)

    def test_unit_correlation_accepted(self):
        for rho in (1.0, -1.0):
            lower, upper = max_power_bounds(rho, 100, 40, 1, 0.05)
            assert 0.99 < lower <= upper <= 1.0

    @pytest.mark.parametrize("lags, message", [
        (1.5, "must be an integer"),
        (99, r"out of range \[1, 98\]"),
        (0, r"out of range \[1, 98\]"),
        (True, "must be an integer"),
    ], ids=["fractional", "past-n-2", "zero", "bool"])
    def test_lags_checked_by_the_lag_budget(self, lags, message):
        with pytest.raises(LagError, match=message):
            max_power_bounds(0.2, 100, 40, lags, 0.05)
        assert max_power_bounds(0.2, 100, 40, 98, 0.05)[0] >= 0.0

    @pytest.mark.parametrize("n", [100.5, 100.0, "100", True])
    def test_sample_size_must_be_an_integer(self, n):
        with pytest.raises(ConfigError, match="n must be an integer"):
            max_power_bounds(0.2, n, 40, 1, 0.05)

    @pytest.mark.parametrize("p", [40.5, 40.0, "40", True, np.float64(40.0)])
    def test_dimension_must_be_an_integer(self, p):
        with pytest.raises(ConfigError, match="p must be an integer"):
            max_power_bounds(0.2, 100, p, 1, 0.05)
        assert max_power_bounds(0.2, 100, np.int64(40), 1, 0.05) == max_power_bounds(
            0.2, 100, 40, 1, 0.05
        )


class TestSignalDetectable:
    def test_zero_signal_not_detectable(self):
        gammas = [np.zeros((5, 5))]
        assert not signal_detectable(gammas, 100, 3.0)

    def test_strong_offdiagonal_entry_detectable(self):
        p, n = 12, 100
        gamma = np.zeros((p, p))
        gamma[0, 3] = 3.5 * math.sqrt(math.log(p) / n)
        assert signal_detectable([gamma], n, 3.0)

    def test_boundary_tie_counts_as_detectable(self):
        p, n, b0 = 9, 64, 2.0
        gamma = np.zeros((p, p))
        gamma[1, 7] = b0 * math.sqrt(math.log(p) / n)
        assert signal_detectable([gamma], n, b0)

    def test_diagonal_is_ignored(self):
        gamma = np.eye(6)
        assert not signal_detectable([gamma], 50, 0.5)

    def test_any_lag_may_carry_the_signal(self):
        p, n = 8, 80
        quiet = np.zeros((p, p))
        loud = np.zeros((p, p))
        loud[2, 5] = -1.0
        assert signal_detectable([quiet, loud], n, 1.0)

    def test_empty_lag_list_rejected(self):
        with pytest.raises(ConfigError):
            signal_detectable([], 100, 3.0)

    @pytest.mark.parametrize("n", [0, -5, math.nan])
    def test_sample_size_must_be_positive(self, n):
        with pytest.raises(ConfigError, match="n must be at least 1"):
            signal_detectable([np.eye(4)], n, 1.0)

    @pytest.mark.parametrize("n", [100.5, 100.0, "100", True])
    def test_sample_size_must_be_an_integer(self, n):
        with pytest.raises(ConfigError, match="n must be an integer"):
            signal_detectable([np.eye(4)], n, 1.0)

    @pytest.mark.parametrize("b0", [math.nan, math.inf])
    def test_threshold_must_be_finite(self, b0):
        with pytest.raises(ConfigError, match="b0 must be finite"):
            signal_detectable([np.eye(4)], 50, b0)

    def test_non_finite_entries_rejected(self):
        loud = np.zeros((4, 4))
        loud[0, 1] = 1.0
        for bad in (math.nan, math.inf):
            quiet = np.zeros((4, 4))
            quiet[2, 3] = bad
            with pytest.raises(
                ConfigError,
                match=r"^autocorrelation matrix 2 contains a non-finite value at row 3, column 4$",
            ):
                signal_detectable([loud, quiet], 50, 1.0)

"""Scenario samplers: covariance targets, innovations, block alternatives."""

import re

import numpy as np
import pytest

from hdwhite.dgp import (
    BURN_IN,
    DgpSpec,
    Innovation,
    Scenario,
    _run_recursion,
    draw_innovations,
    fourth_moment,
    gen_alternative_panel,
    gen_ma_panel,
    gen_null_panel,
    make_coeff_matrix,
    make_sigma,
    psd_projection_root,
)
from hdwhite.errors import ConfigError, NonstationaryDrawError
from hdwhite.panel import TimeSeriesPanel, sample_autocovariance
from hdwhite.statistics import sum_test

from oracles import lyapunov_covariance, stepwise_alternative, stepwise_recursion


class TestMakeSigma:
    def test_inverse_square_decay_entries(self):
        sigma = make_sigma(Scenario.NULL_I, 6)
        assert sigma[0, 0] == 1.0
        assert sigma[0, 1] == 0.5
        assert sigma[0, 2] == 0.125
        assert sigma[2, 0] == 0.125
        assert np.array_equal(sigma, sigma.T)

    def test_banded_entries(self):
        sigma = make_sigma(Scenario.NULL_II, 8)
        assert sigma[0, 0] == 1.0
        assert sigma[0, 4] == 0.5, "band covers |i - j| < 5"
        assert sigma[0, 5] == 0.0, "band excludes |i - j| = 5"
        assert np.array_equal(sigma, sigma.T)

    def test_rejects_random_mixing_scenario(self):
        with pytest.raises(ConfigError):
            make_sigma(Scenario.NULL_III, 4)

    def test_psd_projection_root_reproduces_psd_input(self):
        sigma = make_sigma(Scenario.NULL_I, 10)
        root = psd_projection_root(sigma)
        assert np.abs(root @ root.T - sigma).max() < 1e-10

    def test_psd_projection_root_clips_negative_part(self):
        sigma = make_sigma(Scenario.NULL_II, 60)
        eigvals = np.linalg.eigvalsh(sigma)
        assert eigvals.min() < -1e-6, "wide band matrix should be indefinite"
        root = psd_projection_root(sigma)
        target = root @ root.T
        assert np.linalg.eigvalsh(target).min() > -1e-10
        # The projection only removes the negative part of the spectrum.
        clipped = np.clip(eigvals, 0.0, None)
        assert np.abs(np.linalg.eigvalsh(target) - np.sort(clipped)).max() < 1e-8


class TestInnovations:
    def test_fourth_moment_constants(self):
        assert fourth_moment(Innovation.GAUSSIAN) == 3.0
        assert fourth_moment(Innovation.SHIFTED_GAMMA) == 4.5

    def test_shifted_gamma_moments(self):
        rng = np.random.default_rng(77)
        d = draw_innovations(rng, 1000, 1000, Innovation.SHIFTED_GAMMA).ravel()
        mean = d.mean()
        var = d.var()
        skew = ((d - mean) ** 3).mean() / var**1.5
        kurt = ((d - mean) ** 4).mean() / var**2
        assert abs(mean) < 0.01
        assert abs(var - 1.0) < 0.02
        assert abs(skew - 1.0) < 0.05, "Gamma(4, 1/2) - 2 has skewness 1"
        assert abs(kurt - 4.5) < 0.1

    def test_gaussian_fourth_moment(self):
        rng = np.random.default_rng(78)
        d = draw_innovations(rng, 1000, 1000, Innovation.GAUSSIAN).ravel()
        kurt = ((d - d.mean()) ** 4).mean() / d.var() ** 2
        assert abs(kurt - 3.0) < 0.1


class TestNullPanels:
    def test_deterministic_in_seed(self):
        spec = DgpSpec(
            scenario=Scenario.NULL_I, innovation=Innovation.GAUSSIAN, n=50, p=10, seed=3
        )
        a = gen_null_panel(spec)
        b = gen_null_panel(spec)
        assert np.array_equal(a.values, b.values)
        other = DgpSpec(
            scenario=Scenario.NULL_I, innovation=Innovation.GAUSSIAN, n=50, p=10, seed=4
        )
        assert not np.array_equal(a.values, gen_null_panel(other).values)

    def test_decay_scenario_covariance(self):
        spec = DgpSpec(
            scenario=Scenario.NULL_I,
            innovation=Innovation.GAUSSIAN,
            n=100_000,
            p=6,
            seed=5,
        )
        panel = gen_null_panel(spec)
        got = panel.values.T @ panel.values / panel.n
        assert np.abs(got - make_sigma(Scenario.NULL_I, 6)).max() < 0.05

    def test_narrow_band_covariance(self):
        spec = DgpSpec(
            scenario=Scenario.NULL_II,
            innovation=Innovation.GAUSSIAN,
            n=100_000,
            p=6,
            seed=7,
        )
        panel = gen_null_panel(spec)
        got = panel.values.T @ panel.values / panel.n
        assert np.abs(got - make_sigma(Scenario.NULL_II, 6)).max() < 0.05

    def test_wide_band_covariance_is_projected(self):
        # At p = 60 the banded target is indefinite, so the sampler can
        # only realize its positive part.
        spec = DgpSpec(
            scenario=Scenario.NULL_II,
            innovation=Innovation.GAUSSIAN,
            n=50_000,
            p=60,
            seed=6,
        )
        panel = gen_null_panel(spec)
        got = panel.values.T @ panel.values / panel.n
        root = psd_projection_root(make_sigma(Scenario.NULL_II, 60))
        assert np.abs(got - root @ root.T).max() < 0.05

    def test_random_mixing_draws_matrix_per_panel(self):
        spec = DgpSpec(
            scenario=Scenario.NULL_III, innovation=Innovation.GAUSSIAN, n=40, p=8, seed=9
        )
        a = gen_null_panel(spec)
        assert np.array_equal(a.values, gen_null_panel(spec).values)
        other = DgpSpec(
            scenario=Scenario.NULL_III, innovation=Innovation.GAUSSIAN, n=40, p=8, seed=10
        )
        assert not np.array_equal(a.values, gen_null_panel(other).values)

    def test_rejects_alternative_scenario(self):
        spec = DgpSpec(
            scenario=Scenario.VAR1,
            innovation=Innovation.GAUSSIAN,
            n=40,
            p=8,
            seed=1,
            m=2,
        )
        with pytest.raises(ConfigError):
            gen_null_panel(spec)


class TestCoeffMatrix:
    def test_scalar_block(self):
        rng = np.random.default_rng(11)
        coeff = make_coeff_matrix(Scenario.VAR1, 5, 1, rng)
        assert coeff.shape == (5, 5)
        assert 0.4 <= coeff[0, 0] <= 0.8
        assert np.count_nonzero(coeff) == 1

    def test_block_support_and_range(self):
        rng = np.random.default_rng(12)
        coeff = make_coeff_matrix(Scenario.VMA1, 8, 4, rng)
        assert np.all(coeff[4:, :] == 0.0) and np.all(coeff[:, 4:] == 0.0)
        block = coeff[:4, :4]
        assert np.abs(block).max() <= 1.8 / 4
        assert np.count_nonzero(block) == 16

    def test_scalar_ranges_differ_by_scenario(self):
        # The one-lag moving average draws from a wider scalar range.
        highs = {}
        for scenario in (Scenario.VAR1, Scenario.VMA1, Scenario.VARMA1):
            vals = [
                make_coeff_matrix(scenario, 2, 1, np.random.default_rng(s))[0, 0]
                for s in range(300)
            ]
            highs[scenario] = max(vals)
            assert min(vals) >= 0.4
        assert highs[Scenario.VMA1] > 0.8
        assert highs[Scenario.VAR1] <= 0.8
        assert highs[Scenario.VARMA1] <= 0.8

    def test_block_size_bounds(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ConfigError):
            make_coeff_matrix(Scenario.VAR1, 5, 6, rng)
        with pytest.raises(ConfigError):
            make_coeff_matrix(Scenario.VAR1, 20, 11, rng)
        with pytest.raises(ConfigError):
            make_coeff_matrix(Scenario.NULL_I, 5, 1, rng)


class TestAlternativePanels:
    def test_deterministic_in_seed(self):
        spec = DgpSpec(
            scenario=Scenario.VMA1,
            innovation=Innovation.GAUSSIAN,
            n=60,
            p=10,
            seed=21,
            m=3,
        )
        a = gen_alternative_panel(spec)
        assert np.array_equal(a.values, gen_alternative_panel(spec).values)

    def test_autoregression_matches_lyapunov_solution(self):
        # The generator draws the coefficient matrix first, so an
        # identically seeded fresh stream recovers it exactly; the
        # long-run covariance must then solve S = A S A' + I.
        seed = 4000
        spec = DgpSpec(
            scenario=Scenario.VAR1,
            innovation=Innovation.GAUSSIAN,
            n=100_000,
            p=4,
            seed=seed,
            m=3,
        )
        panel = gen_alternative_panel(spec)
        coeff = make_coeff_matrix(Scenario.VAR1, 4, 3, np.random.default_rng(seed))
        want = lyapunov_covariance(coeff, np.eye(4))
        got = panel.values.T @ panel.values / panel.n
        assert np.abs(got - want).max() < 0.05

    def test_columns_outside_block_stay_white(self):
        rejections = 0
        for rep in range(500):
            spec = DgpSpec(
                scenario=Scenario.VMA1,
                innovation=Innovation.GAUSSIAN,
                n=100,
                p=30,
                seed=50_000 + rep,
                m=5,
            )
            panel = gen_alternative_panel(spec)
            sub = TimeSeriesPanel(panel.values[:, 5:])
            rejections += sum_test(sub, 1).p_value < 0.05
        rate = rejections / 500
        assert 0.02 <= rate <= 0.09, f"columns outside the block gave size {rate}"

    def test_nonstationary_draw_raises(self):
        # Frozen seed whose 2 x 2 autoregression draw has spectral
        # radius at or above the stationarity limit.  The block does not
        # depend on p, so a wider panel must raise as well.
        for p in (2, 6):
            spec = DgpSpec(
                scenario=Scenario.VAR1,
                innovation=Innovation.GAUSSIAN,
                n=20,
                p=p,
                seed=43,
                m=2,
            )
            coeff = make_coeff_matrix(Scenario.VAR1, p, 2, np.random.default_rng(43))
            assert np.abs(np.linalg.eigvals(coeff)).max() >= 0.999
            with pytest.raises(NonstationaryDrawError):
                gen_alternative_panel(spec)

    def test_moving_average_never_checks_stationarity(self):
        spec = DgpSpec(
            scenario=Scenario.VMA1,
            innovation=Innovation.GAUSSIAN,
            n=20,
            p=2,
            seed=43,
            m=2,
        )
        panel = gen_alternative_panel(spec)
        assert panel.values.shape == (20, 2)


class TestBlockGeneration:
    """The block-only generator against the full p x p step loops."""

    ROWS = {
        Scenario.VMA1: lambda n: n + 1,
        Scenario.VAR1: lambda n: BURN_IN + n,
        Scenario.VARMA1: lambda n: BURN_IN + n + 1,
    }

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    @pytest.mark.parametrize("scenario", [Scenario.VAR1, Scenario.VARMA1, Scenario.VMA1])
    def test_matches_step_loop(self, scenario, m):
        n, p = 40, 12
        checked = 0
        for seed in range(30):
            spec = DgpSpec(scenario, Innovation.GAUSSIAN, n, p, 7000 + seed, m)
            try:
                got = gen_alternative_panel(spec).values
            except NonstationaryDrawError:
                continue
            # Same draws in the same order: coefficients, then innovations.
            rng = np.random.default_rng(spec.seed)
            coeff = make_coeff_matrix(scenario, p, m, rng)
            z = draw_innovations(rng, self.ROWS[scenario](n), p, Innovation.GAUSSIAN)
            want = stepwise_alternative(scenario.value, coeff, z, BURN_IN)
            assert np.array_equal(got[:, m:], want[:, m:])
            scale = np.abs(want[:, :m]).max()
            assert np.abs(got[:, :m] - want[:, :m]).max() <= 1e-12 * scale
            checked += 1
        assert checked >= 25

    def test_recursion_reaches_every_lag(self):
        # A rotation never decays, so a missing doubling pass would drop
        # terms of full size; lengths straddle powers of two.
        angle = 0.3
        b = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        rng = np.random.default_rng(90)
        for length in (1, 2, 3, 37, 64, 65):
            u = rng.standard_normal((length, 2))
            want = stepwise_recursion(b, u)
            assert np.abs(_run_recursion(b, u) - want).max() <= 1e-12 * np.abs(want).max()

    def test_long_nonnormal_recursion(self):
        # A defective block near the unit circle: B^k peaks near 33 at
        # k = 100 before it decays, and 100,300 steps need 17 doublings.
        b = np.array([[0.99, 0.9], [0.0, 0.99]])
        u = np.random.default_rng(91).standard_normal((100_300, 2))
        want = stepwise_recursion(b, u)
        got = _run_recursion(b, u)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestExplicitMovingAverage:
    def test_lag_one_autocovariance_matches_coefficient(self):
        a0 = np.eye(3)
        a1 = np.array([[0.5, 0.2, 0.0], [0.0, -0.3, 0.1], [0.2, 0.0, 0.4]])
        panel = gen_ma_panel(a0, a1, 200_000, 91)
        got = sample_autocovariance(panel, 1)
        assert np.abs(got - a1).max() < 0.02

    def test_shape_and_determinism(self):
        a0 = np.eye(2)
        a1 = 0.3 * np.eye(2)
        panel = gen_ma_panel(a0, a1, 50, 14)
        assert panel.values.shape == (50, 2)
        assert np.array_equal(panel.values, gen_ma_panel(a0, a1, 50, 14).values)

    def test_zero_lag_matrix_gives_instant_mix(self):
        a0 = np.array([[2.0, 0.0], [0.0, 1.0]])
        panel = gen_ma_panel(a0, np.zeros((2, 2)), 100_000, 15)
        got = sample_autocovariance(panel, 0)
        assert abs(got[0, 0] - 4.0) < 0.1
        assert abs(got[1, 1] - 1.0) < 0.05

    def test_rejects_nonconforming_matrices(self):
        with pytest.raises(ConfigError):
            gen_ma_panel(np.eye(3), np.eye(2), 50, 0)
        with pytest.raises(ConfigError):
            gen_ma_panel(np.ones((2, 3)), np.ones((2, 3)), 50, 0)


class TestDgpSpecValidation:
    def test_alternatives_are_gaussian_only(self):
        with pytest.raises(ConfigError):
            DgpSpec(
                scenario=Scenario.VAR1,
                innovation=Innovation.SHIFTED_GAMMA,
                n=40,
                p=8,
                seed=1,
                m=2,
            )

    def test_block_size_required_for_alternatives(self):
        with pytest.raises(ConfigError):
            DgpSpec(
                scenario=Scenario.VMA1, innovation=Innovation.GAUSSIAN, n=40, p=8, seed=1
            )

    def test_block_size_forbidden_for_nulls(self):
        with pytest.raises(ConfigError):
            DgpSpec(
                scenario=Scenario.NULL_I,
                innovation=Innovation.GAUSSIAN,
                n=40,
                p=8,
                seed=1,
                m=2,
            )

    def test_block_size_upper_bound(self):
        with pytest.raises(ConfigError):
            DgpSpec(
                scenario=Scenario.VAR1,
                innovation=Innovation.GAUSSIAN,
                n=40,
                p=8,
                seed=1,
                m=9,
            )

    def test_dimension_and_seed_bounds(self):
        with pytest.raises(ConfigError):
            DgpSpec(scenario=Scenario.NULL_I, innovation=Innovation.GAUSSIAN, n=9, p=8, seed=1)
        with pytest.raises(ConfigError):
            DgpSpec(scenario=Scenario.NULL_I, innovation=Innovation.GAUSSIAN, n=40, p=1, seed=1)
        with pytest.raises(ConfigError):
            DgpSpec(scenario=Scenario.NULL_I, innovation=Innovation.GAUSSIAN, n=40, p=8, seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("n", 40.5), ("n", 40.0), ("n", True), ("n", "40"),
        ("p", 4.0), ("p", np.float64(8.0)), ("p", False),
        ("m", 2.0), ("m", True),
    ])
    def test_sizes_must_be_integers(self, field, value):
        fields = dict(scenario=Scenario.VAR1, innovation=Innovation.GAUSSIAN,
                      n=40, p=8, seed=1, m=2)
        fields[field] = value
        message = re.escape(f"{field} must be an integer, got {value!r}")
        with pytest.raises(ConfigError, match=message):
            DgpSpec(**fields)

    @pytest.mark.parametrize("seed", [True, 1.0, "1", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            DgpSpec(scenario=Scenario.NULL_I, innovation=Innovation.GAUSSIAN, n=40, p=8,
                    seed=seed)

    def test_numpy_integers_are_accepted(self):
        spec = DgpSpec(scenario=Scenario.VAR1, innovation=Innovation.GAUSSIAN,
                       n=np.int64(40), p=np.int32(8), seed=np.uint64(1), m=np.int64(2))
        assert spec.n == 40 and spec.m == 2

"""Factor regression residuals and the sliding-window pipeline."""

import dataclasses
import math
import multiprocessing
import warnings
from itertools import chain

import numpy as np
import pytest

from hdwhite.dgp import DgpSpec, Innovation, Scenario, gen_alternative_panel
from hdwhite import factor
from hdwhite import panel as panel_module
from hdwhite.errors import ConfigError, DataError, DegenerateColumnError, LagError, ParseError
from hdwhite.factor import (
    FactorData,
    SlidingWindowSummary,
    build_factor_data,
    ols_residuals,
    read_factors_csv,
    read_returns_csv,
    sliding_window_rates,
)
from hdwhite.distributions import std_normal_sf
from hdwhite.panel import WINDOW_BLOCK, TimeSeriesPanel, _window_panels, sample_autocovariance
from hdwhite.statistics import SumResult, fisher_combine, run_all

from oracles import longdouble_run_pair_sums


def every_window(panel, window, lags):
    """Every sliding window of ``panel._window_panels``, block after block."""
    blocks = panel_module._window_blocks(panel.n - window)
    return chain.from_iterable(
        _window_panels(panel, window, lags, block) for block in range(blocks)
    )


def synthetic_data(t=40, p=6, seed=42, noise=1.0):
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((t, 3)) * [1.0, 0.6, 0.5]
    beta = rng.standard_normal((3, p))
    alpha = rng.standard_normal(p) * 0.1
    returns = alpha + factors @ beta + noise * rng.standard_normal((t, p))
    return FactorData(excess_returns=returns, factors=factors)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestFactorData:
    def test_row_count_mismatch(self):
        with pytest.raises(DataError, match="equal row counts"):
            FactorData(
                excess_returns=np.zeros((12, 2)) + np.arange(2),
                factors=np.random.default_rng(0).standard_normal((11, 3)),
            )

    def test_minimum_rows(self):
        rng = np.random.default_rng(1)
        with pytest.raises(DataError, match="at least 10 rows"):
            FactorData(
                excess_returns=rng.standard_normal((9, 2)),
                factors=rng.standard_normal((9, 3)),
            )

    def test_factor_width(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DataError, match="T x 3"):
            FactorData(
                excess_returns=rng.standard_normal((12, 2)),
                factors=rng.standard_normal((12, 4)),
            )

    def test_non_finite_rejected(self):
        rng = np.random.default_rng(3)
        returns = rng.standard_normal((12, 2))
        returns[4, 1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            FactorData(excess_returns=returns, factors=rng.standard_normal((12, 3)))

    def test_zero_variance_factor_named(self):
        rng = np.random.default_rng(4)
        factors = rng.standard_normal((12, 3))
        factors[:, 1] = 0.25
        with pytest.raises(DataError, match="smb has zero variance"):
            FactorData(excess_returns=rng.standard_normal((12, 2)), factors=factors)

    def test_metadata_length_checks(self):
        rng = np.random.default_rng(5)
        returns = rng.standard_normal((12, 2))
        factors = rng.standard_normal((12, 3))
        with pytest.raises(DataError, match="dates"):
            FactorData(excess_returns=returns, factors=factors, dates=("d1",))
        with pytest.raises(DataError, match="asset names"):
            FactorData(
                excess_returns=returns, factors=factors, asset_names=("a", "b", "c")
            )

    def test_arrays_are_frozen(self):
        data = synthetic_data()
        with pytest.raises(ValueError):
            data.excess_returns[0, 0] = 9.0
        assert data.num_periods == 40
        assert data.num_assets == 6


class TestOlsResiduals:
    def test_exact_linear_returns_leave_no_residual(self):
        data = synthetic_data(noise=0.0)
        residuals = ols_residuals(data)
        assert np.abs(residuals.values).max() < 1e-10

    def test_residuals_orthogonal_to_design(self):
        data = synthetic_data(t=60, p=8, seed=7)
        residuals = ols_residuals(data).values
        design = np.column_stack([np.ones(60), data.factors])
        cross = design.T @ residuals
        scale = np.abs(design).max() * np.abs(residuals).max() * 60
        assert np.abs(cross).max() / scale < 1e-8

    def test_residual_columns_have_zero_mean(self):
        residuals = ols_residuals(synthetic_data(seed=8)).values
        assert np.abs(residuals.mean(axis=0)).max() < 1e-10

    def test_single_asset_against_normal_equations(self):
        # Independent route: solve X'X b = X'y directly for one asset at
        # T = 10 and compare residuals elementwise.
        rng = np.random.default_rng(9)
        factors = rng.standard_normal((10, 3))
        y = rng.standard_normal((10, 1))
        data = FactorData(excess_returns=y, factors=factors)
        design = np.column_stack([np.ones(10), factors])
        beta = np.linalg.solve(design.T @ design, design.T @ y[:, 0])
        want = y[:, 0] - design @ beta
        got = ols_residuals(data).values[:, 0]
        assert np.abs(got - want).max() < 1e-10

    def test_assets_are_fit_independently(self):
        data = synthetic_data(t=30, p=5, seed=10)
        residuals = ols_residuals(data).values
        perm = [3, 0, 4, 1, 2]
        permuted = FactorData(
            excess_returns=data.excess_returns[:, perm], factors=data.factors
        )
        assert np.array_equal(ols_residuals(permuted).values, residuals[:, perm])

    def test_rank_deficient_design_names_column(self):
        rng = np.random.default_rng(11)
        factors = rng.standard_normal((20, 3))
        factors[:, 2] = factors[:, 1]
        data = FactorData(excess_returns=rng.standard_normal((20, 2)), factors=factors)
        with pytest.raises(DataError, match="rank deficient"):
            ols_residuals(data)


class TestSlidingWindowRates:
    def test_window_count(self):
        rng = np.random.default_rng(12)
        panel = TimeSeriesPanel(rng.standard_normal((75, 4)))
        summary = sliding_window_rates(panel, 30, 1)
        assert summary.num_windows == 45
        assert summary.window_length == 30

    def test_single_window_rates_are_binary(self):
        rng = np.random.default_rng(13)
        panel = TimeSeriesPanel(rng.standard_normal((31, 4)))
        summary = sliding_window_rates(panel, 30, 1)
        assert summary.num_windows == 1
        for rate in (summary.rate_max, summary.rate_sum, summary.rate_fc):
            assert rate in (0.0, 1.0)

    def test_window_length_bounds(self):
        rng = np.random.default_rng(14)
        panel = TimeSeriesPanel(rng.standard_normal((50, 3)))
        with pytest.raises(ConfigError, match="at least 10"):
            sliding_window_rates(panel, 9, 1)
        with pytest.raises(ConfigError, match="shorter than the panel"):
            sliding_window_rates(panel, 50, 1)

    def test_white_noise_keeps_nominal_level(self):
        # Window rates on one panel are heavily dependent, so the level
        # check averages over 20 independent panels.
        rates = np.zeros(3)
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            panel = TimeSeriesPanel(rng.standard_normal((300, 20)))
            s = sliding_window_rates(panel, 60, 2)
            rates += [s.rate_max, s.rate_sum, s.rate_fc]
        rates /= 20
        for rate, name in zip(rates, ("max", "sum", "fc")):
            assert rate <= 0.11, f"{name} windows reject at {rate} on white noise"

    def test_dense_dependence_favors_sum_windows(self):
        spec = DgpSpec(
            scenario=Scenario.VMA1,
            innovation=Innovation.GAUSSIAN,
            n=300,
            p=10,
            seed=1,
            m=10,
        )
        panel = gen_alternative_panel(spec)
        summary = sliding_window_rates(panel, 60, 1)
        assert summary.rate_sum >= summary.rate_max + 0.5, (
            f"sum {summary.rate_sum} vs max {summary.rate_max}"
        )

    def test_residuals_come_from_one_full_sample_fit(self):
        # Persistent factors whose loadings flip sign half way through:
        # one full-sample fit leaves the factors in every window's
        # residuals, while a refit inside each window removes them.
        rng = np.random.default_rng(31)
        t, p, window, lags = 240, 8, 40, 1
        factors = np.zeros((t, 3))
        shocks = rng.standard_normal((t, 3))
        for i in range(1, t):
            factors[i] = 0.9 * factors[i - 1] + shocks[i]
        loading = np.where(np.arange(t)[:, None] < t // 2, 1.0, -1.0)
        returns = loading * (factors @ rng.standard_normal((3, p)))
        returns += rng.standard_normal((t, p))
        design = np.column_stack([np.ones(t), factors])

        def residuals(rows):
            coef, *_ = np.linalg.lstsq(design[rows], returns[rows], rcond=None)
            return returns[rows] - design[rows] @ coef

        def rates(window_residuals):
            reports = [run_all(TimeSeriesPanel(r), lags, 0.05) for r in window_residuals]
            return tuple(
                sum(getattr(rep, name) for rep in reports) / len(reports)
                for name in ("reject_max", "reject_sum", "reject_fc")
            )

        starts = range(t - window)
        full = residuals(slice(0, t))
        full_sample = rates(full[s : s + window] for s in starts)
        per_window = rates(residuals(slice(s, s + window)) for s in starts)
        assert min(full_sample) - max(per_window) > 0.5, (full_sample, per_window)

        data = FactorData(excess_returns=returns, factors=factors)
        summary = sliding_window_rates(ols_residuals(data), window, lags)
        assert (summary.rate_max, summary.rate_sum, summary.rate_fc) == full_sample

    @pytest.mark.parametrize("window, lags, alpha", [
        (np.int64(20), np.int64(1), 0.05), (20, 1, np.float32(0.25)),
        (np.int32(20), 2, np.float64(0.05)),
    ])
    def test_numpy_scalars_summarize_like_python_scalars(self, window, lags, alpha):
        panel = TimeSeriesPanel(np.random.default_rng(14).standard_normal((60, 4)))
        summary = sliding_window_rates(panel, window, lags, alpha)
        plain = sliding_window_rates(panel, int(window), int(lags), float(alpha))
        assert summary.to_json() == plain.to_json()

    def test_summary_serialization(self):
        summary = SlidingWindowSummary(
            window_length=60, lags=2, alpha=0.05, num_windows=40,
            rate_max=0.1, rate_sum=0.2, rate_fc=0.15,
        )
        d = summary.to_dict()
        assert d["K"] == 2
        assert d["num_windows"] == 40
        assert '"rate_fc"' in summary.to_json()


class TestCsvLoading:
    def make_files(self, tmp_path, t=12, p=2, rf=0.01, mismatch_date=False):
        rng = np.random.default_rng(20)
        dates = [f"2020-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(t)]
        factors = rng.standard_normal((t, 3)).round(4)
        raw_returns = rng.standard_normal((t, p)).round(4)
        returns_path = tmp_path / "returns.csv"
        factors_path = tmp_path / "factors.csv"
        write_csv(
            returns_path,
            ["date"] + [f"asset{j}" for j in range(p)],
            [[dates[i]] + list(raw_returns[i]) for i in range(t)],
        )
        f_dates = list(dates)
        if mismatch_date:
            f_dates[3] = "1999-01-01"
        write_csv(
            factors_path,
            ["date", "market_excess", "smb", "hml", "rf"],
            [[f_dates[i]] + list(factors[i]) + [rf] for i in range(t)],
        )
        return returns_path, factors_path, raw_returns, factors

    def test_round_trip_with_risk_free(self, tmp_path):
        returns_path, factors_path, raw_returns, factors = self.make_files(tmp_path)
        data = build_factor_data(str(returns_path), str(factors_path))
        assert np.abs(data.excess_returns - (raw_returns - 0.01)).max() < 1e-12
        assert np.abs(data.factors - factors).max() < 1e-12
        assert data.asset_names == ("asset0", "asset1")

    def test_already_excess_skips_subtraction(self, tmp_path):
        returns_path, factors_path, raw_returns, _ = self.make_files(tmp_path)
        data = build_factor_data(
            str(returns_path), str(factors_path), already_excess=True
        )
        assert np.abs(data.excess_returns - raw_returns).max() < 1e-12

    def test_date_mismatch_detected_only_when_asked(self, tmp_path):
        returns_path, factors_path, _, _ = self.make_files(tmp_path, mismatch_date=True)
        build_factor_data(str(returns_path), str(factors_path))
        with pytest.raises(DataError, match="date mismatch at data row 4"):
            build_factor_data(
                str(returns_path), str(factors_path), check_dates=True
            )

    def test_row_count_mismatch(self, tmp_path):
        returns_path, _, _, _ = self.make_files(tmp_path, t=12)
        other = tmp_path / "other"
        other.mkdir()
        _, factors_path, _, _ = self.make_files(other, t=11)
        with pytest.raises(DataError, match="row-count mismatch"):
            build_factor_data(str(returns_path), str(factors_path))

    def test_factors_need_exactly_five_columns(self, tmp_path):
        path = tmp_path / "factors.csv"
        write_csv(path, ["date", "mkt", "smb", "hml"], [["2020-01-01", 1, 2, 3]])
        with pytest.raises(DataError, match="exactly 5 columns"):
            read_factors_csv(str(path))

    def test_returns_need_an_asset_column(self, tmp_path):
        path = tmp_path / "returns.csv"
        write_csv(path, ["date"], [["2020-01-01"]])
        with pytest.raises(DataError, match="at least one asset column"):
            read_returns_csv(str(path))

    def test_parse_error_locations(self, tmp_path):
        path = tmp_path / "returns.csv"
        write_csv(
            path,
            ["date", "a", "b"],
            [["2020-01-01", "0.1", "0.2"], ["2020-01-02", "oops", "0.3"]],
        )
        with pytest.raises(ParseError, match=r"row 3, column 2"):
            read_returns_csv(str(path))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("date,a,b\n2020-01-01,0.1\n")
        with pytest.raises(ParseError, match="expected 3 fields"):
            read_returns_csv(str(path))

    def test_empty_and_headerless_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataError, match="is empty"):
            read_returns_csv(str(empty))
        header_only = tmp_path / "header.csv"
        header_only.write_text("date,a,b\n")
        with pytest.raises(DataError, match="no data rows"):
            read_returns_csv(str(header_only))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("date,a,b\n\n2020-01-01,0.1,0.2\n\n2020-01-02,0.3,0.4\n")
        dates, names, values = read_returns_csv(str(path))
        assert dates == ["2020-01-01", "2020-01-02"]
        assert values.shape == (2, 2)


# Shapes that put SUM's window engine on each route: the Gram route when
# (K+1) p >= window, cross products otherwise.  Each has 70 windows, so the
# products are formed from scratch at window 64 and rolled on either side.
ENGINE_ROUTES = {"gram": (16, 30), "cross": (4, 30)}
ENGINE_LAGS = [1, 2, 5]
NUM_ENGINE_WINDOWS = 70


def engine_panel(route, seed=70):
    p, window = ENGINE_ROUTES[route]
    rng = np.random.default_rng(seed)
    return rng.standard_normal((window + NUM_ENGINE_WINDOWS, p)), window


def assert_close(got, want, what, scale=1.0):
    assert abs(got - want) <= 1e-10 * max(abs(want), scale), (what, got, want)


def assert_windows_match(values, window, lags):
    """Every engine window against ``run_all`` on a fresh panel of its rows,
    with the SUM half of that report taken from the long-double sums.

    A fresh panel on SUM's cross route forms ||X'X||_F^2 - sum_t |x_t|^4,
    which cancels next to a dominant row (up to 1e-7 of ``trace_sq_hat`` at
    p = 4, w = 30 with a row scaled by 1e5), while the window's band sums
    do not.  So ``trace_sq_hat`` and ``t_sum`` are held to the oracle at
    1e-13, and z, p_sum and the Fisher fields to what the oracle's sums
    give through the same formulas.
    """
    panel = TimeSeriesPanel(values)
    oracle = longdouble_run_pair_sums(values, lags, window)
    starts = 0
    for start, piece in enumerate(every_window(panel, window, lags)):
        rows = values[start : start + window]
        assert np.shares_memory(piece.values, panel.values)
        np.testing.assert_array_equal(piece.values, rows)
        got = run_all(piece, lags, 0.05)
        want = with_oracle_sum(run_all(TimeSeriesPanel(rows), lags, 0.05), oracle[start])
        assert_reports_close(got, want, start)
        for name, scale in (("trace_sq_hat", 0.0), ("t_sum", want.sum.sigma_s_hat)):
            got_value, want_value = getattr(got.sum, name), getattr(want.sum, name)
            bound = 1e-13 * max(abs(want_value), scale)
            assert abs(got_value - want_value) <= bound, (start, name, got_value, want_value)
        starts += 1
    assert starts == values.shape[0] - window


def with_oracle_sum(report, sums):
    """``report`` with SUM and the Fisher fields recomputed from one run's
    long-double (pair sum, norm pair sum, lag terms)."""
    pair_sum, _, terms = sums
    pairs = report.n * (report.n - 1)
    trace_sq_hat = float(pair_sum / pairs)
    t_sum = float(sum(terms, np.longdouble(0)) / pairs)
    sigma_s_hat = math.sqrt(2.0 * report.K / pairs) * trace_sq_hat
    z = t_sum / sigma_s_hat
    sm = SumResult(t_sum, trace_sq_hat, sigma_s_hat, z, std_normal_sf(z), report.K)
    t_fc, p_fc = fisher_combine(report.max.p_value, sm.p_value)
    return dataclasses.replace(
        report, sum=sm, t_fc=t_fc, p_fc=p_fc,
        reject_sum=sm.p_value < report.alpha, reject_fc=p_fc < report.alpha,
    )


def assert_reports_close(got, want, where):
    got_flat, want_flat = got.to_flat_dict(), want.to_flat_dict()
    for name, value in want_flat.items():
        if isinstance(value, float):
            # t_sum is studentized by sigma_s_hat, its natural scale.
            scale = want.sum.sigma_s_hat if name == "t_sum" else 1.0
            assert_close(got_flat[name], value, (where, name), scale)
        else:
            assert got_flat[name] == value, (where, name)
    assert_close(got.sum.trace_sq_hat, want.sum.trace_sq_hat, (where, "trace_sq_hat"))


class TestWindowEngine:
    @pytest.mark.parametrize("lags", ENGINE_LAGS)
    @pytest.mark.parametrize("route", sorted(ENGINE_ROUTES))
    def test_every_window_matches_a_fresh_panel(self, route, lags):
        values, window = engine_panel(route)
        p = values.shape[1]
        assert ((lags + 1) * p >= window) == (route == "gram")
        assert_windows_match(values, window, lags)

    @pytest.mark.parametrize("route", sorted(ENGINE_ROUTES))
    def test_windows_serve_smaller_lags_from_what_they_carry(self, monkeypatch, route):
        # Windows carry their moments at K=5; tested at K' <= 5 they form
        # no product and no Gram matrix, and keep the stack they carry.
        values, window = engine_panel(route, seed=76)
        lag_list = (2, 1, 5)
        pieces = list(every_window(TimeSeriesPanel(values), window, 5))
        wants = [
            [run_all(TimeSeriesPanel(values[start : start + window]), lags, 0.05)
             for lags in lag_list]
            for start in range(len(pieces))
        ]
        formed = []
        for name in ("lag_products", "_gram_pair_sums", "_band_pair_sums"):
            monkeypatch.setattr(panel_module, name, lambda *a, name=name: formed.append(name))
        for start, (piece, want) in enumerate(zip(pieces, wants)):
            carried = piece._moments
            for lags, want_report in zip(lag_list, want):
                assert_reports_close(run_all(piece, lags, 0.05), want_report, (start, lags))
                assert piece._moments is carried
        assert formed == []

    @pytest.mark.parametrize("scale", [1e3, 1e5])
    @pytest.mark.parametrize("route", sorted(ENGINE_ROUTES))
    def test_outlying_row_entering_and_leaving(self, route, scale):
        # Row 50 enters at window 21 and leaves after window 50, both
        # inside the first block of 64, so every step past it is rolled.
        values, window = engine_panel(route, seed=71)
        values[50] *= scale
        assert_windows_match(values, window, 2)

    @pytest.mark.parametrize("route", sorted(ENGINE_ROUTES))
    def test_column_zero_inside_some_windows(self, route):
        # Column 3 is zero on rows 40-79, so windows 40-50 hold none of it.
        values, window = engine_panel(route, seed=72)
        values[:40, 2] *= 1e3
        values[40:80, 2] = 0.0
        with pytest.raises(DegenerateColumnError) as per_window:
            for start in range(values.shape[0] - window):
                run_all(TimeSeriesPanel(values[start : start + window]), 2, 0.05)
        assert start == 40
        with pytest.raises(DegenerateColumnError) as engine:
            sliding_window_rates(TimeSeriesPanel(values), window, 2)
        assert str(engine.value) == str(per_window.value)
        assert "column 3 has sample variance 0.000e+00" in str(engine.value)

    @pytest.mark.parametrize("p, window, lags, alpha, error", [
        pytest.param(4, 30, 0, 0.05, LagError, id="4-0-0.05-LagError"),
        pytest.param(4, 30, 29, 0.05, LagError, id="4-29-0.05-LagError"),
        pytest.param(4, 30, 1.5, 0.05, LagError, id="4-1.5-0.05-LagError"),
        pytest.param(4, 30, 2, 0.0, ConfigError, id="4-2-0.0-ConfigError"),
        pytest.param(4, 30, 2, 1.5, ConfigError, id="4-2-1.5-ConfigError"),
        pytest.param(1, 30, 2, 0.05, ConfigError, id="1-2-0.05-ConfigError"),
        pytest.param(4, 30.0, 2, 0.05, ConfigError, id="window-30.0"),
        pytest.param(4, True, 2, 0.05, ConfigError, id="window-True"),
    ])
    def test_argument_errors_come_before_any_window(
        self, monkeypatch, p, window, lags, alpha, error
    ):
        values = np.random.default_rng(73).standard_normal((100, p))
        if type(window) is int:
            with pytest.raises(error) as per_window:
                run_all(TimeSeriesPanel(values[:window]), lags, alpha)
            message = str(per_window.value)
        else:
            message = f"window length must be an integer, got {window!r}"

        def no_windows(*args):
            raise AssertionError("a window was formed")

        monkeypatch.setattr(factor, "_window_panels", no_windows)
        with pytest.raises(error) as engine:
            sliding_window_rates(TimeSeriesPanel(values), window, lags, alpha)
        assert str(engine.value) == message

    @pytest.mark.parametrize("route", sorted(ENGINE_ROUTES))
    def test_window_panels_stay_read_only_and_unchanged(self, route):
        values, window = engine_panel(route, seed=74)
        panel = TimeSeriesPanel(values)
        pieces, snapshots = [], []
        for piece in every_window(panel, window, 2):
            run_all(piece, 2, 0.05)
            pieces.append(piece)
            snapshots.append((piece.values.copy(), piece._moments.products.copy()))
        for piece, (rows, products) in zip(pieces, snapshots):
            for array in (piece.values, piece._moments.products):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0, 0] = 1.0
            # Every lag's autocovariance is the caller's own to write into.
            sample_autocovariance(piece, 0)[:] = 1.0
            np.testing.assert_array_equal(piece.values, rows)
            np.testing.assert_array_equal(piece._moments.products, products)
        np.testing.assert_array_equal(panel.values, values)

    def test_window_panels_are_not_rebuilt(self, monkeypatch):
        # No copy and no finiteness scan per window: the constructor runs
        # only for the parent panel.
        values, window = engine_panel("gram", seed=75)
        panel = TimeSeriesPanel(values)
        built = []
        original = TimeSeriesPanel.__post_init__
        monkeypatch.setattr(
            TimeSeriesPanel, "__post_init__", lambda self: built.append(original(self))
        )
        sliding_window_rates(panel, window, 2)
        assert built == []


# Panels of several blocks of 64 windows at window 30, K=2, each with a row
# scaled by 1e7 that windows 41-70 hold, on both sides of the first block
# boundary: the Gram route, (K+1) p >= 30, over 270 windows in five blocks,
# the last of 14; and the cross route over 130 windows in three blocks.
JOB_ROUTES = {"gram": (300, 12), "cross": (160, 4)}
JOB_WINDOW = 30
WORKER_COUNTS = (1, 2, 3, 50)


def job_panel(route, seed=80):
    t, p = JOB_ROUTES[route]
    values = np.random.default_rng(seed).standard_normal((t, p))
    values[70] *= 1e7
    return values


class TestWindowJobs:
    """Blocks of 64 windows as jobs of ``harness.run_jobs``."""

    @pytest.mark.parametrize("route", sorted(JOB_ROUTES))
    def test_the_blocks_hold_every_window_once_in_order(self, route):
        panel = TimeSeriesPanel(job_panel(route))
        num_windows = panel.n - JOB_WINDOW
        blocks = [
            list(_window_panels(panel, JOB_WINDOW, 2, block))
            for block in range(panel_module._window_blocks(num_windows))
        ]
        sizes = [WINDOW_BLOCK] * (num_windows // WINDOW_BLOCK) + [num_windows % WINDOW_BLOCK]
        assert [len(windows) for windows in blocks] == sizes
        for start, piece in enumerate(chain.from_iterable(blocks)):
            assert np.shares_memory(piece.values, panel.values)
            np.testing.assert_array_equal(piece.values, panel.values[start : start + JOB_WINDOW])
        for windows in blocks:
            # Each block forms its first window's products from scratch.
            first = windows[0]
            np.testing.assert_array_equal(
                first._moments.products, panel_module.lag_products(first.values, 2)
            )

    @pytest.mark.parametrize("route", sorted(JOB_ROUTES))
    def test_every_worker_count_gives_the_same_summary(self, route):
        # At alpha 0.3 some windows of every test reject and some do not,
        # so a block lost or counted twice would show in the rates.
        panel = TimeSeriesPanel(job_panel(route))
        summaries = []
        for workers in WORKER_COUNTS:
            summaries.append(sliding_window_rates(panel, JOB_WINDOW, 2, 0.3, workers=workers))
            assert multiprocessing.active_children() == []
        rates = [summaries[0].rate_max, summaries[0].rate_sum, summaries[0].rate_fc]
        assert all(0.0 < rate < 1.0 for rate in rates), rates
        assert [s.to_json() for s in summaries] == [summaries[0].to_json()] * len(WORKER_COUNTS)

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="no forkserver start method on this platform",
    )
    def test_a_forkserver_pool_gives_the_serial_summary(self):
        # Python 3.14 starts processes by forkserver on Linux: the panel
        # and task then reach the helper pickled, as process arguments.
        panel = TimeSeriesPanel(job_panel("cross"))
        serial = sliding_window_rates(panel, JOB_WINDOW, 2, 0.3)
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("forkserver", force=True)
        try:
            pooled = sliding_window_rates(panel, JOB_WINDOW, 2, 0.3, workers=2)
        finally:
            multiprocessing.set_start_method(previous, force=True)
        assert pooled == serial
        assert multiprocessing.active_children() == []

    def test_a_failing_last_block_raises_alike_at_every_worker_count(self):
        # Column 3 is zero from row 128 on, so windows 128 and 129, the
        # last block's, hold none of it, and every earlier window holds
        # some: window 127 passes and window 128 raises.
        values = job_panel("cross")
        values[128:, 2] = 0.0
        first = 2 * WINDOW_BLOCK
        run_all(TimeSeriesPanel(values[first - 1 : first - 1 + JOB_WINDOW]), 2, 0.05)
        with pytest.raises(DegenerateColumnError) as per_window:
            run_all(TimeSeriesPanel(values[first : first + JOB_WINDOW]), 2, 0.05)
        for workers in WORKER_COUNTS:
            with pytest.raises(DegenerateColumnError) as engine:
                sliding_window_rates(TimeSeriesPanel(values), JOB_WINDOW, 2, workers=workers)
            assert multiprocessing.active_children() == []
            assert str(engine.value) == str(per_window.value), workers
        assert "column 3 has sample variance 0.000e+00" in str(per_window.value)

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_worker_count_is_checked(self, workers):
        panel = TimeSeriesPanel(job_panel("cross"))
        with pytest.raises(ConfigError, match='^"workers" must be'):
            sliding_window_rates(panel, JOB_WINDOW, 2, workers=workers)

    @pytest.mark.parametrize("route", sorted(JOB_ROUTES))
    def test_an_overflowing_window_is_a_data_error(self, route):
        # Two rows of 1e80: their inner product squares past float64 in
        # SUM's band sums.
        values = job_panel(route)
        values[100:102] *= 1e80
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^sum-test sums overflow float64"):
                sliding_window_rates(TimeSeriesPanel(values), JOB_WINDOW, 2)

    @pytest.mark.parametrize("route", sorted(JOB_ROUTES))
    def test_large_units_keep_every_window_p_value(self, route):
        values = np.random.default_rng(81).standard_normal((120, JOB_ROUTES[route][1]))
        plain = every_window(TimeSeriesPanel(values), JOB_WINDOW, 2)
        scaled = every_window(TimeSeriesPanel(values * 1e70), JOB_WINDOW, 2)
        for start, (a, b) in enumerate(zip(plain, scaled)):
            want, got = run_all(a, 2, 0.05), run_all(b, 2, 0.05)
            assert abs(got.max.p_value - want.max.p_value) <= 1e-14, start
            assert abs(got.sum.p_value - want.sum.p_value) <= 1e-14, start
            assert abs(got.p_fc - want.p_fc) <= 1e-14, start

"""Factor regression residuals and the sliding-window pipeline."""

import numpy as np
import pytest

from hdwhite.dgp import DgpSpec, Innovation, Scenario, gen_alternative_panel
from hdwhite import factor
from hdwhite.errors import ConfigError, DataError, DegenerateColumnError, LagError, ParseError
from hdwhite.factor import (
    FactorData,
    SlidingWindowSummary,
    _window_panels,
    build_factor_data,
    ols_residuals,
    read_factors_csv,
    read_returns_csv,
    sliding_window_rates,
)
from hdwhite.panel import TimeSeriesPanel, sample_autocovariance
from hdwhite.statistics import run_all


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
    """Every engine window against ``run_all`` on a fresh panel of its rows."""
    panel = TimeSeriesPanel(values)
    starts = 0
    for start, piece in enumerate(_window_panels(panel, window, lags)):
        rows = values[start : start + window]
        assert np.shares_memory(piece.values, panel.values)
        np.testing.assert_array_equal(piece.values, rows)
        got = run_all(piece, lags, 0.05)
        want = run_all(TimeSeriesPanel(rows), lags, 0.05)
        got_flat, want_flat = got.to_flat_dict(), want.to_flat_dict()
        for name, value in want_flat.items():
            if isinstance(value, float):
                # t_sum is studentized by sigma_s_hat, its natural scale.
                scale = want.sum.sigma_s_hat if name == "t_sum" else 1.0
                assert_close(got_flat[name], value, (start, name), scale)
            else:
                assert got_flat[name] == value, (start, name)
        assert_close(got.sum.trace_sq_hat, want.sum.trace_sq_hat, (start, "trace_sq_hat"))
        starts += 1
    assert starts == values.shape[0] - window


class TestWindowEngine:
    @pytest.mark.parametrize("lags", ENGINE_LAGS)
    @pytest.mark.parametrize("route", sorted(ENGINE_ROUTES))
    def test_every_window_matches_a_fresh_panel(self, route, lags):
        values, window = engine_panel(route)
        p = values.shape[1]
        assert ((lags + 1) * p >= window) == (route == "gram")
        assert_windows_match(values, window, lags)

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

    @pytest.mark.parametrize("p, lags, alpha, error", [
        (4, 0, 0.05, LagError),
        (4, 29, 0.05, LagError),
        (4, 1.5, 0.05, LagError),
        (4, 2, 0.0, ConfigError),
        (4, 2, 1.5, ConfigError),
        (1, 2, 0.05, ConfigError),
    ])
    def test_argument_errors_come_before_any_window(self, monkeypatch, p, lags, alpha, error):
        values = np.random.default_rng(73).standard_normal((100, p))
        with pytest.raises(error) as per_window:
            run_all(TimeSeriesPanel(values[:30]), lags, alpha)

        def no_windows(*args):
            raise AssertionError("a window was formed")

        monkeypatch.setattr(factor, "_window_panels", no_windows)
        with pytest.raises(error) as engine:
            sliding_window_rates(TimeSeriesPanel(values), 30, lags, alpha)
        assert str(engine.value) == str(per_window.value)

    @pytest.mark.parametrize("route", sorted(ENGINE_ROUTES))
    def test_window_panels_stay_read_only_and_unchanged(self, route):
        values, window = engine_panel(route, seed=74)
        panel = TimeSeriesPanel(values)
        pieces, snapshots = [], []
        for piece in _window_panels(panel, window, 2):
            run_all(piece, 2, 0.05)
            pieces.append(piece)
            snapshots.append((
                piece.values.copy(),
                piece._moments.products.copy(),
                sample_autocovariance(piece, 0).copy(),
            ))
        for piece, (rows, products, lag0) in zip(pieces, snapshots):
            for array in (piece.values, piece._moments.products, sample_autocovariance(piece, 0)):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0, 0] = 1.0
            np.testing.assert_array_equal(piece.values, rows)
            np.testing.assert_array_equal(piece._moments.products, products)
            np.testing.assert_array_equal(sample_autocovariance(piece, 0), lag0)
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

"""Panel construction, lagged sample moments, and CSV round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdwhite.errors import (
    DataError,
    DegenerateColumnError,
    LagError,
    ParseError,
)
from hdwhite.panel import (
    TimeSeriesPanel,
    read_panel_csv,
    sample_autocorrelation,
    sample_autocovariance,
    write_panel_csv,
)

from oracles import brute_autocorrelation, brute_autocovariance


class TestPanelConstruction:
    def test_shape_properties(self):
        panel = TimeSeriesPanel(np.zeros((7, 3)))
        assert panel.n == 7
        assert panel.p == 3

    def test_rejects_one_dimensional(self):
        with pytest.raises(DataError, match="2-dimensional"):
            TimeSeriesPanel(np.zeros(5))

    def test_rejects_single_row(self):
        with pytest.raises(DataError, match="at least 2 rows"):
            TimeSeriesPanel(np.zeros((1, 3)))

    def test_nonfinite_error_names_position(self):
        values = np.zeros((4, 3))
        values[2, 1] = np.nan
        with pytest.raises(DataError, match="row 3, column 2"):
            TimeSeriesPanel(values)

    def test_values_are_immutable(self):
        panel = TimeSeriesPanel(np.ones((3, 2)))
        with pytest.raises(ValueError):
            panel.values[0, 0] = 5.0

    def test_stores_a_copy(self):
        source = np.ones((3, 2))
        panel = TimeSeriesPanel(source)
        source[0, 0] = 99.0
        assert panel.values[0, 0] == 1.0, "panel must not alias caller memory"

    def test_center_flag_zeroes_column_means(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((50, 4)) + 7.0
        panel = TimeSeriesPanel.from_array(raw, center=True)
        means = panel.values.mean(axis=0)
        assert np.abs(means).max() < 1e-12, f"column means {means} not removed"

    def test_center_defaults_off(self):
        raw = np.ones((5, 2)) * 3.0
        panel = TimeSeriesPanel.from_array(raw)
        assert panel.values[0, 0] == 3.0, "centering must be opt-in"


class TestAutocovariance:
    def test_univariate_hand_example(self):
        # n=3 series (1, 2, 3): lag-1 value (1/3)(2*1 + 3*2) = 8/3.
        panel = TimeSeriesPanel(np.array([[1.0], [2.0], [3.0]]))
        cov1 = sample_autocovariance(panel, 1)
        assert cov1.shape == (1, 1)
        assert cov1[0, 0] == pytest.approx(8.0 / 3.0, abs=1e-15)

    def test_all_zero_panel(self):
        panel = TimeSeriesPanel(np.zeros((6, 3)))
        for k in (0, 1, 5):
            assert np.all(sample_autocovariance(panel, k) == 0.0)

    def test_lag0_two_basis_rows(self):
        panel = TimeSeriesPanel(np.array([[1.0, 0.0], [0.0, 1.0]]))
        cov0 = sample_autocovariance(panel, 0)
        assert np.allclose(cov0, np.eye(2) / 2.0, atol=1e-15)

    def test_divisor_stays_n_at_every_lag(self):
        # n=4 constant-ones column: lag-k sum has n-k unit terms, so the
        # value must be (n-k)/n, not 1.
        panel = TimeSeriesPanel(np.ones((4, 1)))
        for k in range(4):
            got = sample_autocovariance(panel, k)[0, 0]
            assert got == pytest.approx((4 - k) / 4.0, abs=1e-15), f"lag {k}"

    def test_lag0_is_symmetric(self):
        rng = np.random.default_rng(11)
        panel = TimeSeriesPanel(rng.standard_normal((30, 6)))
        cov0 = sample_autocovariance(panel, 0)
        assert np.array_equal(cov0, cov0.T), "lag-0 matrix must be exactly symmetric"

    def test_lag0_is_psd(self):
        rng = np.random.default_rng(12)
        panel = TimeSeriesPanel(rng.standard_normal((25, 5)))
        w = np.linalg.eigvalsh(sample_autocovariance(panel, 0))
        assert w.min() > -1e-10, f"lag-0 covariance has eigenvalue {w.min()}"

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            p = int(rng.integers(1, 5))
            x = rng.standard_normal((n, p))
            panel = TimeSeriesPanel(x)
            for lag in range(min(n, 4)):
                got = sample_autocovariance(panel, lag)
                want = brute_autocovariance(x, lag)
                assert np.allclose(got, want, rtol=1e-12, atol=1e-14), (
                    f"mismatch at n={n} p={p} lag={lag}"
                )

    def test_lag_out_of_range(self):
        panel = TimeSeriesPanel(np.ones((5, 2)))
        with pytest.raises(LagError):
            sample_autocovariance(panel, 5)
        with pytest.raises(LagError):
            sample_autocovariance(panel, -1)

    def test_lag_must_be_integer(self):
        panel = TimeSeriesPanel(np.ones((5, 2)))
        with pytest.raises(LagError):
            sample_autocovariance(panel, 1.5)


class TestAutocorrelation:
    def test_lag0_diagonal_is_one(self):
        rng = np.random.default_rng(9)
        panel = TimeSeriesPanel(rng.standard_normal((40, 5)))
        corr0 = sample_autocorrelation(panel, 0)
        assert np.abs(np.diagonal(corr0) - 1.0).max() < 1e-12

    def test_duplicated_scaled_column(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal(30)
        panel = TimeSeriesPanel(np.column_stack([base, 2.0 * base]))
        corr0 = sample_autocorrelation(panel, 0)
        assert corr0[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_univariate_hand_example(self):
        # (1, 2, 3): lag-1 autocovariance 8/3, lag-0 14/3, ratio 4/7.
        panel = TimeSeriesPanel(np.array([[1.0], [2.0], [3.0]]))
        corr1 = sample_autocorrelation(panel, 1)
        assert corr1[0, 0] == pytest.approx(4.0 / 7.0, abs=1e-15)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal((10, 3))
            panel = TimeSeriesPanel(x)
            for lag in (0, 1, 2):
                got = sample_autocorrelation(panel, lag)
                want = brute_autocorrelation(x, lag)
                assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_degenerate_column_named(self):
        values = np.random.default_rng(1).standard_normal((20, 3))
        values[:, 1] = 0.0
        with pytest.raises(DegenerateColumnError, match="column 2"):
            sample_autocorrelation(TimeSeriesPanel(values), 1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scales=st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3),
        lag=st.integers(0, 3),
    )
    def test_invariant_under_column_rescaling(self, seed, scales, lag):
        x = np.random.default_rng(seed).standard_normal((12, 3))
        base = sample_autocorrelation(TimeSeriesPanel(x), lag)
        scaled = sample_autocorrelation(
            TimeSeriesPanel(x * np.asarray(scales)), lag
        )
        assert np.abs(base - scaled).max() < 1e-10, (
            "autocorrelation must ignore per-column positive scaling"
        )


class TestPanelCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        panel = TimeSeriesPanel(rng.standard_normal((15, 4)))
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        back = read_panel_csv(path)
        assert np.array_equal(back.values, panel.values), "repr round trip must be exact"

    def test_roundtrip_with_header(self, tmp_path):
        panel = TimeSeriesPanel(np.arange(6.0).reshape(3, 2))
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path, header=True)
        first = path.read_text().splitlines()[0]
        assert first == "x1,x2"
        back = read_panel_csv(path, header=True)
        assert np.array_equal(back.values, panel.values)

    def test_parse_error_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError, match=r"row 2, column 2"):
            read_panel_csv(path)

    def test_width_mismatch(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="row 2"):
            read_panel_csv(path)

    def test_nonfinite_cell_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1.0,2.0\n3.0,inf\n")
        with pytest.raises(ParseError, match="non-finite"):
            read_panel_csv(path)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n")
        panel = read_panel_csv(path)
        assert panel.n == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no data rows"):
            read_panel_csv(path)

    def test_center_flag_applies_after_read(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,10.0\n3.0,10.0\n5.0,13.0\n")
        panel = read_panel_csv(path, center=True)
        assert np.abs(panel.values.mean(axis=0)).max() < 1e-12

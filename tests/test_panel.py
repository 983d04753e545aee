"""Panel construction, lagged sample moments, and CSV round trips."""

import csv
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hdwhite.errors import (
    DataError,
    DegenerateColumnError,
    LagError,
    ParseError,
)
from hdwhite import panel as panel_module
from hdwhite.factor import FactorData, read_returns_csv
from hdwhite.panel import (
    TimeSeriesPanel,
    read_csv_array,
    read_panel_csv,
    sample_autocorrelation,
    sample_autocovariance,
    write_panel_csv,
)
from hdwhite.power import PowerInputs
from hdwhite.statistics import run_all

from oracles import (
    LONGDOUBLE_TOL,
    brute_autocorrelation,
    brute_autocovariance,
    longdouble_autocorrelation,
    longdouble_run_pair_sums,
)


def every_window(panel, window, lags):
    """Every sliding window of ``panel._window_panels``, block after block."""
    blocks = panel_module._window_blocks(panel.n - window)
    return chain.from_iterable(
        panel_module._window_panels(panel, window, lags, block) for block in range(blocks)
    )


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

    @pytest.mark.parametrize(
        "make",
        [
            np.asfortranarray,
            lambda a: np.repeat(a, 3, axis=1)[:, ::3],
            lambda a: np.rint(a * 10).astype(np.int64),
            lambda a: np.lib.stride_tricks.as_strided(a, writeable=False),
        ],
        ids=["fortran", "strided-view", "integer", "read-only-view"],
    )
    def test_stores_c_contiguous_read_only_float_copy(self, make):
        source = make(np.random.default_rng(5).standard_normal((9, 4)))
        panel = TimeSeriesPanel(source)
        got = panel.values
        assert got.dtype == np.float64
        assert got.flags.c_contiguous and not got.flags.writeable
        assert not np.shares_memory(got, source), "panel must not alias caller memory"
        assert np.array_equal(got, source)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_first_nonfinite_in_row_major_order(self, order):
        values = np.zeros((5, 6), order=order)
        values[2, 1] = np.nan   # row 3, column 2
        values[1, 3] = np.inf   # row 2, column 4: earlier in row-major order
        with pytest.raises(DataError, match="row 2, column 4"):
            TimeSeriesPanel(values)

    def test_center_flag_zeroes_column_means(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((50, 4)) + 7.0
        panel = TimeSeriesPanel.from_array(raw, center=True)
        means = panel.values.mean(axis=0)
        assert np.abs(means).max() < 1e-12, f"column means {means} not removed"

    def test_center_checks_and_copies_the_input_once(self, monkeypatch):
        # The centred values are the bits of x - mean(x), formed in the
        # panel's own copy, which is the only one the call converts and scans.
        raw = np.random.default_rng(3).standard_normal((50, 4)) + 7.0
        kept = raw.copy()
        checked = []
        check_array = panel_module.check_array

        def counting_check(*args, **kwargs):
            checked.append(args[0])
            return check_array(*args, **kwargs)

        monkeypatch.setattr(panel_module, "check_array", counting_check)
        panel = TimeSeriesPanel.from_array(raw, center=True)
        assert checked == ["panel"]
        assert panel.values.tobytes() == (raw - raw.mean(axis=0, keepdims=True)).tobytes()
        assert not panel.values.flags.writeable
        assert raw.tobytes() == kept.tobytes(), "the caller's array is left alone"

    def test_center_checks_the_raw_values_first(self):
        # The uncentred message, not a numpy warning and a whole column of
        # inf - inf blamed on row 1.
        values = np.random.default_rng(4).standard_normal((10, 4))
        values[5, 2] = np.inf
        for center in (False, True):
            with pytest.raises(DataError, match=r"non-finite value at row 6, column 3$"):
                TimeSeriesPanel.from_array(values, center=center)

    @pytest.mark.parametrize("big", [[1e308, 1e308], [1.7e308, -1.7e308, -1.7e308]],
                             ids=["mean", "difference"])
    def test_center_names_a_column_whose_centring_overflows(self, big):
        # The mean of column 3 overflows, or, with a finite mean, the
        # difference from it does.
        values = np.random.default_rng(5).standard_normal((10, 4))
        values[2 : 2 + len(big), 2] = big
        assert TimeSeriesPanel.from_array(values).values[2, 2] == big[0]
        with pytest.raises(DataError) as raised:
            TimeSeriesPanel.from_array(values, center=True)
        assert str(raised.value) == (
            "centring column 3 overflows float64; the tests are scale-invariant, "
            "so rescale the panel"
        )

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
        # Exactly, on every route that forms it: fresh; from the products
        # SUM's cross route carries; and in every sliding window, on both
        # window routes, rolled and formed afresh, across a block boundary
        # while a row scaled by 1e4 enters and leaves.
        rng = np.random.default_rng(11)
        panels = [TimeSeriesPanel(rng.standard_normal(shape))
                  for shape in ((30, 6), (40, 300), (20, 1000))]
        carried = TimeSeriesPanel(rng.standard_normal((120, 7)))
        panel_module._pair_sums(carried, 2)
        assert carried._moments is not None
        panels.append(carried)
        # 130 windows of 30 rows at K=2: (K+1) p = 12 < 30 takes SUM's
        # cross route, 36 >= 30 its Gram route.
        for p in (4, 12):
            x = rng.standard_normal((160, p))
            x[80] *= 1e4
            panels += every_window(TimeSeriesPanel(x), 30, 2)
        for panel in panels:
            cov0 = sample_autocovariance(panel, 0)
            assert np.array_equal(cov0, cov0.T), "lag-0 matrix must be exactly symmetric"

    def test_lag0_is_psd(self):
        rng = np.random.default_rng(12)
        panel = TimeSeriesPanel(rng.standard_normal((25, 5)))
        w = np.linalg.eigvalsh(sample_autocovariance(panel, 0))
        assert w.min() > -1e-10, f"lag-0 covariance has eigenvalue {w.min()}"

    def test_every_lag_is_a_fresh_writable_array(self):
        # On a fresh panel, one carrying the cross route's products at K=2,
        # and a rolled sliding window.  Lag 3 lies past the carried K.
        rng = np.random.default_rng(21)
        x = rng.standard_normal((40, 7))
        fresh = x.T @ x / 40
        fresh = (fresh + fresh.T) / 2.0
        assert sample_autocovariance(TimeSeriesPanel(x), 0).tobytes() == fresh.tobytes()
        carried = TimeSeriesPanel(x)
        panel_module._pair_sums(carried, 2)
        windows = panel_module._window_panels(TimeSeriesPanel(rng.standard_normal((30, 7))), 25, 2, 0)
        next(windows)
        for panel in (TimeSeriesPanel(x), carried, next(windows)):
            shared = [panel.values]
            if panel._moments is not None:
                shared.append(panel._moments.products)
            before = [a.tobytes() for a in shared]
            for lag in range(4):
                cov = sample_autocovariance(panel, lag)
                again = sample_autocovariance(panel, lag)
                assert cov is not again and cov.tobytes() == again.tobytes()
                assert cov.flags.writeable
                assert not any(np.shares_memory(cov, a) for a in shared)
                cov[:] = 1.0
            assert [a.tobytes() for a in shared] == before

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

    def test_bool_is_not_a_lag(self):
        # bool is an int; a panel carrying products would index them with it.
        panel = TimeSeriesPanel(np.random.default_rng(23).standard_normal((50, 4)))
        with pytest.raises(LagError, match="must be an integer, got True"):
            panel_module.check_lag_budget(50, True)
        with pytest.raises(LagError, match="must be an integer, got True"):
            run_all(panel, True, 0.05)
        run_all(panel, 2, 0.05)
        assert panel._moments is not None
        for lag in (True, False):
            with pytest.raises(LagError, match=f"must be an integer, got {lag}"):
                sample_autocovariance(panel, lag)


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

    @pytest.mark.parametrize("lag", [99, -1, 1.5, True])
    def test_bad_lag_is_reported_before_a_degenerate_column(self, lag):
        values = np.random.default_rng(1).standard_normal((20, 3))
        values[:, 1] = 0.0
        panel = TimeSeriesPanel(values)
        with pytest.raises(LagError):
            sample_autocorrelation(panel, lag)

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


def scaled_panel(kind, p):
    """A panel of one kind whose autocorrelations are scaled: plain,
    carrying the cross route's products, or a rolled sliding window."""
    rng = np.random.default_rng(p)
    if kind == "plain":
        return TimeSeriesPanel(rng.standard_normal((40, p)) * rng.uniform(0.1, 10.0, p))
    if kind == "cross":
        panel = TimeSeriesPanel(rng.standard_normal((2 * p + 1, p)))
        panel_module._pair_sums(panel, 1)
        assert panel._moments is not None
        return panel
    windows = panel_module._window_panels(TimeSeriesPanel(rng.standard_normal((30, p))), 25, 1, 0)
    next(windows)
    return next(windows)


@pytest.mark.parametrize("kind", ["plain", "cross", "window"])
@pytest.mark.parametrize("p", [30, 700])
def test_in_place_scaling_matches_the_plain_expressions(kind, p):
    # Autocovariances keep their bits on every kind of panel, and so does
    # MAX's carried step on a panel that carries its moments.  The public
    # autocorrelation scales unit columns on every kind: other bits, held
    # to the long-double oracle.
    panel = scaled_panel(kind, p)
    x, n = panel.values, panel.n
    carried = panel._moments
    product = x.T @ x if carried is None else carried.products[0]
    c = product / n
    assert sample_autocovariance(panel, 0).tobytes() == ((c + c.T) / 2.0).tobytes()
    s = 1.0 / np.sqrt(np.diagonal(sample_autocovariance(panel, 0)))
    # The plain kind checks every column.  The others take the same
    # unit-column path, and at p = 700 check every 20th: numpy forms
    # long-double products without BLAS, and the 1401 x 700 cross panel's
    # would take tens of seconds.
    cols = slice(None, None, 20 if carried is not None and p > 100 else 1)
    for k in range(3):
        if k and carried is not None and k <= carried.lags:
            want = carried.products[k] / n
        elif k:
            want = x[k:].T @ x[: n - k] / n
        else:
            want = sample_autocovariance(panel, 0)
        cov = sample_autocovariance(panel, k)
        assert cov.tobytes() == want.tobytes(), f"autocovariance, lag {k}"
        if carried is not None:
            scaled = panel_module._carried_autocorrelation(panel, k)
            assert scaled.tobytes() == (cov * np.outer(s, s)).tobytes(), f"lag {k}"
        corr = sample_autocorrelation(panel, k)[cols, cols]
        error = np.abs(corr - longdouble_autocorrelation(x[:, cols], k)).max()
        assert error <= LONGDOUBLE_TOL, f"lag {k}: {error:.2e}"


@pytest.mark.parametrize(
    "lags, window, p",
    [(1, 3, 16), (2, 4, 16), (5, 7, 16), (1, 30, 16), (5, 30, 16),
     (1, 30, 4), (2, 30, 4), (5, 30, 4)],
    ids=["1-3", "2-4", "5-7", "1-30", "5-30", "cross-1-30", "cross-2-30", "cross-5-30"],
)
def test_window_pair_sums_match_the_longdouble_oracle(lags, window, p):
    # 70 windows, so the second block of 64 starts at window 64.  Row 40,
    # scaled by 1e7, enters and leaves inside the first block: the runs
    # before it share the block's Gram band with it but must not see it.
    # A sum that took in one term from outside its run would be off by
    # 1e-3 of the run's pair sum or more, and by far more next to row 40.
    # At p = 4, (K + 1) p < w puts a fresh window on SUM's cross route,
    # where ||X'X||_F^2 - sum_t |x_t|^4 cancels next to row 40; the
    # windows take the band's sums on both routes.
    values = np.random.default_rng(window + lags).standard_normal((window + 70, p))
    values[40] *= 1e7
    pieces = list(every_window(TimeSeriesPanel(values), window, lags))
    wants = longdouble_run_pair_sums(values, lags, window)
    assert len(pieces) == 70
    for start, piece in enumerate(pieces):
        got_pair_sum, got_residue, got_terms = piece._moments.pair_sums
        pair_sum, norm_pair_sum, terms = wants[start]
        tolerance = 1e-14 * float(pair_sum)
        assert abs(got_pair_sum - float(pair_sum)) <= tolerance, start
        residue = panel_module.SCALE_RESOLUTION * float(norm_pair_sum)
        assert abs(got_residue - residue) <= 1e-14 * residue, start
        assert len(got_terms) == lags
        for l, (got, want) in enumerate(zip(got_terms, terms), start=1):
            assert abs(got - float(want)) <= tolerance, (start, l)


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

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        assert np.array_equal(read_panel_csv(path).values, [[1.0, 2.0], [3.0, 4.0]])

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffdate,a1\n2020-01-01,0.5\n", encoding="utf-8")
        names, labels, _ = read_csv_array(path, header=True, labels=True)
        assert names == ["date", "a1"] and labels == ["2020-01-01"]


# The differential check of read_csv_array: the C step must give what the
# per-cell loop alone gives, on every file.


def outcome(path, header, labels):
    """What read_csv_array does with a file: its result, or its error."""
    try:
        names, row_labels, values = read_csv_array(path, header=header, labels=labels)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    assert values.dtype == np.float64 and values.flags.c_contiguous
    return names, row_labels, values.shape, values.tobytes()


def outcome_by_loop(path, header, labels):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(panel_module, "_read_plain_csv", lambda *args: None)
        return outcome(path, header, labels)


def takes_c_step(path, header, labels):
    return panel_module._read_plain_csv(path, header, labels) is not None


FLAG_COMBINATIONS = [(False, False), (True, False), (False, True), (True, True)]
TOKENS = list('0123456789.e+-_, "#') + ["nan", "inf", "\n", "\r\n", "\r"]
NOISE = st.lists(st.sampled_from(TOKENS), max_size=5).map("".join)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    """Mostly rectangular grids of finite numbers, some with noise cells, or pure noise."""
    if draw(st.integers(0, 4)) == 0:
        return "".join(draw(st.lists(st.sampled_from(TOKENS), max_size=40)))
    width = draw(st.integers(1, 4))
    cell = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    if draw(st.booleans()):
        cell = st.one_of(cell, NOISE)
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=6))
    if draw(st.booleans()):
        # One line of any width, blank included.
        rows.insert(draw(st.integers(0, len(rows))), draw(st.lists(cell, max_size=width + 1)))
    return "".join(",".join(cells) + draw(LINE_ENDS) for cells in rows)


@settings(
    derandomize=True, max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=csv_texts())
def test_c_step_agrees_with_the_loop(tmp_path, text):
    path = tmp_path / "random.csv"
    path.write_bytes(text.encode("utf-8"))
    for header, labels in FLAG_COMBINATIONS:
        assert outcome(path, header, labels) == outcome_by_loop(path, header, labels), (
            text, header, labels,
        )


# (text, flags, whether the C step reads it).  Every refusal is one the loop
# settles: a quote, a digit group, a non-finite cell, no data, a width that
# does not match the header.
NAMED_FILES = {
    "empty": ("", FLAG_COMBINATIONS, False),
    "blank-lines-only": ("\n \r\n\n", FLAG_COMBINATIONS, False),
    "header-only": ("a,b\n", [(True, False), (True, True)], False),
    "single-row": ("1.5,-2,3e-4\n", [(False, False), (False, True)], True),
    "single-column": ("1\n2\n3\n", [(False, False), (True, False)], True),
    "one-by-one": ("7.25", [(False, False)], True),
    "byte-order-mark": ("\ufeff1,2\r\n3,4\r\n5,6\r\n", FLAG_COMBINATIONS, True),
    "whitespace-lines": ("1,2\n  \n\t\n3,4\n", [(False, False), (True, False)], True),
    "lone-cr-ends": ("d,x\r1,2\r3,4\r", [(True, False), (True, True)], True),
    "comma-only-line": ("1,2\n,\n3,4\n", [(False, False), (False, True)], True),
    "comma-only-before-header": (",,\nd,a,b\n1,2,3\n", [(True, False), (True, True)], True),
    "digit-group": ("1_000,2\n3,4\n", [(False, False)], False),
    "quoted-cell": ('1,"2"\n3,4\n', [(False, False)], False),
    "quoted-label": ('d,a\n"2020-01-01",0.5\n', [(True, True)], False),
    "quote-spans-lines": ('d,a\n"x\n1",0.5\n2,3\n', [(True, True)], False),
    "ragged-row": ("1,2\n3\n", FLAG_COMBINATIONS, False),
    "labelled-row-wider-than-header": (
        "date,a,b\n2020-01-01,1,2\n2020-01-02,3,4,5\n", [(True, True)], False),
    "labelled-first-row-wider-than-header": (
        "date,a\n2020-01-01,1,2\n2020-01-02,3,4\n", [(True, True)], False),
    "data-wider-than-header": ("a,b\n1,2,3\n4,5,6\n", [(True, False)], False),
    "data-narrower-than-header": ("a,b,c\n1,2\n", [(True, False)], False),
    "label-column-only": ("2020-01-01\n2020-01-02\n", [(False, True)], False),
    "label-then-nothing": ("d,a\n2020-01-01,\n2020-01-02,1\n", [(True, True)], False),
    "label-line-without-comma": ("d,a\n2020-01-01\n2020-01-02,1\n", [(True, True)], False),
    "blank-label-line": ("d,a\n ,\n2020-01-02,1\n", [(True, True)], True),
    "nan-cell": ("1,2\n3,nan\n", FLAG_COMBINATIONS, False),
    "overflow-cell": ("1,1e400\n", [(False, False)], False),
    "comment-sign": ("1,2#\n", [(False, False)], False),
    "nul-in-label": ("d,a\nx\x00y,1\n", [(True, True)], True),
    "non-ascii-digit": ("\u0661,2\n", [(False, False)], False),
    "unicode-space": ("1\xa0,\u20282\n", [(False, False)], True),
}


@pytest.mark.parametrize("case", sorted(NAMED_FILES))
def test_named_files_agree_with_the_loop(case, tmp_path):
    text, flags, fast = NAMED_FILES[case]
    path = tmp_path / f"{case}.csv"
    path.write_bytes(text.encode("utf-8"))
    for header, labels in flags:
        assert takes_c_step(path, header, labels) is fast, (header, labels)
        assert outcome(path, header, labels) == outcome_by_loop(path, header, labels), (
            header, labels,
        )


def test_field_over_the_csv_limit_goes_to_the_loop(tmp_path):
    long_number = tmp_path / "long-number.csv"
    long_number.write_text("1,0." + "0" * 60 + "1\n2,3\n")
    long_line = tmp_path / "long-line.csv"
    long_line.write_text(",".join(["0.25"] * 20) + "\n")
    old = csv.field_size_limit(40)
    try:
        assert not takes_c_step(long_number, False, False)
        assert outcome(long_number, False, False) == outcome_by_loop(long_number, False, False)
        assert takes_c_step(long_line, False, False), "short fields on a long line"
    finally:
        csv.field_size_limit(old)


def forbid_the_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("a plain file reached the per-cell loop")

    monkeypatch.setattr(panel_module, "_read_csv_cells", refuse)


def test_plain_panel_skips_the_loop(tmp_path, monkeypatch):
    panel = TimeSeriesPanel(np.random.default_rng(8).standard_normal((2000, 50)))
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    forbid_the_loop(monkeypatch)
    assert np.array_equal(read_panel_csv(path).values, panel.values)


def test_plain_returns_file_skips_the_loop(tmp_path, monkeypatch):
    rng = np.random.default_rng(9)
    values = rng.standard_normal((300, 20)) * 0.02
    dates = [str(np.datetime64("2000-01-03") + i) for i in range(300)]
    path = tmp_path / "returns.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + [f"a{j + 1}" for j in range(20)])
        for date, row in zip(dates, values):
            writer.writerow([date] + [repr(float(v)) for v in row])
    forbid_the_loop(monkeypatch)
    got_dates, names, got = read_returns_csv(str(path))
    assert got_dates == dates and names == [f"a{j + 1}" for j in range(20)]
    assert np.array_equal(got, values)


def test_tall_panel_read_peak_memory(tmp_path):
    # The per-cell loop holds a Python float per cell (about 4 MiB here);
    # the C step holds the 0.8 MB array and the panel's copy of it.
    path = tmp_path / "panel.csv"
    write_panel_csv(TimeSeriesPanel(np.random.default_rng(31).standard_normal((2000, 50))), path)
    tracemalloc.start()
    try:
        read_panel_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, f"peak traced allocation {peak / 2**20:.2f} MiB"


def identity_pair(kind):
    """Two distinct objects of one type built from equal values."""
    rng = np.random.default_rng(12)
    if kind is TimeSeriesPanel:
        x = rng.standard_normal((6, 3))
        return TimeSeriesPanel(x), TimeSeriesPanel(x.copy())
    if kind is FactorData:
        y, f = rng.standard_normal((12, 4)), rng.standard_normal((12, 3))
        return FactorData(y, f), FactorData(y.copy(), f.copy())
    a0, a1 = np.eye(3), 0.5 * np.eye(3)
    return (
        PowerInputs(a0=a0, a1=a1, n=50, nu4=3.0, alpha=0.05),
        PowerInputs(a0=a0.copy(), a1=a1.copy(), n=50, nu4=3.0, alpha=0.05),
    )


@pytest.mark.parametrize("kind", [TimeSeriesPanel, FactorData, PowerInputs])
def test_equality_and_hash_are_by_identity(kind):
    a, b = identity_pair(kind)
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert b in [b] and a not in [b]
    assert hash(a) == hash(a) and len({a, b, a}) == 2

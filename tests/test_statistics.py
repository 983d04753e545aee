"""The max, sum, and Fisher-combined tests."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats

from hdwhite import panel as panel_module
from hdwhite import statistics
from hdwhite.distributions import chi2_4_cdf, gumbel_sf, std_normal_sf
from hdwhite.errors import ConfigError, DataError, DegenerateColumnError
from hdwhite.panel import DEGENERATE_VARIANCE_TOL, TimeSeriesPanel, sample_autocorrelation
from hdwhite.statistics import (
    REPORT_COLUMNS,
    check_run_all_arguments,
    fisher_combine,
    max_test,
    run_all,
    sum_test,
)

from oracles import (
    LONGDOUBLE_TOL,
    brute_max_stat,
    brute_sum_stat,
    brute_trace_sq,
    isserlis_centred_sum_mean,
    longdouble_autocorrelation,
    longdouble_max_stat,
    per_lag_max_stat,
)


# (n, p, K) shapes that reach each of sum_test's two routes on purpose:
# cross products when (K+1) p < n, the Gram matrix otherwise.
ROUTE_SHAPES = [
    (12, 3, 2, "cross"),  # below (K+1) p = n
    (12, 4, 2, "gram"),   # on it
    (12, 5, 2, "gram"),   # above it
    (10, 1, 8, "cross"),  # K = n - 2
    (10, 2, 8, "gram"),   # K = n - 2
    (9, 1, 3, "cross"),   # p = 1, which always takes the cross route
    (6, 4, 3, "gram"),
]


def sum_test_by_route(monkeypatch, panel, lags, route):
    """Run sum_test and check that it took ``route`` ("cross" or "gram"):
    one call to ``lag_products`` or one Gram matrix, and not the other."""
    taken = []
    with monkeypatch.context() as patch:
        for name, fn in (
            ("cross", panel_module.lag_products),
            ("gram", panel_module._gram_pair_sums),
        ):
            def spy(*args, name=name, fn=fn):
                taken.append(name)
                return fn(*args)

            patch.setattr(panel_module, fn.__name__, spy)
        try:
            return sum_test(panel, lags)
        finally:
            assert taken == [route]


def longdouble_sum_test(x, lags):
    """sum_test's (trace_sq_hat, t_sum, sigma_s_hat) from a long-double Gram matrix."""
    xl = x.astype(np.longdouble)
    gram = xl @ xl.T
    np.fill_diagonal(gram, 0.0)
    n = x.shape[0]
    pairs = n * (n - 1)
    trace = float((gram * gram).sum() / pairs)
    terms = sum((gram[: n - l, : n - l] * gram[l:, l:]).sum() for l in range(1, lags + 1))
    return trace, float(terms / pairs), math.sqrt(2.0 * lags / pairs) * trace


def assert_sum_test_matches_the_oracle(monkeypatch, x, lags, t_sum_tol=1e-13):
    """sum_test on ``x`` by the route its shape takes: ``trace_sq_hat``
    within 1e-13 of the long-double oracle, ``t_sum`` within ``t_sum_tol``
    of the null scale ``sigma_s_hat``, and z within 1e-12 of the Gram route's."""
    route = "cross" if (lags + 1) * x.shape[1] < x.shape[0] else "gram"
    result = sum_test_by_route(monkeypatch, TimeSeriesPanel(x), lags, route)
    trace, t_sum, sigma = longdouble_sum_test(x, lags)
    assert abs(result.trace_sq_hat - trace) / trace < 1e-13, route
    assert abs(result.t_sum - t_sum) / sigma < t_sum_tol, route
    monkeypatch.setattr(panel_module, "_cross_route", lambda n, p, lags: False)
    gram = sum_test_by_route(monkeypatch, TimeSeriesPanel(x), lags, "gram")
    assert abs(result.z_score - gram.z_score) < 1e-12, route


class ProductCountingArray(np.ndarray):
    """A panel's values that count every matrix product formed from them."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            ProductCountingArray.products += 1
        plain = [a.view(np.ndarray) if isinstance(a, ProductCountingArray) else a for a in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def counting_panel(values) -> TimeSeriesPanel:
    panel = TimeSeriesPanel(values)
    object.__setattr__(panel, "values", panel.values.view(ProductCountingArray))
    ProductCountingArray.products = 0
    return panel


def orthogonal_signal_free_panel() -> TimeSeriesPanel:
    """Columns supported on time points further apart than any tested lag,
    so every lag-1..6 autocovariance is exactly zero."""
    values = np.zeros((35, 5))
    for j in range(5):
        values[7 * j, j] = 1.0
    return TimeSeriesPanel(values)


class TestMaxTest:
    def test_signal_free_panel(self):
        # K=3 takes SUM's cross-route shape, K=6 its Gram-route shape.
        for lags in (3, 6):
            result = max_test(orthogonal_signal_free_panel(), lags)
            assert result.t_max == 0.0
            log_np = math.log(lags * 25)
            assert result.gumbel_y == pytest.approx(-2.0 * log_np + math.log(log_np), abs=1e-14)
            assert result.p_value > 0.99

    def test_hand_panel_matches_bruteforce(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        result = max_test(TimeSeriesPanel(x), 1)
        want = brute_max_stat(x, 1)
        assert result.t_max == pytest.approx(want, rel=1e-12)

    def test_matches_bruteforce_on_random_panels(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = int(rng.integers(5, 13))
            p = int(rng.integers(2, 5))
            lags = int(rng.integers(1, min(4, n - 1)))
            x = rng.standard_normal((n, p))
            got = max_test(TimeSeriesPanel(x), lags).t_max
            want = brute_max_stat(x, lags)
            assert abs(got - want) / max(abs(want), 1e-12) < 1e-10

    @pytest.mark.parametrize("lags", [1, 2, 3, 5])
    @pytest.mark.parametrize("n, p", [(200, 20), (60, 40)], ids=["cross", "gram"])
    def test_bitwise_equal_to_per_lag_max(self, n, p, lags):
        # A panel that carries its moments scales them by one lag-0 product
        # and must give exactly the bits of one lag-0 product per lag, on
        # SUM's cross-route and Gram-route shapes alike: a sliding window
        # that forms its moments from scratch, and on the cross route a
        # panel after sum_test and a fresh one, which carries them too.  A
        # fresh panel of a Gram-route shape (the first (K+1) p rows) takes
        # the unit-column kernel, whose bits differ, and must hold the
        # long-double oracle.
        rng = np.random.default_rng(100 * lags + p)
        for x in (rng.standard_normal((n, p)), rng.standard_t(3, (n, p))):
            want = per_lag_max_stat(x, lags)
            longer = TimeSeriesPanel(np.vstack([x, rng.standard_normal(p)]))
            window = next(panel_module._window_panels(longer, n, lags, 0))
            assert max_test(window, lags).t_max == want
            if panel_module._cross_route(n, p, lags):
                carried = TimeSeriesPanel(x)
                sum_test(carried, lags)
                assert carried._moments is not None
                assert max_test(carried, lags).t_max == want
                assert max_test(TimeSeriesPanel(x), lags).t_max == want
            fresh = TimeSeriesPanel(x[: (lags + 1) * p])
            assert not panel_module._cross_route(fresh.n, p, lags)
            got = max_test(fresh, lags).t_max
            assert fresh._moments is None
            oracle = float(longdouble_max_stat(fresh.values, lags))
            assert got == pytest.approx(oracle, rel=LONGDOUBLE_TOL, abs=0)

    def test_result_internal_consistency(self):
        rng = np.random.default_rng(15)
        result = max_test(TimeSeriesPanel(rng.standard_normal((24, 8))), 2)
        assert result.t_max >= 0.0
        log_np = math.log(2 * 64)
        y = result.t_max**2 - 2.0 * log_np + math.log(log_np)
        assert result.gumbel_y == pytest.approx(y, abs=1e-12)
        assert result.p_value == pytest.approx(gumbel_sf(result.gumbel_y), abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((40, 5))
        # Both kernels: SUM's cross route at 40 rows, its Gram route at 15.
        for rows in (x, x[:15]):
            base = max_test(TimeSeriesPanel(rows), 2).t_max
            scaled = max_test(TimeSeriesPanel(rows * [0.2, 5.0, 1.0, 41.0, 0.003]), 2).t_max
            assert abs(base - scaled) < 1e-10

    def test_planted_autocorrelation_detected(self):
        # One component follows an MA(1) with coefficient 0.6; the max
        # test at K=1 should reject nearly always at n=200, at p = 10 (SUM's
        # cross-route shape) and p = 100 (its Gram-route shape).
        rng = np.random.default_rng(17)
        rejections = 0
        for rep in range(200):
            z = rng.standard_normal((201, 10 if rep % 2 else 100))
            x = z[1:].copy()
            x[:, 0] += 0.6 * z[:-1, 0]
            result = max_test(TimeSeriesPanel(x), 1)
            rejections += result.p_value < 0.05
        assert rejections >= 190, f"only {rejections}/200 rejections for planted signal"

    def test_needs_two_columns(self):
        with pytest.raises(ConfigError, match="at least 2 columns"):
            max_test(TimeSeriesPanel(np.random.default_rng(0).standard_normal((20, 1))), 1)

    def test_lag_budget_range(self):
        panel = TimeSeriesPanel(np.random.default_rng(1).standard_normal((10, 3)))
        for bad in (0, 9, -2):
            with pytest.raises(ConfigError):
                max_test(panel, bad)

    def test_degenerate_column_propagates(self):
        values = np.random.default_rng(2).standard_normal((20, 3))
        values[:, 0] = 0.0
        for rows in (values, values[:6]):
            with pytest.raises(DegenerateColumnError):
                max_test(TimeSeriesPanel(rows), 1)

    @pytest.mark.parametrize("width", [6, 240], ids=["float64", "screened"])
    @pytest.mark.parametrize("variance", [0.0, 1e-14])
    def test_degenerate_column_raises_alike_on_both_paths(self, width, variance):
        # Fresh (the first 3 p rows, a Gram-route shape at K=2), carrying
        # the cross route's moments, and a sliding window: the same error,
        # naming the same column with the same variance.
        n = 2 * 3 * width + 2
        values = np.random.default_rng(3).standard_normal((n, width))
        values[:, 3] = math.sqrt(variance)
        values[:, 5] = 0.0
        fresh = TimeSeriesPanel(values[: 3 * width])
        assert not panel_module._cross_route(fresh.n, width, 2)
        carried = TimeSeriesPanel(values)
        panel_module._pair_sums(carried, 2)
        longer = TimeSeriesPanel(np.vstack([values, values[:1]]))
        window = next(panel_module._window_panels(longer, n, 2, 0))
        assert fresh._moments is None and carried._moments is not None
        messages = set()
        for panel in (fresh, carried, window):
            for call in (max_test, sample_autocorrelation):
                with pytest.raises(DegenerateColumnError) as raised:
                    call(panel, 2)
                messages.add(str(raised.value))
        assert fresh._moments is None
        assert messages == {
            f"column 4 has sample variance {variance:.3e} <= 1e-12; autocorrelations are undefined"
        }

    @pytest.mark.parametrize("width", [6, 200], ids=["float64", "screened"])
    @pytest.mark.parametrize("scale", [1e155, 1e160])
    def test_overflowing_column_is_named_on_both_paths(self, width, scale):
        # Columns 3 on are scaled so far that their sums of squares
        # overflow: fresh (the first 3 p rows, a Gram-route shape at K=2),
        # a sliding window and (at p = 6, where SUM takes the cross route)
        # a panel carrying the cross route's moments.
        values = np.random.default_rng(4).standard_normal((40, width))
        values[:, 2:] *= scale
        panels = [TimeSeriesPanel(values[: 3 * width])]
        assert not panel_module._cross_route(panels[0].n, width, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            longer = TimeSeriesPanel(np.vstack([values, values[:1]]))
            panels.append(next(panel_module._window_panels(longer, 40, 2, 0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if width == 6:
                panels.append(TimeSeriesPanel(values))
                panel_module._pair_sums(panels[-1], 2)
                assert panels[-1]._moments is not None
            messages = set()
            for panel in panels:
                for call in (max_test, sample_autocorrelation):
                    with pytest.raises(DataError) as raised:
                        call(panel, 2)
                    messages.add(str(raised.value))
        assert messages == {
            "column 3's sum of squares overflows float64; the tests are scale-invariant, "
            "so rescale the panel"
        }


def tied_panel(kind):
    """A 60 x 240 panel whose largest lag-1 autocorrelation, entry (0, 1),
    ties or nearly ties with others; returns it and the tied entries."""
    rng = np.random.default_rng(90)
    x = rng.standard_normal((60, 240))
    x[1:, 0] += 2.0 * x[:-1, 1]
    if kind == "duplicated":
        x[:, 2] = x[:, 3] = x[:, 1]
        x[:, 4] = x[:, 0]
        tied = {(i, j) for i in (0, 4) for j in (1, 2, 3)}
    elif kind == "negated":
        x[:, 2] = -x[:, 1]
        tied = {(0, 1), (0, 2)}
    elif kind == "near":
        # Up to 3e-6 below the largest: most of the way to half the
        # screen's slack, 3.8e-6 at n = 60.
        x[:, 2:10] = x[:, [1]] * (1.0 + 2e-5 * rng.standard_normal((60, 8)))
        tied = {(0, j) for j in range(1, 10)}
    else:
        x[:] = x[:, [0]]
        tied = {(i, j) for i in range(240) for j in range(240)}
    return x, tied


class TestMaxScreen:
    """The float32 screen of MAX on a Gram-route shape."""

    @pytest.mark.parametrize("kind", ["duplicated", "negated", "near", "all-equal"])
    def test_every_tied_entry_is_refined(self, monkeypatch, kind):
        x, tied = tied_panel(kind)
        n, p = x.shape
        assert n * p * p >= panel_module._SCREEN_MIN_WORK
        screened = []
        original = panel_module._screen_candidates

        def spy(screen, slack):
            candidates = original(screen, slack)
            screened.append(None if candidates is None else candidates.copy())
            return candidates

        monkeypatch.setattr(panel_module, "_screen_candidates", spy)
        tracemalloc.start()
        try:
            t_max = max_test(TimeSeriesPanel(x), 2).t_max
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        oracle = float(longdouble_max_stat(x, 2))
        assert t_max == pytest.approx(oracle, rel=LONGDOUBLE_TOL, abs=0)
        # The tied entries lie within half the slack of lag 1's largest.
        corr = np.abs(longdouble_autocorrelation(x, 1))
        rows, cols = zip(*tied)
        assert corr[rows, cols].min() >= corr.max() - panel_module._screen_slack(n) / 2.0
        if len(tied) > p:
            # More than p candidates: lag 1 takes its float64 product, and
            # lag 2 skips the screen.
            assert len(screened) == 1 and screened[0] is None
        else:
            assert len(screened) == 2
            refined = {divmod(int(c), p) for c in screened[0]}
            assert tied <= refined and len(refined) <= p
        # One p x p float64 array at most, never a gather of the p^2 tied
        # entries' columns, which would be n p^2 floats.
        assert peak < 2 * p * p * 8, f"peak traced allocation {peak / (8 * p * p):.2f} p^2 floats"


class TestSumTest:
    def test_vanishing_products_panel(self):
        # Rows e1, e2, e2, e1: every lag-1 cross product pairs an inner
        # product with an orthogonal follow-up, so the statistic is 0.
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        result = sum_test(TimeSeriesPanel(x), 1)
        assert result.t_sum == 0.0
        assert result.z_score == 0.0
        assert result.p_value == 0.5

    def test_integer_panel_bitwise_equal_to_bruteforce(self, monkeypatch):
        hand = np.array([[1.0, 2.0], [0.0, 1.0], [2.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
        panels = [(hand, 1, "cross")]
        rng = np.random.default_rng(17)
        for n, p, lags, route in ROUTE_SHAPES:
            panels.append((rng.integers(-3, 4, size=(n, p)).astype(np.float64), lags, route))
        for x, lags, route in panels:
            result = sum_test_by_route(monkeypatch, TimeSeriesPanel(x), lags, route)
            assert result.t_sum == brute_sum_stat(x, lags), (
                f"integer-valued panel {x.shape}, K={lags} must agree exactly in floating point"
            )
            assert result.trace_sq_hat == brute_trace_sq(x), (x.shape, lags)

    def test_identical_rows_trace_estimate(self):
        x = np.tile(np.array([[1.0, 0.0, 0.0]]), (8, 1))
        result = sum_test(TimeSeriesPanel(x), 1)
        assert result.trace_sq_hat == 1.0
        assert result.t_sum == pytest.approx((8 - 2) / 8, abs=1e-15)
        assert result.sigma_s_hat == pytest.approx(math.sqrt(2.0 / 56.0), abs=1e-15)

    def test_matches_bruteforce_on_random_panels(self, monkeypatch):
        rng = np.random.default_rng(18)
        for n, p, lags, route in ROUTE_SHAPES:
            for _ in range(4):
                x = rng.standard_normal((n, p))
                got = sum_test_by_route(monkeypatch, TimeSeriesPanel(x), lags, route)
                want = brute_sum_stat(x, lags)
                assert abs(got.t_sum - want) / max(abs(want), 1e-12) < 1e-10, (n, p, lags)
                want_tr = brute_trace_sq(x)
                assert abs(got.trace_sq_hat - want_tr) / max(abs(want_tr), 1e-12) < 1e-10, (
                    n, p, lags,
                )

    def test_result_internal_consistency(self):
        rng = np.random.default_rng(19)
        result = sum_test(TimeSeriesPanel(rng.standard_normal((50, 6))), 3)
        n = 50
        want_sigma = math.sqrt(2.0 * 3 / (n * (n - 1))) * result.trace_sq_hat
        assert result.sigma_s_hat == pytest.approx(want_sigma, rel=1e-12)
        assert result.z_score == pytest.approx(result.t_sum / result.sigma_s_hat, rel=1e-12)
        assert result.p_value == pytest.approx(std_normal_sf(result.z_score), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((30, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        base = sum_test(TimeSeriesPanel(x), 2)
        rotated = sum_test(TimeSeriesPanel(x @ q.T), 2)
        for name in ("t_sum", "trace_sq_hat", "z_score"):
            a, b = getattr(base, name), getattr(rotated, name)
            assert abs(a - b) / max(abs(a), 1e-12) < 1e-8, name

    def test_orthogonal_rows_cannot_be_studentized(self, monkeypatch):
        # The tall panel takes the cross-product route, where
        # ||X'X||_F^2 - |x_6|^4 would leave a positive rounding residue;
        # row 6 is split off instead.
        one_nonzero_row = np.zeros((12, 3))
        one_nonzero_row[5] = [0.1, 0.3, 0.4]
        for values, route in ((np.eye(4), "gram"), (one_nonzero_row, "cross")):
            with pytest.raises(DataError, match="studentized"):
                sum_test_by_route(monkeypatch, TimeSeriesPanel(values), 1, route)

    def test_rounded_orthogonal_rows_cannot_be_studentized(self, monkeypatch):
        # Rows of a computed orthogonal basis, rotated and scaled over 16
        # decades: orthogonal only to rounding.  The Gram route takes them
        # as they are, the cross route with zero rows after them, so that
        # (K+1) p < n.
        rng = np.random.default_rng(33)
        for p in (5, 30, 80):
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            rotation, _ = np.linalg.qr(rng.standard_normal((p, p)))
            values = (q[: p - 1] * 10.0 ** rng.uniform(-8, 8, (p - 1, 1))) @ rotation
            padded = np.vstack([values, np.zeros((2 * p + 2, p))])
            for rows, route in ((values, "gram"), (padded, "cross")):
                with pytest.raises(DataError, match="studentized"):
                    sum_test_by_route(monkeypatch, TimeSeriesPanel(rows), 2, route)

    @pytest.mark.parametrize("n, p, lags, scale, t_seed", [
        pytest.param(60, 30, 2, 1e7, None, id="10000000.0"),
        pytest.param(60, 30, 2, 1e12, None, id="1000000000000.0"),
        *(pytest.param(n, p, 1, scale, None, id=f"cross-{n}-{p}-{scale:g}")
          for n, p in ((400, 20), (300, 60), (100, 30)) for scale in (1e7, 1e12)),
        pytest.param(300, 60, 1, None, 5, id="cross-300-60-t1.5"),
        pytest.param(200, 60, 2, None, 20, id="cross-200-60-t1.5"),
    ])
    def test_gram_route_dominant_row_is_not_orthogonal(
        self, monkeypatch, n, p, lags, scale, t_seed
    ):
        # One row's |x_t|^4 swamps ||X'X||_F^2, which must not make the
        # other rows' pair sums read as a rounding residue, on the Gram
        # route (60 x 30) or the cross route, where the difference
        # ||X'X||_F^2 - sum_t |x_t|^4 cancels unless that row is split
        # off.  With ``t_seed`` the panel has t(1.5) entries instead, and a
        # few rows dominate: the difference was off by 3.4e-12 at seed 5,
        # and by 1.8e-13 at seed 20 even with its largest row split off.
        # The cross route's lag terms keep their difference, which at seed
        # 5 leaves 1.3e-13 of the null scale in t_sum, so there t_sum is
        # held to z's bound.
        if t_seed is not None:
            x = np.random.default_rng(t_seed).standard_t(1.5, (n, p))
            assert_sum_test_matches_the_oracle(monkeypatch, x, lags, t_sum_tol=1e-12)
            return
        x = np.random.default_rng(34).standard_normal((n, p))
        x[20] *= scale
        assert_sum_test_matches_the_oracle(monkeypatch, x, lags)

    @pytest.mark.parametrize(
        "n, p", [(120, 100), (150, 60), (400, 20), (300, 60)],
        ids=["120-100", "150-60", "400-20", "300-60"],
    )
    @pytest.mark.parametrize("scale", [1e3, 1e4, 1e5])
    def test_gram_route_one_large_row(self, monkeypatch, n, p, scale):
        # One dominant row makes sum_t |x_t|^4 nearly all of ||X X'||_F^2,
        # so a pair sum formed as their difference cancels.  The Gram
        # route (the first two shapes) sums squared off-diagonal entries;
        # the cross route (the last two at K=3) splits the row off.
        x = np.random.default_rng(31).standard_normal((n, p))
        x[n // 3] *= scale
        assert_sum_test_matches_the_oracle(monkeypatch, x, 3)

    def test_tall_panel_peak_memory(self):
        # The Gram route would hold a 2000 x 2000 matrix (about 31 MiB)
        # and its temporaries; the cross products need p x p.  A row
        # scaled by 1e7 is split off, with a copy X_L of the other rows and
        # the 16 x n products X_H X_L'.
        for scale in (1.0, 1e7):
            values = np.random.default_rng(30).standard_normal((2000, 50))
            values[700] *= scale
            panel = TimeSeriesPanel(values)
            tracemalloc.start()
            try:
                sum_test(panel, 5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, f"scale {scale}: peak traced allocation {peak / 2**20:.2f} MiB"

    def test_wide_panel_max_working_set(self):
        # On a Gram-route shape MAX holds the unit columns, their float32
        # copy, one float32 lag product and its mask: about
        # 0.63 p^2 + 1.5 n p = 0.93 p^2 floats here.  The lag-0 matrix and
        # one lag's autocorrelations alone would be 2 p^2.  run_all on the
        # Gram route is held to the same bound: it forms no lag-0 matrix.
        n, p = 120, 600
        panel = TimeSeriesPanel(np.random.default_rng(32).standard_normal((n, p)))
        assert not panel_module._cross_route(n, p, 2)
        for call in (max_test, lambda panel, lags: run_all(panel, lags, 0.05)):
            tracemalloc.start()
            try:
                call(panel, 2)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.2 * p * p * 8, f"peak traced allocation {peak / (8 * p * p):.2f} p^2 floats"
        assert panel._moments is None
        # Scaling in place writes only into fresh arrays: neither the
        # panel's values nor a carried product changes, through the public
        # function or MAX's carried step.
        cross = TimeSeriesPanel(np.random.default_rng(33).standard_normal((200, 30)))
        sum_test(cross, 2)
        for shared in (panel, cross):
            kept = [shared.values]
            calls = [sample_autocorrelation]
            if shared._moments is not None:
                kept.append(shared._moments.products)
                calls.append(panel_module._carried_autocorrelation)
            before = [a.tobytes() for a in kept]
            for call in calls:
                for k in range(3):
                    corr = call(shared, k)
                    assert corr.flags.writeable
                    assert not any(np.shares_memory(corr, a) for a in kept)
                    corr[:] = 0.0
            max_test(shared, 2)
            assert [a.tobytes() for a in kept] == before

    def test_carried_max_working_set(self):
        # On a panel that carries its moments MAX holds one lag's
        # autocorrelations and one p x p scale matrix at a time, beyond
        # the carried stack: 2 p^2 floats and numpy's buffers.  A lag-0
        # matrix kept beside them would make it 3 p^2.
        n, p = 1250, 400
        panel = TimeSeriesPanel(np.random.default_rng(34).standard_normal((n, p)))
        sum_test(panel, 2)
        assert panel._moments is not None
        tracemalloc.start()
        try:
            max_test(panel, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * p * p * 8, f"peak traced allocation {peak / (8 * p * p):.2f} p^2 floats"

    @pytest.mark.parametrize("lags, route", [(1, "cross"), (7, "gram")])
    def test_overflowing_sums_are_a_data_error(self, monkeypatch, lags, route):
        # Entries of 1e80: x_t'x_s squares past float64.  The sums are not
        # finite, which once read as rows that are mutually orthogonal.
        panel = TimeSeriesPanel(np.random.default_rng(5).standard_normal((60, 8)) * 1e80)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as raised:
                sum_test_by_route(monkeypatch, panel, lags, route)
        assert str(raised.value) == (
            "sum-test sums overflow float64; the tests are scale-invariant, "
            "so rescale the panel"
        )

    def test_needs_four_rows(self):
        with pytest.raises(ConfigError, match="at least 4 rows"):
            sum_test(TimeSeriesPanel(np.random.default_rng(3).standard_normal((3, 2))), 1)

    def test_lag_budget_range(self):
        panel = TimeSeriesPanel(np.random.default_rng(4).standard_normal((10, 3)))
        for bad in (0, 9):
            with pytest.raises(ConfigError):
                sum_test(panel, bad)


class TestCentredSum:
    """SUM on a panel that ``from_array(center=True)`` centred, with the
    mean that centring adds taken out."""

    @pytest.mark.parametrize("n, p, lags", [(6, 3, 1), (7, 2, 4), (9, 5, 3), (8, 1, 6)])
    def test_null_mean_counts_every_pair(self, n, p, lags):
        x = np.random.default_rng(n * lags).standard_normal((n, p)) + 3.0
        panel = TimeSeriesPanel.from_array(x, center=True)
        plain = sum_test(TimeSeriesPanel(panel.values), lags)
        got = sum_test(panel, lags)
        # The studentizer's B^ and the A^ it implies solve both estimates...
        b = got.trace_sq_hat
        trace = float(np.vdot(panel.values, panel.values)) / (n - 1)
        a = trace * trace - 2.0 * b / (n - 1)
        assert b == pytest.approx(plain.trace_sq_hat - a / n**2, rel=1e-12)
        # ... and the mean taken out is Isserlis' at (A^, B^).
        mean = (plain.t_sum - got.t_sum) * n * (n - 1)
        assert mean == pytest.approx(isserlis_centred_sum_mean(n, lags, a, b), rel=1e-10)

    def test_only_a_panel_centred_on_construction_is_corrected(self):
        x = np.random.default_rng(21).standard_normal((60, 40)) + 3.0
        centred = TimeSeriesPanel.from_array(x, center=True)
        by_hand = TimeSeriesPanel(centred.values)  # the same bits, not marked
        got, plain = sum_test(centred, 2), sum_test(by_hand, 2)
        assert got.z_score < plain.z_score
        assert plain == sum_test(TimeSeriesPanel.from_array(centred.values), 2)
        assert max_test(centred, 2) == max_test(by_hand, 2)
        want_sigma = math.sqrt(2.0 * 2 / (60 * 59)) * got.trace_sq_hat
        assert got.sigma_s_hat == pytest.approx(want_sigma, rel=1e-12)
        assert got.z_score == pytest.approx(got.t_sum / got.sigma_s_hat, rel=1e-12)

    @pytest.mark.parametrize("n, p, lags, reps, seed", [
        (200, 200, 2, 1000, 1), (100, 1000, 1, 600, 2),
    ])
    def test_centred_sum_holds_its_size(self, n, p, lags, reps, seed):
        # iid N(0, I) rows plus 3.0.  Uncorrected, centring moves z up by
        # about sqrt(K/2) p/n, and SUM rejected about 0.25 of these panels
        # at (200, 200, 2) and every one at (100, 1000, 1).
        rng = np.random.default_rng(seed)
        rejected = sum(
            sum_test(TimeSeriesPanel.from_array(rng.standard_normal((n, p)) + 3.0, center=True),
                     lags).p_value < 0.05
            for _ in range(reps)
        )
        se = math.sqrt(0.05 * 0.95 / reps)
        assert abs(rejected / reps - 0.05) <= 3.0 * se, f"SUM size {rejected / reps}"


class TestFisherCombine:
    def test_unit_pvalues(self):
        t_fc, p_fc = fisher_combine(1.0, 1.0)
        assert t_fc == 0.0
        assert p_fc == 1.0

    def test_nominal_level_pair(self):
        t_fc, p_fc = fisher_combine(0.05, 0.05)
        want_t = -4.0 * math.log(0.05)
        assert t_fc == pytest.approx(want_t, rel=1e-13)
        assert t_fc == pytest.approx(11.9829, abs=1e-4)
        want_p = (1.0 + want_t / 2.0) * math.exp(-want_t / 2.0)
        assert p_fc == pytest.approx(want_p, rel=1e-13)
        assert p_fc == pytest.approx(0.0174, abs=1e-4)

    def test_zero_pvalue_is_floored(self):
        t_fc, p_fc = fisher_combine(0.0, 0.5)
        assert math.isfinite(t_fc)
        assert t_fc == pytest.approx(-2.0 * math.log(1e-300) - 2.0 * math.log(0.5), rel=1e-13)
        assert p_fc >= 0.0

    def test_invalid_inputs(self):
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(ConfigError):
                fisher_combine(bad, 0.5)
            with pytest.raises(ConfigError):
                fisher_combine(0.5, bad)

    def test_null_calibration_against_chi2(self):
        # Independent uniform p-values make t_fc exactly chi-square(4).
        rng = np.random.default_rng(23)
        u = rng.uniform(size=(10_000, 2))
        stats = [fisher_combine(a, b)[0] for a, b in u]
        ks = scipy.stats.kstest(stats, np.vectorize(chi2_4_cdf)).statistic
        assert ks < 0.02, f"KS distance {ks} against chi-square(4)"


class TestRunAll:
    def test_compositional_identity(self):
        rng = np.random.default_rng(24)
        panel = TimeSeriesPanel(rng.standard_normal((100, 30)))
        report = run_all(panel, 1, 0.05)
        assert report.max == max_test(panel, 1)
        assert report.sum == sum_test(panel, 1)
        t_fc, p_fc = fisher_combine(report.max.p_value, report.sum.p_value)
        assert report.t_fc == t_fc
        assert report.p_fc == p_fc

    def test_decisions_match_pvalues(self):
        rng = np.random.default_rng(25)
        for seed in range(10):
            panel = TimeSeriesPanel(np.random.default_rng(seed).standard_normal((40, 6)))
            report = run_all(panel, 2, 0.1)
            assert report.reject_max == (report.max.p_value < 0.1)
            assert report.reject_sum == (report.sum.p_value < 0.1)
            assert report.reject_fc == (report.p_fc < 0.1)

    def test_extreme_level_rejects_everything(self):
        panel = TimeSeriesPanel(np.random.default_rng(26).standard_normal((50, 8)))
        report = run_all(panel, 1, 1.0 - 1e-9)
        assert report.reject_max and report.reject_sum and report.reject_fc

    def test_report_invariants(self):
        panel = TimeSeriesPanel(np.random.default_rng(27).standard_normal((60, 10)))
        report = run_all(panel, 2, 0.05)
        want_t = -2.0 * math.log(max(report.max.p_value, 1e-300)) - 2.0 * math.log(
            max(report.sum.p_value, 1e-300)
        )
        assert abs(report.t_fc - want_t) < 1e-10
        assert abs(report.p_fc - (1.0 - chi2_4_cdf(report.t_fc))) < 1e-10

    def test_flat_serialization(self):
        panel = TimeSeriesPanel(np.random.default_rng(28).standard_normal((30, 4)))
        report = run_all(panel, 1, 0.05)
        flat = report.to_flat_dict()
        assert tuple(flat.keys()) == REPORT_COLUMNS
        parsed = json.loads(report.to_json())
        assert parsed["n"] == 30 and parsed["p"] == 4 and parsed["K"] == 1
        row = report.to_csv_row().split(",")
        assert len(row) == len(REPORT_COLUMNS)
        assert row[0] == "30"
        assert row[-1] in ("0", "1")

    @pytest.mark.parametrize("lags, alpha", [
        (1, np.float64(0.05)), (np.int64(2), np.float64(0.05)), (1, np.float32(0.25)),
    ])
    def test_numpy_scalars_report_like_python_scalars(self, lags, alpha):
        # The report holds Python ints, floats and bools, so its JSON
        # serializes and its CSV row is byte-identical to a plain call's.
        panel = TimeSeriesPanel(np.random.default_rng(28).standard_normal((30, 4)))
        report = run_all(panel, lags, alpha)
        plain = run_all(panel, int(lags), float(alpha))
        assert report.to_csv_row() == plain.to_csv_row()
        assert report.to_json() == plain.to_json()

    @pytest.mark.parametrize("lags", [1, 7], ids=["cross", "gram"])
    def test_large_units_keep_the_p_values(self, lags):
        values = np.random.default_rng(5).standard_normal((60, 8))
        want = run_all(TimeSeriesPanel(values), lags, 0.05).to_flat_dict()
        got = run_all(TimeSeriesPanel(values * 1e70), lags, 0.05).to_flat_dict()
        for name in ("p_max", "p_sum", "p_fc"):
            assert abs(got[name] - want[name]) <= 1e-14, name

    def test_common_offset_needs_centering(self):
        # The tests assume mean zero: an uncentred offset is a constant
        # autocovariance at every lag, so all three reject every panel.
        raw = np.zeros(3)
        centred = np.zeros(3)
        for rep in range(200):
            x = np.random.default_rng(rep).standard_normal((200, 30)) + 3.0
            for panel, tally in ((TimeSeriesPanel(x), raw),
                                 (TimeSeriesPanel.from_array(x, center=True), centred)):
                report = run_all(panel, 2, 0.05)
                tally += (report.reject_max, report.reject_sum, report.reject_fc)
        assert (raw == 200).all()
        rates = centred / 200
        assert ((0.01 <= rates) & (rates <= 0.10)).all(), f"centred size {rates}"

    def test_near_degenerate_column(self):
        x = np.random.default_rng(29).standard_normal((200, 30))
        base = run_all(TimeSeriesPanel(x), 2, 0.05)
        for variance in (2.0 * DEGENERATE_VARIANCE_TOL, 0.5 * DEGENERATE_VARIANCE_TOL):
            y = x.copy()
            y[:, 4] *= math.sqrt(variance / np.mean(x[:, 4] ** 2))
            if variance <= DEGENERATE_VARIANCE_TOL:
                with pytest.raises(DegenerateColumnError, match="column 5"):
                    run_all(TimeSeriesPanel(y), 2, 0.05)
                continue
            report = run_all(TimeSeriesPanel(y), 2, 0.05)
            flat = report.to_flat_dict()
            assert all(math.isfinite(v) for v in flat.values())
            # MAX uses autocorrelations, which do not see a column's scale.
            assert report.max.t_max == pytest.approx(base.max.t_max, rel=1e-12)

    @pytest.mark.parametrize("n, p, lags", [
        (50, 1000, 3),   # p >> n: Gram route
        (3000, 3, 5),    # n >> p: cross-product route
        (30, 4, 28),     # K = n - 2, Gram route
        (30, 1, 28),     # K = n - 2, cross route, which needs p = 1 there
    ], ids=["p-much-larger", "n-much-larger", "K-n-2-gram", "K-n-2-cross"])
    def test_route_extremes(self, n, p, lags):
        panel = TimeSeriesPanel(np.random.default_rng(n * p + lags).standard_normal((n, p)))
        result = sum_test(panel, lags)
        assert math.isfinite(result.t_sum) and math.isfinite(result.z_score)
        assert 0.0 <= result.p_value <= 1.0
        if p < 2:
            with pytest.raises(ConfigError, match="at least 2 columns"):
                run_all(panel, lags, 0.05)
        else:
            flat = run_all(panel, lags, 0.05).to_flat_dict()
            for key in ("t_max", "gumbel_y", "t_sum", "z", "t_fc"):
                assert math.isfinite(flat[key]), key
            for key in ("p_max", "p_sum", "p_fc"):
                assert 0.0 <= flat[key] <= 1.0, key

    @pytest.mark.parametrize("lags", [1, 3])
    def test_cross_route_forms_each_lag_product_once(self, monkeypatch, lags):
        # SUM keeps the K+1 products it forms; MAX reads them, so run_all
        # forms K+1 p x p products in one lag_products call, not 2K+2.
        x = np.random.default_rng(40 + lags).standard_normal((120, 6))
        want = run_all(TimeSeriesPanel(x), lags, 0.05)
        calls = []
        original = panel_module.lag_products
        monkeypatch.setattr(panel_module, "lag_products", lambda *a: calls.append(a) or original(*a))
        panel = counting_panel(x)
        assert panel_module._cross_route(panel.n, panel.p, lags)
        assert run_all(panel, lags, 0.05) == want
        assert len(calls) == 1
        assert ProductCountingArray.products == lags + 1
        products = panel._moments.products
        assert products.shape == (lags + 1, 6, 6) and not products.flags.writeable
        assert max_test(panel, lags) == want.max and sum_test(panel, lags) == want.sum
        assert len(calls) == 1 and ProductCountingArray.products == lags + 1

    def test_carried_moments_serve_smaller_lags(self, monkeypatch):
        # The K=5 stack serves SUM and MAX at K=2 and stays on the panel,
        # with the bits of a stack carried at K=2, and of a fresh panel,
        # whose MAX forms that stack itself.  The carried MAX and, on the
        # first (K+1) p rows, a Gram-route shape, the unit-column kernel hold
        # the long-double oracle.
        x = np.random.default_rng(44).standard_normal((400, 10))

        def carried_at(lags):
            panel = TimeSeriesPanel(x)
            return sum_test(panel, lags), max_test(panel, lags)

        want = {lags: carried_at(lags) for lags in (2, 5)}
        for lags in (2, 5):
            assert repr(max_test(TimeSeriesPanel(x), lags)) == repr(want[lags][1])
            oracle = float(longdouble_max_stat(x, lags))
            assert want[lags][1].t_max == pytest.approx(oracle, rel=LONGDOUBLE_TOL, abs=0)
            rows = x[: (lags + 1) * 10]
            fresh = TimeSeriesPanel(rows)
            assert not panel_module._cross_route(fresh.n, fresh.p, lags)
            oracle = float(longdouble_max_stat(rows, lags))
            assert max_test(fresh, lags).t_max == pytest.approx(oracle, rel=LONGDOUBLE_TOL, abs=0)
        calls = []
        original = panel_module.lag_products
        monkeypatch.setattr(
            panel_module, "lag_products", lambda x, lags: calls.append(lags) or original(x, lags)
        )
        panel = TimeSeriesPanel(x)
        assert panel_module._cross_route(panel.n, panel.p, 5)
        assert repr(sum_test(panel, 5)) == repr(want[5][0])
        carried = panel._moments
        for lags in (2, 5):
            assert repr(sum_test(panel, lags)) == repr(want[lags][0])
            assert repr(max_test(panel, lags)) == repr(want[lags][1])
            assert panel._moments is carried
        assert calls == [5] and carried.lags == 5

    @pytest.mark.parametrize("lags", [1, 2, 3, 5])
    @pytest.mark.parametrize("n, p", [(200, 20), (60, 40)], ids=["cross", "gram"])
    def test_call_order_does_not_change_the_bits(self, monkeypatch, n, p, lags):
        # Each kernel follows from (n, p, K): MAX alone, MAX then SUM, and
        # SUM then MAX give the same t_max and t_sum bits, and a panel forms
        # its lag products at most once (once on the cross route).
        formed = []
        original = panel_module.lag_products
        monkeypatch.setattr(
            panel_module, "lag_products", lambda x, k: formed.append(x) or original(x, k)
        )
        cross = panel_module._cross_route(n, p, lags)
        rng = np.random.default_rng(300 + 10 * lags + p)
        for x in (rng.standard_normal((n, p)), rng.standard_t(3, (n, p))):
            panels = [TimeSeriesPanel(x) for _ in range(4)]
            alone = max_test(panels[0], lags).t_max, sum_test(panels[1], lags).t_sum
            max_first = max_test(panels[2], lags).t_max, sum_test(panels[2], lags).t_sum
            t_sum = sum_test(panels[3], lags).t_sum
            sum_first = max_test(panels[3], lags).t_max, t_sum
            assert repr(alone) == repr(max_first) == repr(sum_first)
            for panel in panels:
                assert sum(a is panel.values for a in formed) == cross
        # A carried K below ``lags`` never feeds MAX: after SUM at K=1 on a
        # 40 x 12 panel, MAX gives a fresh panel's bits at every K, also at
        # K=3 and 5, Gram-route shapes where both take the unit columns.
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal((40, 12))
            panel = TimeSeriesPanel(x)
            sum_test(panel, 1)
            assert max_test(panel, lags).t_max == max_test(TimeSeriesPanel(x), lags).t_max

    @pytest.mark.parametrize("lags", [1, 2, 3])
    @pytest.mark.parametrize("n, p", [(200, 20), (60, 40)], ids=["cross", "gram"])
    def test_public_autocorrelation_ignores_what_the_panel_carries(self, n, p, lags):
        # sample_autocorrelation takes one path: the same bits before and
        # after max_test, sum_test and run_all, which leave the cross
        # route's products on the panel, and on a rolled sliding window
        # the bits of a fresh panel of the window's rows.
        x = np.random.default_rng(400 + 10 * lags + p).standard_normal((n, p))
        panel = TimeSeriesPanel(x)

        def bits(panel):
            return [sample_autocorrelation(panel, k).tobytes() for k in range(lags + 1)]

        before = bits(panel)
        for test in (max_test, sum_test, lambda panel, lags: run_all(panel, lags, 0.05)):
            test(panel, lags)
            assert bits(panel) == before
        assert (panel._moments is not None) == panel_module._cross_route(n, p, lags)
        windows = panel_module._window_panels(panel, n // 2, lags, 0)
        next(windows)
        window = next(windows)
        assert window._moments is not None
        assert bits(window) == bits(TimeSeriesPanel(window.values))

    def test_gram_route_keeps_no_products(self, monkeypatch):
        calls = []
        monkeypatch.setattr(panel_module, "lag_products", lambda *a: calls.append(a))
        # Count the products formed from the unit columns MAX scales too.
        unit_columns = panel_module._unit_columns
        monkeypatch.setattr(
            panel_module, "_unit_columns",
            lambda panel: unit_columns(panel).view(ProductCountingArray),
        )
        # p = 20 forms each lag in float64, p = 200 screens it in float32.
        for p, screened in ((20, False), (200, True)):
            panel = counting_panel(np.random.default_rng(42).standard_normal((30, p)))
            assert not panel_module._cross_route(panel.n, panel.p, 2)
            assert (panel.n * p * p >= panel_module._SCREEN_MIN_WORK) == screened
            run_all(panel, 2, 0.05)
            assert calls == [] and panel._moments is None
            # One Gram matrix for SUM and lags 1..2 for MAX; no lag-0 product.
            assert ProductCountingArray.products == 1 + 2

    @pytest.mark.parametrize("values", [
        np.eye(4, 5),
        np.outer(np.eye(12)[5], [0.1, 0.3, 0.0]),
    ], ids=["gram", "cross"])
    def test_orthogonal_rows_outrank_a_degenerate_column(self, values):
        # The rows are mutually orthogonal and the last column is zero.
        # SUM runs first in run_all, so its error is the one raised.  MAX
        # alone raises for the column, on the panel and on its first 2p
        # rows, a Gram-route shape at K=1, where it takes the unit columns.
        with pytest.raises(DegenerateColumnError):
            max_test(TimeSeriesPanel(values[: 2 * values.shape[1]]), 1)
        panel = TimeSeriesPanel(values)
        with pytest.raises(DegenerateColumnError):
            max_test(panel, 1)
        with pytest.raises(DataError, match="studentized") as raised:
            run_all(panel, 1, 0.05)
        assert type(raised.value) is DataError

    def test_alpha_domain(self):
        panel = TimeSeriesPanel(np.random.default_rng(29).standard_normal((20, 3)))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigError):
                run_all(panel, 1, bad)

    @pytest.mark.parametrize("n, p, lags, alpha, message", [
        (3, 1, 2, 1.5, "alpha must lie in"),
        (3, 1, 2, 0.05, "number of lags 2 out of range"),
        (3, 1, 1, 0.05, "max test needs at least 2 columns"),
        (3, 2, 1, 0.05, "sum test needs at least 4 rows"),
        (4, 2, 2, 0.05, None),
    ], ids=["alpha", "lags", "columns", "rows", "valid"])
    def test_arguments_are_checked_in_order_with_one_lag_check(
        self, monkeypatch, n, p, lags, alpha, message
    ):
        # Alpha first, then the lag budget, MAX's columns and SUM's rows;
        # the lag budget both tests need is checked once.
        calls = []

        def counted(n, lags):
            calls.append(lags)
            return panel_module.check_lag_budget(n, lags)

        monkeypatch.setattr(statistics, "check_lag_budget", counted)
        if message is None:
            assert check_run_all_arguments(n, p, lags, alpha) == alpha
        else:
            with pytest.raises(ConfigError, match=message):
                check_run_all_arguments(n, p, lags, alpha)
        assert len(calls) == (0 if message and "alpha" in message else 1)

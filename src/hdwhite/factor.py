"""Three-factor regression residuals and sliding-window testing.

Each asset's excess return is regressed on an intercept plus the three
classic factors (market excess, size, value); the per-asset residuals
form a panel that is then white-noise tested on every sliding window of
a chosen length, summarizing how often each test rejects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ConfigError, DataError
from .panel import TimeSeriesPanel, _Moments, lag_products, read_csv_array
from .statistics import (
    _cross_pair_sums,
    _cross_route,
    _gram_pair_sums,
    check_run_all_arguments,
    run_all,
)

__all__ = [
    "FactorData",
    "SlidingWindowSummary",
    "read_returns_csv",
    "read_factors_csv",
    "build_factor_data",
    "ols_residuals",
    "sliding_window_rates",
]

RANK_TOL = 1e-10
MIN_ROWS = 10
FACTOR_COLUMNS = ("market_excess", "smb", "hml")
# The window engine forms its lag products (and, on SUM's Gram route, one
# Gram matrix) from scratch once per block of this many windows...
WINDOW_BLOCK = 64
# ...and also whenever the rounding bound of its rolled products passes
# this fraction of the smallest lag-0 diagonal entry.
ROLLING_TOLERANCE = 1e-13
# The unit roundoff of float64, 2^-53.
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


@dataclass(frozen=True, eq=False)
class FactorData:
    """Aligned excess returns and factor observations.

    Equality and hashing are by identity, as for any object.
    """

    excess_returns: np.ndarray = field(repr=False)
    factors: np.ndarray = field(repr=False)
    dates: tuple[str, ...] | None = None
    asset_names: tuple[str, ...] | None = None

    def __post_init__(self):
        y = np.array(self.excess_returns, dtype=np.float64)
        f = np.array(self.factors, dtype=np.float64)
        if y.ndim != 2:
            raise DataError(f"excess returns must be 2-d, got {y.ndim}-d")
        if f.ndim != 2 or f.shape[1] != 3:
            raise DataError(f"factors must be T x 3, got shape {f.shape}")
        if y.shape[0] != f.shape[0]:
            raise DataError(
                f"returns and factors must have equal row counts, got "
                f"{y.shape[0]} and {f.shape[0]}"
            )
        if y.shape[0] < MIN_ROWS:
            raise DataError(f"need at least {MIN_ROWS} rows, got {y.shape[0]}")
        if not np.isfinite(y).all():
            raise DataError("excess returns contain non-finite values")
        if not np.isfinite(f).all():
            raise DataError("factors contain non-finite values")
        for j in range(3):
            if float(np.var(f[:, j])) == 0.0:
                raise DataError(
                    f"factor column {FACTOR_COLUMNS[j]} has zero variance"
                )
        if self.dates is not None and len(self.dates) != y.shape[0]:
            raise DataError(
                f"got {len(self.dates)} dates for {y.shape[0]} observation rows"
            )
        if self.asset_names is not None and len(self.asset_names) != y.shape[1]:
            raise DataError(
                f"got {len(self.asset_names)} asset names for {y.shape[1]} assets"
            )
        y.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "excess_returns", y)
        object.__setattr__(self, "factors", f)

    @property
    def num_periods(self) -> int:
        return self.excess_returns.shape[0]

    @property
    def num_assets(self) -> int:
        return self.excess_returns.shape[1]


@dataclass(frozen=True)
class SlidingWindowSummary:
    """Rejection-rate summary over all length-n sliding windows."""

    window_length: int
    lags: int
    alpha: float
    num_windows: int
    rate_max: float
    rate_sum: float
    rate_fc: float

    def __post_init__(self):
        if self.num_windows < 1:
            raise ConfigError(f"need at least one window, got {self.num_windows}")
        for name in ("rate_max", "rate_sum", "rate_fc"):
            r = getattr(self, name)
            if not 0.0 <= r <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {r}")

    def to_dict(self) -> dict:
        return {
            "window_length": self.window_length,
            "K": self.lags,
            "alpha": self.alpha,
            "num_windows": self.num_windows,
            "rate_max": self.rate_max,
            "rate_sum": self.rate_sum,
            "rate_fc": self.rate_fc,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def read_returns_csv(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """Read a returns file: a date column then one column per asset.

    Returns (dates, asset names from the header, T x p values).
    """
    header, dates, values = read_csv_array(path, header=True, labels=True)
    if len(header) < 2:
        raise DataError(f"{path} needs a date column plus at least one asset column")
    return dates, header[1:], values


def read_factors_csv(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Read a factors file: date, market excess, SMB, HML, risk-free.

    Returns (dates, T x 3 factor matrix, length-T risk-free vector).
    """
    header, dates, values = read_csv_array(path, header=True, labels=True)
    if len(header) != 5:
        raise DataError(
            f"{path} must have exactly 5 columns "
            f"(date, market excess, SMB, HML, risk-free), got {len(header)}"
        )
    return dates, values[:, :3], values[:, 3]


def build_factor_data(
    returns_path: str,
    factors_path: str,
    already_excess: bool = False,
    check_dates: bool = False,
) -> FactorData:
    """Load and align the two CSVs into a FactorData.

    Unless ``already_excess`` is set, the risk-free column is subtracted
    from every asset return.  Rows are aligned by order; ``check_dates``
    additionally requires the date strings to agree row by row.
    """
    r_dates, names, returns = read_returns_csv(returns_path)
    f_dates, factors, risk_free = read_factors_csv(factors_path)
    if len(r_dates) != len(f_dates):
        raise DataError(
            f"row-count mismatch: {returns_path} has {len(r_dates)} data rows, "
            f"{factors_path} has {len(f_dates)}"
        )
    if check_dates:
        for i, (a, b) in enumerate(zip(r_dates, f_dates)):
            if a != b:
                raise DataError(
                    f"date mismatch at data row {i + 1}: {a!r} vs {b!r}"
                )
    if not already_excess:
        returns = returns - risk_free[:, None]
    return FactorData(
        excess_returns=returns,
        factors=factors,
        dates=tuple(r_dates),
        asset_names=tuple(names),
    )


def ols_residuals(data: FactorData) -> TimeSeriesPanel:
    """Per-asset least squares on [1, market excess, SMB, HML].

    All assets share the design matrix, so one QR factorization serves
    every regression; the returned panel holds the T x p residuals.
    """
    t = data.num_periods
    design = np.column_stack([np.ones(t), data.factors])
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diagonal(r))
    if diag.min() <= RANK_TOL * diag.max():
        names = ("intercept",) + FACTOR_COLUMNS
        j = int(np.argmin(diag))
        raise DataError(
            f"design matrix is rank deficient (column {names[j]} is numerically "
            f"dependent on the others)"
        )
    coef = solve_triangular(r, q.T @ data.excess_returns)
    residuals = data.excess_returns - design @ coef
    return TimeSeriesPanel(residuals)


def _window_panels(panel: TimeSeriesPanel, window: int, lags: int):
    """Yield the panel of every length-``window`` sliding window, moments filled in.

    Each window is a read-only view of ``panel.values`` (no copy and no
    finiteness scan) carrying its raw lag products X[k:]' X[:n-k],
    k = 0..lags, and the pair sums ``sum_test`` needs at this K.

    The products are formed from scratch for the first window of every
    block of ``WINDOW_BLOCK`` and rolled from window to window inside it:
    lag k gains x_{s+w} x_{s+w-k}' and loses x_{s+k} x_s' when the window
    moves on from start s, all K+1 rank-2 updates in one batched matmul.
    Each rank-one term x_a x_b' rounds every entry by at most about
    u r_a r_b (u the unit roundoff, r_t = max_i |x_ti|); once the sum of
    these since the last product from scratch passes ``ROLLING_TOLERANCE``
    of the smallest lag-0 diagonal entry, the window's products are formed
    from scratch instead.  That keeps each autocorrelation within about
    1e-13 of the per-window value, and makes it exact after an outlying row
    leaves or while a column is zero.

    SUM on its Gram route (see ``_cross_route``) takes its sums from one
    Gram matrix per block, formed over the block's w + 63 rows with its
    diagonal zeroed.  ``_gram_pair_sums`` forms each elementwise product
    once for the block, and each window sums the w x w block of it on the
    diagonal: the sums of ``sum_test``, in which nothing cancels.  On the
    cross route it takes ||X[l:]' X[:n-l]||_F^2 from the rolled products,
    unless a dominant row makes the pair sum ||X'X||_F^2 - sum_t |x_t|^4
    cancel by more than the rolled rounding allows; then it forms them
    from scratch.

    Extra memory: O((K+1) p^2) for the products and O((w + 64)^2) for the
    Gram block.
    """
    x = panel.values
    p = panel.p
    w = window
    num_windows = panel.n - w
    gram_route = not _cross_route(w, p, lags)
    row_max = np.abs(x).max(axis=1)
    sq = None if gram_route else np.einsum("ti,ti->t", x, x)
    left = np.empty((lags + 1, p, 2))
    right = np.empty((lags + 1, 2, p))
    update = np.empty((lags + 1, p, p))
    for s in range(num_windows):
        rows = x[s : s + w]
        offset = s % WINDOW_BLOCK
        if offset:
            a = s - 1
            left[:, :, 0] = x[a + w]
            np.negative(x[a : a + lags + 1], out=left[:, :, 1])
            right[:, 0, :] = x[a + w - lags : a + w + 1][::-1]
            right[:, 1, :] = x[a]
            np.matmul(left, right, out=update)
            products = products + update
            rolled += 1
            bound += UNIT_ROUNDOFF * (
                row_max[a + w] * row_max[a + w - lags : a + w + 1].sum()
                + row_max[a] * row_max[a : a + lags + 1].sum()
            )
        if not offset or bound > ROLLING_TOLERANCE * np.diagonal(products[0]).min():
            products, rolled, bound = lag_products(rows, lags), 0, 0.0
        if gram_route:
            if not offset:
                block = x[s : s + w - 1 + min(WINDOW_BLOCK, num_windows - s)]
                block_sums = _gram_pair_sums(block, lags, w)
            pair_sums = block_sums[offset]
        else:
            window_sq = sq[s : s + w]
            pair_sums = _cross_pair_sums(products, window_sq, lags)
            # The pair sum is ||X'X||_F^2 - sum_t |x_t|^4, and each update
            # rounds the rolled ||X'X||_F^2 by about 2u of itself.  When a
            # dominant row makes the difference cancel, form it afresh.
            off_diagonal = pair_sums[0]
            frob = off_diagonal + float(window_sq @ window_sq)
            if rolled and 2 * rolled * UNIT_ROUNDOFF * frob > ROLLING_TOLERANCE * off_diagonal:
                products, rolled, bound = lag_products(rows, lags), 0, 0.0
                pair_sums = _cross_pair_sums(products, window_sq, lags)
        products.flags.writeable = False
        yield TimeSeriesPanel._window(rows, _Moments(products, pair_sums))


def sliding_window_rates(
    panel: TimeSeriesPanel, window: int, lags: int, alpha: float = 0.05
) -> SlidingWindowSummary:
    """Test every length-``window`` sliding window of the panel.

    Window starts run over t = 1..T-window (so there are exactly
    T-window windows), and each rate is the fraction of windows whose
    test rejects at level alpha.  Every window gets one ``run_all`` call
    on a panel from ``_window_panels``, which rolls the lag products from
    window to window and shares one Gram matrix among 64 windows; the
    statistics match ``run_all`` on a fresh panel of the same rows to
    about 1e-13.  The window, K and alpha are checked before any window
    is formed.
    """
    t = panel.n
    if not isinstance(window, (int, np.integer)) or isinstance(window, bool):
        raise ConfigError(f"window length must be an integer, got {window!r}")
    if window < MIN_ROWS:
        raise ConfigError(f"window length must be at least {MIN_ROWS}, got {window}")
    if window >= t:
        raise ConfigError(
            f"window length must be shorter than the panel ({t} rows), got {window}"
        )
    check_run_all_arguments(window, panel.p, lags, alpha)
    num_windows = t - window
    counts = [0, 0, 0]
    for piece in _window_panels(panel, window, lags):
        report = run_all(piece, lags, alpha)
        counts[0] += int(report.reject_max)
        counts[1] += int(report.reject_sum)
        counts[2] += int(report.reject_fc)
    return SlidingWindowSummary(
        window_length=window,
        lags=lags,
        alpha=alpha,
        num_windows=num_windows,
        rate_max=counts[0] / num_windows,
        rate_sum=counts[1] / num_windows,
        rate_fc=counts[2] / num_windows,
    )

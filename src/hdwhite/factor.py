"""Three-factor regression residuals and sliding-window testing.

Each asset's excess return is regressed on an intercept plus the three
classic factors (market excess, size, value); the per-asset residuals
form a panel that is then white-noise tested on every sliding window of
a chosen length, summarizing how often each test rejects.  The windows and
their lagged moments come from ``panel._window_panels``, a block of 64
windows at a time, and the blocks run as jobs of ``harness.run_jobs``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    ConfigError, DataError, check_array, check_integer, check_level, check_probability,
)
from .harness import run_jobs
from .panel import TimeSeriesPanel, _window_blocks, _window_panels, read_csv_array
from .statistics import check_run_all_arguments, run_all

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
        y = check_array("excess returns", self.excess_returns, DataError, copy=True)
        f = check_array("factors", self.factors, DataError, copy=True)
        if f.shape[1] != 3:
            raise DataError(f"factors must be T x 3, got shape {f.shape}")
        if y.shape[0] != f.shape[0]:
            raise DataError(
                f"returns and factors must have equal row counts, got "
                f"{y.shape[0]} and {f.shape[0]}"
            )
        if y.shape[0] < MIN_ROWS:
            raise DataError(f"need at least {MIN_ROWS} rows, got {y.shape[0]}")
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
        check_integer("window_length", self.window_length, 1)
        check_integer("lags", self.lags, 1)
        check_level("alpha", self.alpha)
        check_integer("num_windows", self.num_windows, 1)
        for name in ("rate_max", "rate_sum", "rate_fc"):
            check_probability(name, getattr(self, name))

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
    # R is exactly upper triangular and, past the rank check, has no zero
    # pivot, so the general solver's LU factorization leaves it as it is.
    coef = np.linalg.solve(r, q.T @ data.excess_returns)
    residuals = data.excess_returns - design @ coef
    return TimeSeriesPanel(residuals)


def _block_rejections(panel: TimeSeriesPanel, window: int, lags: int, alpha: float, block: int):
    """The reject counts of MAX, SUM and FC over the windows of one block:
    one job of ``sliding_window_rates``.

    Moments that overflow float64 are not finite, and ``run_all`` raises
    ``DataError`` for them; numpy's warnings while the windows form them
    are silenced.
    """
    counts = [0, 0, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        for piece in _window_panels(panel, window, lags, block):
            report = run_all(piece, lags, alpha)
            counts[0] += int(report.reject_max)
            counts[1] += int(report.reject_sum)
            counts[2] += int(report.reject_fc)
    return counts


def sliding_window_rates(
    panel: TimeSeriesPanel, window: int, lags: int, alpha: float = 0.05, workers: int = 1
) -> SlidingWindowSummary:
    """Test every length-``window`` sliding window of the panel.

    Window starts run over t = 1..T-window (so there are exactly
    T-window windows), and each rate is the fraction of windows whose
    test rejects at level alpha.  Every window gets one ``run_all`` call
    on a panel from ``panel._window_panels``, which rolls the lag products
    from window to window for MAX and shares one Gram matrix among 64
    windows for SUM, whatever SUM's route on a fresh panel; the
    statistics match ``run_all`` on a fresh panel of the same rows to
    about 1e-13, with a dominant row too.

    Each block of 64 windows starts from scratch, so each is
    one job of ``harness.run_jobs``, the scheduler the Monte Carlo harness
    runs on: ``workers`` counts the processes that test blocks, this one
    included, and no more of them start than there are blocks.  The panel
    reaches each helper process once, as a process argument: a forked
    helper inherits it, a spawned one unpickles it once.  A block's counts
    do not depend on which process tested it, so the summary is the same
    for any worker count, and so is the error of a failing window: the
    first in window order.  The window (an integer), K and alpha are
    checked before any window is formed, and the worker count before any
    helper starts.
    """
    t = panel.n
    window = check_integer("window length", window, MIN_ROWS)
    if window >= t:
        raise ConfigError(
            f"window length must be shorter than the panel ({t} rows), got {window}"
        )
    alpha = check_run_all_arguments(window, panel.p, lags, alpha)
    num_windows = t - window
    task = partial(_block_rejections, panel, window, lags, alpha)
    blocks = run_jobs(task, _window_blocks(num_windows), workers)
    counts = [sum(column) for column in zip(*blocks)]
    return SlidingWindowSummary(
        window_length=window,
        lags=int(lags),
        alpha=alpha,
        num_windows=num_windows,
        rate_max=counts[0] / num_windows,
        rate_sum=counts[1] / num_windows,
        rate_fc=counts[2] / num_windows,
    )

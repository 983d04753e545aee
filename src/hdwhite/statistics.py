"""The three white-noise tests for a high-dimensional panel.

- Max test: largest root-n scaled absolute entry of the lag-1..K sample
  autocorrelation matrices, squared and recentred so its null limit is an
  extreme-value law.  Powerful against a few large autocorrelations.
- Sum test: a U-statistic aggregating lagged inner products of the
  observations, studentized so its null limit is standard normal.
  Powerful against many small autocorrelations.
- Fisher combination: -2 log of each test's p-value, summed; null limit
  chi-square with 4 degrees of freedom.  Hedges between the two regimes.

The lagged moments both tests read are formed, carried and shared by
``panel``: MAX through ``_fresh_max_autocorrelation`` on a panel that
carries no moments and ``sample_autocorrelation`` on one that does, SUM
through ``_pair_sums``.  This module holds only the formulas on top of
them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .distributions import chi2_4_sf, gumbel_sf, std_normal_sf
from .errors import ConfigError, DataError, check_level, check_probability
from .panel import (
    TimeSeriesPanel, _fresh_max_autocorrelation, _pair_sums, check_lag_budget,
    sample_autocorrelation,
)

# Guard against log(0) when a p-value underflows to exactly zero.
P_VALUE_FLOOR = 1e-300


@dataclass(frozen=True)
class MaxResult:
    """Outcome of the max test."""

    t_max: float      # sqrt(n) * max_{1<=k<=K} max_{i,j} |corr_ij(k)|
    gumbel_y: float   # t_max^2 - 2 log(K p^2) + log log(K p^2)
    p_value: float
    K: int
    p_dim: int


@dataclass(frozen=True)
class SumResult:
    """Outcome of the sum test."""

    t_sum: float
    trace_sq_hat: float   # U-statistic estimate of tr(Sigma^2)
    sigma_s_hat: float    # plug-in null standard deviation of t_sum
    z_score: float
    p_value: float
    K: int


def max_test(panel: TimeSeriesPanel, lags: int) -> MaxResult:
    """Max test over lags 1..lags.  Lag 0 enters only through the scaling.

    The max runs over all p^2 entries of each autocorrelation matrix,
    diagonal included.  Requires p >= 2 so the recentring constants are
    defined.  The panel takes one of two paths, chosen once:

    - A panel that carries no moments (a fresh one, or one after
      ``sum_test``'s Gram route) goes to ``panel._fresh_max_autocorrelation``.
      It scales the columns to unit norm once and forms K lag products of
      them, no lag-0 product.  On a large enough panel each lag is
      screened in float32, and only the entries within the screen's
      rounding bound of its largest are computed again in float64, so
      ``t_max`` is the float64 value to a few ulps.  Working set: about
      0.63 p^2 + 1.5 n p floats.
    - A panel that carries its moments (a sliding window, or one after
      ``sum_test``'s cross route) scales each lag's carried product by
      the lag-0 diagonal through ``sample_autocorrelation``: no product
      formed up to the carried K.  Working set: the cached lag-0 matrix,
      one lag's autocorrelations, dropped before the next lag is formed,
      and a scaling block of at most 512 KiB.
    """
    n, p = panel.n, panel.p
    _check_max_arguments(n, p, lags)
    if panel._moments is None:
        largest = _fresh_max_autocorrelation(panel, lags)
    else:
        largest = 0.0
        for k in range(1, lags + 1):
            corr = sample_autocorrelation(panel, k)
            largest = max(largest, float(corr.max()), -float(corr.min()))
            del corr
    t_max = math.sqrt(n) * largest
    log_np = math.log(lags * p * p)
    y = t_max * t_max - 2.0 * log_np + math.log(log_np)
    return MaxResult(
        t_max=t_max, gumbel_y=y, p_value=gumbel_sf(y), K=int(lags), p_dim=p
    )


def _check_max_arguments(n: int, p: int, lags) -> None:
    check_lag_budget(n, lags)
    if p < 2:
        raise ConfigError(f"max test needs at least 2 columns, got p={p}")


def _check_sum_rows(n: int) -> None:
    if n < 4:
        raise ConfigError(f"sum test needs at least 4 rows, got n={n}")


def check_run_all_arguments(n: int, p: int, lags, alpha: float) -> float:
    """Raise the error ``run_all`` would raise on an n x p panel, before any
    work; return alpha as a Python float.  The lag budget, which both tests
    need, is checked once."""
    alpha = check_level("alpha", alpha)
    _check_max_arguments(n, p, lags)
    _check_sum_rows(n)
    return alpha


def sum_test(panel: TimeSeriesPanel, lags: int) -> SumResult:
    """Sum test over lags 1..lags.

    For each lag l the statistic sums x_t'x_s * x_{t+l}'x_{s+l} over
    ordered pairs t != s with both base indices in 1..n-l, then divides
    by n(n-1).  The studentizer is the U-statistic estimate of tr(Sigma^2)
    built from all ordered pairs.

    The sums come from ``panel._pair_sums``, by one of two routes.  The
    Gram route, when (K+1) p >= n, forms the n x n matrix X X':
    O(n^2 (p + K)) time and O(n^2) memory, none of it kept.  The cross
    route forms the K+1 p x p products X'X and X[l:]' X[:n-l] once,
    O((K+1) n p^2) time, and keeps them on the panel with the sums:
    (K+1) p^2 floats, fewer than the panel's n p, which ``max_test`` then
    reads.  Both routes give the same numbers up to rounding.  A panel
    that carries its moments up to some K >= lags (a sliding window, or a
    panel this test ran on before by the cross route) uses them as given.

    Raises ``DataError`` when a sum overflows float64 (entries of about
    1e77 and up), and then when the pair sum behind the studentizer is no
    larger than the rounding residue of its route, i.e. the rows are
    mutually orthogonal.
    """
    n = panel.n
    _check_sum_rows(n)
    check_lag_budget(n, lags)
    off_diagonal, residue, total = _pair_sums(panel, lags)
    if not all(map(math.isfinite, (off_diagonal, residue, total))):
        raise DataError(
            "sum-test sums overflow float64; the tests are scale-invariant, "
            "so rescale the panel"
        )
    pairs = n * (n - 1)
    trace_sq_hat = off_diagonal / pairs
    t_sum = total / pairs
    sigma_s_hat = math.sqrt(2.0 * lags / pairs) * trace_sq_hat
    if not (off_diagonal > residue and sigma_s_hat > 0.0):
        raise DataError(
            "sum-test scale estimate is zero; the panel's rows are mutually "
            "orthogonal so the statistic cannot be studentized"
        )
    z = t_sum / sigma_s_hat
    return SumResult(
        t_sum=t_sum,
        trace_sq_hat=trace_sq_hat,
        sigma_s_hat=sigma_s_hat,
        z_score=z,
        p_value=std_normal_sf(z),
        K=int(lags),
    )


def fisher_combine(p_max: float, p_sum: float) -> tuple[float, float]:
    """Fisher combination of the two p-values.

    Returns (t_fc, p_fc) where t_fc = -2 log p_max - 2 log p_sum and the
    p-value comes from the chi-square(4) upper tail.  Inputs are floored
    at 1e-300 so an underflowed p-value stays finite.
    """
    p_max = check_probability("p_max", p_max)
    p_sum = check_probability("p_sum", p_sum)
    t_fc = -2.0 * math.log(max(p_max, P_VALUE_FLOOR)) - 2.0 * math.log(
        max(p_sum, P_VALUE_FLOOR)
    )
    return t_fc, chi2_4_sf(t_fc)


# Column order of the flat report serialization.  Fixed: downstream
# tooling indexes by position.
REPORT_COLUMNS = (
    "n", "p", "K", "alpha",
    "t_max", "gumbel_y", "p_max",
    "t_sum", "z", "p_sum",
    "t_fc", "p_fc",
    "rej_max", "rej_sum", "rej_fc",
)


@dataclass(frozen=True)
class TestReport:
    """All three tests on one panel, with accept/reject decisions."""

    n: int
    p_dim: int
    K: int
    alpha: float
    max: MaxResult
    sum: SumResult
    t_fc: float
    p_fc: float
    reject_max: bool
    reject_sum: bool
    reject_fc: bool

    def to_flat_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p_dim,
            "K": self.K,
            "alpha": self.alpha,
            "t_max": self.max.t_max,
            "gumbel_y": self.max.gumbel_y,
            "p_max": self.max.p_value,
            "t_sum": self.sum.t_sum,
            "z": self.sum.z_score,
            "p_sum": self.sum.p_value,
            "t_fc": self.t_fc,
            "p_fc": self.p_fc,
            "rej_max": self.reject_max,
            "rej_sum": self.reject_sum,
            "rej_fc": self.reject_fc,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_flat_dict())

    @staticmethod
    def csv_header() -> str:
        return ",".join(REPORT_COLUMNS)

    def to_csv_row(self) -> str:
        d = self.to_flat_dict()
        cells = []
        for col in REPORT_COLUMNS:
            v = d[col]
            if isinstance(v, bool):
                cells.append(str(int(v)))
            elif isinstance(v, float):
                cells.append(repr(v))
            else:
                cells.append(str(v))
        return ",".join(cells)


def run_all(panel: TimeSeriesPanel, lags: int, alpha: float) -> TestReport:
    """Run the sum, max and Fisher-combined tests at level alpha, in that order:
    MAX reads the lag products SUM keeps, and SUM's error comes first."""
    alpha = check_run_all_arguments(panel.n, panel.p, lags, alpha)
    sm = sum_test(panel, lags)
    mx = max_test(panel, lags)
    t_fc, p_fc = fisher_combine(mx.p_value, sm.p_value)
    return TestReport(
        n=panel.n,
        p_dim=panel.p,
        K=int(lags),
        alpha=alpha,
        max=mx,
        sum=sm,
        t_fc=t_fc,
        p_fc=p_fc,
        reject_max=mx.p_value < alpha,
        reject_sum=sm.p_value < alpha,
        reject_fc=p_fc < alpha,
    )

"""The three white-noise tests for a high-dimensional panel.

- Max test: largest root-n scaled absolute entry of the lag-1..K sample
  autocorrelation matrices, squared and recentred so its null limit is an
  extreme-value law.  Powerful against a few large autocorrelations.
- Sum test: a U-statistic aggregating lagged inner products of the
  observations, studentized so its null limit is standard normal.
  Powerful against many small autocorrelations.
- Fisher combination: -2 log of each test's p-value, summed; null limit
  chi-square with 4 degrees of freedom.  Hedges between the two regimes.

``panel._shared_moments`` alone decides, from the panel's shape, which
lagged moments the two tests share, so each test's kernel (MAX's
``_max_autocorrelation``, SUM's ``_pair_sums``) and its bits do not
depend on which test ran first.  This module holds only the formulas.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .distributions import chi2_4_sf, gumbel_sf, std_normal_sf
from .errors import ConfigError, DataError, check_level, check_probability
from .panel import TimeSeriesPanel, _max_autocorrelation, _pair_sums, check_lag_budget

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
    defined.  ``panel._max_autocorrelation`` gives the largest entry: on
    SUM's Gram-route shapes, (K+1) p >= n, from unit columns, to a few ulps
    of the float64 value; on its cross-route shapes and sliding windows,
    from the lag products it shares with ``sum_test``, with the same bits
    whichever test runs first.
    """
    n, p = panel.n, panel.p
    _check_max_arguments(n, p, lags)
    t_max = math.sqrt(n) * _max_autocorrelation(panel, lags)
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

    The sums come from ``panel._pair_sums``, by one of two routes fixed by
    the shape.  The Gram route, when (K+1) p >= n, forms the n x n matrix
    X X': O(n^2 (p + K)) time and O(n^2) memory, none of it kept.  The
    cross route shares the K+1 p x p products X'X and X[l:]' X[:n-l] with
    ``max_test``: the first of the two forms them, in O((K+1) n p^2)
    time, and keeps them on the panel with the sums, (K+1) p^2 floats.
    Both routes agree up to rounding, also with one dominant row.  On a
    panel that ``from_array(center=True)`` centred, ``_centring_corrected``
    then takes out the mean that centring adds.

    Raises ``DataError`` when a sum overflows float64 (entries of about
    1e77 and up), and then when the pair sum behind the studentizer is no
    larger than ``panel.SCALE_RESOLUTION`` of its reference, i.e. the rows
    are mutually orthogonal.  The overflow check comes first: without it a
    60 x 8 Gaussian panel in units of 1e80 was reported as orthogonal,
    after four ``RuntimeWarning``s.
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
    if panel._centred:
        off_diagonal, total = _centring_corrected(panel.values, lags, off_diagonal, total)
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


def _centring_corrected(x, lags: int, off_diagonal: float, total: float):
    """SUM's pair sum and total on a panel that ``from_array(center=True)``
    centred, with the mean that centring adds taken out.

    Centred Gaussian rows have Cov(x_t, x_s) = (delta_ts - 1/n) Sigma.
    Write A = (tr Sigma)^2 and B = tr Sigma^2.  Lag l sums over
    m_l = (n-l)(n-l-1) ordered pairs, c_l = max(n - 2l, 0) of them l apart,
    and Isserlis gives its mean E[S_l] = (m_l A + (2 m_l - 2 c_l n) B) / n^2,
    against 0 before centring.  The estimates, solved together:
    tr Sigma^ = sum_t |x_t|^2 / (n-1), A^ = (tr Sigma^)^2 - 2 B^ / (n-1) and
    B^ = trace_sq_hat - A^ / n^2.  Returns the pair sum n(n-1) B^, which
    studentizes, and the total less sum_l E[S_l] at (A^, B^).
    """
    n = x.shape[0]
    trace = float(np.vdot(x, x)) / (n - 1)
    b = (off_diagonal / (n * (n - 1)) - trace * trace / n**2) / (1.0 - 2.0 / ((n - 1) * n**2))
    a = trace * trace - 2.0 * b / (n - 1)
    pairs = sum((n - lag) * (n - lag - 1) for lag in range(1, lags + 1))
    apart = sum(max(n - 2 * lag, 0) for lag in range(1, lags + 1))
    mean = (pairs * a + (2 * pairs - 2 * apart * n) * b) / n**2
    return n * (n - 1) * b, total - mean


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
    """Run the sum, max and Fisher-combined tests at level alpha, in that
    order, so that SUM's error comes first."""
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

"""The three white-noise tests for a high-dimensional panel.

- Max test: largest root-n scaled absolute entry of the lag-1..K sample
  autocorrelation matrices, squared and recentred so its null limit is an
  extreme-value law.  Powerful against a few large autocorrelations.
- Sum test: a U-statistic aggregating lagged inner products of the
  observations, studentized so its null limit is standard normal.
  Powerful against many small autocorrelations.
- Fisher combination: -2 log of each test's p-value, summed; null limit
  chi-square with 4 degrees of freedom.  Hedges between the two regimes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .distributions import chi2_4_sf, gumbel_sf, std_normal_sf
from .errors import ConfigError, DataError
from .panel import TimeSeriesPanel, check_lag_budget, lag_products, sample_autocorrelation

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
    defined.  Cost: K+1 p x p products per panel, the K lag products
    and the lag-0 product, which the panel computes once and caches (see
    ``sample_autocovariance``); none on a sliding-window panel, which
    carries them.
    """
    n, p = panel.n, panel.p
    _check_max_arguments(n, p, lags)
    largest = 0.0
    for k in range(1, lags + 1):
        corr = sample_autocorrelation(panel, k)
        largest = max(largest, float(corr.max()), -float(corr.min()))
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


def _check_sum_arguments(n: int, lags) -> None:
    if n < 4:
        raise ConfigError(f"sum test needs at least 4 rows, got n={n}")
    check_lag_budget(n, lags)


def check_run_all_arguments(n: int, p: int, lags, alpha: float) -> None:
    """Raise the error ``run_all`` would raise on an n x p panel, before any work."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    _check_max_arguments(n, p, lags)
    _check_sum_arguments(n, lags)


# A pair sum below this fraction of its route's reference counts as zero:
# the rows are mutually orthogonal and SUM cannot be studentized.
#
# The cross route forms the pair sum as ||X'X||_F^2 minus sum_t |x_t|^4.
# When every pair of rows is orthogonal, that difference still leaves a
# residue of a few machine epsilons of ||X'X||_F^2 (at most 8e-16 of it
# over 23,000 random such panels), so ||X'X||_F^2 is its reference.
#
# The Gram route sums squared off-diagonal entries, with no cancellation.
# A computed x_t'x_s of two orthogonal rows is at most about p u |x_t| |x_s|
# (u the unit roundoff), and rows orthogonal only to rounding, such as
# those of a computed orthogonal basis, are off by about as much.  So its
# reference is sum_{t != s} |x_t|^2 |x_s|^2, against which the pair sum is
# a mean squared cosine between rows, and rounding leaves (p u)^2 of it
# or less.  ||X'X||_F^2 would not do there: one dominant row's |x_t|^4
# swamps it (a 60 x 30 panel with one row scaled by 1e7 read as orthogonal).
SCALE_RESOLUTION = 1e-12


def _gram_pair_sums(gram: np.ndarray, sq: np.ndarray, lags: int, window: int):
    """The three sums ``sum_test`` needs, for every run of ``window`` consecutive rows.

    ``gram`` holds x_t'x_s for t != s and zeros on its diagonal, and
    ``sq`` the squared row norms |x_t|^2 it had there.  For each run, the
    ``window`` x ``window`` block on the diagonal, returns the sum over
    pairs t != s of (x_t'x_s)^2; the residue below which that sum counts as
    zero (see ``SCALE_RESOLUTION``); and the sum over lags l = 1..K and
    pairs t != s of x_t'x_s x_{t+l}'x_{s+l}.  Each elementwise product is
    formed once for all runs and each run sums its block of it, so every
    sum is a plain sum over the t != s entries and nothing cancels; the
    residue's pair sum of |x_t|^2 |x_s|^2 is formed from running sums of
    ``sq``.  With ``window`` the full size there is one run.
    """
    n = sq.shape[0]
    runs = range(n - window + 1)

    def block_sums(products, size):
        return [float(products[i : i + size, i : i + size].sum()) for i in runs]

    off_diagonal = block_sums(gram * gram, window)
    totals = [0.0] * len(runs)
    for l in range(1, lags + 1):
        lagged = block_sums(gram[: n - l, : n - l] * gram[l:, l:], window - l)
        totals = [total + part for total, part in zip(totals, lagged)]
    residues = []
    for i in runs:
        run_sq = sq[i : i + window]
        residues.append(SCALE_RESOLUTION * 2.0 * float(run_sq[1:] @ np.cumsum(run_sq[:-1])))
    return list(zip(off_diagonal, residues, totals))


def _cross_pair_sums(products: np.ndarray, sq: np.ndarray, lags: int):
    """The sums of ``_gram_pair_sums``, from the raw lag products of ``lag_products``.

    Uses sum_{t,s} x_t'x_s x_{t+l}'x_{s+l} = ||X[l:]' X[:n-l]||_F^2 and
    subtracts the t = s terms, sum_t |x_t|^2 |x_{t+l}|^2 (``sq`` holds the
    |x_t|^2).  The residue is ``SCALE_RESOLUTION`` of ||X'X||_F^2.
    """
    n = sq.shape[0]
    total = 0.0
    for l in range(1, lags + 1):
        total += float(np.square(products[l]).sum()) - float(sq[l:] @ sq[: n - l])
    frob = float(np.square(products[0]).sum())
    return frob - float(sq @ sq), SCALE_RESOLUTION * frob, total


def _pair_sums_from_gram(x: np.ndarray, lags: int) -> tuple[float, float, float]:
    """``_gram_pair_sums`` of the n x n Gram matrix X X', as one run.

    O(n^2 (p + K)) time and O(n^2) memory.
    """
    gram = x @ x.T
    sq = np.diagonal(gram).copy()
    np.fill_diagonal(gram, 0.0)
    return _gram_pair_sums(gram, sq, lags, x.shape[0])[0]


def _pair_sums_from_cross_products(x: np.ndarray, lags: int) -> tuple[float, float, float]:
    """``_cross_pair_sums`` of X'X and the K lag products.

    O((K+1) n p^2) time and O(n + (K+1) p^2) memory.
    """
    sq = np.einsum("ti,ti->t", x, x)
    return _cross_pair_sums(lag_products(x, lags), sq, lags)


def sum_test(panel: TimeSeriesPanel, lags: int) -> SumResult:
    """Sum test over lags 1..lags.

    For each lag l the statistic sums x_t'x_s * x_{t+l}'x_{s+l} over
    ordered pairs t != s with both base indices in 1..n-l, then divides
    by n(n-1).  The studentizer is the U-statistic estimate of tr(Sigma^2)
    built from all ordered pairs.

    The sums come from one of two routes, picked by shape.  The Gram
    route forms the n x n matrix X X': O(n^2 (p + K)) time and O(n^2)
    memory.  The cross-product route forms the K+1 p x p products X'X
    and X[l:]' X[:n-l]: O((K+1) n p^2) time and O(p^2) memory.  The ratio
    of the two costs is about (K+1) p / n, so the cross products are used
    when (K+1) p < n and the Gram matrix otherwise.  Both routes give the
    same numbers up to rounding.  A window panel from
    ``factor.sliding_window_rates`` carries its sums at the K it was made
    for, taken from the same route by the engine, and they are used as
    given.

    Raises ``DataError`` when the pair sum behind the studentizer is no
    larger than the rounding residue of its route, i.e. the rows are
    mutually orthogonal.
    """
    n = panel.n
    _check_sum_arguments(n, lags)
    moments = panel._moments
    if moments is not None and moments.lags == lags:
        off_diagonal, residue, total = moments.pair_sums
    elif (lags + 1) * panel.p < n:
        off_diagonal, residue, total = _pair_sums_from_cross_products(panel.values, lags)
    else:
        off_diagonal, residue, total = _pair_sums_from_gram(panel.values, lags)
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
    for name, value in (("p_max", p_max), ("p_sum", p_sum)):
        if not 0.0 <= value <= 1.0 or math.isnan(value):
            raise ConfigError(f"{name} must lie in [0, 1], got {value}")
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
    """Run the max, sum, and Fisher-combined tests at level alpha."""
    check_run_all_arguments(panel.n, panel.p, lags, alpha)
    mx = max_test(panel, lags)
    sm = sum_test(panel, lags)
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

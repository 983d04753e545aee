"""Time-series panels and their lagged sample moments.

A panel holds n observations of a p-dimensional series, one row per time
point.  Autocovariances use the fixed 1/n divisor at every lag and no
mean adjustment; an optional centering step at construction is the only
place the mean is ever touched.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DataError, DegenerateColumnError, LagError, ParseError, check_array, check_integer,
)

# A column whose sample second moment falls at or below this cannot be
# autocorrelated; the offending column is named in the error.
DEGENERATE_VARIANCE_TOL = 1e-12

# A pair sum at or below this fraction of sum_{t != s} |x_t|^2 |x_s|^2
# counts as zero: the rows are mutually orthogonal and SUM cannot be
# studentized.  Against that reference the pair sum is a mean squared
# cosine between rows.  Rounding leaves (p u)^2 of it or less (u the unit
# roundoff) for rows orthogonal only to rounding, such as those of a
# computed orthogonal basis, and the cross route's split a few u (see
# ``_cross_pair_sums``).  ||X'X||_F^2 would not do as the reference: one
# dominant row's |x_t|^4 swamps it.
SCALE_RESOLUTION = 1e-12
# Once the rounding of the cross route's pair sum may pass this fraction
# of it, the route splits off its ``_SPLIT_ROWS`` largest rows.
_CANCELLATION_TOLERANCE = 3e-16
_SPLIT_ROWS = 16

# The window engine forms its lag products and one Gram matrix from
# scratch once per block of this many windows...
WINDOW_BLOCK = 64
# ...and also whenever the rounding bound of its rolled products passes
# this fraction of the smallest lag-0 diagonal entry.
ROLLING_TOLERANCE = 1e-13
# The unit roundoff of float64, 2^-53.
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2

# float32's unit roundoff, 2^-24: MAX's screen rounds to it.
_SCREEN_ROUNDOFF = 2.0**-24
# MAX screens its lags in float32 when one lag's product takes n p^2 at or
# above this many multiply-adds.  Below it the screen's fixed cost, some
# 20 us a lag, outweighs the half of the product it saves.
_SCREEN_MIN_WORK = 2**20


@dataclass(frozen=True)
class _Moments:
    """A panel's lagged moments up to some K, formed once and carried.

    ``products[k]`` is the raw lag-k product X[k:]' X[:n-k] for k = 0..K,
    read-only.  ``pair_sums`` is SUM's (pair sum, residue, lag terms), the
    terms one per lag l = 1..K (see ``_gram_pair_sums``).  Both serve
    every K' <= K.
    """

    products: np.ndarray
    pair_sums: tuple[float, float, tuple[float, ...]]

    @property
    def lags(self) -> int:
        return self.products.shape[0] - 1


@dataclass(frozen=True, eq=False)
class TimeSeriesPanel:
    """Immutable n x p panel of observations, rows indexed by time.

    The constructor stores a C-contiguous, read-only float64 copy of the
    input, so the panel never aliases the caller's array.  Beside it the
    panel keeps only the lag products ``_shared_moments`` carries (see
    ``_Moments``); every other moment is formed on demand.  Equality and
    hashing are by identity, as for any object.
    """

    values: np.ndarray = field(repr=False)
    # Lagged moments up to some K, set by ``_window_panels`` or ``_shared_moments``.
    _moments: _Moments | None = field(default=None, init=False, repr=False)
    # Set by ``from_array(center=True)`` alone, for ``sum_test``'s correction.
    _centred: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        values = check_array("panel", self.values, DataError, copy=True)
        n, p = values.shape
        if n < 2:
            raise DataError(f"panel needs at least 2 rows, got {n}")
        if p < 1:
            raise DataError("panel needs at least 1 column")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_array(cls, values, center: bool = False) -> "TimeSeriesPanel":
        """Build a panel from array-like data.

        ``center=True`` subtracts each column's mean once, here and only
        here; all downstream moments use the stored values as-is, and
        ``sum_test`` takes out the bias centring puts in its statistic.
        The raw values are checked first, as for ``center=False``; a column
        whose centring overflows float64 then raises ``DataError`` naming it.
        """
        panel = cls(values)
        if center:
            centred = panel.values  # a fresh copy no one else holds yet: centred in place
            centred.flags.writeable = True
            with np.errstate(over="ignore", invalid="ignore"):
                centred -= centred.mean(axis=0, keepdims=True)
            centred.flags.writeable = False
            overflowed = ~np.isfinite(centred).all(axis=0)
            if overflowed.any():
                raise DataError(
                    f"centring column {int(np.argmax(overflowed)) + 1} overflows float64; "
                    f"the tests are scale-invariant, so rescale the panel"
                )
            object.__setattr__(panel, "_centred", True)
        return panel


def check_lag_budget(n: int, lags: int) -> None:
    """Require a lag budget K with 1 <= K <= n - 2 for an n-row panel."""
    check_integer("number of lags", lags, error=LagError)
    if lags < 1 or lags > n - 2:
        raise LagError(f"number of lags {lags} out of range [1, {n - 2}] for n={n}")


def _check_lag(n: int, lag) -> None:
    check_integer("lag", lag, error=LagError)
    if lag < 0 or lag > n - 1:
        raise LagError(f"lag {lag} out of range [0, {n - 1}] for n={n}")


def sample_autocovariance(panel: TimeSeriesPanel, lag: int) -> np.ndarray:
    """Lag-k sample autocovariance matrix with divisor n.

    Entry (i, j) is (1/n) * sum_{t=1}^{n-k} x[t+k, i] * x[t, j].  The
    divisor stays n for every lag, and no mean is subtracted.

    Every lag, 0 included, is a fresh, writable p x p array, and the only
    one the call makes: the panel's carried product (see ``_Moments``)
    divided by n, or else X[k:]' X[:n-k] formed and divided in place.
    Products from ``_shared_moments`` are the same bits; rolled ones
    from ``_window_panels`` agree to about 1e-13 of the smallest lag-0
    diagonal entry.  MAX calls this only where ``_shared_moments`` gives
    moments up to its K (see ``_carried_autocorrelation``).

    Lag 0 is exactly symmetric with no pass to make it so: numpy forms
    X'X by a symmetric rank-k update, which computes each entry once and
    mirrors it, and the window engine's updates x_a x_a' - x_b x_b' add
    the same products, in the same order, to entries (i, j) and (j, i).
    So (C + C')/2 would give back C bit for bit; ``tests/test_panel.py``
    checks exact symmetry on every route that forms C.
    """
    _check_lag(panel.n, lag)
    n = panel.n
    moments = panel._moments
    if moments is not None and lag <= moments.lags:
        return moments.products[lag] / n
    x = panel.values
    cov = x[lag:].T @ x[: n - lag]
    cov /= n
    return cov


def lag_products(x: np.ndarray, lags: int) -> np.ndarray:
    """The raw products X[k:]' X[:n-k] for k = 0..lags, stacked (lags+1, p, p).

    No divisor: ``sample_autocovariance`` divides by n.
    """
    n, p = x.shape
    out = np.empty((lags + 1, p, p))
    for k in range(lags + 1):
        np.matmul(x[k:].T, x[: n - k], out=out[k])
    return out


def sample_autocorrelation(panel: TimeSeriesPanel, lag: int) -> np.ndarray:
    """Lag-k sample autocorrelation matrix, a fresh, writable p x p array.

    Entry (i, j) is the lag-k autocovariance (i, j) over the square root
    of the lag-0 variances of columns i and j.  A variance at or below
    ``DEGENERATE_VARIANCE_TOL`` makes that meaningless and raises,
    naming the first offending column (1-based); a bad lag raises
    ``LagError`` before any of that.  One path, whatever the panel
    carries: its columns are scaled to unit norm once, Y = X / |X|, and
    Y[k:]' Y[:n-k] is returned, so the divisor n cancels and no X'X is
    formed.  It never reads the products a test left on the panel, so its
    bits do not depend on which tests ran first.  A call holds Y and the
    result.
    """
    _check_lag(panel.n, lag)
    y = _unit_columns(panel)
    return y[lag:].T @ y[: panel.n - lag]


def _check_variances(variances: np.ndarray) -> None:
    """Raise ``DataError`` naming the first column whose sum of squares is
    not finite, since it overflowed float64, and then
    ``DegenerateColumnError`` naming the first column whose sample
    variance is at or below ``DEGENERATE_VARIANCE_TOL``.  Both of MAX's
    paths call this, so both raise alike.  Without the overflow check MAX
    would return t_max = 0.0 on a panel in units of 1e155."""
    if not variances.max() < math.inf:
        col = int(np.argmin(np.isfinite(variances))) + 1
        raise DataError(
            f"column {col}'s sum of squares overflows float64; the tests are "
            f"scale-invariant, so rescale the panel"
        )
    low = np.nonzero(variances <= DEGENERATE_VARIANCE_TOL)[0]
    if low.size:
        col = int(low[0]) + 1
        raise DegenerateColumnError(
            f"column {col} has sample variance {variances[low[0]]:.3e} <= "
            f"{DEGENERATE_VARIANCE_TOL:g}; autocorrelations are undefined"
        )


def _unit_columns(panel: TimeSeriesPanel) -> np.ndarray:
    """The panel's columns scaled to unit Euclidean norm, a fresh n x p array.

    Checks the sample variances |x_i|^2 / n with ``_check_variances``
    first.  Y[k:]' Y[:n-k] is then the lag-k autocorrelation matrix.
    """
    x = panel.values
    norms = np.einsum("ti,ti->i", x, x)
    _check_variances(norms / panel.n)
    return x / np.sqrt(norms)


def _carried_autocorrelation(panel: TimeSeriesPanel, lag: int) -> np.ndarray:
    """MAX's lag-k autocorrelations on a panel whose moments reach ``lag``:
    the lag-k autocovariance times ``np.outer(s, s)`` in place, with s the
    inverse square roots of the lag-0 diagonal, which is dropped before
    lag k is formed; a call holds the result and one p x p scale matrix
    beside the carried stack, and leaves nothing on the panel.

    The bits are those of ``(X[k:]' X[:n-k] / n) * np.outer(s, s)``.  This
    step is MAX's alone: the public ``sample_autocorrelation`` takes the
    unit-column path on every panel.
    """
    variances = np.diagonal(sample_autocovariance(panel, 0)).copy()
    _check_variances(variances)
    inv_scale = 1.0 / np.sqrt(variances)
    corr = sample_autocovariance(panel, lag)
    # np.outer(inv_scale, inv_scale)'s bits, without its call overhead,
    # which shows at small p.
    corr *= inv_scale[:, None] * inv_scale
    return corr


def _max_autocorrelation(panel: TimeSeriesPanel, lags: int) -> float:
    """The largest |autocorrelation| over lags 1..``lags``: MAX's kernel.

    Where ``_shared_moments`` gives moments (a sliding window, or a
    ``_cross_route`` shape), each lag comes from ``_carried_autocorrelation``.

    A Gram-route shape forms no X'X: its columns are scaled to unit norm
    once (``_unit_columns``).  From ``_SCREEN_MIN_WORK`` multiply-adds a
    lag on, each lag is screened by a float32 product Y32[k:]' Y32[:n-k]
    in one reused p x p buffer, whose entries are within half of
    ``_screen_slack(n)`` of the exact ones.  The entries within the slack
    of the screen's largest, the candidates, are computed again as
    float64 dot products of Y's columns; the largest is the lag's.  A lag
    with more than p candidates (tied columns, or an n so large that the
    slack stops separating entries) takes its float64 product instead,
    and later lags skip the screen.  Smaller panels take float64 products.
    Either way the largest entry is the float64 value to a few ulps: the
    tests hold ``t_max`` within 4e-15, relative, of a long-double oracle.

    Working set: Y, its float32 copy, the float32 buffer and its p^2-byte
    mask, about 0.63 p^2 + 1.5 n p floats, and at most 2 p n gathered
    floats, or one p x p float64 array in a lag that falls back.
    """
    n, p = panel.n, panel.p
    carried = _shared_moments(panel, lags) is not None
    if not carried:
        y = _unit_columns(panel)
    screen = not carried and n * p * p >= _SCREEN_MIN_WORK
    if screen:
        y32 = y.astype(np.float32)
        buffer = np.empty((p, p), dtype=np.float32)
        slack = _screen_slack(n)
    largest = 0.0
    for k in range(1, lags + 1):
        if screen:
            np.matmul(y32[k:].T, y32[: n - k], out=buffer)
            np.abs(buffer, out=buffer)
            candidates = _screen_candidates(buffer, slack)
            if candidates is not None:
                i, j = np.divmod(candidates, p)
                refined = np.einsum("ti,ti->i", y[k:, i], y[: n - k, j])
                largest = max(largest, float(np.abs(refined).max()))
                continue
            screen = False
            del y32, buffer
        corr = _carried_autocorrelation(panel, k) if carried else y[k:].T @ y[: n - k]
        largest = max(largest, float(corr.max()), -float(corr.min()))
        del corr
    return largest


def _screen_slack(n: int) -> float:
    """Twice the bound g on the error of a float32 screen entry for unit
    columns of n rows, g = gamma(n + 3) + n 2^-124.

    gamma(m) = m u / (1 - m u) with u = 2^-24.  A dot product a'b whose
    terms round m times in all is off by at most gamma(m) |a|'|b|, and
    |a|'|b| <= 1 for unit columns.  The two casts and the n products and
    sums round n + 2 times; one more covers Y's norms, which are 1 only to
    float64 rounding, and the threshold that ``_screen_candidates``
    compares with, which numpy rounds to float32; the last term covers
    underflow.
    """
    m = (n + 3) * _SCREEN_ROUNDOFF
    return 2.0 * (m / (1.0 - m) + n * 2.0**-124)


def _screen_candidates(screen: np.ndarray, slack: float):
    """Flat indices of the entries of ``screen``, a p x p array of
    magnitudes, within ``slack`` of its largest; None when there are more
    than p of them, so that no more than p are ever gathered."""
    candidates = screen >= float(screen.max()) - slack
    if np.count_nonzero(candidates) > screen.shape[0]:
        return None
    # np.nonzero on the 2-d mask would take ten times as long.
    return np.flatnonzero(candidates)


def _cross_route(n: int, p: int, lags: int) -> bool:
    """Whether SUM's sums come from the K+1 p x p lag products, not X X' (see ``sum_test``)."""
    return (lags + 1) * p < n


def _gram_pair_sums(x: np.ndarray, lags: int):
    """SUM's sums over all rows of ``x``, from its Gram matrix.

    Forms the Gram matrix X X' of ``x`` once, zeroes its diagonal and keeps
    the squared row norms |x_t|^2 from it in ``sq``.  Returns the sum over
    pairs t != s of (x_t'x_s)^2; the residue below which that sum counts as
    zero (see ``SCALE_RESOLUTION``); and for each lag l = 1..K the sum over
    pairs t != s of x_t'x_s x_{t+l}'x_{s+l}.  Each is a plain sum of one
    elementwise product over the t != s entries, so nothing cancels: with
    one row scaled by 1e5 the sums stay within 1e-13 of a long-double
    oracle.  ``_band_pair_sums`` gives the same sums for every run of a
    sliding window.
    """
    gram = x @ x.T
    sq = np.diagonal(gram).copy()
    np.fill_diagonal(gram, 0.0)
    n = sq.shape[0]
    terms = tuple(
        float((gram[: n - l, : n - l] * gram[l:, l:]).sum()) for l in range(1, lags + 1)
    )
    return float((gram * gram).sum()), _residue(sq), terms


def _residue(sq: np.ndarray) -> float:
    """``SCALE_RESOLUTION`` of sum_{t != s} |x_t|^2 |x_s|^2, ``sq`` holding the |x_t|^2."""
    return SCALE_RESOLUTION * 2.0 * float(sq[1:] @ np.cumsum(sq[:-1]))


def _band_pair_sums(x: np.ndarray, lags: int, window: int):
    """The sums of ``_gram_pair_sums`` for every run of ``window`` consecutive rows of ``x``.

    Forms the Gram matrix X X' of ``x`` once and lays it out as a band:
    row a holds the w - 1 entries x_a'x_{a+d}, d = 1..w-1, to the right of
    the diagonal, zero past the last row of ``x``.  Four kinds of band
    product follow, one at a time: the squares, for the pair sum; rows a
    and a+l multiplied, for each lag term l = 1..K; and |x_a|^2 |x_{a+d}|^2,
    for the residue.  Running sums along each band row, read at the run's
    last column and added over the run's rows, give twice the run's sum
    over pairs t < s.

    Every sum is a plain sum of the run's own terms, so nothing cancels,
    and each running sum starts inside its run, at row a's first right
    neighbour: a large row outside a run never reaches that run's sums.
    With r = n - w + 1 runs, the work is O(n^2 p) for X X' and
    O((K + 2) n w) for the rest, not O((K + 2) r w^2); the memory, an
    n x (n + w) Gram band and one n x w band product.  A summed-area
    table over one T x T Gram matrix was tried instead and rejected: it
    needs O(T^2) memory (+28% peak RSS on the residual-windows benchmark),
    and its global prefix sums lose precision after a spike.

    Returns one (pair sum, residue, lag terms) per run, in order.
    """
    n = x.shape[0]
    width = window - 1
    runs = n - window + 1
    # X X' in the first n columns of a zero-padded buffer, so that row a of
    # ``band`` reads the entries (a, a+1), ..., (a, a+w-1) of one flat array.
    padded = np.zeros((n, n + width))
    np.matmul(x, x.T, out=padded[:, :n])
    band = sliding_window_view(padded.ravel(), width)[1 :: n + width + 1]
    sq = np.zeros(n + width)
    sq[:n] = np.diagonal(padded)
    running = np.empty((n, width))

    def run_sums(lag):
        # Running sums over the first n - lag rows of ``running``, which
        # hold the band product of this lag.  Run i reads row i + j at
        # column w - 2 - lag - j, its last inside the run, for
        # j = 0..w-2-lag: the anti-diagonal of the run's square of rows,
        # flipped here into a diagonal.
        rows = running[: n - lag, : width - lag]
        np.cumsum(rows, axis=1, out=rows)
        reads = sliding_window_view(rows, width - lag, axis=0)[:runs, ::-1]
        return (2.0 * np.diagonal(reads, axis1=1, axis2=2).sum(axis=1)).tolist()

    np.square(band, out=running)
    off_diagonal = run_sums(0)
    np.multiply(sq[:n, None], sliding_window_view(sq[1:], width)[:n], out=running)
    residues = [SCALE_RESOLUTION * norm_sum for norm_sum in run_sums(0)]
    terms = []
    for l in range(1, lags + 1):
        np.multiply(band[: n - l], band[l:], out=running[: n - l])
        terms.append(run_sums(l))
    return list(zip(off_diagonal, residues, zip(*terms)))


def _cross_pair_sums(x: np.ndarray, products: np.ndarray):
    """The sums of ``_gram_pair_sums`` for ``x``, from its lag products (``lag_products``).

    Uses sum_{t,s} x_t'x_s x_{t+l}'x_{s+l} = ||X[l:]' X[:n-l]||_F^2 minus
    the t = s terms, sum_t |x_t|^2 |x_{t+l}|^2.  The lag terms keep that
    difference: t_sum stays within 3e-14 of SUM's null scale with a row
    scaled by up to 1e12, 1.6e-13 with t(1.5) entries.  The pair sum keeps
    ||X'X||_F^2 - sum_t |x_t|^4 while u sum_t |x_t|^4 is at most
    ``_CANCELLATION_TOLERANCE`` of it.  Past that a few rows dominate and
    it cancels, so the ``_SPLIT_ROWS`` largest rows H are split off from
    the rest L: PS(X) = PS(L) + PS(H) + 2 ||X_H X_L'||_F^2, PS(H) from H's
    Gram matrix and PS(L) by the difference on a fresh X_L'X_L, which is
    off by a few u of the reference of ``SCALE_RESOLUTION`` at most.
    """
    sq = np.einsum("ti,ti->t", x, x)
    n = sq.shape[0]
    terms = tuple(
        float(np.square(products[l]).sum()) - float(sq[l:] @ sq[: n - l])
        for l in range(1, products.shape[0])
    )
    quartic = float(sq @ sq)
    pair_sum = float(np.square(products[0]).sum()) - quartic
    if UNIT_ROUNDOFF * quartic > _CANCELLATION_TOLERANCE * pair_sum:
        top = np.argsort(sq)[-_SPLIT_ROWS:]
        high, low, low_sq = x[top], np.delete(x, top, axis=0), np.delete(sq, top)
        high_gram = high @ high.T
        np.fill_diagonal(high_gram, 0.0)
        pair_sum = (
            float(np.square(low.T @ low).sum()) - float(low_sq @ low_sq)
            + float(np.square(high_gram).sum()) + 2.0 * float(np.square(high @ low.T).sum())
        )
    return pair_sum, _residue(sq), terms


def _shared_moments(panel: TimeSeriesPanel, lags: int) -> _Moments | None:
    """The lagged moments MAX and SUM share on ``panel`` at ``lags``, or None.

    The one place that decides them, from (n, p, K) alone.  Moments carried
    up to some K >= ``lags`` serve as they are; else a ``_cross_route``
    shape forms the K+1 lag products and SUM's sums once and carries them,
    read-only, replacing a smaller K (sums that overflow as inf or nan).
    So ``run_all``, and ``max_test`` followed by ``sum_test``, form K+1
    p x p products on that route rather than 2K+2, and ``sum_test`` at
    K = 5, 2, 5 forms them once.  A larger K never reads a smaller stack:
    a cross-route shape forms the products again, and a Gram-route shape
    gets None, so MAX takes the unit columns, as on a fresh panel.  The
    stack is (K+1) p^2 floats, less than the panel's n p on this route.
    """
    moments = panel._moments
    if moments is not None and lags <= moments.lags:
        return moments
    if not _cross_route(panel.n, panel.p, lags):
        return None
    x = panel.values
    with np.errstate(over="ignore", invalid="ignore"):
        products = lag_products(x, lags)
        sums = _cross_pair_sums(x, products)
    products.flags.writeable = False
    object.__setattr__(panel, "_moments", _Moments(products, sums))
    return panel._moments


def _pair_sums(panel: TimeSeriesPanel, lags: int) -> tuple[float, float, float]:
    """SUM's pair sum, its residue and its total over lags 1..``lags``.

    From ``_shared_moments``, else from X X' (``_gram_pair_sums``), kept
    nowhere.  The lag terms are added one at a time in order l = 1..K:
    ``sum()`` compensates from Python 3.12 on, and so rounds differently.
    A sum that overflows float64 comes back as inf or nan, with no
    warning, for ``sum_test`` to report.
    """
    moments = _shared_moments(panel, lags)
    if moments is None:
        with np.errstate(over="ignore", invalid="ignore"):
            off_diagonal, residue, terms = _gram_pair_sums(panel.values, lags)
    else:
        off_diagonal, residue, terms = moments.pair_sums
    total = 0.0
    for term in terms[:lags]:
        total += term
    return off_diagonal, residue, total


def _window_blocks(num_windows: int) -> int:
    """How many blocks of ``WINDOW_BLOCK`` windows ``num_windows`` fill."""
    return -(-num_windows // WINDOW_BLOCK)


def _window_panels(panel: TimeSeriesPanel, window: int, lags: int, block: int):
    """Yield the panel of every length-``window`` sliding window in block
    ``block`` (the windows that start at rows 64 block to 64 block + 63,
    or to the last start), moments filled in.

    Each window is a read-only view of ``panel.values`` (no copy and no
    finiteness scan) carrying its ``_Moments`` at this K, which serve every
    K' <= K.

    The products are formed from scratch for the block's first window and
    rolled from window to window inside it:
    lag k gains x_{s+w} x_{s+w-k}' and loses x_{s+k} x_s' when the window
    moves on from start s, all K+1 rank-2 updates in one batched matmul.
    Each rank-one term x_a x_b' rounds every entry by at most about
    u r_a r_b (u the unit roundoff, r_t = max_i |x_ti|); once the sum of
    these since the last product from scratch passes ``ROLLING_TOLERANCE``
    of the smallest lag-0 diagonal entry, the window's products are formed
    from scratch instead.  That keeps each autocorrelation within about
    1e-13 of the per-window value, and makes it exact after an outlying row
    leaves or while a column is zero, so a zero-variance column raises the
    ``DegenerateColumnError`` a fresh panel raises.

    SUM takes its sums from one Gram matrix, formed over the block's
    w + 63 rows, whichever route ``sum_test`` would take on a fresh
    window.  ``_band_pair_sums`` lays it out as a band of w - 1 entries per
    row and gives every window of the block its sums from running sums
    along the band rows, O(w) reads per window: the sums of ``sum_test``,
    each a plain sum of the window's own terms, in which nothing cancels,
    so a dominant row leaves them exact.  The rolled products serve MAX
    only.

    A block reads only its own w + 63 rows and starts from scratch, so the
    ``_window_blocks`` blocks of a panel are independent:
    ``factor.sliding_window_rates`` runs each as one job of
    ``harness.run_jobs``, the one scheduler.

    Moments that overflow float64 are carried as inf or nan, for
    ``sum_test`` and MAX to report; numpy warns of the overflow unless the
    caller silences it, as ``sliding_window_rates`` does.

    Extra memory: O((K+1) p^2) for the products and O((w + 64)(2w + 64))
    for the Gram band and one band product.

    ``tests/test_factor.py::TestWindowEngine`` holds every window's
    statistics to 1e-10 of ``run_all`` on a fresh panel, across block
    boundaries and with rows scaled by 1e3 and 1e5 entering and leaving;
    ``tests/test_panel.py`` holds each window's SUM sums to 1e-14 of a
    long-double oracle, with a row scaled by 1e7, on both routes.
    """
    x = panel.values
    p = panel.p
    w = window
    num_windows = panel.n - w
    left = np.empty((lags + 1, p, 2))
    right = np.empty((lags + 1, 2, p))
    update = np.empty((lags + 1, p, p))
    first = block * WINDOW_BLOCK
    # The block's rows, which every window of the block reads.
    span = x[first : min(first + WINDOW_BLOCK, num_windows) + w - 1]
    block_sums = _band_pair_sums(span, lags, w)
    row_max = np.abs(span).max(axis=1)
    for offset in range(len(span) - w + 1):
        if offset:
            a = offset - 1
            left[:, :, 0] = span[a + w]
            np.negative(span[a : a + lags + 1], out=left[:, :, 1])
            right[:, 0, :] = span[a + w - lags : a + w + 1][::-1]
            right[:, 1, :] = span[a]
            np.matmul(left, right, out=update)
            products = products + update
            bound += UNIT_ROUNDOFF * (
                row_max[a + w] * row_max[a + w - lags : a + w + 1].sum()
                + row_max[a] * row_max[a : a + lags + 1].sum()
            )
        rows = span[offset : offset + w]
        if not offset or bound > ROLLING_TOLERANCE * np.diagonal(products[0]).min():
            products, bound = lag_products(rows, lags), 0.0
        products.flags.writeable = False
        piece = object.__new__(TimeSeriesPanel)
        object.__setattr__(piece, "values", rows)
        object.__setattr__(piece, "_moments", _Moments(products, block_sums[offset]))
        yield piece


def read_csv_array(path, header: bool = False, labels: bool = False):
    """Read a numeric CSV into a float array.

    Blank lines (only commas and whitespace) are skipped.  ``header=True``
    takes the first non-blank line as column names; ``labels=True`` takes
    the first column of every data line as a text label (a date, say)
    rather than a number.  Every non-blank line must have the same number
    of fields.  Decimal separator is '.', encoding UTF-8; a leading
    byte-order mark is dropped.

    Returns (header names or None, row labels or None, values).  A ragged
    line, or a cell that does not parse as a finite number, raises
    ParseError with its 1-based file line and column; a byte that is not
    UTF-8 raises it with its line.

    A plain file, with no quote character and only finite numbers in
    ``float``'s ASCII spelling, is parsed by numpy's C reader.  Any other
    file, and any file that reader refuses or warns on, is read again by
    the per-cell loop, which alone decides what is accepted and where an
    error is: quoted cells, digit groups such as ``1_000``, non-ASCII
    digits, non-finite or unparsable cells, a width that does not match,
    and files with no data rows.  Both give the same result on every file.
    """
    parsed = _read_plain_csv(path, header, labels)
    if parsed is None:
        parsed = _read_csv_cells(path, header, labels)
    return parsed


def _read_plain_csv(path, header: bool, labels: bool):
    """The fast step of ``read_csv_array``: numpy's C reader, or None.

    Python applies the loop's line rules (blank lines, the header, labels)
    and refuses any quote or over-long field; ``np.loadtxt`` parses every
    cell.  numpy parses a number exactly as ``float`` does, and refuses the
    spellings ``float`` reads that it does not (``1_000``, non-ASCII
    digits), so every disagreement with the loop ends here with None.
    """
    skip = 1 if labels else 0
    names: list[str] | None = None
    row_labels: list[str] = []
    commas: int | None = None
    rows = 0
    field_limit = csv.field_size_limit()

    def data_lines(fh):
        nonlocal names, commas, rows
        for line in fh:
            # The loop's blank rule, tested in full only when the first
            # character could start a blank line.
            if (line[0] == "," or line[0].isspace()) and not line.replace(",", "").strip():
                continue
            if '"' in line:
                raise ValueError("quoted cells are left to the per-cell loop")
            # The csv module refuses a field longer than its limit.
            if len(line) > field_limit and max(map(len, line.split(","))) > field_limit:
                raise ValueError("an over-long field is left to the per-cell loop")
            if commas is None:
                commas = line.count(",")
                if header:
                    names = [cell.strip() for cell in line.split(",")]
                    continue
            if labels:
                label, _, line = line.partition(",")
                row_labels.append(label.strip())
            rows += 1
            yield line

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = np.loadtxt(
                    data_lines(fh), delimiter=",", comments=None, dtype=np.float64, ndmin=2
                )
        except (ValueError, Warning):
            return None
    # numpy requires the data lines to agree in width.  This holds them to
    # the first line's width, and catches a line numpy skipped as empty (a
    # label with nothing after it), which the loop reports.
    if values.shape != (rows, commas + 1 - skip) or not np.isfinite(values).all():
        return None
    return names, (row_labels if labels else None), values


def _read_csv_cells(path, header: bool, labels: bool):
    """The per-cell loop of ``read_csv_array``: the reference for what it accepts."""
    names: list[str] | None = None
    row_labels: list[str] = []
    rows: list[list[float]] = []
    width: int | None = None
    skip = 1 if labels else 0
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        for raw in _csv_records(reader, path):
            if not any(cell.strip() for cell in raw):
                continue
            lineno = reader.line_num
            if width is None:
                width = len(raw)
            elif len(raw) != width:
                raise ParseError(f"expected {width} fields, got {len(raw)}", row=lineno)
            if header and names is None:
                names = [cell.strip() for cell in raw]
                continue
            parsed = []
            for colno, cell in enumerate(raw[skip:], start=skip + 1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"could not parse {cell.strip()!r} as a number",
                        row=lineno, column=colno,
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"non-finite value {cell.strip()!r}", row=lineno, column=colno
                    )
                parsed.append(value)
            if labels:
                row_labels.append(raw[0].strip())
            rows.append(parsed)
    if header and names is None:
        raise DataError(f"{path} is empty")
    if not rows:
        raise DataError(f"{path} has no data rows")
    return names, (row_labels if labels else None), np.array(rows, dtype=np.float64)


def _csv_records(reader, path):
    """The records of ``reader``, which reads ``path``; a ``csv.Error`` (a
    field over ``csv.field_size_limit()``, say) becomes a ParseError at its
    file line, and so does a byte that is not UTF-8, at the line of the
    first such byte in ``path``'s raw bytes (the reader decodes by the
    block, not by the line)."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(exc), row=reader.line_num) from None
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            data = fh.read()
        row = None  # where the bytes read again decode, as a drained pipe's do
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as first:
            exc, row = first, len((data[: first.start] + b".").splitlines())
        raise ParseError(f"byte 0x{exc.object[exc.start]:02x} is not UTF-8", row=row) from None


def read_panel_csv(path, header: bool = False, center: bool = False) -> TimeSeriesPanel:
    """Read a panel from CSV: one row per time point, p numeric columns.

    ``header=True`` skips the first non-blank line.  Malformed cells raise
    ParseError with the 1-based file line and column (see
    ``read_csv_array``).
    """
    _, _, values = read_csv_array(path, header=header)
    return TimeSeriesPanel.from_array(values, center=center)


def write_panel_csv(panel: TimeSeriesPanel, path, header: bool = False) -> None:
    """Write a panel in the format ``read_panel_csv`` accepts."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow([f"x{j + 1}" for j in range(panel.p)])
        for row in panel.values:
            writer.writerow([repr(float(v)) for v in row])

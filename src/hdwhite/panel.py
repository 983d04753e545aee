"""Time-series panels and their lagged sample moments.

A panel holds n observations of a p-dimensional series, one row per time
point.  Autocovariances use the fixed 1/n divisor at every lag and no
mean adjustment; an optional centering step at construction is the only
place the mean is ever touched.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegenerateColumnError, LagError, ParseError

# A column whose sample second moment falls at or below this cannot be
# autocorrelated; the offending column is named in the error.
DEGENERATE_VARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class TimeSeriesPanel:
    """Immutable n x p panel of observations, rows indexed by time."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError(f"panel must be 2-dimensional, got {values.ndim} dims")
        n, p = values.shape
        if n < 2:
            raise DataError(f"panel needs at least 2 rows, got {n}")
        if p < 1:
            raise DataError("panel needs at least 1 column")
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            r, c = bad[0]
            raise DataError(
                f"panel contains a non-finite value at row {int(r) + 1}, column {int(c) + 1}"
            )
        values = values.copy()
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
        here; all downstream moments use the stored values as-is.
        """
        values = np.asarray(values, dtype=np.float64)
        if center:
            if values.ndim != 2:
                raise DataError(f"panel must be 2-dimensional, got {values.ndim} dims")
            values = values - values.mean(axis=0, keepdims=True)
        return cls(values)


def check_lag_budget(n: int, lags: int) -> None:
    """Require a lag budget K with 1 <= K <= n - 2 for an n-row panel."""
    if not isinstance(lags, (int, np.integer)):
        raise LagError(f"number of lags must be an integer, got {lags!r}")
    if lags < 1 or lags > n - 2:
        raise LagError(f"number of lags {lags} out of range [1, {n - 2}] for n={n}")


def sample_autocovariance(panel: TimeSeriesPanel, lag: int) -> np.ndarray:
    """Lag-k sample autocovariance matrix with divisor n.

    Entry (i, j) is (1/n) * sum_{t=1}^{n-k} x[t+k, i] * x[t, j].  The
    divisor stays n for every lag, and no mean is subtracted.
    """
    x = panel.values
    n = panel.n
    if not isinstance(lag, (int, np.integer)):
        raise LagError(f"lag must be an integer, got {lag!r}")
    if lag < 0 or lag > n - 1:
        raise LagError(f"lag {lag} out of range [0, {n - 1}] for n={n}")
    if lag == 0:
        cov = x.T @ x / n
        return (cov + cov.T) / 2.0
    return x[lag:].T @ x[: n - lag] / n


def sample_autocorrelation(panel: TimeSeriesPanel, lag: int) -> np.ndarray:
    """Lag-k sample autocorrelation matrix.

    The lag-k autocovariance is scaled on both sides by the inverse square
    roots of the lag-0 diagonal.  A diagonal entry at or below
    ``DEGENERATE_VARIANCE_TOL`` makes the scaling meaningless and raises,
    naming the first offending column (1-based).
    """
    d = np.diagonal(sample_autocovariance(panel, 0))
    low = np.nonzero(d <= DEGENERATE_VARIANCE_TOL)[0]
    if low.size:
        col = int(low[0]) + 1
        raise DegenerateColumnError(
            f"column {col} has sample variance {d[low[0]]:.3e} <= {DEGENERATE_VARIANCE_TOL:g}; "
            "autocorrelations are undefined"
        )
    inv_scale = 1.0 / np.sqrt(d)
    return sample_autocovariance(panel, lag) * np.outer(inv_scale, inv_scale)


def read_csv_array(path, header: bool = False, labels: bool = False):
    """Read a numeric CSV into a float array.

    Blank lines are skipped.  ``header=True`` takes the first non-blank
    line as column names; ``labels=True`` takes the first column of every
    data line as a text label (a date, say) rather than a number.  Every
    non-blank line must have the same number of fields.  Decimal separator
    is '.', encoding UTF-8.

    Returns (header names or None, row labels or None, values).  A ragged
    line, or a cell that does not parse as a finite number, raises
    ParseError with its 1-based file line and column.
    """
    names: list[str] | None = None
    row_labels: list[str] = []
    rows: list[list[float]] = []
    width: int | None = None
    skip = 1 if labels else 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for raw in reader:
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

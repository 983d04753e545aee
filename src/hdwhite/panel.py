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
from functools import cached_property

import numpy as np

from .errors import DataError, DegenerateColumnError, LagError, ParseError

# A column whose sample second moment falls at or below this cannot be
# autocorrelated; the offending column is named in the error.
DEGENERATE_VARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class _Moments:
    """Moments a panel carries: from ``sum_test``'s cross route, or a window's.

    ``products[k]`` is the raw lag-k product X[k:]' X[:n-k] for k = 0..K,
    read-only; ``pair_sums`` is what ``sum_test`` needs at that K (see
    ``statistics._gram_pair_sums``).
    """

    products: np.ndarray
    pair_sums: tuple[float, float, float]

    @property
    def lags(self) -> int:
        return self.products.shape[0] - 1


@dataclass(frozen=True, eq=False)
class TimeSeriesPanel:
    """Immutable n x p panel of observations, rows indexed by time.

    The constructor stores a C-contiguous, read-only float64 copy of the
    input, so the panel never aliases the caller's array.  The lag-0
    autocovariance is formed on first use and kept for the panel's
    lifetime: p^2 more floats, paid once however many tests read it.
    Equality and hashing are by identity, as for any object.
    """

    values: np.ndarray = field(repr=False)
    # The lag products and pair sums at one K: set by ``_window``, or by
    # ``sum_test`` on its cross route; None until then.
    _moments: _Moments | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, order="C")
        if values.ndim != 2:
            raise DataError(f"panel must be 2-dimensional, got {values.ndim} dims")
        n, p = values.shape
        if n < 2:
            raise DataError(f"panel needs at least 2 rows, got {n}")
        if p < 1:
            raise DataError("panel needs at least 1 column")
        if not np.isfinite(values).all():
            r, c = np.argwhere(~np.isfinite(values))[0]
            raise DataError(
                f"panel contains a non-finite value at row {int(r) + 1}, column {int(c) + 1}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def _window(cls, values: np.ndarray, moments: _Moments) -> "TimeSeriesPanel":
        """A panel over consecutive rows of a validated panel's values.

        ``values`` is kept as the read-only view it is: no copy, and no
        finiteness scan.  ``moments`` must be the moments of those rows.
        """
        panel = object.__new__(cls)
        object.__setattr__(panel, "values", values)
        object.__setattr__(panel, "_moments", moments)
        return panel

    @cached_property
    def _lag0_autocovariance(self) -> np.ndarray:
        # cached_property stores into the instance __dict__, which a frozen
        # dataclass allows.  Read-only, since every caller shares it.
        x = self.values
        product = x.T @ x if self._moments is None else self._moments.products[0]
        cov = product / self.n
        cov = (cov + cov.T) / 2.0
        cov.flags.writeable = False
        return cov

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

    Lag 0 is symmetrized, (X'X/n + (X'X/n)')/2, and cached on the panel:
    every call returns the same read-only array, which holds p^2 floats
    for as long as the panel lives.  Copy it before writing into it.
    Every other lag is a fresh, writable p x p array.

    A panel that carries its raw lag products up to some K (kept by
    ``sum_test`` on its cross route, or rolled from window to window by
    ``factor.sliding_window_rates``) gives them for those lags: this
    divides the carried product by n instead of forming X[k:]' X[:n-k]
    again.  Kept products are the same bits; rolled ones agree to about
    1e-13 of the smallest lag-0 diagonal entry.
    """
    x = panel.values
    n = panel.n
    if not isinstance(lag, (int, np.integer)):
        raise LagError(f"lag must be an integer, got {lag!r}")
    if lag < 0 or lag > n - 1:
        raise LagError(f"lag {lag} out of range [0, {n - 1}] for n={n}")
    if lag == 0:
        return panel._lag0_autocovariance
    moments = panel._moments
    if moments is not None and lag <= moments.lags:
        return moments.products[lag] / n
    return x[lag:].T @ x[: n - lag] / n


def lag_products(x: np.ndarray, lags: int) -> np.ndarray:
    """The raw products X[k:]' X[:n-k] for k = 0..lags, stacked (lags+1, p, p).

    No divisor and no symmetrization: ``sample_autocovariance`` applies
    both.
    """
    n, p = x.shape
    out = np.empty((lags + 1, p, p))
    for k in range(lags + 1):
        np.matmul(x[k:].T, x[: n - k], out=out[k])
    return out


def sample_autocorrelation(panel: TimeSeriesPanel, lag: int) -> np.ndarray:
    """Lag-k sample autocorrelation matrix.

    The lag-k autocovariance is scaled on both sides by the inverse square
    roots of the lag-0 diagonal.  The lag-0 matrix comes from the panel's
    cache, so each call forms one p x p product, not two.  A diagonal
    entry at or below ``DEGENERATE_VARIANCE_TOL`` makes the scaling
    meaningless and raises, naming the first offending column (1-based).
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

    Blank lines (only commas and whitespace) are skipped.  ``header=True``
    takes the first non-blank line as column names; ``labels=True`` takes
    the first column of every data line as a text label (a date, say)
    rather than a number.  Every non-blank line must have the same number
    of fields.  Decimal separator is '.', encoding UTF-8; a leading
    byte-order mark is dropped.

    Returns (header names or None, row labels or None, values).  A ragged
    line, or a cell that does not parse as a finite number, raises
    ParseError with its 1-based file line and column.

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
        for raw in _csv_records(reader):
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


def _csv_records(reader):
    """The records of ``reader``; a ``csv.Error`` (a field over
    ``csv.field_size_limit()``, say) becomes a ParseError at its file line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(exc), row=reader.line_num) from None


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

"""Exception types raised by the hdwhite package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
and plain OSError -> 4.  Everything derives from ValueError so callers
that do not care about the distinction can catch broadly.
"""


class HdwhiteError(ValueError):
    """Base class for all errors raised by this package."""


class ConfigError(HdwhiteError):
    """A configuration value or combination of values is invalid."""


class DataError(HdwhiteError):
    """Input data is malformed, non-finite, or otherwise unusable."""


class ParseError(DataError):
    """A text input could not be parsed.  Carries its 1-based file line and column."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.row = row
        self.column = column
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)


class LagError(ConfigError):
    """A requested lag is out of range for the sample size."""


class DegenerateColumnError(DataError):
    """A column has (numerically) zero variance, so autocorrelations
    cannot be formed."""


class NotSymmetricError(DataError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPsdError(DataError):
    """A matrix required to be positive semidefinite has a negative
    eigenvalue beyond tolerance."""


class NonstationaryDrawError(DataError):
    """A randomly drawn recursion matrix is too close to the unit circle
    for a stationary simulation.  Callers may redraw."""

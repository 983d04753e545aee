"""Exception types raised by the hdwhite package, and the argument checks
that raise them.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
and plain OSError -> 4.  Everything derives from ValueError so callers
that do not care about the distinction can catch broadly.

Every public entry point checks its arguments with the rules below, so a
bad value raises ConfigError (or LagError; a bad array raises the
caller's own error), never a bare TypeError or ValueError:
``check_integer`` (a Python or numpy integer; not a bool, not 4.0),
``check_number`` (a finite real that is not a bool), ``check_array`` (a
finite 2-d array of real numbers, square on request, whose first
non-finite entry is named by its 1-based row and column),
``check_level`` (a number in (0, 1)), ``check_probability`` (a number in
[0, 1]) and ``Choice`` (a known option name).  Each message names the
argument, or the config key in quotes.  Callers test only their domain
rules (row counts, matching shapes, symmetry) after these.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum

import numpy as np


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


def check_integer(name: str, value, least: int | None = None, error=ConfigError) -> int:
    """Require an integer of at least ``least``; return it as a Python int.

    A real number below ``least`` (NaN included) is reported as out of
    range, any other non-integer as not an integer.
    """
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise error(f"{name} must be an integer, got {value!r}")
        if isinstance(value, numbers.Integral):
            value = int(value)
        elif least is None or value >= least:
            raise error(f"{name} must be an integer, got {value!r}")
    if least is not None and not value >= least:
        raise error(f"{name} must be at least {least}, got {value}")
    return value


def check_number(name: str, value, finite: bool = True) -> float:
    """Require a real number that is not a bool; return it as a Python float.
    ``finite=False`` lets NaN and +-inf through to the caller's range check."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    if finite and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def check_array(
    name: str, value, error=ConfigError, copy: bool = False, square: bool = False
) -> np.ndarray:
    """Convert to a float64 matrix: a fresh C-ordered one with ``copy``,
    else ``value`` itself when it already is one.

    In this order, each check raising ``error`` with ``name``: the value
    converts to real numbers (complex values are refused, not cut to
    their real part, and so are non-numeric text and ragged lists), it
    has exactly 2 dimensions (p x p with ``square``), and every entry is
    finite; the first NaN or inf in row-major order is named by its
    1-based row and column.
    """
    try:
        array = np.asarray(value)
        real = array.dtype.kind != "c"
        if real:
            array = (np.array(array, np.float64, order="C") if copy
                     else array.astype(np.float64, copy=False))
    except (TypeError, ValueError) as exc:
        raise error(f"{name} must be an array of real numbers: {exc}") from None
    if not real:
        raise error(f"{name} must be real, got a complex array")
    if array.ndim != 2:
        raise error(f"{name} must be 2-dimensional, got shape {array.shape}")
    if square and array.shape[0] != array.shape[1]:
        raise error(f"{name} must be square, got shape {array.shape}")
    if not np.isfinite(array).all():
        row, column = np.argwhere(~np.isfinite(array))[0]
        raise error(f"{name} contains a non-finite value at row {row + 1}, column {column + 1}")
    return array


def check_level(name: str, value) -> float:
    """Require a number in (0, 1), such as a test level; return it as a Python float."""
    if type(value) is float and 0.0 < value < 1.0:
        return value
    level = check_number(name, value, finite=False)
    if not 0.0 < level < 1.0:
        raise ConfigError(f"{name} must lie in (0, 1), got {value}")
    return level


def check_probability(name: str, value) -> float:
    """Require a number in [0, 1], such as a p-value or a rate; return it as a Python float."""
    if type(value) is float and 0.0 <= value <= 1.0:
        return value
    probability = check_number(name, value, finite=False)
    if not 0.0 <= probability <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value}")
    return probability


class Choice(str, Enum):
    """A string option; an unknown value raises ``ConfigError`` naming the known ones."""

    @classmethod
    def _missing_(cls, value):
        known = ", ".join(repr(member.value) for member in cls)
        raise ConfigError(f"unknown {cls.__name__} {value!r}; known values are {known}")

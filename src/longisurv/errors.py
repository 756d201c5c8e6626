"""Exception hierarchy shared across the package.

CLI exit codes map onto these: ConfigError -> 2, DataError -> 3,
NumericalError -> 4. EmptyCellError is a flow-control signal for metric
cells with no comparable pairs, not a failure.
"""
import contextlib


class LongisurvError(Exception):
    """Base class for all package errors."""


class ConfigError(LongisurvError):
    """Invalid or inconsistent configuration."""


class DataError(LongisurvError):
    """Malformed input data (bad masks, out-of-order visits, bad files)."""


class NumericalError(LongisurvError):
    """Numerical failure: divergence, non-finite values, degenerate conditioning."""


class ShapeError(NumericalError):
    """Operand shapes incompatible for a graph primitive."""


class DegenerateConditioningError(NumericalError):
    """Conditioning event has probability zero (S(t) = 0 in a risk window)."""


class EmptyCellError(LongisurvError):
    """A (t, dt) metric cell has no comparable pairs / empty risk set."""


@contextlib.contextmanager
def reading(path: str):
    """Turn a missing or malformed file (a config or a value check included)
    into a DataError naming it."""
    try:
        yield
    except (OSError, EOFError, ValueError, TypeError, KeyError, ConfigError,
            DataError) as ex:
        raise DataError(f"cannot read {path}: {ex}")

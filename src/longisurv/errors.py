"""Exception hierarchy shared across the package, and the file reading that raises it.

CLI exit codes map onto these: ConfigError -> 2, DataError -> 3,
NumericalError -> 4. EmptyCellError is a flow-control signal for metric
cells with no comparable pairs, not a failure.

Every TSV table (a dataset's eyes table, the report, samples, history and
attention tables) goes through ``write_table``/``read_table``: a
header line, one tab-joined line per row and a trailing newline; ``None`` is
``NA``, a float its ``repr`` and anything else its ``str``. A table with only
a header reads as empty; otherwise its header must be the one its writer
uses and each row as wide, or reading it is a DataError naming the file.
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


def tsv_field(v) -> str:
    """One table field: a float as its shortest round-trip repr, None as NA."""
    if isinstance(v, float):
        return repr(float(v))                 # float(): numpy's float64 repr is np.float64(...)
    return "NA" if v is None else str(v)


def write_table(path: str, header: tuple, rows) -> None:
    lines = ["\t".join(header)]
    lines.extend("\t".join(map(tsv_field, row)) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path: str, header: tuple) -> list[list[str]]:
    """The data rows of a table written with ``header``, as lists of strings."""
    with reading(path), open(path) as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh]
    if len(lines) < 2:
        return []
    if tuple(lines[0]) != header:
        raise DataError(f"{path}: header {lines[0]} is not {list(header)}")
    for line_no, fields in enumerate(lines[1:], start=2):
        if len(fields) != len(header):
            raise DataError(f"{path} line {line_no}: {len(fields)} fields, "
                            f"the header has {len(header)}")
    return lines[1:]

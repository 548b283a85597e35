"""Exception hierarchy shared by every module, and the input grammar.

Callers can catch :class:`MeanIneqError` to handle any failure raised by
this package; the CLI maps the whole hierarchy to exit code 2.

Every input file (config, space, matrix) is read by :func:`read_input` and
split by :func:`content_lines`, which skips blank and ``#`` comment lines
and keeps each other line's 1-based number.  An error about an input is
raised inside :func:`located`, which prefixes its message with the
:func:`place` it is about: ``<kind> file <path>, line <n>``, or
``<kind> file <path>`` for the whole file.

A caller's integer (a count, a seed, a path entry, a dimension) is checked
by :func:`require_integer` wherever it enters the package, so every public
boundary admits the same integers.
"""

import operator
from contextlib import contextmanager
from pathlib import Path


class MeanIneqError(Exception):
    """Base class for all errors raised by meanineq."""


class UsageError(MeanIneqError):
    """Bad call: wrong mode, dimension mismatch, unknown id, invalid config."""


class DomainError(MeanIneqError):
    """Input outside the mathematical domain of an operation."""


class NotPositiveDefiniteError(DomainError):
    """A matrix required to be positive definite has smallest eigenvalue <= 0."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class PreconditionError(MeanIneqError):
    """A structural precondition failed (non-commuting pair, bad partition of unity)."""


class NumericError(MeanIneqError):
    """A numerical kernel failed to converge or produced non-finite output."""


def require_integer(name: str, value) -> int:
    """``value`` as an int when it is an integer (``operator.index``: Python
    and numpy integers) other than a bool, else a UsageError that names
    ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise UsageError(f"{name} must be an integer, got {value!r}")


@contextmanager
def located(where: str | None):
    """Errors of this package raised inside start with ``where``, when it is
    given: the place in an input, or the campaign trial, they are about.  The
    error keeps its class and attributes."""
    try:
        yield
    except MeanIneqError as exc:
        if where is not None:
            exc.args = (f"{where}: {exc}",)
        raise


def place(kind: str, path, line: int | None = None) -> str:
    """The name of line ``line`` (1-based) of a ``kind`` file, or of the
    whole file when ``line`` is None."""
    return f"{kind} file {path}" if line is None else f"{kind} file {path}, line {line}"


def read_input(path, kind: str) -> str:
    """The UTF-8 text of an input file; a file that cannot be read or decoded
    is a UsageError that names it as a ``kind`` file."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {place(kind, p)}: {exc}") from None


def content_lines(text: str) -> list[tuple[int, str]]:
    """The (n, line) content lines of an input file's text: line n (1-based,
    counting every line) stripped, for each line that is neither blank nor a
    ``#`` comment."""
    lines = ((n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1))
    return [(n, ln) for n, ln in lines if ln and not ln.startswith("#")]

"""Exception hierarchy shared by every module.

Callers can catch :class:`MeanIneqError` to handle any failure raised by
this package; the CLI maps the whole hierarchy to exit code 2.
"""

import copy
from pathlib import Path


class MeanIneqError(Exception):
    """Base class for all errors raised by meanineq."""


class UsageError(MeanIneqError):
    """Bad call: wrong mode, dimension mismatch, unknown id, invalid config."""


class DomainError(MeanIneqError):
    """Input outside the mathematical domain of an operation."""


class NotPositiveDefiniteError(DomainError):
    """A matrix required to be positive definite is not (at the active floor)."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class PreconditionError(MeanIneqError):
    """A structural precondition failed (non-commuting pair, bad partition of unity)."""


class NumericError(MeanIneqError):
    """A numerical kernel failed to converge or produced non-finite output."""


def located(exc: MeanIneqError, where: str) -> MeanIneqError:
    """A copy of ``exc`` (same class and attributes) whose message starts with
    ``where``: the file and line, or the campaign trial, it came from."""
    out = copy.copy(exc)
    out.args = (f"{where}: {exc}",)
    return out


def read_input(path, kind: str) -> str:
    """The UTF-8 text of an input file; a file that cannot be read or decoded
    is a UsageError that names it as a ``kind`` file."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {kind} file {p}: {exc}") from None

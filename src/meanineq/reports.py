"""The universal inequality record shared by every verifier."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Real

import numpy as np

from .errors import NumericError, UsageError

VERDICT_HOLDS = "holds"
VERDICT_VIOLATED = "violated"
VERDICT_EQUALITY = "equality"


def classify_gap(gap, tol):
    """violated iff gap < -tol; equality iff |gap| <= tol; holds otherwise.

    Elementwise: an array of gaps gets the array of their verdicts, and one
    float its verdict as a ``str``."""
    equality = np.where(abs(gap) <= tol, VERDICT_EQUALITY, VERDICT_HOLDS)
    verdict = np.where(gap < -tol, VERDICT_VIOLATED, equality)
    return verdict if np.ndim(gap) else str(verdict)


def require_tol(tol) -> float:
    """A caller's verdict tolerance as a float: a real scalar other than a
    bool (Python or numpy: ``numbers.Real``), finite and positive.  Every
    verdict that takes a caller's ``tol`` checks it here."""
    if isinstance(tol, bool) or not (isinstance(tol, Real) and 0.0 < tol < float("inf")):
        raise UsageError(f"tol must be finite and positive, got {tol!r}")
    return float(tol)


@dataclass(frozen=True)
class InequalityReport:
    """Both sides of a verified inequality and the signed gap rhs - lhs."""

    lhs: float
    rhs: float
    gap: float
    tol: float
    verdict: str
    function: str
    mode: str
    dims: int
    atoms: int
    seed: int | None = None  # the seed of the search that found it, if any


def inequality_report(
    lhs: float,
    rhs: float,
    tol: float,
    function: str,
    mode: str,
    dims: int,
    atoms: int,
) -> InequalityReport:
    tol = require_tol(tol)
    lhs = float(lhs)
    rhs = float(rhs)
    if not (isfinite(lhs) and isfinite(rhs)):
        raise NumericError(f"non-finite inequality sides lhs={lhs!r} rhs={rhs!r}")
    gap = rhs - lhs
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        gap=gap,
        tol=tol,
        verdict=classify_gap(gap, tol),
        function=function,
        mode=mode,
        dims=int(dims),
        atoms=int(atoms),
    )

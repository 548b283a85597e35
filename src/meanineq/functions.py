"""Representing functions and the scalar means they generate.

A normalized symmetric function f on (0, inf) generates a bivariate mean
through the perspective construction::

    mean(x, y) = y * f(x / y)

and every mean in the axiomatic class arises this way, with the function
recovered as ``f(t) = mean(1, t)``.  This module holds the function
catalog (arithmetic, WYD family, geometric, harmonic, logarithmic, and a
deliberately non-concave piecewise-affine entry) plus the scalar-side
operations; the operator-side analogues live in :mod:`.operator_means`.

``f(t)`` and :func:`mean_num` are the validating scalar entry points.  Every
mean, whether one pair or all the atoms of a space, is evaluated by the one
trusted kernel :func:`means`, so the two sides of the expectation inequality
are computed the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from numbers import Real
from typing import Callable, Union

import numpy as np

from .errors import DomainError, UsageError

# Default probe grid: 33 log-spaced points on [1/16, 16], symmetric about 1
# under t -> 1/t so the functional equation t*f(1/t) = f(t) is exercised on
# both tails.
DEFAULT_GRID_POINTS = 33

ArrayLike = Union[float, np.ndarray]


def default_grid() -> np.ndarray:
    """The default probe grid of positive abscissae (see module notes)."""
    return 2.0 ** np.linspace(-4.0, 4.0, DEFAULT_GRID_POINTS)


def _require_positive(value: ArrayLike, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if not np.all(arr > 0.0):
        raise DomainError(f"{name} must be strictly positive, got {value!r}")
    return arr


@dataclass(frozen=True)
class RepresentingFunction:
    """A scalar function f on (0, inf) that generates a bivariate mean.

    ``fn`` must accept and return numpy arrays (scalars are promoted).  The
    ``claims_*`` flags record what the catalog asserts about the entry; they
    are declarations, not certificates, and the axiom/concavity probes in
    :mod:`.axioms` exist to test them.
    """

    id: str
    fn: Callable[[np.ndarray], np.ndarray]
    params: tuple[float, ...] = ()
    claims_concave: bool = True
    claims_operator_monotone: bool = True

    def __call__(self, t: ArrayLike) -> ArrayLike:
        """f(t) for t > 0, elementwise; a float for scalar t.  This is the mean
        of (t, 1), which the kernel computes exactly: t / 1 and 1 * f add no
        rounding, so f(t) has the bits of f on an array holding t."""
        arr = _require_positive(t, "t")
        out = means(self, np.atleast_1d(arr), 1.0)
        return float(out[0]) if arr.ndim == 0 else out


def _arithmetic(x: np.ndarray) -> np.ndarray:
    return (1.0 + x) / 2.0


def _geometric(x: np.ndarray) -> np.ndarray:
    return np.sqrt(x)


def _harmonic(x: np.ndarray) -> np.ndarray:
    return 2.0 * x / (x + 1.0)


def _logarithmic(x: np.ndarray) -> np.ndarray:
    # (x - 1) / log x is accurate to an ulp right up to x = 1 +- 1 ulp; only
    # x = 1 itself is 0/0 and takes the limit 1.
    one = x == 1.0
    return np.where(one, 1.0, (x - 1.0) / np.where(one, 1.0, np.log(x)))


def _counterexample_g(x: np.ndarray) -> np.ndarray:
    # Two affine branches with a kink at 1; both branches agree at value 1.
    return np.where(x <= 1.0, (x + 3.0) / 4.0, (3.0 * x + 1.0) / 4.0)


def _wyd_fn(beta: float) -> Callable[[np.ndarray], np.ndarray]:
    def fn(x: np.ndarray) -> np.ndarray:
        return (x**beta + x ** (1.0 - beta)) / 2.0

    return fn


def wyd_function(beta: float) -> RepresentingFunction:
    """WYD family entry (x^b + x^(1-b))/2; b, a real other than a bool, must lie in (0, 1)."""
    if isinstance(beta, bool) or not (isinstance(beta, Real) and math.isfinite(beta)):
        raise UsageError(f"wyd beta must be a finite number, got {beta!r}")
    if not 0.0 < beta < 1.0:
        raise UsageError(f"wyd beta must lie in (0, 1), got {beta!r}")
    beta = float(beta)
    return RepresentingFunction(
        id=f"wyd:{beta!r}", fn=_wyd_fn(beta), params=(beta,)
    )


_FIXED_CATALOG: dict[str, RepresentingFunction] = {
    "arithmetic": RepresentingFunction("arithmetic", _arithmetic),
    "geometric": RepresentingFunction("geometric", _geometric),
    "harmonic": RepresentingFunction("harmonic", _harmonic),
    "logarithmic": RepresentingFunction("logarithmic", _logarithmic),
    "counterexample-g": RepresentingFunction(
        "counterexample-g",
        _counterexample_g,
        claims_concave=False,
        claims_operator_monotone=False,
    ),
}

#: The names accepted by :func:`get_function`; ``wyd:<beta>`` carries a parameter.
CATALOG_IDS = ("arithmetic", "wyd:<beta>", "geometric", "harmonic", "logarithmic", "counterexample-g")


def get_function(fid: str) -> RepresentingFunction:
    """Resolve a function id string (the CLI / config grammar) to a catalog entry.

    Accepted: ``arithmetic``, ``wyd:<beta>`` (beta in (0,1)), ``geometric``,
    ``harmonic``, ``logarithmic``, ``counterexample-g``.
    """
    if not isinstance(fid, str):
        raise UsageError(f"function id must be a string, got {fid!r}")
    name = fid.strip()
    if name in _FIXED_CATALOG:
        return _FIXED_CATALOG[name]
    if name.startswith("wyd:"):
        raw = name[len("wyd:") :]
        try:
            beta = float(raw)
        except ValueError:
            raise UsageError(f"unparseable wyd beta {raw!r} in function id {fid!r}") from None
        return wyd_function(beta)
    raise UsageError(
        f"unknown function id {fid!r}; expected one of {', '.join(CATALOG_IDS)}"
    )


def means(f: RepresentingFunction, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The trusted mean kernel: y * f(x / y) on positive arrays of at least one
    dimension.  Every scalar mean goes through here, so a mean has the same
    bits alone as inside an array (numpy takes other routines on 0-d values)."""
    return y * f.fn(x / y)


def run_slices(runs) -> list[tuple[RepresentingFunction, slice]]:
    """(f, rows) for each run of (f, count) pairs: f is the function of the
    next count rows of a block."""
    ends = accumulate(count for _, count in runs)
    return [(f, slice(end - count, end)) for (f, count), end in zip(runs, ends)]


def mean_num(f: RepresentingFunction, x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """The mean generated by f: y * f(x / y) for x, y > 0 (broadcasts); a float
    when both arguments are scalars."""
    xa = _require_positive(x, "x")
    ya = _require_positive(y, "y")
    out = means(f, np.atleast_1d(xa), np.atleast_1d(ya))
    if xa.ndim == 0 and ya.ndim == 0:
        return float(out[0])
    return out


def function_from_mean(mean: Callable[[float, float], float], t: float) -> float:
    """Recover the representing function of a mean: f(t) = mean(1, t)."""
    tv = float(t)
    if not (math.isfinite(tv) and tv > 0.0):
        raise DomainError(f"t must be strictly positive, got {t!r}")
    return float(mean(1.0, tv))

"""Grid-based probes of the mean axioms and of midpoint concavity.

Everything here is a finite, decidable check on a caller-supplied grid of
positive abscissae: no symbolic reasoning.  A probe reports the worst
violation it found together with the inputs that witnessed it, and a check
passes exactly when its violation is at most the report tolerance.

Continuity is probed with a two-scale jump estimator.  For deltas d and 10d
the symmetric spread e(d) = |m(x(1+d), y) - m(x(1-d), y)| is linear in d for
continuous functions (kinks included) but saturates at the jump size for a
step, so the extrapolated limit (10*e(d) - e(10d)) / 9 is ~0 in the first
case and ~J in the second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .functions import RepresentingFunction, default_grid, mean_num
from .reports import VERDICT_VIOLATED, classify_gap, require_tol
from .tolerances import CONCAVITY_TOL, JUMP_DELTA, SCALAR_TOL
from .verify import two_point_gaps

_HOMOGENEITY_SCALES = (0.5, 2.0, 10.0)

#: The values check_axioms evaluates beyond a grid g, each with a name and
#: its values at every grid point: f-symmetry's 1/g, the continuity probes'
#: outermost shifts, the homogeneity scales, and the extreme ratios x / y
#: that the mean's kernel y f(x / y) takes on the shifted grid pairs.
_PROBES = (
    ("1 / g", lambda g: 1.0 / g),
    ("g * (1 - 10 * JUMP_DELTA)", lambda g: g * (1.0 - 10.0 * JUMP_DELTA)),
    ("g * (1 + 10 * JUMP_DELTA)", lambda g: g * (1.0 + 10.0 * JUMP_DELTA)),
    *((f"{c} * g", lambda g, c=c: c * g) for c in _HOMOGENEITY_SCALES),
    ("g * (1 - 10 * JUMP_DELTA) / max(g)", lambda g: g * (1.0 - 10.0 * JUMP_DELTA) / g[-1]),
    ("g * (1 + 10 * JUMP_DELTA) / min(g)", lambda g: g * (1.0 + 10.0 * JUMP_DELTA) / g[0]),
)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    violation: float
    witness: tuple[float, ...]
    passed: bool


@dataclass(frozen=True)
class AxiomReport:
    function: str
    tol: float
    grid_lo: float
    grid_hi: float
    grid_points: int
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AxiomCheck:
        """The check called ``name``, else a UsageError that names the report's checks."""
        for c in self.checks:
            if c.name == name:
                return c
        raise UsageError(f"no axiom check {name!r}; the checks are {', '.join(c.name for c in self.checks)}")


@dataclass(frozen=True)
class ConcavityVerdict:
    function: str
    concave: bool
    defect: float
    witness: tuple[float, float] | None
    tol: float


def _prepare_grid(grid) -> np.ndarray:
    if grid is None:
        return default_grid()
    arr = np.unique(np.asarray(grid, dtype=float))
    if arr.size == 0:
        raise UsageError("probe grid must be non-empty")
    if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
        raise UsageError("probe grid entries must be finite and strictly positive")
    return arr


def _require_probes(g: np.ndarray) -> None:
    """Reject a sorted grid whose probes leave the positive finite doubles,
    naming the first grid value that takes a probe out and that probe."""
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        for name, probe in _PROBES:
            v = probe(g)
            bad = ~((0.0 < v) & (v < np.inf))
            if bad.any():
                i = int(bad.argmax())
                raise UsageError(
                    f"probe grid value {float(g[i])!r} takes the probe {name} = {float(v[i])!r}"
                    " out of the positive finite doubles"
                )


def _jump_estimate(spread_small: np.ndarray, spread_big: np.ndarray) -> np.ndarray:
    return (10.0 * spread_small - spread_big) / 9.0


def _suffix_min(m: np.ndarray) -> np.ndarray:
    s = m.copy()
    for i in range(s.shape[0] - 2, -1, -1):
        np.minimum(s[i, :], s[i + 1, :], out=s[i, :])
    for j in range(s.shape[1] - 2, -1, -1):
        np.minimum(s[:, j], s[:, j + 1], out=s[:, j])
    return s


def check_axioms(
    f: RepresentingFunction, grid=None, tol: float = SCALAR_TOL
) -> AxiomReport:
    """Probe the mean axioms for the mean generated by ``f`` on a grid.

    Covers the six mean axioms (fixed point, symmetry, betweenness, joint
    monotonicity, continuity, positive homogeneity) over all grid pairs,
    plus the conditions on the generating function itself (positivity,
    f(1) = 1, the symmetry functional equation t*f(1/t) = f(t), monotone
    increase, continuity).  Violations are relative wherever a natural
    scale exists, so a single tolerance is meaningful across checks.
    """
    tol = require_tol(tol)
    g = _prepare_grid(grid)
    _require_probes(g)
    n = g.size
    checks: list[AxiomCheck] = []

    def add(name: str, violation: float, witness: tuple[float, ...]) -> None:
        v = float(violation)
        checks.append(AxiomCheck(name, v, witness, v <= tol))

    fg = f(g)
    d1, d2 = JUMP_DELTA, 10.0 * JUMP_DELTA

    # Conditions on f itself.
    k = int(np.argmin(fg))
    add("f-positivity", -fg[k], (float(g[k]),))

    add("f-normalization", abs(f(1.0) - 1.0), (1.0,))

    sym = np.abs(g * f(1.0 / g) - fg) / np.abs(fg)
    k = int(np.argmax(sym))
    add("f-symmetry", sym[k], (float(g[k]),))

    if n >= 2:
        inc = fg[:-1] - fg[1:]
        k = int(np.argmax(inc))
        add("f-increasing", inc[k], (float(g[k]), float(g[k + 1])))
    else:
        add("f-increasing", 0.0, (float(g[0]),))

    e1 = np.abs(f(g * (1.0 + d1)) - f(g * (1.0 - d1)))
    e2 = np.abs(f(g * (1.0 + d2)) - f(g * (1.0 - d2)))
    jump = _jump_estimate(e1, e2) / np.abs(fg)
    k = int(np.argmax(jump))
    add("f-continuity", jump[k], (float(g[k]),))

    # Axioms of the induced mean, probed on all grid pairs.
    xs, ys = np.meshgrid(g, g, indexing="ij")
    m = mean_num(f, xs, ys)

    diag = np.abs(np.diag(m) - g) / g
    k = int(np.argmax(diag))
    add("mean-fixed-point", diag[k], (float(g[k]), float(g[k])))

    asym = np.abs(m - m.T) / np.maximum(np.abs(m), np.abs(m.T))
    i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
    add("mean-symmetry", asym[i, j], (float(g[i]), float(g[j])))

    if n >= 2:
        lo, hi = np.minimum(xs, ys), np.maximum(xs, ys)
        between = np.where(xs == ys, -np.inf, np.maximum(lo - m, m - hi) / hi)
        i, j = np.unravel_index(int(np.argmax(between)), between.shape)
        add("mean-betweenness", between[i, j], (float(g[i]), float(g[j])))

        smin = _suffix_min(m)
        cand = (m[:-1, :-1] - smin[1:, 1:]) / m[:-1, :-1]
        i, j = np.unravel_index(int(np.argmax(cand)), cand.shape)
        block = m[i + 1 :, j + 1 :]
        bi, bj = np.unravel_index(int(np.argmin(block)), block.shape)
        add(
            "mean-monotonicity",
            cand[i, j],
            (float(g[i]), float(g[j]), float(g[i + 1 + bi]), float(g[j + 1 + bj])),
        )
    else:
        add("mean-betweenness", 0.0, (float(g[0]), float(g[0])))
        add("mean-monotonicity", 0.0, (float(g[0]), float(g[0])))

    e1 = np.abs(mean_num(f, xs * (1.0 + d1), ys) - mean_num(f, xs * (1.0 - d1), ys))
    e2 = np.abs(mean_num(f, xs * (1.0 + d2), ys) - mean_num(f, xs * (1.0 - d2), ys))
    jump = _jump_estimate(e1, e2) / np.abs(m)
    i, j = np.unravel_index(int(np.argmax(jump)), jump.shape)
    add("mean-continuity", jump[i, j], (float(g[i]), float(g[j])))

    c = np.array(_HOMOGENEITY_SCALES)[:, None, None]
    hv = np.abs(mean_num(f, c * xs, c * ys) - c * m) / (c * m)
    s, i, j = np.unravel_index(int(np.argmax(hv)), hv.shape)  # ties: the first scale, then the first pair
    add("mean-homogeneity", hv[s, i, j], (float(g[i]), float(g[j]), _HOMOGENEITY_SCALES[s]))

    return AxiomReport(
        function=f.id,
        tol=tol,
        grid_lo=float(g[0]),
        grid_hi=float(g[-1]),
        grid_points=n,
        checks=tuple(checks),
    )


def concavity_probe(
    f: RepresentingFunction, grid=None, tol: float = CONCAVITY_TOL
) -> ConcavityVerdict:
    """Midpoint-concavity test over all grid pairs, by the verifier itself.

    Pair (a, b) is the two-point space X in {a, b} with weights 1/2, Y
    constant 1, whose gap f((a+b)/2) - (f(a)+f(b))/2 is judged by
    ``classify_gap``: non-concave iff the smallest gap is violated at tol.
    The defect is that gap negated and the witness its first pair in C order.
    A "concave" verdict only means no violation was found at this grid
    resolution.
    """
    tol = require_tol(tol)
    g = _prepare_grid(grid)
    if g.size < 2:
        raise UsageError("concavity probe needs a grid with at least 2 points")
    gaps = two_point_gaps(f, g[:, None], g[None, :], 0.5)
    i, j = np.unravel_index(int(np.argmin(gaps)), gaps.shape)
    worst = float(gaps[i, j])
    concave = classify_gap(worst, tol) != VERDICT_VIOLATED
    witness = None if concave else (float(min(g[i], g[j])), float(max(g[i], g[j])))
    # 0.0 - gap, not -gap: a zero gap is a defect of +0.0, never -0.0.
    return ConcavityVerdict(
        function=f.id, concave=concave, defect=0.0 - worst, witness=witness, tol=tol
    )

"""Exact verification of the expectation inequality on finite spaces.

The object under test is always the same: with lhs the expectation of the
mean and rhs the mean of the expectations, the signed gap rhs - lhs must be
non-negative (up to tolerance) when the generating function is concave.
Three settings share that shape:

* scalar: E(m(X, Y)) vs m(E X, E Y) over a finite joint space,
* operator: Tr(rho m(A, B)) vs m(Tr(rho A), Tr(rho B)) in a fixed state,
* random matrix: atom-wise state expectations averaged over a finite space.

All sums are exact weighted sums over atoms; no Monte Carlo error enters the
verdicts (campaigns sample the *instances*, not the integrals).  A space is
its arrays, and its mode is the rank of x.  Verification runs on blocks of
spaces, each with its own function: :func:`atom_values` evaluates their
atoms one kernel call per atom shape and lays them out as padded arrays, one
row per space, and :func:`block_sides` forms every row's weighted sums at
once and the rhs in one call per function.  The verifiers pass one space;
campaigns a block of trials across functions, with the bits of each alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, NumericError, UsageError, content_lines, located, place, read_input
from .functions import RepresentingFunction, means, run_slices
from .linalg import load_matrix, require_admissible, sym_matrix
from .operator_means import OperatorMeanSpec, perspective_traces, state_traces
from .reports import InequalityReport, inequality_report
from .sampling import check_density
from .tolerances import MATRIX_TOL, PROB_SUM_TOL, SCALAR_TOL

MODE_SCALAR = "scalar"
MODE_MATRIX = "matrix"


@dataclass(frozen=True, eq=False)
class FiniteJointSpace:
    """Finite probability space: the validated form that verifiers trust.

    Built by scalar_space/matrix_space/load_space, or by samplers whose
    values are valid by construction.  Atom i is (p[i], x[i], y[i], rho[i]):
    x and y are (k,) in scalar mode and (k, n, n) in matrix mode, where rho
    is a (k, n, n) stack of densities; rho is None exactly in scalar mode.
    The mode is read from the rank of x.  Equality is identity."""

    p: np.ndarray
    x: np.ndarray
    y: np.ndarray
    rho: np.ndarray | None = None

    @property
    def mode(self) -> str:
        return MODE_SCALAR if self.x.ndim == 1 else MODE_MATRIX

    @property
    def dims(self) -> int:
        return 1 if self.x.ndim == 1 else int(self.x.shape[-1])

    @property
    def atoms(self) -> int:
        return len(self.p)


def _probability(p) -> float:
    p = float(p)
    if not (math.isfinite(p) and p >= 0.0):
        raise DomainError(f"atom probability must be finite and >= 0, got {p!r}")
    return p


def _check_total(probs: list[float]) -> None:
    if not probs:
        raise UsageError("a finite joint space needs at least one atom")
    total = math.fsum(probs)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise DomainError(f"atom probabilities sum to {total!r}, not 1")


def _scalar_atom(entry) -> tuple[float, float, float]:
    """One (p, x, y) atom: p finite and >= 0, x and y positive and finite."""
    if len(entry) != 3:
        raise UsageError("scalar atoms are (p, x, y) triples")
    p, x, y = map(float, entry)
    if not (math.isfinite(x) and x > 0.0 and math.isfinite(y) and y > 0.0):
        raise DomainError(f"scalar atom values must be positive, got ({x!r}, {y!r})")
    return _probability(p), x, y


def scalar_space(entries, where=None) -> FiniteJointSpace:
    """Build a scalar-mode space from (probability, x, y) triples; ``where``
    locates errors as in :func:`matrix_space`, with part None."""
    atoms = []
    for i, entry in enumerate(entries):
        with located(where and where(i, None)):
            atoms.append(_scalar_atom(entry))
    with located(where and where(None, None)):
        _check_total([a[0] for a in atoms])
    return FiniteJointSpace(*(np.array(column) for column in zip(*atoms)))


def _observable(m, part: str, where: str | None) -> np.ndarray:
    """Matrix atom ``part`` (X or Y), positive definite within the condition
    guard; its errors start with ``where``."""
    with located(where):
        m = sym_matrix(m)
        require_admissible(m, f"matrix atom {part}")
        return m


def _matrix_atom(entry, dim: int | None, at) -> tuple:
    """One (p, X, Y, rho) atom: p finite and >= 0, X and Y positive definite
    within the condition guard, rho a density, all of one dimension and of
    ``dim`` when one is set.  An error of X, Y or rho alone starts with
    ``at("X")``, ``at("Y")`` or ``at("rho")``, any other with ``at(None)``."""
    with located(at(None)):
        if len(entry) != 4:
            raise UsageError("matrix atoms are (p, X, Y, rho) tuples: every atom needs a density")
    p, x, y, rho = entry
    x, y = _observable(x, "X", at("X")), _observable(y, "Y", at("Y"))
    with located(at("rho")):
        rho = check_density(rho)
    with located(at(None)):
        n = x.shape[0]
        if dim is not None and n != dim:
            raise UsageError("all atoms of a matrix space must share one dimension")
        if y.shape[0] != n:
            raise UsageError(f"matrix atom X has dimension {n} but Y has dimension {y.shape[0]}")
        if rho.shape[0] != n:
            raise UsageError("atom density dimension differs from the observables")
        return _probability(p), x, y, rho


def matrix_space(entries, where=None) -> FiniteJointSpace:
    """Build a matrix-mode space from (p, X, Y, rho) tuples.

    X and Y must be positive definite with condition number within the
    perspective guard, and every atom's density must pass the density-matrix
    checks.  All atoms share one dimension.  ``where``, when given, maps
    (i, part) to the location an error's message starts with: i is the
    0-based index of the atom it is found in, or None for an error of the
    whole space, and part the atom's matrix it is about ("X", "Y" or "rho"),
    or None.
    """
    atoms = []
    for i, entry in enumerate(entries):
        dim = atoms[0][1].shape[0] if atoms else None
        atoms.append(_matrix_atom(entry, dim, lambda part: where and where(i, part)))
    with located(where and where(None, None)):
        _check_total([a[0] for a in atoms])
    return FiniteJointSpace(*(np.array(column) for column in zip(*atoms)))


def verify_numeric(
    space: FiniteJointSpace,
    f: RepresentingFunction,
    tol: float = SCALAR_TOL,
) -> InequalityReport:
    """Scalar expectation inequality: E(m_f(X,Y)) vs m_f(E X, E Y), exact sums."""
    if space.mode != MODE_SCALAR:
        raise UsageError(f"verify_numeric needs a scalar-mode space, got {space.mode!r}")
    if not isinstance(f, RepresentingFunction):
        raise UsageError("scalar verification needs a RepresentingFunction")
    # Values were validated when the space was built.
    return _verify(space, f, tol, "num")


def construct_counterexample(x1: float, x2: float, p: float) -> FiniteJointSpace:
    """Two-point space with Y constant 1: X takes x1, x2 with weights p, 1-p.

    Verifying it with f computes the gap f(p*x1 + (1-p)*x2) - (p*f(x1) + (1-p)*f(x2)),
    the midpoint-concavity defect of f at that weighting: any non-concave f
    yields a violation for some choice of (x1, x2, p).
    """
    p = float(p)
    if not (math.isfinite(p) and 0.0 < p < 1.0):
        raise UsageError(f"p must lie strictly inside (0, 1), got {p!r}")
    x1, x2 = float(x1), float(x2)
    if x1 == x2:
        raise UsageError("x1 and x2 must differ")
    return scalar_space([(p, x1, 1.0), (1.0 - p, x2, 1.0)])


def two_point_gaps(f: RepresentingFunction, x1, x2, p) -> np.ndarray:
    """The gaps rhs - lhs of :func:`construct_counterexample`'s spaces, X
    taking x1 and x2 with weights p and 1 - p and Y constant 1, for trusted
    arrays x1, x2 > 0 and 0 <= p <= 1 broadcast to one shape: verified as one
    block, each gap with the bits of verifying its space alone."""
    x1, x2, p = np.broadcast_arrays(x1, x2, p)
    k = p.size
    space = FiniteJointSpace(np.stack((p, 1.0 - p), -1).ravel(), np.stack((x1, x2), -1).ravel(), np.ones(2 * k))
    lhs, rhs = block_sides([(f, k)], np.full(k, 2), [(np.arange(k), space)])
    return (rhs - lhs).reshape(p.shape)


def verify_operator(
    rho,
    a,
    b,
    spec: OperatorMeanSpec,
    tol: float = MATRIX_TOL,
    where=None,
) -> InequalityReport:
    """Operator expectation inequality in a state: Tr(rho m(A,B)) vs m(E A, E B),
    verified as the random-matrix inequality on a validated one-atom space.
    ``where``, when given, maps the argument an error is about ("rho", "a" or
    "b") to the location its message starts with; an error about two of them
    has none."""
    arg = {"rho": "rho", "X": "a", "Y": "b"}  # the argument each part of the atom is
    at = where and (lambda i, part: part and where(arg[part]))
    return verify_matrix(matrix_space([(1.0, a, b, rho)], at), spec, tol, "op")


def verify_random_matrix(
    space: FiniteJointSpace,
    spec: OperatorMeanSpec,
    tol: float = MATRIX_TOL,
) -> InequalityReport:
    """Random-matrix inequality: atom-averaged state expectations of the mean
    against the scalar mean of the atom-averaged state expectations."""
    if space.mode != MODE_MATRIX:
        raise UsageError(f"verify_random_matrix needs a matrix-mode space, got {space.mode!r}")
    return verify_matrix(space, spec, tol, "rm")


def verify_matrix(space: FiniteJointSpace, spec: OperatorMeanSpec, tol: float, mode: str) -> InequalityReport:
    """The matrix verifier behind ``op`` and ``rm``, on a trusted matrix-mode
    space with a density on every atom; ``mode`` labels the report."""
    if not isinstance(spec, OperatorMeanSpec):
        raise UsageError("matrix verification needs an OperatorMeanSpec")
    return _verify(space, spec.f, tol, mode)


def atom_values(runs, counts, buckets) -> tuple[np.ndarray, np.ndarray]:
    """The block layout of T trusted spaces of one mode, space t of counts[t]
    atoms: P, (T, K + 1), holds space t's probabilities in row t, columns 1
    to counts[t], and V, (3, T, K + 1), the atoms' values of the mean, X and Y
    in the same places: m_f(x, y), x and y, or in matrix mode Tr(rho M) for M
    in (P_f(X, Y), X, Y).  Column 0 and the pads hold p = 0 and value 0.
    Tr(rho X) and Tr(rho Y) are bit for bit what
    ``operator_means.expectation_state`` gives; Tr(rho P_f(X, Y)) is the
    kernel's trace readout, which never forms P_f(X, Y).

    ``runs`` are (f, count) pairs: f is the function of the next count spaces.
    ``buckets`` are (rows, space) pairs, one per atom shape: ``space`` stacks
    the atoms of the spaces ``rows`` (ascending), one after another.  They are
    taken one at a time, and a bucket is let go once its values are in the
    layout, so a lazy iterable of buckets has one alive at a time.  A bucket
    takes one kernel call, f on each run's atoms (in matrix mode at most one
    eigensolve, for the runs without a closed form), and every atom gets the
    bits it gets alone: the kernels work slice by slice.  Kernel errors name
    an atom by its index in its bucket."""
    counts = np.asarray(counts)
    atom = np.arange(counts.max() + 1) <= counts[:, None]
    atom[:, 0] = False
    row_run = np.repeat(np.arange(len(runs)), [count for _, count in runs])
    layout = np.zeros((4, *atom.shape))
    for rows, s in buckets:
        rows = np.asarray(rows)
        # Each run's atoms in the bucket, in run order as the rows ascend.
        sizes = np.bincount(row_run[rows], counts[rows], len(runs)).tolist()
        atom_runs = [(f, int(size)) for (f, _), size in zip(runs, sizes) if size]
        if s.x.ndim == 1:
            values = (_means(atom_runs, s.x, s.y), s.x, s.y)
        else:
            traces = (state_traces(s.rho, v) for v in (s.x, s.y))
            values = (perspective_traces(atom_runs, s.rho, s.x, s.y), *traces)
        t, j = np.nonzero(atom[rows])  # the bucket's atoms, in its order
        layout[:, rows[t], j] = (s.p, *values)
        del s, values  # before the next bucket is built
    return layout[0], layout[1:]


def _means(runs, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """m_f(x, y) with each run's f on its contiguous slice of x and y."""
    return np.concatenate([means(f, x[rows], y[rows]) for f, rows in run_slices(runs)])


def weighted_sums(P: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Each row's sum of P * V, added left to right from column 0 as the golden
    outputs pin: cumsum accumulates in order where sum() adds pairwise, and a
    pad adds an exact +0.0.  The sums accumulate in the products' array."""
    pv = P * V
    return np.cumsum(pv, axis=-1, out=pv)[..., -1]


def block_sides(runs, counts, buckets) -> tuple[np.ndarray, np.ndarray]:
    """lhs and rhs m_f(E X, E Y) of every trusted space of a block laid out as
    in :func:`atom_values`, as (T,) arrays, rhs from one ``means`` call per
    run.  E X and E Y can underflow, so they must be finite and above 0 in
    every mode, and both sides must be finite.  A failing space raises an
    error that does not say which: a caller that names its spaces finds the
    first failing one by verifying each alone."""
    lhs, ex, ey = sums = weighted_sums(*atom_values(runs, counts, buckets))
    e = sums[1:]
    if not (0.0 < e.min() and e.max() < math.inf):  # min and max propagate NaN
        t = int(((0.0 < e) & (e < math.inf)).all(0).argmin())
        name, v = ("E X", ex[t]) if not 0.0 < ex[t] < math.inf else ("E Y", ey[t])
        raise DomainError(f"{name} must be positive and finite, got {float(v)!r}")
    rhs = _means(runs, ex, ey)
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    if not finite.all():
        t = int(finite.argmin())
        raise NumericError(f"non-finite inequality sides lhs={float(lhs[t])!r} rhs={float(rhs[t])!r}")
    return lhs, rhs


def _verify(space: FiniteJointSpace, f: RepresentingFunction, tol: float, mode: str) -> InequalityReport:
    """The tail both verifiers share: the one-space block's sides, reported."""
    (lhs,), (rhs,) = block_sides([(f, 1)], [space.atoms], [([0], space)])
    return inequality_report(lhs, rhs, tol, f.id, mode, space.dims, space.atoms)


def _try_float(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _space_line(fields: list[str], scalar: bool, base: Path) -> tuple:
    """One atom line of a space file, in the file's mode."""
    if scalar:
        values = [_try_float(v) for v in fields]
        if len(fields) != 3 or None in values:
            raise UsageError(f"scalar atoms need 'p x y' with three numbers, got {' '.join(fields)!r}")
        return values
    if len(fields) != 4:
        raise UsageError("matrix atoms need 'p x_path y_path rho_path', rho_path the atom's density")
    prob = _try_float(fields[0])
    if prob is None:
        raise UsageError(f"bad probability {fields[0]!r}")
    return (prob, *(load_matrix(base / name) for name in fields[1:]))


def load_space(path) -> FiniteJointSpace:
    """Read a space file: one atom per line.

    Scalar mode lines are ``p x y``; matrix mode lines are
    ``p x_path y_path rho_path`` with paths resolved relative to the space
    file.  The first atom line sets the mode: scalar when its x and y are
    numbers (or when there is none, which the scalar checks reject).  Errors
    found in one atom, while its line is read or once its matrices are
    checked, name the file and the line; errors of the whole space, such as
    probabilities that do not sum to 1, name the file.
    """
    p = Path(path)
    rows = [(n, line.split()) for n, line in content_lines(read_input(p, "space"))]
    scalar = all(len(f) == 3 and None not in (_try_float(f[1]), _try_float(f[2])) for _, f in rows[:1])

    def where(i: int | None, part=None) -> str:
        return place("space", p, None if i is None else rows[i][0])

    entries = []
    for i, (_, fields) in enumerate(rows):
        with located(where(i)):
            entries.append(_space_line(fields, scalar, p.parent))
    return (scalar_space if scalar else matrix_space)(entries, where)


def space_to_jsonable(space: FiniteJointSpace) -> dict:
    """Self-contained JSON structure for a space (campaign worst-case records)."""
    p, x, y = space.p.tolist(), space.x.tolist(), space.y.tolist()
    if space.mode == MODE_SCALAR:
        return {"mode": MODE_SCALAR, "atoms": [list(a) for a in zip(p, x, y)]}
    atoms = zip(p, x, y, space.rho.tolist())
    return {"mode": MODE_MATRIX, "atoms": [dict(zip(("p", "x", "y", "rho"), a)) for a in atoms]}

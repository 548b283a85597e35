"""Dense real symmetric linear algebra: eigensolves, square roots and order tests.

Matrices are plain float64 ``numpy`` arrays; :func:`sym_matrix` is the
validating constructor used at every public boundary (it enforces squareness,
finiteness, the supported dimension range and exact symmetry by averaging).
This module is the one home of eigensolves, Cholesky factors and positive
definite admission: no other calls numpy's eigensolvers or Cholesky, or reads
COND_LIMIT, the guard of :func:`require_pd`'s rule.  The eigensolver is
LAPACK's symmetric driver via ``numpy.linalg.eigh``, wrapped so that
eigenvalues are ascending and failures surface as package errors.
:func:`rebuild` is the one reconstruction Q diag(lam) Q^T: square roots and
the commuting oracle assemble their matrices through it from a spectrum, and
the perspective kernel from its non-orthogonal factor.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NotPositiveDefiniteError, NumericError, UsageError
from .errors import content_lines, located, place, read_input
from .reports import VERDICT_VIOLATED, classify_gap, require_tol
from .tolerances import COND_LIMIT, LOAD_SYMMETRY_TOL, LOEWNER_TOL

#: Largest supported matrix dimension.
MAX_DIM = 64


class SpectralDecomposition(NamedTuple):
    """Eigenpairs of a symmetric matrix: ascending values, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_matrix(values) -> np.ndarray:
    """Build a validated symmetric matrix (symmetry enforced by averaging); the
    averaged matrix must be finite."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UsageError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n < 1 or n > MAX_DIM:
        raise UsageError(f"matrix dimension must be in [1, {MAX_DIM}], got {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # an entry above max / 2 overflows
        s = symmetrize(a)
    if not np.isfinite(s).all():
        limit = np.finfo(float).max / 2
        raise DomainError(f"matrix entries must be finite and at most {limit:.4g} in magnitude")
    return s


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2 over the last two axes, without checks; exactly symmetric
    inputs come back bit for bit."""
    return (m + m.swapaxes(-1, -2)) / 2.0


def sym_eigen(a) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix.

    Returns ascending eigenvalues and an orthogonal eigenvector matrix with
    columns paired to them; deterministic for a fixed input.
    """
    return spectrum(sym_matrix(a))


def spectrum(s: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a trusted symmetric array or (..., n, n) stack of
    them, one solve per slice; solver failures raise NumericError."""
    try:
        lam, q = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        off = float(np.linalg.norm(np.where(np.eye(s.shape[-1], dtype=bool), 0.0, s)))
        raise NumericError(
            f"symmetric eigensolver failed to converge (off-diagonal norm {off:.3e})"
        ) from exc
    return SpectralDecomposition(lam, q)


def eigenvalues(s: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a trusted symmetric array or stack of them."""
    return np.linalg.eigvalsh(s)


def rebuild(lam: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Q diag(lam) Q^T, re-symmetrized to absorb roundoff, for trusted lam and
    Q: a spectrum and its orthonormal eigenvectors, or any square Q, such as
    the perspective kernel's factor F = L Q.  lam and q may be (..., n) and
    (..., n, n) stacks, one per slice."""
    return symmetrize((q * lam[..., None, :]) @ q.swapaxes(-1, -2))


def require_pd(lam: np.ndarray, label: str, cond_limit: float | None = COND_LIMIT) -> None:
    """Reject an ascending spectrum with smallest eigenvalue <= 0 or, unless
    the limit is None, condition number above it: a rule free of units.

    ``lam`` may be a (..., n) stack of spectra, one per atom; the first
    offending atom (in C order) is reported, and when the stack holds more
    than one spectrum the message names its index.
    """
    lows = lam[..., 0].ravel().tolist()
    highs = lam[..., -1].ravel().tolist()
    for i, (low, high) in enumerate(zip(lows, highs)):
        if low <= 0.0:
            raise NotPositiveDefiniteError(
                f"{atom_label(label, i, len(lows))} is not positive definite (min eigenvalue {low!r})",
                min_eigenvalue=low,
            )
        if cond_limit is not None and high / low > cond_limit:
            raise DomainError(
                f"{atom_label(label, i, len(lows))} condition number {high / low:.3e} "
                f"exceeds the guard {cond_limit:.0e}"
            )


def require_admissible(s: np.ndarray, label: str) -> None:
    """The guard on a trusted symmetric matrix or (..., n, n) stack: its
    eigenvalues judged by :func:`require_pd`."""
    require_pd(np.linalg.eigvalsh(s), label)


def pd_factor(s: np.ndarray, label: str) -> np.ndarray:
    """Lower Cholesky factor of each slice of a trusted symmetric stack.  When
    one has none, the stack is judged by :func:`require_admissible`; a stack
    that passes it yet has no factor raises NumericError."""
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        require_admissible(s, label)
        raise NumericError(f"{label} passed the guard but has no Cholesky factor") from None


def certified_factor(s: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """(L, L^-1) of :func:`pd_factor`, once every slice is admitted by its own
    factor: λmin >= 1 / ||L^-1||_F^2 > 0 and λmax <= tr S, so the stack passes
    when tr S ||L^-1||_F^2 <= COND_LIMIT / 2 (a margin of 2 over the guard);
    otherwise it is judged by :func:`require_admissible`."""
    l = pd_factor(s, label)
    inv_l = np.linalg.inv(l)
    inv_norm2 = np.square(inv_l).sum(axis=(-2, -1))  # ||L^-1||_F^2 = tr S^-1
    if not (np.trace(s, axis1=-2, axis2=-1) * inv_norm2 <= COND_LIMIT / 2).all():
        require_admissible(s, label)
    return l, inv_l


def atom_label(label: str, i: int, count: int) -> str:
    """``label``, naming atom ``i`` when a stack holds more than one atom."""
    return f"{label} of atom {i}" if count > 1 else label


def sqrt_pd(a) -> np.ndarray:
    """Positive-definite square root; rejects matrices with min eigenvalue <= 0."""
    lam, q = sym_eigen(a)
    require_pd(lam, "matrix", None)
    return rebuild(np.sqrt(lam), q)


def min_eigenvalue(a) -> float:
    return float(eigenvalues(sym_matrix(a))[0])


def loewner_leq(a, b, tol: float = LOEWNER_TOL) -> bool:
    """Loewner order test: A <= B unless the min eigenvalue of B - A, as a
    gap, is judged ``violated`` by ``reports.classify_gap`` at ``tol``."""
    tol = require_tol(tol)
    sa, sb = sym_matrix(a), sym_matrix(b)
    if sa.shape != sb.shape:
        raise UsageError(f"dimension mismatch: {sa.shape} vs {sb.shape}")
    return classify_gap(min_eigenvalue(sb - sa), tol) != VERDICT_VIOLATED


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def congruence(c, a) -> np.ndarray:
    """Congruence C^T A C, re-symmetrized to absorb roundoff.

    ``c`` may be rectangular (n rows, k columns), compressing an n-dim
    symmetric matrix to a k-dim one.
    """
    cm, sa = np.asarray(c, dtype=float), sym_matrix(a)
    if cm.ndim != 2 or cm.shape[0] != sa.shape[0]:
        raise UsageError(f"congruence shape mismatch: C is {cm.shape}, A is {sa.shape}")
    if not np.all(np.isfinite(cm)):
        raise DomainError("congruence factor entries must be finite")
    return sym_matrix(cm.T @ sa @ cm)


def _dimension(line: str) -> int:
    try:
        n = int(line)
    except ValueError:
        n = 0
    if not 1 <= n <= MAX_DIM:
        raise UsageError(f"expected the dimension, an integer in [1, {MAX_DIM}], got {line!r}")
    return n


def _row(line: str, n: int) -> list[float]:
    try:
        row = [float(v) for v in line.split()]
    except ValueError:
        row = []
    if len(row) != n or not all(map(math.isfinite, row)):
        raise UsageError(f"expected a row of {n} finite numbers, got {line!r}")
    return row


def load_matrix(path) -> np.ndarray:
    """Read the matrix text format: a line with n, then n rows of n values.

    Blank lines and ``#`` comments are skipped.  A symmetry violation (max-abs
    entry of A - A^T) above LOAD_SYMMETRY_TOL times A's max-abs entry is an
    error; smaller ones are absorbed by averaging.  Errors name the file, and the line of a bad one.
    """
    p = Path(path)
    n, rows = None, []
    for k, line in content_lines(read_input(p, "matrix")):
        with located(place("matrix", p, k)):
            if n is None:
                n = _dimension(line)
            else:
                rows.append(_row(line, n))
    with located(place("matrix", p)):
        if n is None:
            raise UsageError("the file is empty")
        if len(rows) != n:
            raise UsageError(f"expected {n} rows, found {len(rows)}")
        a = np.array(rows)
        with np.errstate(over="ignore"):
            skew, largest = (float(np.max(np.abs(m))) for m in (a - a.T, a))
        if skew > LOAD_SYMMETRY_TOL * largest:
            raise UsageError(
                f"symmetry violation {skew:.3e} exceeds {LOAD_SYMMETRY_TOL} times the largest entry {largest:.3e}"
            )
        return sym_matrix(a)


def save_matrix(path, a) -> None:
    """Write a matrix in the text format with 17-significant-digit values."""
    s = sym_matrix(a)
    lines = [str(s.shape[0])]
    for row in s:
        lines.append(" ".join(format(v, ".17g") for v in row))
    Path(path).write_text("\n".join(lines) + "\n")

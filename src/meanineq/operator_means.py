"""Non-commutative perspectives and Kubo-Ando operator means.

The perspective of a function f at positive definite A, B is::

    P_f(A, B) = A^(1/2) f(A^(-1/2) B A^(-1/2)) A^(1/2)

and the operator mean generated by an operator monotone representing
function is exactly this perspective, so that the scalar reduction for
commuting arguments is a*f(b/a) per joint eigenvalue pair.  By congruence
invariance any factor A = L L^T may stand in for A^(1/2) (Kubo and Ando,
1980; Bhatia, *Positive Definite Matrices*, ch. 4): both readouts, the
matrix (``perspective_kernel``) and, for campaigns, only Tr(rho P_f(A, B))
(``perspective_traces``), take Cholesky factors and call the one eigen
route, ``_eigen_factor``, an eigensolve of L^-1 B L^-T.  Every kernel first
admits its arguments, with the same checks and messages, through ``linalg``,
the one home of eigensolves, Cholesky factors and PD admission.  The trace
readout takes closed forms for two means, A∇B = (A + B) / 2 and A!B =
2 A (A + B)^-1 B (``CLOSED_TRACES``): no eigensolve and no inner clamp; the
other runs of a stack share one eigensolve.  The matrix readout, and so
``operator_mean``, stays on the eigen route for every mean.  This module also
carries the transformer-inequality checks, the Jensen inequality for sums of
congruences, state expectations Tr(rho A), and a commuting-pair oracle used
to cross-check the perspective against scalar means.

All inequality checks here use the concave orientation: the catalog's
operator monotone functions are operator concave, so compressions land
below the mean of the compressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NotPositiveDefiniteError, PreconditionError, UsageError
from .functions import RepresentingFunction, get_function, mean_num, means, run_slices
from .linalg import atom_label, certified_factor, congruence, eigenvalues, frobenius, pd_factor
from .linalg import rebuild, require_admissible, require_pd, spectrum, sym_eigen, sym_matrix
from .reports import VERDICT_HOLDS, VERDICT_VIOLATED, InequalityReport, classify_gap, inequality_report, require_tol
from .tolerances import CLAMP_TOL, COMMUTE_TOL, DIAGONALIZE_RTOL, INVERTIBLE_RTOL, MATRIX_TOL, NORM_FLOOR, PARTITION_TOL


@dataclass(frozen=True)
class OperatorMeanSpec:
    """A representing function admitted to the operator (Kubo-Ando) calculus.

    Only catalog entries flagged operator monotone are accepted; the
    non-concave counterexample entry is rejected at construction.
    """

    f: RepresentingFunction

    def __post_init__(self):
        if not self.f.claims_operator_monotone:
            raise UsageError(
                f"function {self.f.id!r} is not flagged operator monotone and "
                "cannot generate an operator mean"
            )

    @property
    def id(self) -> str:
        return self.f.id


def operator_mean_spec(fid: str) -> OperatorMeanSpec:
    """Resolve a function id to an operator-mean spec (rejects non-monotone ids)."""
    return OperatorMeanSpec(get_function(fid))


@dataclass(frozen=True)
class TransformerReport:
    """Outcome of a transformer-inequality check lhs <= rhs (Loewner order)."""

    lhs: np.ndarray
    rhs: np.ndarray
    min_eig_gap: float
    verdict: str
    equality_case: bool
    equality_defect: float
    tol: float

    @property
    def holds(self) -> bool:
        return self.verdict == VERDICT_HOLDS


def operator_perspective(f: RepresentingFunction, a, b) -> np.ndarray:
    """Evaluate the non-commutative perspective P_f(A, B).

    Both arguments must be positive definite with condition number within
    the guard; the inner matrix L^-1 B L^-T (A = L L^T) gets the usual
    roundoff clamp before the functional calculus.
    """
    if not isinstance(f, RepresentingFunction):
        raise UsageError("operator_perspective needs a RepresentingFunction")
    sa, sb = sym_matrix(a), sym_matrix(b)
    if sa.shape != sb.shape:
        raise UsageError(f"dimension mismatch: {sa.shape} vs {sb.shape}")
    require_admissible(sb, "second argument")
    return perspective_kernel(f, sa, sb)


def _admit(sa: np.ndarray, sb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L, L^-1, R) with A = L L^T and B = R R^T, once every slice of the
    trusted symmetric stacks A and B, B known PD within the guard, is
    admitted: A by ``linalg.certified_factor``, B by ``linalg.pd_factor``.
    Every perspective kernel runs this first, on all its slices, so a closed
    form rejects what the eigen route rejects."""
    return (*certified_factor(sa, "first argument"), pd_factor(sb, "second argument"))


def _eigen_factor(runs, l, k, atoms=None, count=None) -> tuple[np.ndarray, np.ndarray]:
    """(F, f(Λ)) of admitted slices, each (f, count) run's f on its
    consecutive slices' inner spectra, from one eigensolve of the stack of
    inner matrices K K^T, K = L^-1 R: the eigen route of both readouts,
    :func:`perspective_kernel` and :func:`perspective_traces`.  ``atoms``
    gives each slice's index in the caller's stack of ``count`` atoms, which
    the errors name (default: the slices are that stack)."""
    lam_m, q_m = spectrum(k @ k.swapaxes(-1, -2))
    lows = lam_m[..., 0].ravel().tolist()
    if atoms is None:
        atoms, count = range(len(lows)), len(lows)
    if min(lows) <= 0.0:
        clamp = CLAMP_TOL * lam_m[..., -1:]
        for i, low, bound in zip(atoms, lows, clamp.ravel().tolist()):
            if low <= -bound:
                raise DomainError(
                    f"{atom_label('inner perspective matrix', i, count)} has "
                    f"eigenvalue {low!r}; inputs are not numerically positive definite"
                )
        lam_m = np.where(lam_m[..., :1] <= 0.0, np.maximum(lam_m, clamp), lam_m)
    images = np.concatenate([g.fn(lam_m[rows]) for g, rows in run_slices(runs)])
    if not np.isfinite(images).all():
        i = int(np.flatnonzero(~np.isfinite(images).all(axis=-1))[0])
        raise DomainError(
            f"{atom_label('scalar function', atoms[i], count)} produced non-finite "
            "eigenvalue images"
        )
    return l @ q_m, images


def perspective_kernel(f: RepresentingFunction, sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """P_f(A, B) = F diag(f(Λ)) F^T, for trusted symmetric A, B of one shape,
    B known PD within the guard.

    By congruence invariance, P_f(A, B) = L f(L^-1 B L^-T) L^T for A = L L^T.
    With B = R R^T and K = L^-1 R, the inner matrix K K^T = Q Λ Q^T takes the
    one eigensolve, and F = L Q, which is not orthogonal.  A and B are
    admitted as ``_admit`` admits them.  Inner eigenvalues in (-CLAMP_TOL
    λmax, 0] of a slice are clamped up to CLAMP_TOL λmax; a lower one
    rejects the inputs.

    A and B may be (..., n, n) stacks, one pair per atom (a 2-D pair is a
    stack of one): every slice gets the checks, and the bits, it gets alone."""
    l, inv_l, r = _admit(sa, sb)
    factor, images = _eigen_factor([(f, len(sa))], l, inv_l @ r)
    return rebuild(images, factor)


def state_traces(rho: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Tr(rho M) of each slice of (k, n, n) stacks: the campaign's E X and
    E Y atoms and the arithmetic closed form add the same bits."""
    return np.einsum("kij,kji->k", rho, m)


def _arithmetic_traces(rho: np.ndarray, sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Tr(rho A∇B) = (Tr rho A + Tr rho B) / 2."""
    return (state_traces(rho, sa) + state_traces(rho, sb)) / 2.0


def _harmonic_traces(rho: np.ndarray, sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Tr(rho A!B) = 2 Tr(rho A X) with X = (A + B)^-1 B, one solve a slice."""
    return 2.0 * state_traces(rho @ sa, np.linalg.solve(sa + sb, sb))


#: The trace readouts Tr(rho P_f(A, B)) that have a closed form in the
#: Kubo-Ando calculus (Kubo and Ando, *Math. Ann.* 246, 1980): A∇B = (A + B)
#: / 2 and A!B = 2 A (A + B)^-1 B.  Keyed by the ``fn`` of the catalog entry
#: of each id, so a function that only shares the id takes the eigen route.
CLOSED_TRACES = {
    get_function("arithmetic").fn: _arithmetic_traces,
    get_function("harmonic").fn: _harmonic_traces,
}


def perspective_traces(runs, rho: np.ndarray, sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Tr(rho P_f(A, B)) of each slice of (k, n, n) stacks, for
    :func:`perspective_kernel`'s arguments, without forming P: ``runs`` are
    (f, count) pairs, each run's f applied to its consecutive slices.

    Every slice is admitted first, as ``_admit`` admits it.  A run whose
    ``f.fn`` is in CLOSED_TRACES takes its closed form, with no eigensolve
    and no inner clamp.  The other runs' slices are gathered into one
    eigensolve, with :func:`perspective_kernel`'s clamp and checks, and read
    out as sum_i f(λ_i) w_i with w = diag(F^T rho F); their errors name an
    atom by its index in the whole stack.  Every slice gets the bits it gets
    alone."""
    l, inv_l, r = _admit(sa, sb)
    runs = run_slices(runs)
    eigen = np.ones(len(sa), dtype=bool)
    for g, rows in runs:
        eigen[rows] = g.fn not in CLOSED_TRACES
    at = np.flatnonzero(eigen)
    gathered = len(at) < len(sa)
    if gathered:  # the eigen route's slices only
        l, inv_l, r = l[at], inv_l[at], r[at]
    k = inv_l @ r
    del inv_l, r  # before the eigensolve
    traces = np.empty(len(sa))
    if len(at):
        eigen_runs = [(g, rows.stop - rows.start) for g, rows in runs if g.fn not in CLOSED_TRACES]
        factor, images = _eigen_factor(eigen_runs, l, k, at, len(sa))
        traces[at] = (images * (((rho[at] if gathered else rho) @ factor) * factor).sum(axis=-2)).sum(axis=-1)
        del l, k, factor  # before the closed forms
    for g, rows in runs:
        if g.fn in CLOSED_TRACES:
            traces[rows] = CLOSED_TRACES[g.fn](rho[rows], sa[rows], sb[rows])
    return traces


def operator_mean(spec: OperatorMeanSpec, a, b) -> np.ndarray:
    """The Kubo-Ando mean of positive definite A and B generated by the spec."""
    if not isinstance(spec, OperatorMeanSpec):
        raise UsageError("operator_mean needs an OperatorMeanSpec")
    return operator_perspective(spec.f, a, b)


def _simultaneous_eigenbasis(sa: np.ndarray, sb: np.ndarray):
    """Shared eigenbasis of a commuting symmetric pair.

    Diagonalizes A + mu*B for a generic mu; for exactly commuting inputs any
    eigenbasis of that combination diagonalizes both.  A few mu values are
    tried and the one with the smallest off-diagonal residual wins, which
    protects against accidental eigenvalue collisions of the combination.
    """
    scale = frobenius(sb)
    ratio = frobenius(sa) / scale if scale > 0.0 else 1.0
    best = None
    for mult in (0.6180339887498949, 0.8739190558871641, 1.070466269319124):
        q = sym_eigen(sa + (mult * ratio) * sb).eigenvectors
        da = q.T @ sa @ q
        db = q.T @ sb @ q
        off = frobenius(da - np.diag(np.diag(da))) + frobenius(db - np.diag(np.diag(db)))
        if best is None or off < best[0]:
            best = (off, q, np.diag(da).copy(), np.diag(db).copy())
    off, q, da, db = best
    limit = DIAGONALIZE_RTOL * max(1.0, frobenius(sa) + frobenius(sb))
    if off > limit:
        raise PreconditionError(
            f"inputs are not simultaneously diagonalizable at tolerance "
            f"(off-diagonal residual {off:.3e})"
        )
    return q, da, db


def _commuting_pd_pair(a, b, tol: float, label: str):
    """Shared eigenbasis q and paired eigenvalues (da, db) of a commuting PD
    pair, requiring ||AB - BA||_F <= tol * ||A||_F * ||B||_F, and each
    argument's joint eigenvalues to pass ``linalg.require_pd``, as every
    perspective's arguments do."""
    sa, sb = sym_matrix(a), sym_matrix(b)
    if sa.shape != sb.shape:
        raise UsageError(f"dimension mismatch: {sa.shape} vs {sb.shape}")
    comm = frobenius(sa @ sb - sb @ sa)
    limit = tol * max(frobenius(sa) * frobenius(sb), NORM_FLOOR)
    if comm > limit:
        raise PreconditionError(
            f"commutator norm {comm:.3e} exceeds {limit:.3e}; pair is not commuting"
        )
    q, da, db = _simultaneous_eigenbasis(sa, sb)
    require_pd(np.sort(da), f"{label} first argument")
    require_pd(np.sort(db), f"{label} second argument")
    return q, da, db


def commuting_oracle(
    spec: OperatorMeanSpec, a, b, tol: float = COMMUTE_TOL
) -> np.ndarray:
    """Independent mean for commuting PD pairs via scalar means per eigenvalue.

    Requires ||AB - BA||_F <= tol * ||A||_F * ||B||_F; simultaneous
    diagonalization then reduces the mean to one scalar mean per joint
    eigenvalue pair, bypassing the perspective formula entirely.
    """
    if not isinstance(spec, OperatorMeanSpec):
        raise UsageError("commuting_oracle needs an OperatorMeanSpec")
    q, da, db = _commuting_pd_pair(a, b, tol, "commuting oracle")
    # Scalar reduction of the perspective: a * f(b / a) per joint eigenvalue.
    images = means(spec.f, db, da)
    if not np.isfinite(images).all():
        raise DomainError("commuting oracle: scalar means are not all finite")
    return rebuild(images, q)


def expectation_state(rho, a) -> float:
    """Expectation of an observable in a state: Tr(rho A)."""
    r = np.asarray(rho, dtype=float)
    m = np.asarray(a, dtype=float)
    if r.shape != m.shape or r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise UsageError(f"dimension mismatch: state {r.shape}, observable {m.shape}")
    return float(np.einsum("ij,ji->", r, m))


def _transformer_report(
    lhs: np.ndarray,
    rhs: np.ndarray,
    tol: float,
    equality_possible: bool,
) -> TransformerReport:
    tol = require_tol(tol)
    gap_min = float(eigenvalues(rhs - lhs)[0])
    scale = max(frobenius(rhs), NORM_FLOOR)
    defect = frobenius(lhs - rhs) / scale
    # Loewner order has no equality verdict: only a violation is not holds.
    violated = classify_gap(gap_min, tol) == VERDICT_VIOLATED
    return TransformerReport(
        lhs=lhs,
        rhs=rhs,
        min_eig_gap=gap_min,
        verdict=VERDICT_VIOLATED if violated else VERDICT_HOLDS,
        equality_case=bool(equality_possible and defect <= tol),
        equality_defect=defect,
        tol=tol,
    )


def check_transformer(
    spec: OperatorMeanSpec, a, b, c, tol: float = MATRIX_TOL
) -> TransformerReport:
    """Verify the transformer inequality C^T m(A,B) C <= m(C^T A C, C^T B C).

    ``c`` may be any real matrix with matching row count, including a
    rectangular compression; both compressed arguments must stay positive
    definite.  The equality case is asserted only for invertible square C
    with relative Frobenius defect within tol.
    """
    sa, sb = sym_matrix(a), sym_matrix(b)
    cm = np.asarray(c, dtype=float)
    if cm.ndim != 2 or cm.shape[0] != sa.shape[0]:
        raise UsageError(f"transformer factor shape {cm.shape} does not match {sa.shape}")
    mean_ab = operator_mean(spec, sa, sb)
    lhs = congruence(cm, mean_ab)
    try:
        rhs = operator_mean(spec, congruence(cm, sa), congruence(cm, sb))
    except NotPositiveDefiniteError as exc:
        raise DomainError(
            f"congruence destroys positive definiteness: {exc}"
        ) from None
    invertible = False
    if cm.shape[0] == cm.shape[1]:
        svals = np.linalg.svd(cm, compute_uv=False)
        invertible = float(svals[-1]) > INVERTIBLE_RTOL * max(float(svals[0]), NORM_FLOOR)
    return _transformer_report(lhs, rhs, tol, invertible)


def check_jensen_sum(
    spec: OperatorMeanSpec,
    triples: Sequence[tuple],
    tol: float = MATRIX_TOL,
) -> TransformerReport:
    """Jensen inequality for sums of congruences (concave orientation).

    For factors with sum of c_i^T c_i below the identity (partition of unity
    or any sub-unital family, e.g. c_i = sqrt(lam_i) e_i from a spectral
    resolution of a density matrix), verifies::

        sum_i c_i^T m(A_i, B_i) c_i  <=  m(sum_i c_i^T A_i c_i, sum_i c_i^T B_i c_i)

    Raises a precondition error when the family exceeds the identity.
    """
    if not isinstance(spec, OperatorMeanSpec):
        raise UsageError("check_jensen_sum needs an OperatorMeanSpec")
    if len(triples) == 0:
        raise UsageError("check_jensen_sum needs at least one (c, A, B) triple")
    cs = [np.asarray(c, dtype=float) for c, _, _ in triples]
    if any(c.ndim != 2 for c in cs):
        raise UsageError("congruence factors must be 2-D matrices")
    n, k = cs[0].shape
    if any(c.shape[0] != n for c in cs):
        raise UsageError("all congruence factors must share the same row dimension")
    if any(c.shape[1] != k for c in cs):
        raise UsageError("all congruence factors must share the same column dimension")
    total = sum(c.T @ c for c in cs)
    excess = float(eigenvalues(sym_matrix(total) - np.eye(k))[-1])
    if excess > PARTITION_TOL:
        raise PreconditionError(
            f"partition-of-unity violation: sum of c_i^T c_i exceeds the identity "
            f"by {excess:.3e}"
        )
    lhs = np.zeros((k, k))
    sum_a = np.zeros((k, k))
    sum_b = np.zeros((k, k))
    for c, a, b in triples:
        cm = np.asarray(c, dtype=float)
        sa, sb = sym_matrix(a), sym_matrix(b)
        lhs = lhs + congruence(cm, operator_mean(spec, sa, sb))
        sum_a = sum_a + congruence(cm, sa)
        sum_b = sum_b + congruence(cm, sb)
    lhs = sym_matrix(lhs)
    rhs = operator_mean(spec, sym_matrix(sum_a), sym_matrix(sum_b))
    return _transformer_report(lhs, rhs, tol, equality_possible=True)


def trace_perspective_check(
    f: RepresentingFunction, a, b, tol: float = MATRIX_TOL
) -> InequalityReport:
    """Compare Tr P_f(A, B) with P_f(Tr A, Tr B) for commuting PD pairs.

    For concave f the trace side lies below the scalar side; for a convex
    (non-concave-flagged) f the orientation reverses.  The trace side is
    computed via the commuting scalar reduction, not the matrix perspective.
    """
    _, da, db = _commuting_pd_pair(a, b, COMMUTE_TOL, "trace perspective check")
    trace_side = float(np.sum(means(f, db, da)))
    scalar_side = mean_num(f, float(np.sum(db)), float(np.sum(da)))
    if f.claims_concave:
        lhs, rhs = trace_side, scalar_side
    else:
        lhs, rhs = scalar_side, trace_side
    return inequality_report(
        lhs=lhs,
        rhs=rhs,
        tol=tol,
        function=f.id,
        mode="trace",
        dims=da.shape[0],
        atoms=1,
    )

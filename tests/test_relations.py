"""Exact relations: transformations of a space that leave its exact gap
unchanged in real arithmetic must leave the computed verdict unchanged and
move the computed gap by roundoff only.

This is metamorphic testing: no reference implementation is needed, only a
relation the mathematics guarantees.

* Scalar spaces: permuting the atoms, swapping X and Y (every catalog mean
  is symmetric; counterexample-g too, as t g(1/t) = g(t)), and splitting
  each atom (p, x, y) into two atoms of weight p/2.  The bound is
  4 k eps max(|lhs|, |rhs|) for a space of k atoms: lhs is a sum of k
  products, and the means move each by a few ulp.
* Matrix spaces: conjugating every atom's rho, X and Y by one orthogonal U,
  since P_f(U A U^T, U B U^T) = U P_f(A, B) U^T and the trace is invariant.
  The bound is MATRIX_RELATIVE max(|lhs|, |rhs|).
* The campaign's trace kernel, on one bucket that runs every catalog
  operator mean, closed forms and eigen route alike: the Kubo-Ando order
  (f <= g on (0, inf) gives Tr rho P_f <= Tr rho P_g, within a few ulp of
  the larger trace) and the X <-> Y swap (every catalog mean is symmetric;
  bound MATRIX_RELATIVE).
* Exact scaling through ``verify.block_sides``: X and Y of an op or rm
  space scaled by c = 4^k, rho fixed, scale lhs, rhs and gap by exactly c.
  c and its square root are powers of two, so the Cholesky factors, the
  inverse, the solve and the traces only change exponents; no bound.
* Congruence through ``verify.block_sides``: X and Y of every atom mapped
  to C X C^T and C Y C^T by one invertible C, each rho to C^-T rho C^-1
  renormalised and the probabilities reweighted to match, divide lhs, rhs
  and gap by one positive number (Kubo and Ando's transformer equality).
  The bound is MATRIX_RELATIVE kappa(C)^2 max(|lhs|, |rhs|).

The bounds are fixed constants until the verifier carries an error bound of
its own beside every gap; the tests then check that bound instead.
"""

import numpy as np
import pytest

from meanineq import (
    DomainError,
    get_function,
    matrix_space,
    operator_mean_spec,
    sample_matrix_space,
    sample_operator_triple,
    sample_scalar_space,
    scalar_space,
    split_rng,
    verify_numeric,
    verify_operator,
    verify_random_matrix,
)
from meanineq.linalg import symmetrize
from meanineq.operator_means import perspective_traces
from meanineq.tolerances import COND_LIMIT
from meanineq.verify import FiniteJointSpace, block_sides

EPS = np.finfo(float).eps
#: One id per catalog entry; the concave ones have operator means.
SCALAR_IDS = ("arithmetic", "wyd:0.25", "geometric", "harmonic", "logarithmic", "counterexample-g")
MATRIX_IDS = SCALAR_IDS[:-1]
SPACES = 200
#: |delta gap| / max(|lhs|, |rhs|) allowed under conjugation.
MATRIX_RELATIVE = 1e-10


def _permuted(space, rng):
    order = rng.permutation(space.atoms)
    return scalar_space(zip(space.p[order], space.x[order], space.y[order]))


def _swapped(space, rng):
    return scalar_space(zip(space.p, space.y, space.x))


def _split(space, rng):
    twice = [np.repeat(v, 2) for v in (space.p / 2, space.x, space.y)]
    return scalar_space(zip(*twice))


def _assert_same(before, after, bound):
    assert after.verdict == before.verdict
    assert abs(after.gap - before.gap) <= bound * max(abs(before.lhs), abs(before.rhs))


@pytest.mark.parametrize("relation", [_permuted, _swapped, _split], ids=["permute", "swap", "split"])
@pytest.mark.parametrize("fid", SCALAR_IDS)
def test_scalar_relations_keep_the_gap(fid, relation):
    f = get_function(fid)
    for i in range(SPACES):
        rng = split_rng(2025, SCALAR_IDS.index(fid), i)
        space = sample_scalar_space(rng)
        before, after = verify_numeric(space, f), verify_numeric(relation(space, rng), f)
        _assert_same(before, after, 4 * space.atoms * EPS)


def _orthogonal(n, rng):
    """A Haar-random n x n orthogonal matrix: the Q of a Gaussian's QR with
    the signs of R's diagonal taken out."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


#: (dims, spaces per id) of each matrix size class; fewer of the large ones
#: keep the run to seconds.
SIZES = [((2, 6), SPACES), ((7, 16), 60), ((48, 64), 8)]


@pytest.mark.parametrize("dims, count", SIZES, ids=["dims-2-6", "dims-7-16", "dims-48-64"])
@pytest.mark.parametrize("fid", MATRIX_IDS)
def test_op_conjugation_keeps_the_gap(fid, dims, count):
    spec = operator_mean_spec(fid)
    for i in range(count):
        rng = split_rng(2026, MATRIX_IDS.index(fid), i)
        rho, a, b = sample_operator_triple(rng, dims)
        u = _orthogonal(len(a), rng)
        before = verify_operator(rho, a, b, spec)
        after = verify_operator(*(u @ m @ u.T for m in (rho, a, b)), spec)  # symmetrized on entry
        _assert_same(before, after, MATRIX_RELATIVE)


@pytest.mark.parametrize("dims, count", SIZES, ids=["dims-2-6", "dims-7-16", "dims-48-64"])
@pytest.mark.parametrize("fid", MATRIX_IDS)
def test_rm_conjugation_keeps_the_gap(fid, dims, count):
    spec = operator_mean_spec(fid)
    for i in range(count):
        rng = split_rng(2027, MATRIX_IDS.index(fid), i)
        space = sample_matrix_space(rng, dims, (1, 4))
        u = _orthogonal(space.dims, rng)
        x, y, rho = (u @ ms @ u.T for ms in (space.x, space.y, space.rho))  # symmetrized on entry
        before = verify_random_matrix(space, spec)
        after = verify_random_matrix(matrix_space(zip(space.p, x, y, rho)), spec)
        _assert_same(before, after, MATRIX_RELATIVE)


#: The Kubo-Ando order of the catalog is read off this grid.
ORDER_GRID = np.logspace(-6.0, 6.0, 121)


def _order_pairs():
    """(f, g) pairs of MATRIX_IDS with f <= g at every grid point."""
    values = {fid: get_function(fid)(ORDER_GRID) for fid in MATRIX_IDS}
    return [(f, g) for f in MATRIX_IDS for g in MATRIX_IDS if f != g and (values[f] <= values[g]).all()]


def test_order_pairs_are_the_catalog_chain():
    chain = ["harmonic", "geometric", "wyd:0.25", "logarithmic", "arithmetic"]
    assert set(_order_pairs()) == {(f, g) for i, f in enumerate(chain) for g in chain[i + 1 :]}


def _catalog_traces(rho, a, b):
    """Tr(rho P_f(A, B)) of every atom for each of MATRIX_IDS, from one
    ``perspective_traces`` bucket with one run per id."""
    k = len(rho)
    rho, a, b = (np.concatenate([m] * len(MATRIX_IDS)) for m in (rho, a, b))
    traces = perspective_traces([(get_function(fid), k) for fid in MATRIX_IDS], rho, a, b)
    return dict(zip(MATRIX_IDS, traces.reshape(len(MATRIX_IDS), k)))


#: Atoms per dimension of the trace-kernel relations.
KERNEL_ATOMS = 40
#: The closed-form ids; the other operator ids take the eigen route.
CLOSED_IDS = ("arithmetic", "harmonic")


def _kernel_space(n):
    return sample_matrix_space(split_rng(2028, n), (n, n), (KERNEL_ATOMS, KERNEL_ATOMS))


@pytest.mark.parametrize("n", [3, 16, 56])
def test_kubo_ando_order_holds_on_the_trace_kernel(n):
    space = _kernel_space(n)
    traces = _catalog_traces(space.rho, space.x, space.y)
    for f, g in _order_pairs():
        assert (traces[f] <= traces[g] + 4 * EPS * np.abs(traces[g])).all(), (f, g)


def _swap_errors(n):
    """|Δ Tr rho P_f| / |Tr rho P_f| of each atom under X <-> Y, per id."""
    space = _kernel_space(n)
    before = _catalog_traces(space.rho, space.x, space.y)
    after = _catalog_traces(space.rho, space.y, space.x)
    return {fid: np.abs(after[fid] - before[fid]) / np.abs(before[fid]) for fid in MATRIX_IDS}


@pytest.mark.parametrize("n", [3, 16, 56])
def test_swap_keeps_the_closed_form_traces(n):
    errors = _swap_errors(n)
    for fid in CLOSED_IDS:
        assert (errors[fid] <= MATRIX_RELATIVE).all(), fid


@pytest.mark.parametrize(
    "n",
    [3, 16, pytest.param(56, marks=pytest.mark.xfail(strict=True, reason="eigen-route roundoff reaches 1.5e-10"))],
)
def test_swap_keeps_the_eigen_traces(n):
    # At n = 56 the eigen route's swap error reaches 1.5e-10 relative
    # (wyd:0.25, atoms of condition number near 1e5): roundoff of the
    # factored inner matrix, amplified where f' is large near 0, which a
    # fixed MATRIX_RELATIVE does not follow.
    errors = _swap_errors(n)
    for fid in MATRIX_IDS:
        if fid not in CLOSED_IDS:
            assert (errors[fid] <= MATRIX_RELATIVE).all(), fid


#: The scale exponents: X and Y are scaled by 4^k.
SCALE_EXPONENTS = range(-20, 21)


def _scaled_sides(f, space):
    """lhs, rhs and gap of ``space`` with X and Y scaled by 4^k for each k of
    SCALE_EXPONENTS, as float lists in that order, from one block with a
    row per k: the kernel gives each row the bits it gets alone."""
    c = 4.0 ** np.array(SCALE_EXPONENTS)
    rows, k = len(c), space.atoms
    scaled = [np.concatenate(c[:, None, None, None] * v[None]) for v in (space.x, space.y)]
    block = FiniteJointSpace(np.tile(space.p, rows), *scaled, np.concatenate([space.rho] * rows))
    lhs, rhs = block_sides([(f, rows)], [k] * rows, [(np.arange(rows), block)])
    return lhs.tolist(), rhs.tolist(), (rhs - lhs).tolist()


def _op_space(rng, dims):
    rho, a, b = sample_operator_triple(rng, dims)
    return FiniteJointSpace(np.ones(1), a[None], b[None], rho[None])


@pytest.mark.parametrize("dims, count", [((2, 6), 20), ((48, 64), 3)], ids=["dims-2-6", "dims-48-64"])
@pytest.mark.parametrize("mode", ["op", "rm"])
@pytest.mark.parametrize("fid", MATRIX_IDS)
def test_matrix_gaps_scale_exactly_by_powers_of_four(fid, mode, dims, count):
    f, at = get_function(fid), SCALE_EXPONENTS.index(0)
    for i in range(count):
        rng = split_rng(2029, MATRIX_IDS.index(fid), i)
        space = _op_space(rng, dims) if mode == "op" else sample_matrix_space(rng, dims, (1, 3))
        for sides in _scaled_sides(f, space):
            c1 = sides[at]
            got = [v.hex() for v in sides]
            assert got == [(4.0**k * c1).hex() for k in SCALE_EXPONENTS], (fid, mode, i)


#: The condition numbers of the congruence factors C.
FACTOR_CONDITIONS = (1.0, 10.0, 100.0)


def _factor(n, kappa, rng):
    """C = U D, U Haar-random orthogonal and D a shuffled geometric ramp from
    1 to kappa, so that kappa(C) = kappa."""
    return _orthogonal(n, rng) * rng.permutation(np.geomspace(1.0, kappa, n))


def _congruent(space, c):
    """The space of atoms (p_i s_i / S, C X_i C^T, C Y_i C^T, rho_i'), with
    rho_i' = C^-T rho_i C^-1 / s_i, s_i = Tr(C^-T rho_i C^-1) and S the sum of
    p_i s_i, and S: Tr(rho_i' C M C^T) = Tr(rho_i M) / s_i, so its lhs, rhs and
    gap are the space's divided by S.  One atom has p = 1 and S = s."""
    inv = np.linalg.inv(c)
    r = inv.T @ space.rho @ inv
    s = np.trace(r, axis1=-2, axis2=-1)
    total = float(space.p @ s)
    x, y = (symmetrize(c @ m @ c.T) for m in (space.x, space.y))
    return FiniteJointSpace(space.p * s / total, x, y, symmetrize(r / s[:, None, None])), total


def _sides(f, space):
    (lhs,), (rhs,) = block_sides([(f, 1)], [space.atoms], [([0], space)])
    return lhs, rhs


@pytest.mark.parametrize("dims, count", [((2, 6), 20), ((48, 64), 3)], ids=["dims-2-6", "dims-48-64"])
@pytest.mark.parametrize("mode", ["op", "rm"])
@pytest.mark.parametrize("fid", MATRIX_IDS)
def test_matrix_gaps_follow_a_congruence(fid, mode, dims, count):
    # P_f(C A C^T, C B C^T) = C P_f(A, B) C^T for invertible C.  C X C^T has
    # condition number up to kappa(C)^2 kappa(X), so the bound is
    # MATRIX_RELATIVE kappa(C)^2 of max(|lhs|, |rhs|); the guard may reject a
    # C X C^T beyond COND_LIMIT, and only such a one.
    f = get_function(fid)
    for i in range(count):
        rng = split_rng(2030, MATRIX_IDS.index(fid), i)
        space = _op_space(rng, dims) if mode == "op" else sample_matrix_space(rng, dims, (1, 3))
        lhs, rhs = _sides(f, space)
        for kappa in FACTOR_CONDITIONS:
            moved, total = _congruent(space, _factor(space.dims, kappa, rng))
            try:
                lhs_c, rhs_c = _sides(f, moved)
            except DomainError as exc:
                lam = np.linalg.eigvalsh(np.concatenate([moved.x, moved.y]))
                assert "exceeds the guard" in str(exc) and (lam[:, -1] / lam[:, 0]).max() > COND_LIMIT
                continue
            bound = MATRIX_RELATIVE * kappa**2 * max(abs(lhs), abs(rhs))
            for before, after in ((lhs, lhs_c), (rhs, rhs_c), (rhs - lhs, rhs_c - lhs_c)):
                assert abs(total * after - before) <= bound, (fid, mode, i, kappa)

"""Symmetric eigen-calculus, Loewner order, and the matrix text format."""

import warnings

import numpy as np
import pytest

from meanineq import (
    DomainError,
    NotPositiveDefiniteError,
    UsageError,
    congruence,
    frobenius,
    load_matrix,
    loewner_leq,
    save_matrix,
    split_rng,
    sqrt_pd,
    sym_eigen,
    sym_matrix,
)
from meanineq.linalg import min_eigenvalue, rebuild, spectrum

A22 = np.array([[2.0, 1.0], [1.0, 2.0]])


def test_sym_matrix_symmetrizes_and_validates():
    m = sym_matrix([[1.0, 2.0], [0.0, 3.0]])
    assert np.array_equal(m, m.T)
    assert m[0, 1] == 1.0
    with pytest.raises(UsageError):
        sym_matrix(np.ones((2, 3)))
    with pytest.raises(UsageError):
        sym_matrix(np.ones((65, 65)))
    with pytest.raises(DomainError):
        sym_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_eigen_examples():
    lam, q = sym_eigen(np.eye(3))
    assert np.allclose(lam, [1.0, 1.0, 1.0])

    lam, q = sym_eigen(A22)
    # characteristic polynomial x^2 - 4x + 3 has roots 1 and 3
    assert lam == pytest.approx([1.0, 3.0], abs=1e-12)

    lam, q = sym_eigen(np.diag([5.0, 1.0, 3.0]))
    assert lam == pytest.approx([1.0, 3.0, 5.0], abs=1e-15)
    assert np.allclose(np.abs(q), np.abs(q).round(), atol=1e-12)  # permutation-like


def test_spectrum_reports_a_solver_that_does_not_converge(monkeypatch):
    from meanineq import NumericError

    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(NumericError) as exc:
        spectrum(A22)
    assert str(exc.value) == "symmetric eigensolver failed to converge (off-diagonal norm 1.414e+00)"
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


def test_eigen_ascending_and_deterministic():
    rng = split_rng(7, 0)
    a = sym_matrix(rng.normal(size=(6, 6)))
    d1 = sym_eigen(a)
    d2 = sym_eigen(a.copy())
    assert np.all(np.diff(d1.eigenvalues) >= 0.0)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


@pytest.mark.parametrize("n", range(2, 17))
def test_eigen_residuals_on_seeded_matrices(n):
    for k in range(15):
        rng = split_rng(100 + n, k)
        a = sym_matrix(rng.normal(size=(n, n)) * rng.choice([0.01, 1.0, 100.0]))
        lam, q = sym_eigen(a)
        assert frobenius(q.T @ q - np.eye(n)) <= 1e-10 * n
        assert frobenius((q * lam) @ q.T - a) <= 1e-10 * max(1.0, frobenius(a))


def test_sqrt_examples():
    assert np.allclose(sqrt_pd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    lam, _ = sym_eigen(sqrt_pd(A22))
    assert lam == pytest.approx([1.0, np.sqrt(3.0)], abs=1e-12)


def test_sqrt_contracts_on_seeded_matrices():
    for k in range(25):
        rng = split_rng(5, k)
        n = int(rng.integers(2, 9))
        a = sym_matrix(rng.normal(size=(n, n)))
        a = a @ a.T + 1e-2 * np.eye(n)
        r = sqrt_pd(a)
        assert frobenius(r @ r - a) <= 1e-8 * frobenius(a)


def test_rebuild_on_a_stack_matches_each_slice():
    rng = split_rng(13, 0)
    stack = np.stack([sym_matrix(rng.normal(size=(4, 4))) for _ in range(3)])
    lam, q = spectrum(stack)
    out = rebuild(lam, q)
    for i in range(3):
        assert np.array_equal(out[i], rebuild(lam[i], q[i]))
        assert np.array_equal(out[i], out[i].T)
        assert frobenius(out[i] - stack[i]) <= 1e-12 * frobenius(stack[i])


def test_sym_matrix_rejects_entries_whose_average_overflows():
    # Every entry is finite, but (M + M^T) / 2 overflows above max / 2; the
    # check runs on the averaged matrix, quietly, and states the limit.
    big = np.diag([1e308, 1e308])
    message = r"^matrix entries must be finite and at most 8\.988e\+307 in magnitude$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in (sym_matrix, sqrt_pd, min_eigenvalue, lambda m: loewner_leq(np.eye(2), m)):
            with pytest.raises(DomainError, match=message):
                op(big)
        assert np.array_equal(sym_matrix(np.diag([8e307, 1.0])), np.diag([8e307, 1.0]))
        assert np.array_equal(sym_matrix([[1.0, 1e308], [-1e308, 1.0]]), np.eye(2))


def test_sqrt_rejects_non_pd():
    with pytest.raises(NotPositiveDefiniteError):
        sqrt_pd(np.diag([1.0, 0.0]))
    err = None
    try:
        sqrt_pd(np.diag([1.0, -2.0]))
    except NotPositiveDefiniteError as exc:
        err = exc
    assert err is not None and err.min_eigenvalue == pytest.approx(-2.0)


def _write(path, m):
    path.write_text(f"{len(m)}\n" + "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in m))
    return path


def test_load_matrix_judges_symmetry_relative_to_the_largest_entry(tmp_path):
    # A skew of 1e-10 is 100% of a 1e-10 matrix: rejected, not averaged.
    small = _write(tmp_path / "small.txt", [[1e-12, 1e-10], [0.0, 1e-12]])
    message = r"symmetry violation 1\.000e-10 exceeds 1e-09 times the largest entry 1\.000e-10$"
    with pytest.raises(UsageError, match=message):
        load_matrix(small)
    # A skew of 7.9e-3 is 2.6e-15 of a 3e12 matrix: roundoff, averaged.
    m = 1e12 * np.array([[2.0, 1.0], [1.0 + 8e-15, 3.0]])
    assert np.array_equal(load_matrix(_write(tmp_path / "big.txt", m)), sym_matrix(m))
    # Power-of-two scaling changes no decision.
    for k in (-40, 0, 40):
        c = 2.0**k
        with pytest.raises(UsageError, match="symmetry violation"):
            load_matrix(_write(tmp_path / "small.txt", c * np.array([[1e-12, 1e-10], [0.0, 1e-12]])))
        assert np.array_equal(load_matrix(_write(tmp_path / "big.txt", c * m)), sym_matrix(c * m))


def test_loewner_examples():
    assert loewner_leq(np.eye(2), 2.0 * np.eye(2))
    assert not loewner_leq(2.0 * np.eye(2), np.eye(2))
    # difference diag(1, -1) is indefinite
    assert not loewner_leq(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]))
    with pytest.raises(UsageError):
        loewner_leq(np.eye(2), np.eye(3))


def test_loewner_partial_order_properties():
    tol = 1e-12
    for k in range(20):
        rng = split_rng(17, k)
        n = int(rng.integers(2, 7))
        a = sym_matrix(rng.normal(size=(n, n)))
        p1 = sym_matrix(rng.normal(size=(n, n)))
        p2 = sym_matrix(rng.normal(size=(n, n)))
        b = a + p1 @ p1.T
        c = b + p2 @ p2.T
        assert loewner_leq(a, a, tol)  # reflexive
        assert loewner_leq(a, b, tol) and loewner_leq(b, c, tol)
        assert loewner_leq(a, c, 2 * tol)  # transitive
        # antisymmetric up to scale: both directions force near-equality
        d = a + (tol / (10 * n)) * np.eye(n)
        assert loewner_leq(a, d, tol) and loewner_leq(d, a, tol)
        assert frobenius(a - d) <= n * tol


def test_basic_ops():
    a = sym_matrix([[1.0, 2.0], [2.0, 5.0]])
    assert np.allclose(congruence(np.eye(2), a), a)
    assert np.allclose(
        congruence(np.diag([0.0, 1.0]), np.diag([2.0, 3.0])), np.diag([0.0, 3.0])
    )
    with pytest.raises(UsageError):
        congruence(np.ones((3, 2)), a)
    with pytest.raises(DomainError, match="^congruence factor entries must be finite$"):
        congruence(np.array([[1.0, np.nan], [0.0, 1.0]]), a)


def test_congruence_rectangular_compression():
    c = np.array([[1.0], [0.0]])
    a = sym_matrix([[4.0, 1.0], [1.0, 3.0]])
    out = congruence(c, a)
    assert out.shape == (1, 1)
    assert out[0, 0] == 4.0


def test_matrix_text_round_trip(tmp_path):
    rng = split_rng(23, 0)
    a = sym_matrix(rng.normal(size=(4, 4)))
    path = tmp_path / "m.txt"
    save_matrix(path, a)
    b = load_matrix(path)
    assert np.array_equal(a, b)


def test_matrix_text_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1.0 2.0\n0.5 1.0\n")  # asymmetric beyond 1e-9
    with pytest.raises(UsageError):
        load_matrix(bad)
    bad.write_text("2\n1.0 2.0\n")
    with pytest.raises(UsageError):
        load_matrix(bad)
    bad.write_text("x\n")
    with pytest.raises(UsageError):
        load_matrix(bad)
    bad.write_text("2\n1.0 zz\n0.0 1.0\n")
    with pytest.raises(UsageError):
        load_matrix(bad)
    with pytest.raises(UsageError):
        load_matrix(tmp_path / "missing.txt")


def test_matrix_text_small_asymmetry_absorbed(tmp_path):
    path = tmp_path / "near.txt"
    path.write_text("2\n1.0 2.0000000001\n2.0 1.0\n")
    m = load_matrix(path)
    assert m[0, 1] == m[1, 0]

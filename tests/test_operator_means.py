"""Non-commutative perspectives, operator means, and transformer checks."""

import math

import numpy as np
import pytest

from meanineq import (
    DomainError,
    NotPositiveDefiniteError,
    OperatorMeanSpec,
    PreconditionError,
    RepresentingFunction,
    UsageError,
    check_jensen_sum,
    check_transformer,
    commuting_oracle,
    expectation_state,
    frobenius,
    get_function,
    loewner_leq,
    operator_mean,
    operator_mean_spec,
    operator_perspective,
    sample_density,
    sample_spd,
    split_rng,
    sqrt_pd,
    sym_eigen,
    sym_matrix,
    trace_perspective_check,
)
from meanineq import operator_means
from meanineq.linalg import SpectralDecomposition
from meanineq.operator_means import perspective_factor, perspective_kernel

SPECS = ["arithmetic", "wyd:0.25", "wyd:0.5", "geometric", "harmonic", "logarithmic"]

A22 = np.array([[2.0, 1.0], [1.0, 2.0]])
B22 = np.array([[3.0, 0.5], [0.5, 1.0]])


def spd(seed_path, n):
    return sample_spd(n, split_rng(*seed_path))


def commuting_pair(seed_path, n):
    """Exactly commuting PD pair: two quadratic polynomials of one matrix."""
    rng = split_rng(*seed_path)
    s = sym_matrix(rng.normal(size=(n, n)))
    a = sym_matrix((s + 0.7 * np.eye(n)) @ (s + 0.7 * np.eye(n)) + 0.1 * np.eye(n))
    b = sym_matrix((s - 1.3 * np.eye(n)) @ (s - 1.3 * np.eye(n)) + 0.2 * np.eye(n))
    return a, b


def test_spec_admission():
    for fid in SPECS:
        assert operator_mean_spec(fid).id == fid
    with pytest.raises(UsageError):
        operator_mean_spec("counterexample-g")


def test_perspective_identity_function_returns_b():
    p = operator_perspective(RepresentingFunction("identity", lambda x: x), A22, B22)
    assert frobenius(p - B22) <= 1e-8 * frobenius(B22)


def test_perspective_needs_a_representing_function():
    with pytest.raises(UsageError, match="RepresentingFunction"):
        operator_perspective(lambda x: x, A22, B22)


def test_perspective_identity_first_argument():
    p = operator_perspective(get_function("geometric"), np.eye(2), B22)
    assert np.allclose(p, sqrt_pd(B22), atol=1e-12)


def test_perspective_commuting_diagonal():
    p = operator_perspective(get_function("geometric"), np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
    # per-slot sqrt(a_i * b_i) = (2, 2)
    assert np.allclose(p, np.diag([2.0, 2.0]), atol=1e-12)


def test_perspective_rejects_non_pd_and_ill_conditioned():
    with pytest.raises(NotPositiveDefiniteError):
        operator_perspective(get_function("geometric"), np.diag([1.0, 0.0]), np.eye(2))
    with pytest.raises(NotPositiveDefiniteError):
        operator_perspective(get_function("geometric"), np.eye(2), np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        operator_perspective(get_function("geometric"), np.diag([1e-9, 1e9]), np.eye(2))
    with pytest.raises(UsageError):
        operator_perspective(get_function("geometric"), np.eye(2), np.eye(3))


@pytest.mark.parametrize("n", [1, 3, 9])
def test_perspective_kernel_stack_equals_slices(n):
    k = 5
    a = np.stack([spd((41, n, i, 0), n) for i in range(k)])
    b = np.stack([spd((41, n, i, 1), n) for i in range(k)])
    for fid in SPECS:
        f = get_function(fid)
        stacked = perspective_kernel(f, a, b)
        for i in range(k):
            assert np.array_equal(stacked[i], perspective_kernel(f, a[i], b[i]))


def test_perspective_kernel_stack_checks_every_slice():
    f = get_function("geometric")
    good = np.stack([np.eye(2)] * 4)
    non_pd = good.copy()
    non_pd[3] = np.diag([1.0, -1.0])
    with pytest.raises(NotPositiveDefiniteError, match="^first argument of atom 3 is not positive definite"):
        perspective_kernel(f, non_pd, good)
    ill = good.copy()
    ill[2] = np.diag([1e-9, 1e9])
    with pytest.raises(DomainError, match="^first argument of atom 2 condition number") as exc:
        perspective_kernel(f, ill, good)
    assert not isinstance(exc.value, NotPositiveDefiniteError)
    # One matrix, or a stack of one, keeps the unnumbered messages.
    for a in (non_pd[3], non_pd[3:]):
        with pytest.raises(NotPositiveDefiniteError, match="^first argument is not positive definite"):
            perspective_kernel(f, a, np.eye(2))
    for a in (ill[2], ill[2:3]):
        with pytest.raises(DomainError, match="^first argument condition number"):
            perspective_kernel(f, a, np.eye(2))


def test_mean_fixed_point_and_examples():
    spec = operator_mean_spec("harmonic")
    a = spd((1, 0), 4)
    assert frobenius(operator_mean(spec, a, a) - a) <= 1e-8 * frobenius(a)

    arit = operator_mean(operator_mean_spec("arithmetic"), np.diag([1.0, 3.0]), np.diag([3.0, 1.0]))
    assert np.allclose(arit, np.diag([2.0, 2.0]), atol=1e-12)

    geo = operator_mean(operator_mean_spec("geometric"), A22, np.eye(2))
    lam, _ = sym_eigen(geo)
    assert lam == pytest.approx([1.0, math.sqrt(3.0)], abs=1e-12)


def test_mean_requires_spec():
    with pytest.raises(UsageError):
        operator_mean(get_function("geometric"), A22, B22)


@pytest.mark.parametrize("fid", SPECS)
def test_mean_symmetry_and_monotonicity(fid):
    spec = operator_mean_spec(fid)
    for k in range(10):
        rng = split_rng(31, k)
        n = int(rng.integers(2, 9))
        a = sample_spd(n, rng)
        b = sample_spd(n, rng)
        m1 = operator_mean(spec, a, b)
        m2 = operator_mean(spec, b, a)
        assert frobenius(m1 - m2) <= 1e-8 * frobenius(m1)
        inc_a = sym_matrix(rng.normal(size=(n, n)))
        inc_b = sym_matrix(rng.normal(size=(n, n)))
        a2 = a + inc_a @ inc_a.T
        b2 = b + inc_b @ inc_b.T
        assert loewner_leq(m1, operator_mean(spec, a2, b2), 1e-8)


def test_arithmetic_closed_form():
    spec = operator_mean_spec("arithmetic")
    for k in range(10):
        a, b = spd((41, k, 0), 5), spd((41, k, 1), 5)
        m = operator_mean(spec, a, b)
        assert frobenius(m - (a + b) / 2.0) <= 1e-8 * frobenius(m)


def test_harmonic_closed_form():
    spec = operator_mean_spec("harmonic")
    for k in range(10):
        a, b = spd((43, k, 0), 4), spd((43, k, 1), 4)
        m = operator_mean(spec, a, b)
        closed = 2.0 * np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))
        assert frobenius(m - closed) <= 1e-8 * frobenius(closed)


def test_geometric_riccati_property():
    spec = operator_mean_spec("geometric")
    for k in range(10):
        a, b = spd((47, k, 0), 4), spd((47, k, 1), 4)
        x = operator_mean(spec, a, b)
        resid = x @ np.linalg.inv(a) @ x - b
        assert frobenius(resid) <= 1e-7 * frobenius(b)


def test_oracle_examples():
    spec = operator_mean_spec("geometric")
    out = commuting_oracle(spec, np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
    assert np.allclose(out, np.diag([2.0, 2.0]), atol=1e-12)

    a = spd((51, 0), 3)
    same = commuting_oracle(operator_mean_spec("harmonic"), a, a)
    assert frobenius(same - a) <= 1e-10 * frobenius(a)

    logm = commuting_oracle(operator_mean_spec("logarithmic"), np.eye(2), math.e * np.eye(2))
    assert np.allclose(logm, (math.e - 1.0) * np.eye(2), atol=1e-12)


def test_inner_clamp_does_not_depend_on_the_scale(monkeypatch):
    # The inner spectrum (low, 0.5, 1) scaled by c: an eigenvalue at or below
    # -CLAMP_TOL λmax rejects the inputs, one in (-CLAMP_TOL λmax, 0] is
    # clamped up to CLAMP_TOL λmax, at every scale.
    identity = RepresentingFunction("identity", lambda t: t)
    expected = {-2e-12: None, -1e-12: None, -5e-13: 1e-12, 0.0: 1e-12, 1e-13: 1e-13}
    for low, clamped in expected.items():
        for c in (2.0**-40, 1.0, 2.0**40):
            lam = c * np.array([low, 0.5, 1.0])
            monkeypatch.setattr(operator_means, "spectrum", lambda s, lam=lam: SpectralDecomposition(lam, np.eye(3)))
            try:
                images = perspective_factor(identity, np.eye(3), np.eye(3))[1] / c
            except DomainError:
                images = None
            assert (images if images is None else images.tolist()) == (
                clamped if clamped is None else [clamped, 0.5, 1.0]
            ), (low, c)


EYE2 = np.eye(2)
#: Argument errors of the operator checks, each with its message as it reads.
ARGUMENT_ERRORS = {
    "trace-dims": (
        lambda: trace_perspective_check(get_function("geometric"), EYE2, np.eye(3)),
        "dimension mismatch: (2, 2) vs (3, 3)",
    ),
    "transformer-rows": (
        lambda: check_transformer(operator_mean_spec("geometric"), EYE2, EYE2, np.ones((3, 2))),
        "transformer factor shape (3, 2) does not match (2, 2)",
    ),
    "jensen-rows": (
        lambda: check_jensen_sum(operator_mean_spec("geometric"), [(EYE2, EYE2, EYE2), (np.ones((3, 2)), EYE2, EYE2)]),
        "all congruence factors must share the same row dimension",
    ),
    "jensen-columns": (
        lambda: check_jensen_sum(operator_mean_spec("geometric"), [(EYE2, EYE2, EYE2), (np.ones((2, 3)), EYE2, EYE2)]),
        "all congruence factors must share the same column dimension",
    ),
    "oracle-spec": (
        lambda: commuting_oracle(get_function("geometric"), EYE2, EYE2),
        "commuting_oracle needs an OperatorMeanSpec",
    ),
    "jensen-spec": (
        lambda: check_jensen_sum(get_function("geometric"), [(EYE2, EYE2, EYE2)]),
        "check_jensen_sum needs an OperatorMeanSpec",
    ),
}


@pytest.mark.parametrize("call, message", ARGUMENT_ERRORS.values(), ids=ARGUMENT_ERRORS.keys())
def test_argument_errors_read_as_pinned(call, message):
    with pytest.raises(UsageError) as exc:
        call()
    assert str(exc.value) == message


def test_oracle_rejects_non_commuting():
    spec = operator_mean_spec("geometric")
    with pytest.raises(PreconditionError):
        commuting_oracle(spec, A22, B22)


def test_oracle_rejects_non_finite_images():
    blowup = RepresentingFunction("blowup", lambda x: np.where(x > 1.5, np.inf, x))
    spec = OperatorMeanSpec(blowup)
    with pytest.raises(DomainError):
        commuting_oracle(spec, np.eye(2), np.diag([1.0, 2.0]))


def test_oracle_rejects_what_the_perspective_rejects():
    # A joint eigenvalue at or below 0 is rejected by both means.
    spec = operator_mean_spec("geometric")
    for low in (0.0, -1e-12):
        a = np.diag([low, 1.0])
        for mean in (operator_mean, commuting_oracle):
            with pytest.raises(NotPositiveDefiniteError, match=f"first argument is not positive definite \\(min eigenvalue {low!r}\\)"):
                mean(spec, a, np.eye(2))


def test_commuting_pair_checks_the_condition_guard():
    # Joint eigenvalues above 0 but a condition number of 1e10: every
    # mean of the pair rejects it as the perspective does.
    spec = operator_mean_spec("geometric")
    a = np.diag([1e-9, 10.0])
    for check in (commuting_oracle, lambda s, a, b: trace_perspective_check(s.f, a, b), operator_mean):
        with pytest.raises(DomainError, match="first argument condition number 1.000e\\+10 exceeds"):
            check(spec, a, np.eye(2))


def test_oracle_handles_degenerate_spectrum():
    spec = operator_mean_spec("geometric")
    b = spd((53, 0), 3)
    out = commuting_oracle(spec, np.eye(3), b)
    expected = sqrt_pd(b)  # m(I, B) = f(B)
    assert frobenius(out - expected) <= 1e-8 * frobenius(expected)


@pytest.mark.parametrize("fid", SPECS)
def test_oracle_matches_mean_on_commuting_pairs(fid):
    spec = operator_mean_spec(fid)
    for k in range(25):
        n = 2 + k % 5
        a, b = commuting_pair((59, k), n)
        direct = operator_mean(spec, a, b)
        oracle = commuting_oracle(spec, a, b)
        assert frobenius(direct - oracle) <= 1e-8 * frobenius(oracle)


def test_expectation_state_examples():
    assert expectation_state(np.eye(2) / 2.0, np.diag([1.0, 3.0])) == pytest.approx(2.0)
    pure = np.zeros((2, 2))
    pure[0, 0] = 1.0
    a = sym_matrix([[4.0, 1.0], [1.0, 9.0]])
    assert expectation_state(pure, a) == pytest.approx(4.0)
    assert expectation_state(np.diag([0.25, 0.75]), np.diag([4.0, 8.0])) == pytest.approx(7.0)
    with pytest.raises(UsageError):
        expectation_state(np.eye(2), np.eye(3))


def test_expectation_state_spectral_identity():
    rng = split_rng(61, 0)
    rho = sample_density(4, rng)
    a = sample_spd(4, rng)
    lam, q = sym_eigen(rho)
    spectral = sum(lam[i] * q[:, i] @ a @ q[:, i] for i in range(4))
    assert expectation_state(rho, a) == pytest.approx(spectral, rel=1e-12)


def test_transformer_identity_and_invertible():
    spec = operator_mean_spec("geometric")
    rep = check_transformer(spec, A22, B22, np.eye(2))
    assert rep.verdict == "holds" and rep.equality_case

    rep = check_transformer(spec, A22, B22, np.diag([2.0, 0.5]))
    assert rep.verdict == "holds" and rep.equality_case
    assert rep.equality_defect <= 1e-10


def test_order_verdicts_are_judged_by_classify_gap(monkeypatch):
    # The transformer and Jensen reports and loewner_leq have no rule of
    # their own: each gap goes to reports.classify_gap, and only its
    # "violated" is not "holds" (or True).
    from meanineq import linalg, operator_means

    judged = []

    def judge(gap, tol):
        judged.append((gap, tol))
        return verdict

    monkeypatch.setattr(linalg, "classify_gap", judge)
    monkeypatch.setattr(operator_means, "classify_gap", judge)
    spec = operator_mean_spec("geometric")
    for verdict, holds in (("violated", False), ("equality", True), ("holds", True)):
        assert loewner_leq(np.eye(2), 2.0 * np.eye(2), 1e-9) is holds
        rep = check_transformer(spec, A22, B22, np.eye(2), tol=1e-7)
        assert rep.holds is holds and rep.verdict == ("holds" if holds else "violated")
        assert [tol for _, tol in judged] == [1e-9, 1e-7]
        assert judged[1][0] == rep.min_eig_gap
        judged.clear()


def test_transformer_rank_deficient_compression():
    spec = operator_mean_spec("geometric")
    rep = check_transformer(spec, A22, B22, np.array([[1.0], [0.0]]))
    assert rep.verdict == "holds"
    assert not rep.equality_case
    assert rep.lhs.shape == (1, 1)


def test_transformer_contractions_seeded():
    for fid in SPECS:
        spec = operator_mean_spec(fid)
        for k in range(10):
            rng = split_rng(67, k)
            n = int(rng.integers(2, 6))
            a = sample_spd(n, rng)
            b = sample_spd(n, rng)
            u, _ = np.linalg.qr(rng.normal(size=(n, n)))
            v, _ = np.linalg.qr(rng.normal(size=(n, n)))
            s = rng.uniform(0.1, 1.0, size=n)
            c = u @ np.diag(s) @ v.T
            rep = check_transformer(spec, a, b, c)
            assert rep.min_eig_gap >= -1e-8, (fid, k)


def test_transformer_congruence_destroys_pd():
    spec = operator_mean_spec("geometric")
    with pytest.raises(DomainError):
        check_transformer(spec, A22, B22, np.zeros((2, 2)))


def test_jensen_sum_single_identity_is_equality():
    spec = operator_mean_spec("geometric")
    rep = check_jensen_sum(spec, [(np.eye(2), A22, B22)])
    assert rep.verdict == "holds" and rep.equality_case


def test_jensen_sum_two_term_example():
    spec = operator_mean_spec("geometric")
    c = np.eye(2) / math.sqrt(2.0)
    i2 = np.eye(2)
    rep = check_jensen_sum(spec, [(c, 2.0 * i2, i2), (c, i2, 2.0 * i2)])
    # lhs = sqrt(2) I against rhs = 1.5 I
    assert np.allclose(rep.lhs, math.sqrt(2.0) * i2, atol=1e-12)
    assert np.allclose(rep.rhs, 1.5 * i2, atol=1e-12)
    assert rep.verdict == "holds" and not rep.equality_case


def test_jensen_sum_density_resolution():
    # c_i = sqrt(lam_i) e_i from a density matrix: a sub-unital family.
    for fid in SPECS:
        spec = operator_mean_spec(fid)
        rng = split_rng(71, SPECS.index(fid))
        rho = sample_density(2, rng)
        a = sample_spd(2, rng)
        b = sample_spd(2, rng)
        lam, q = sym_eigen(rho)
        triples = [
            (math.sqrt(lam[i]) * np.outer(q[:, i], q[:, i]), a, b) for i in range(2)
        ]
        rep = check_jensen_sum(spec, triples)
        assert rep.min_eig_gap >= -1e-8, fid


def test_jensen_sum_rejects_super_unital():
    spec = operator_mean_spec("geometric")
    with pytest.raises(PreconditionError):
        check_jensen_sum(spec, [(np.eye(2), A22, B22), (np.eye(2), A22, B22)])
    with pytest.raises(UsageError):
        check_jensen_sum(spec, [])


@pytest.mark.parametrize("c", [np.float64(1.0), np.ones(2)], ids=["0-d", "1-d"])
def test_jensen_sum_needs_matrix_factors(c):
    spec = operator_mean_spec("geometric")
    with pytest.raises(UsageError, match="2-D"):
        check_jensen_sum(spec, [(c, A22, B22)])


def test_trace_perspective_examples():
    f = get_function("geometric")
    rep = trace_perspective_check(f, np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
    # trace side 2 + 2 = 4, scalar side sqrt(5 * 5) = 5
    assert rep.lhs == pytest.approx(4.0, abs=1e-12)
    assert rep.rhs == pytest.approx(5.0, abs=1e-12)
    assert rep.verdict == "holds"

    a = spd((73, 0), 3)
    same = trace_perspective_check(f, a, a)
    assert same.verdict == "equality"

    lin = trace_perspective_check(get_function("arithmetic"), np.diag([1.0, 2.0]), np.diag([5.0, 3.0]))
    assert lin.verdict == "equality"


def test_trace_perspective_convex_orientation():
    # counterexample-g is convex: the trace side dominates, orientation flips.
    g = get_function("counterexample-g")
    rep = trace_perspective_check(g, np.diag([0.5, 2.0]), np.diag([1.0, 1.0]))
    assert rep.verdict in ("holds", "equality")
    assert rep.gap >= -1e-10


def test_trace_perspective_rejects_a_joint_eigenvalue_at_the_floor():
    # The floor is 0: a joint eigenvalue at or below it is rejected.
    for low in (0.0, -1e-12):
        with pytest.raises(NotPositiveDefiniteError, match="second argument is not positive definite"):
            trace_perspective_check(get_function("geometric"), np.eye(2), np.diag([1.0, low]))


def test_trace_perspective_rejects_non_commuting():
    with pytest.raises(PreconditionError):
        trace_perspective_check(get_function("geometric"), A22, B22)

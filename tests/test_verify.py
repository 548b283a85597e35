"""Exact finite-space verification in all three modes."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meanineq import (
    CampaignConfig,
    DomainError,
    NotPositiveDefiniteError,
    UsageError,
    check_axioms,
    check_jensen_sum,
    check_transformer,
    concavity_probe,
    construct_counterexample,
    get_function,
    load_space,
    loewner_leq,
    matrix_space,
    operator_mean_spec,
    sample_density,
    sample_spd,
    save_matrix,
    scalar_space,
    search_violation,
    split_rng,
    trace_perspective_check,
    validate_config,
    verify_numeric,
    verify_operator,
    verify_random_matrix,
)
from meanineq.functions import means
from meanineq.campaign import sample_scalar_space
from meanineq.verify import FiniteJointSpace, atom_values, verify_matrix, weighted_sums

GEO = get_function("geometric")
G = get_function("counterexample-g")
SPECS = ["arithmetic", "wyd:0.25", "wyd:0.5", "geometric", "harmonic", "logarithmic"]


def test_space_validation():
    with pytest.raises(UsageError):
        scalar_space([])
    with pytest.raises(DomainError):
        scalar_space([(0.5, 1.0, 1.0), (0.4, 1.0, 1.0)])  # sums to 0.9
    with pytest.raises(DomainError):
        scalar_space([(-0.1, 1.0, 1.0), (1.1, 1.0, 1.0)])
    with pytest.raises(DomainError):
        scalar_space([(1.0, -1.0, 1.0)])
    with pytest.raises(DomainError):
        scalar_space([(1.0, 1.0, float("nan"))])
    for entry in [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)]:
        with pytest.raises(UsageError, match=r"scalar atoms are \(p, x, y\) triples"):
            scalar_space([entry])


def test_matrix_space_validation():
    rng = split_rng(2, 0)
    a = sample_spd(2, rng)
    rho = sample_density(2, rng)
    ok = matrix_space([(1.0, a, a, rho)])
    assert ok.dims == 2 and ok.rho is not None
    with pytest.raises(DomainError):
        matrix_space([(1.0, np.diag([1.0, -1.0]), a, rho)])
    with pytest.raises(UsageError):
        matrix_space([(0.5, a, a, rho), (0.5, np.eye(3), np.eye(3), None)])
    with pytest.raises(DomainError):
        matrix_space([(1.0, a, a, np.eye(2))])  # trace-2 density


def test_matrix_space_rejects_ill_conditioned_and_non_pd_observables():
    rng = split_rng(2, 1)
    a = sample_spd(2, rng)
    rho = sample_density(2, rng)
    ill = np.diag([1e-9, 1e9])  # condition number 1e18, above COND_LIMIT
    singular = np.diag([1.0, 0.0])
    for x, y in ((ill, a), (a, ill)):
        with pytest.raises(DomainError) as exc:
            matrix_space([(1.0, x, y, rho)])
        assert not isinstance(exc.value, NotPositiveDefiniteError)
        assert "condition number" in str(exc.value)
    for x, y in ((singular, a), (a, singular)):
        with pytest.raises(NotPositiveDefiniteError):
            matrix_space([(1.0, x, y, rho)])


def test_expectation_scalar_examples():
    single = scalar_space([(1.0, 3.0, 5.0)])
    two = scalar_space([(0.5, 1.0, 1.0), (0.5, 3.0, 1.0)])
    _, ex, ey = weighted_sums(*atom_values(*_scalar_block(GEO, [single, two])))
    assert ex.tolist() == [3.0, 2.0]
    assert ey.tolist() == [5.0, 1.0]
    # per-atom geometric mean then average: (sqrt(1) + sqrt(3)) / 2
    expected = (math.sqrt(1.0) + math.sqrt(3.0)) / 2.0
    assert verify_numeric(two, GEO).lhs == pytest.approx(expected, rel=1e-15)
    with pytest.raises(UsageError):
        verify_numeric(two, "z")


def _sequential_sum(p, v):
    # The reference order: left to right from 0.0, as the golden outputs pin.
    total = 0.0
    for pi, vi in zip(p.tolist(), v.tolist()):
        total += pi * vi
    return total


def _scalar_spaces(rows):
    return [FiniteJointSpace(*(np.array(column, dtype=float) for column in zip(*atoms))) for atoms in rows]


def _scalar_block(f, spaces):
    """atom_values' arguments for scalar spaces verified with f: one bucket
    stacking their atoms."""
    bucket = FiniteJointSpace(*(np.concatenate([getattr(s, v) for s in spaces]) for v in ("p", "x", "y")))
    return [(f, len(spaces))], [s.atoms for s in spaces], [(range(len(spaces)), bucket)]


_VALUE = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)
_PROB = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([-0.0, 0.0, 1e-300, 5e-324]))
_ATOMS = st.lists(st.tuples(_PROB, _VALUE, _VALUE), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_ATOMS, min_size=1, max_size=9))
@example(rows=[[(-0.0, 2.0, 3.0)]])
@example(rows=[[(-0.0, 2.0, 3.0)], [(-0.0, 1e300, 1e-300), (1.0, 1e-300, 1e300)], [(0.5, 1.0, 1.0)] * 12])
def test_block_sums_match_the_sequential_sum(rows):
    # Probabilities are not normalised here: the sums must keep the order of
    # the per-space reference loop whatever the numbers, -0.0 and inf included.
    f = get_function("arithmetic")
    spaces = _scalar_spaces(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = weighted_sums(*atom_values(*_scalar_block(f, spaces))).tolist()
    for t, space in enumerate(spaces):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = [_sequential_sum(space.p, v) for v in (means(f, space.x, space.y), space.x, space.y)]
        assert [float.hex(s[t]) for s in sums] == [float.hex(e) for e in expected]


def test_verify_numeric_arithmetic_equality():
    rng = split_rng(8, 0)
    for _ in range(20):
        k = int(rng.integers(1, 13))
        p = rng.exponential(1.0, k)
        p /= p.sum()
        space = scalar_space(
            zip(p, 2.0 ** rng.uniform(-4, 4, k), 2.0 ** rng.uniform(-4, 4, k))
        )
        rep = verify_numeric(space, get_function("arithmetic"))
        assert abs(rep.gap) <= 1e-12
        assert rep.verdict == "equality"


def test_verify_numeric_degenerate_equality():
    space = scalar_space([(0.5, 2.0, 2.0), (0.5, 2.0, 2.0)])
    rep = verify_numeric(space, GEO)
    assert rep.lhs == pytest.approx(2.0) and rep.rhs == pytest.approx(2.0)
    assert rep.verdict == "equality"


def test_verify_numeric_counterexample_values():
    space = scalar_space([(0.5, 0.5, 1.0), (0.5, 2.0, 1.0)])
    rep = verify_numeric(space, G)
    # direct branch evaluation: lhs = (g(0.5) + g(2)) / 2, rhs = g(1.25)
    assert rep.lhs == 1.3125
    assert rep.rhs == 1.1875
    assert rep.gap == -0.125
    assert rep.verdict == "violated"
    assert rep.mode == "num" and rep.dims == 1 and rep.atoms == 2


def test_construct_counterexample():
    space = construct_counterexample(0.5, 2.0, 0.5)
    rep = verify_numeric(space, G)
    assert rep.gap == -0.125 and rep.verdict == "violated"

    space = construct_counterexample(1.0, 4.0, 0.5)
    rep = verify_numeric(space, GEO)
    assert rep.gap == pytest.approx(math.sqrt(2.5) - 1.5, abs=1e-15)
    assert rep.verdict == "holds"

    space = construct_counterexample(0.3, 3.0, 0.25)
    assert abs(verify_numeric(space, get_function("arithmetic")).gap) <= 1e-15


def test_construct_counterexample_gap_is_concavity_defect():
    rng = split_rng(13, 0)
    for _ in range(50):
        x1, x2 = 2.0 ** rng.uniform(-4, 4, 2)
        if x1 == x2:
            continue
        p = rng.uniform(0.05, 0.95)
        rep = verify_numeric(construct_counterexample(x1, x2, p), G)
        f = lambda t: (t + 3.0) / 4.0 if t <= 1.0 else (3.0 * t + 1.0) / 4.0
        defect = f(p * x1 + (1 - p) * x2) - (p * f(x1) + (1 - p) * f(x2))
        assert rep.gap == pytest.approx(defect, abs=1e-14)


def test_construct_counterexample_rejects():
    with pytest.raises(UsageError):
        construct_counterexample(1.0, 2.0, 0.0)
    with pytest.raises(UsageError):
        construct_counterexample(1.0, 2.0, 1.0)
    with pytest.raises(UsageError):
        construct_counterexample(2.0, 2.0, 0.5)
    with pytest.raises(DomainError):
        construct_counterexample(-1.0, 2.0, 0.5)


def test_refinement_invariance():
    base = scalar_space([(0.4, 0.5, 3.0), (0.6, 2.5, 1.2)])
    split = scalar_space([(0.4, 0.5, 3.0), (0.25, 2.5, 1.2), (0.35, 2.5, 1.2)])
    r1 = verify_numeric(base, GEO)
    r2 = verify_numeric(split, GEO)
    assert r1.lhs == pytest.approx(r2.lhs, abs=1e-12)
    assert r1.rhs == pytest.approx(r2.rhs, abs=1e-12)
    assert r1.gap == pytest.approx(r2.gap, abs=1e-12)


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_scale_equivariance(c):
    atoms = [(0.3, 0.7, 2.0), (0.7, 4.0, 0.9)]
    r1 = verify_numeric(scalar_space(atoms), GEO)
    r2 = verify_numeric(scalar_space([(p, c * x, c * y) for p, x, y in atoms]), GEO)
    assert r2.lhs == pytest.approx(c * r1.lhs, rel=1e-10)
    assert r2.rhs == pytest.approx(c * r1.rhs, rel=1e-10)
    assert r2.gap == pytest.approx(c * r1.gap, rel=1e-10, abs=1e-12)


def test_power_of_two_scaling_is_exact():
    # Scaling by c = 2^k changes only exponents, and every catalog mean is
    # positively homogeneous: lhs, rhs and gap come out exactly c times.
    ids = ["arithmetic", "wyd:0.25", "geometric", "harmonic", "logarithmic", "counterexample-g"]
    spaces = [sample_scalar_space(split_rng(17, s)) for s in range(20)]
    for fid in ids:
        f = get_function(fid)
        for s in spaces:
            r1 = verify_numeric(s, f)
            for k in range(-40, 41):
                c = 2.0**k
                r2 = verify_numeric(FiniteJointSpace(s.p, c * s.x, c * s.y), f)
                got = [v.hex() for v in (r2.lhs, r2.rhs, r2.gap)]
                assert got == [(c * v).hex() for v in (r1.lhs, r1.rhs, r1.gap)], (fid, k)


def test_verify_operator_examples():
    spec = operator_mean_spec("geometric")
    rep = verify_operator(
        np.diag([0.5, 0.5]), np.diag([1.0, 3.0]), np.diag([3.0, 1.0]), spec
    )
    assert rep.lhs == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert rep.rhs == pytest.approx(2.0, rel=1e-12)
    assert rep.verdict == "holds"
    assert rep.mode == "op" and rep.dims == 2 and rep.atoms == 1

    rng = split_rng(17, 0)
    a = sample_spd(3, rng)
    rho = sample_density(3, rng)
    same = verify_operator(rho, a, a, spec)
    assert same.verdict == "equality"

    pure = np.zeros((2, 2))
    pure[0, 0] = 1.0
    diag_rep = verify_operator(pure, np.diag([2.0, 5.0]), np.diag([3.0, 7.0]), spec)
    assert diag_rep.lhs == pytest.approx(math.sqrt(6.0), rel=1e-12)
    assert diag_rep.verdict == "equality"


def test_verify_operator_rejects():
    spec = operator_mean_spec("geometric")
    with pytest.raises(DomainError):
        verify_operator(np.zeros((2, 2)), np.eye(2), np.eye(2), spec)
    with pytest.raises(DomainError):
        verify_operator(np.eye(2) / 2.0, np.diag([1.0, -1.0]), np.eye(2), spec)
    with pytest.raises(UsageError):
        verify_operator(np.eye(2) / 2.0, np.eye(3), np.eye(3), spec)
    space = matrix_space([(1.0, np.eye(2), np.eye(2), np.eye(2) / 2.0)])
    with pytest.raises(UsageError, match="^matrix verification needs an OperatorMeanSpec$"):
        verify_matrix(space, get_function("geometric"), 1e-8, "op")


def test_random_matrix_one_atom_reduces_to_operator_bitwise():
    for fid in SPECS:
        spec = operator_mean_spec(fid)
        rng = split_rng(19, SPECS.index(fid))
        n = int(rng.integers(2, 5))
        rho = sample_density(n, rng)
        a = sample_spd(n, rng)
        b = sample_spd(n, rng)
        op = verify_operator(rho, a, b, spec)
        rm = verify_random_matrix(matrix_space([(1.0, a, b, rho)]), spec)
        assert rm.lhs == op.lhs
        assert rm.rhs == op.rhs
        assert rm.gap == op.gap
        assert rm.verdict == op.verdict


def test_random_matrix_n1_reduces_to_scalar():
    for fid in SPECS:
        spec = operator_mean_spec(fid)
        rng = split_rng(23, SPECS.index(fid))
        k = int(rng.integers(1, 6))
        p = rng.exponential(1.0, k)
        p /= p.sum()
        xs = 2.0 ** rng.uniform(-4, 4, k)
        ys = 2.0 ** rng.uniform(-4, 4, k)
        scal = verify_numeric(scalar_space(zip(p, xs, ys)), get_function(fid), tol=1e-8)
        entries = [
            (p[i], np.array([[xs[i]]]), np.array([[ys[i]]]), np.array([[1.0]]))
            for i in range(k)
        ]
        rm = verify_random_matrix(matrix_space(entries), spec)
        assert rm.lhs == pytest.approx(scal.lhs, abs=1e-12)
        assert rm.rhs == pytest.approx(scal.rhs, abs=1e-12)
        assert rm.gap == pytest.approx(scal.gap, abs=1e-12)


def test_random_matrix_diagonal_hand_chain():
    # Two atoms, constant rho = I/2, diagonal observables: chaining the
    # one-atom and n=1 reductions by hand.
    spec = operator_mean_spec("geometric")
    rho = np.eye(2) / 2.0
    x1, y1 = np.diag([1.0, 4.0]), np.diag([4.0, 1.0])
    x2, y2 = np.diag([2.0, 2.0]), np.diag([8.0, 0.5])
    space = matrix_space([(0.25, x1, y1, rho), (0.75, x2, y2, rho)])
    rep = verify_random_matrix(space, spec)
    lhs = 0.25 * (math.sqrt(4.0) + math.sqrt(4.0)) / 2.0 + 0.75 * (
        math.sqrt(16.0) + math.sqrt(1.0)
    ) / 2.0
    ex = 0.25 * 2.5 + 0.75 * 2.0
    ey = 0.25 * 2.5 + 0.75 * 4.25
    assert rep.lhs == pytest.approx(lhs, rel=1e-12)
    assert rep.rhs == pytest.approx(math.sqrt(ex * ey), rel=1e-12)
    assert rep.verdict == "holds"


def test_constant_rho_commutes_with_expectation():
    rng = split_rng(29, 0)
    n, k = 3, 4
    rho = sample_density(n, rng)
    xs = [sample_spd(n, rng) for _ in range(k)]
    p = rng.exponential(1.0, k)
    p /= p.sum()
    atomwise = sum(p[i] * float(np.trace(rho @ xs[i])) for i in range(k))
    pooled = float(np.trace(rho @ sum(p[i] * xs[i] for i in range(k))))
    assert atomwise == pytest.approx(pooled, abs=1e-12)


def test_random_matrix_requires_densities():
    rng = split_rng(31, 0)
    a = sample_spd(2, rng)
    with pytest.raises(UsageError, match="density"):
        matrix_space([(1.0, a, a)])
    scal = scalar_space([(1.0, 1.0, 1.0)])
    with pytest.raises(UsageError):
        verify_random_matrix(scal, operator_mean_spec("geometric"))


def test_verify_numeric_needs_a_scalar_space():
    rng = split_rng(31, 1)
    a = sample_spd(2, rng)
    space = matrix_space([(1.0, a, a, sample_density(2, rng))])
    assert space.mode == "matrix"
    with pytest.raises(UsageError, match="scalar-mode"):
        verify_numeric(space, GEO)


def test_space_file_round_trip(tmp_path):
    path = tmp_path / "space.txt"
    path.write_text("0.25 0.5 1.5\n0.75 2 1\n")
    loaded = load_space(path)
    assert loaded.mode == "scalar"
    assert list(zip(loaded.p.tolist(), loaded.x.tolist(), loaded.y.tolist())) == [
        (0.25, 0.5, 1.5),
        (0.75, 2.0, 1.0),
    ]


def test_space_file_matrix_mode(tmp_path):
    from meanineq import save_matrix

    rng = split_rng(37, 0)
    a = sample_spd(2, rng)
    b = sample_spd(2, rng)
    rho = sample_density(2, rng)
    save_matrix(tmp_path / "a.txt", a)
    save_matrix(tmp_path / "b.txt", b)
    save_matrix(tmp_path / "rho.txt", rho)
    (tmp_path / "space.txt").write_text("# one atom\n1.0 a.txt b.txt rho.txt\n")
    space = load_space(tmp_path / "space.txt")
    assert space.mode == "matrix" and space.rho is not None
    assert np.array_equal(space.x[0], a)


def test_space_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("")
    with pytest.raises(UsageError):
        load_space(bad)
    bad.write_text("0.5 1.0\n")
    with pytest.raises(UsageError):
        load_space(bad)
    bad.write_text("oops a.txt b.txt r.txt\n")
    with pytest.raises(UsageError):
        load_space(bad)
    with pytest.raises(UsageError):
        load_space(tmp_path / "missing.txt")


@pytest.mark.parametrize(
    "text, line, error, detail",
    [
        ("0.5 1 1\n0.5 3 1x\n", 2, UsageError, "'0.5 3 1x'"),
        ("# two atoms\n\n0.5 1 1\n0.5 3 1x\n", 4, UsageError, "three numbers"),
        ("0.5 1 1\n0.5 1 1 r.txt\n", 2, UsageError, "three numbers"),
        ("0.5 1 1\n0.5 -2 1\n", 2, DomainError, "must be positive, got (-2.0, 1.0)"),
        ("1 -2 1\n", 1, DomainError, "must be positive"),
        ("# matrix atoms\n0.5 missing.txt y.txt rho.txt\n", 2, UsageError, "cannot read matrix file"),
    ],
    ids=["malformed-value", "after-comments", "extra-field", "negative-value", "one-atom", "missing-matrix"],
)
def test_space_file_errors_name_the_line(tmp_path, text, line, error, detail):
    # The first atom line sets the mode; a later line that does not fit it is
    # an error on that line, not a reason to read the file in the other mode.
    path = tmp_path / "space.txt"
    path.write_text(text)
    with pytest.raises(error) as exc:
        load_space(path)
    assert str(exc.value).startswith(f"space file {path}, line {line}: ")
    assert detail in str(exc.value)


@pytest.mark.parametrize(
    "x, rho, error, detail",
    [
        (np.diag([1.0, -1.0]), None, NotPositiveDefiniteError, "matrix atom X is not positive definite"),
        (np.diag([1e-9, 1e9]), None, DomainError, "matrix atom X condition number"),
        (np.eye(2), np.eye(2) * 0.6, DomainError, "density matrix trace 1.2"),
        (np.eye(3), None, UsageError, "share one dimension"),
    ],
    ids=["non-pd", "ill-conditioned", "trace", "dimension"],
)
def test_space_file_matrix_errors_name_the_line(tmp_path, x, rho, error, detail):
    # Atom checks run once every line is read; the atom's index maps back to
    # its line, counting blank and comment lines.
    save_matrix(tmp_path / "eye.txt", np.eye(2))
    save_matrix(tmp_path / "rho.txt", np.eye(2) / 2.0)
    save_matrix(tmp_path / "x.txt", x)
    save_matrix(tmp_path / "bad-rho.txt", np.eye(2) / 2.0 if rho is None else rho)
    path = tmp_path / "space.txt"
    path.write_text("# atoms\n0.25 eye.txt eye.txt rho.txt\n\n# the bad one\n0.75 x.txt eye.txt bad-rho.txt\n")
    with pytest.raises(error) as exc:
        load_space(path)
    assert str(exc.value).startswith(f"space file {path}, line 5: ")
    assert detail in str(exc.value)


@pytest.mark.parametrize("scalar", [True, False], ids=["scalar", "matrix"])
def test_space_file_probability_errors_name_the_file(tmp_path, scalar):
    # A bad probability is an error of its line; a bad sum, of the whole file.
    save_matrix(tmp_path / "eye.txt", np.eye(2))
    save_matrix(tmp_path / "rho.txt", np.eye(2) / 2.0)
    atom = "1 1" if scalar else "eye.txt eye.txt rho.txt"
    path = tmp_path / "space.txt"
    path.write_text(f"# atoms\n0.5 {atom}\n\n-0.5 {atom}\n1.0 {atom}\n")
    with pytest.raises(DomainError) as exc:
        load_space(path)
    assert str(exc.value) == f"space file {path}, line 4: atom probability must be finite and >= 0, got -0.5"
    path.write_text(f"0.5 {atom}\nnan {atom}\n")
    with pytest.raises(DomainError) as exc:
        load_space(path)
    assert str(exc.value) == f"space file {path}, line 2: atom probability must be finite and >= 0, got nan"
    path.write_text(f"0.5 {atom}\n0.4 {atom}\n")
    with pytest.raises(DomainError) as exc:
        load_space(path)
    assert str(exc.value) == f"space file {path}: atom probabilities sum to 0.9, not 1"


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10])
def test_verify_numeric_rejects_bad_tol(tol):
    space = construct_counterexample(0.5, 2.0, 0.5)
    with pytest.raises(UsageError, match="tol"):
        verify_numeric(space, G, tol=tol)


_A, _B, _RHO = np.diag([1.0, 2.0]), np.diag([3.0, 5.0]), np.eye(2) / 2
_GEO_SPEC = operator_mean_spec("geometric")
#: Every public verdict that takes a caller's tol, called with a tol.
TOL_SITES = {
    "verify_numeric": lambda tol: verify_numeric(construct_counterexample(0.5, 2.0, 0.5), G, tol),
    "verify_operator": lambda tol: verify_operator(_RHO, _A, _B, _GEO_SPEC, tol),
    "trace_perspective_check": lambda tol: trace_perspective_check(GEO, _A, _B, tol),
    "search_violation": lambda tol: search_violation(G, split_rng(1, 0), 10, tol),
    "check_transformer": lambda tol: check_transformer(_GEO_SPEC, _A, _B, np.eye(2), tol),
    "check_jensen_sum": lambda tol: check_jensen_sum(_GEO_SPEC, [(np.eye(2), _A, _B)], tol),
    "loewner_leq": lambda tol: loewner_leq(_A, _B, tol),
    "check_axioms": lambda tol: check_axioms(GEO, tol=tol),
    "concavity_probe": lambda tol: concavity_probe(GEO, tol=tol),
    "validate_config": lambda tol: validate_config(CampaignConfig("num", ("geometric",), 1, tol=tol)),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, True])
@pytest.mark.parametrize("site", TOL_SITES)
def test_every_verdict_needs_a_finite_positive_tol(site, tol):
    # A NaN tol would let a violated Loewner order read True: every verdict
    # rejects a tol that is not finite and positive, with one message.  A
    # bool is not a tol, though Python counts True as the int 1.
    with pytest.raises(UsageError, match="tol must be finite and positive"):
        TOL_SITES[site](tol)
    TOL_SITES[site](1e-9)


@pytest.mark.parametrize("site", TOL_SITES)
def test_every_verdict_takes_a_numpy_real_tol(site):
    # Any real scalar but a bool is a tol: a float32 runs as the float64 it
    # converts to, as a numpy integer runs as its int.
    def same(x, y):  # every field bit for bit, arrays included
        return pickle.dumps(TOL_SITES[site](x)) == pickle.dumps(TOL_SITES[site](y))

    assert same(np.float32(1e-3), float(np.float32(1e-3)))
    assert same(np.int64(1), 1)
    for bad in (np.bool_(True), np.float32("nan"), np.array([1e-3])):
        with pytest.raises(UsageError, match="tol must be finite and positive"):
            TOL_SITES[site](bad)


def test_search_checks_tol_before_it_draws():
    rng = split_rng(1, 0)
    before = repr(rng.bit_generator.state)
    with pytest.raises(UsageError, match="tol"):
        search_violation(G, rng, 10, float("nan"))
    assert repr(rng.bit_generator.state) == before


def test_mixed_densities_are_rejected(tmp_path):
    from meanineq import save_matrix

    rng = split_rng(41, 0)
    a, b = sample_spd(2, rng), sample_spd(2, rng)
    rho = sample_density(2, rng)
    with pytest.raises(UsageError, match="density"):
        matrix_space([(0.5, a, b, rho), (0.5, b, a)])
    for name, m in (("a", a), ("b", b), ("rho", rho)):
        save_matrix(tmp_path / f"{name}.txt", m)
    (tmp_path / "space.txt").write_text("0.5 a.txt b.txt\n0.5 b.txt a.txt rho.txt\n")
    with pytest.raises(UsageError, match="density"):
        load_space(tmp_path / "space.txt")


def test_matrix_space_stacks_its_atoms():
    rng = split_rng(43, 0)
    entries = [
        (p, sample_spd(3, rng), sample_spd(3, rng), sample_density(3, rng)) for p in (0.25, 0.75)
    ]
    space = matrix_space(entries)
    assert space.x.shape == space.y.shape == space.rho.shape == (2, 3, 3)
    assert space.p.tolist() == [0.25, 0.75]
    for i, (p, x, y, rho) in enumerate(entries):
        assert space.p[i] == p
        assert np.array_equal(space.x[i], x) and np.array_equal(space.y[i], y)
        assert np.array_equal(space.rho[i], rho)
    with pytest.raises(UsageError):
        matrix_space([e[:3] for e in entries])


@pytest.mark.parametrize("fid", SPECS + ["counterexample-g"])
def test_array_means_match_the_per_atom_loop(fid):
    # Reference: f evaluated atom by atom on 0-d arrays. Only wyd's power may
    # round differently there (libm pow on scalars, numpy's loop on arrays),
    # by a few ulp of the sum.
    from meanineq.campaign import sample_scalar_space

    f = get_function(fid)
    for t in range(50):
        space = sample_scalar_space(split_rng(61, t))
        ref = 0.0
        for p, x, y in zip(space.p.tolist(), space.x.tolist(), space.y.tolist()):
            x, y = np.asarray(x), np.asarray(y)
            ref += p * float(y * f.fn(x / y))
        got = verify_numeric(space, f).lhs
        if fid.startswith("wyd"):
            assert abs(got - ref) <= 4 * math.ulp(ref)
        else:
            assert got == ref


def test_underflowing_expectation_is_rejected():
    # Every atom is positive, but 0.5 * 5e-324 rounds to 0, so E X is 0.
    space = scalar_space([(0.5, 5e-324, 1.0), (0.5, 5e-324, 1.0)])
    with pytest.raises(DomainError, match=r"positive.*got 0\.0"):
        verify_numeric(space, GEO)


@pytest.mark.parametrize("fid", SPECS + ["wyd:0.1", "wyd:0.75", "counterexample-g"])
def test_one_atom_space_has_zero_gap(fid):
    # With one atom, lhs and rhs are the same mean of the same numbers.
    from meanineq.campaign import sample_scalar_space

    f = get_function(fid)
    rng = np.random.default_rng(5)
    gaps = [verify_numeric(sample_scalar_space(rng, (1, 1)), f).gap for _ in range(900)]
    assert gaps == [0.0] * 900


def test_classify_gap_is_one_rule_for_floats_and_arrays():
    from meanineq import classify_gap

    tol = 1e-10
    gaps = [-2 * tol, np.nextafter(-tol, -1.0), -tol, np.nextafter(-tol, 0.0), -0.0, 0.0]
    gaps += [np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0), 2 * tol]
    want = ["violated", "violated", "equality", "equality", "equality", "equality"]
    want += ["equality", "equality", "holds", "holds"]
    scalar = [classify_gap(float(g), tol) for g in gaps]
    assert scalar == want and all(type(v) is str for v in scalar)
    assert classify_gap(np.array(gaps), tol).tolist() == want
    assert classify_gap(np.array(gaps).reshape(2, 5), tol).tolist() == [want[:5], want[5:]]

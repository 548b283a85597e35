"""Axiom checker and concavity probe."""

import numpy as np
import pytest

from meanineq import (
    NumericError,
    RepresentingFunction,
    UsageError,
    check_axioms,
    concavity_probe,
    construct_counterexample,
    default_grid,
    get_function,
    mean_num,
    search_violation,
    split_rng,
    verify_numeric,
)

SMALL_GRID = [0.5, 1.0, 2.0, 4.0]
ALL_IDS = ["arithmetic", "wyd:0.25", "wyd:0.5", "geometric", "harmonic", "logarithmic", "counterexample-g"]


def test_geometric_passes_on_small_grid():
    report = check_axioms(get_function("geometric"), SMALL_GRID, tol=1e-10)
    assert report.passed
    assert report.grid_points == 4


def test_counterexample_g_is_a_valid_mean():
    # Non-concave but still inside the mean class: every axiom holds.
    report = check_axioms(get_function("counterexample-g"), SMALL_GRID, tol=1e-10)
    assert report.passed


def test_constant_function_fails_symmetry():
    const = RepresentingFunction("const-one", lambda x: np.ones_like(x))
    report = check_axioms(const, SMALL_GRID, tol=1e-10)
    assert not report.passed
    sym = report.check("f-symmetry")
    assert not sym.passed
    # t * 1 vs 1 at t = 4: relative violation 3
    assert sym.violation == pytest.approx(3.0, rel=1e-12)


def test_step_function_fails_continuity():
    step = RepresentingFunction("step", lambda x: np.where(x < 2.0, 1.0, 2.0))
    report = check_axioms(step, None, tol=1e-10)
    assert not report.check("f-continuity").passed
    assert not report.check("mean-continuity").passed


def test_kinked_function_passes_continuity():
    report = check_axioms(get_function("counterexample-g"), None, tol=1e-10)
    assert report.check("f-continuity").passed
    assert report.check("mean-continuity").passed


def test_decreasing_function_flagged():
    dec = RepresentingFunction("recip", lambda x: 1.0 / x)
    report = check_axioms(dec, SMALL_GRID, tol=1e-10)
    assert not report.check("f-increasing").passed


@pytest.mark.parametrize("fid", ALL_IDS)
def test_default_grid_passes_all_catalog(fid):
    report = check_axioms(get_function(fid), tol=1e-10)
    failing = [c.name for c in report.checks if not c.passed]
    assert report.passed, f"{fid} fails {failing}"


def test_empty_grid_rejected():
    with pytest.raises(UsageError):
        check_axioms(get_function("geometric"), [])
    with pytest.raises(UsageError):
        check_axioms(get_function("geometric"), tol=0.0)


@pytest.mark.parametrize(
    "grid", [[0.0, 1.0], [1.0, np.inf], [-1.0, 2.0], [np.nan, 1.0]], ids=["zero", "inf", "negative", "nan"]
)
def test_grid_entries_must_be_finite_and_positive(grid):
    with pytest.raises(UsageError, match="^probe grid entries must be finite and strictly positive$"):
        check_axioms(get_function("geometric"), grid)


def test_axiom_report_check_names_only_its_checks():
    report = check_axioms(get_function("geometric"), [0.5, 1.0, 2.0])
    assert report.check(report.checks[0].name) is report.checks[0]
    with pytest.raises(UsageError):
        report.check("nope")


@pytest.mark.parametrize(
    "grid, value, probe",
    [
        ([1.0, 1e308], "1e+308", "2.0 * g = inf"),
        ([5e-324, 1.0], "5e-324", "1 / g = inf"),
        ([1.0, 1.7e308], "1.7e+308", "2.0 * g = inf"),
        ([1e-200, 1e200], "1e-200", "g * (1 - 10 * JUMP_DELTA) / max(g) = 0.0"),
    ],
    ids=["overflow", "reciprocal-overflow", "near-max", "ratio-underflow"],
)
def test_grid_whose_probes_leave_the_doubles_is_rejected(grid, value, probe):
    # Rejected before any probe is evaluated: a short message naming the
    # grid value and the probe, and no floating-point warning.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError) as exc:
            check_axioms(get_function("arithmetic"), grid)
    message = str(exc.value)
    assert message == f"probe grid value {value} takes the probe {probe} out of the positive finite doubles"
    assert len(message) < 200


@pytest.mark.parametrize("grid", [[2.2e-308, 1.0], [1.0, 1.7e307], [1e-150, 1.0, 1e150]], ids=["tiny", "huge", "wide"])
def test_grid_near_the_ends_of_the_doubles_is_probed(grid):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_axioms(get_function("arithmetic"), grid, tol=1e-10)
    assert report.passed and report.grid_points == len(grid)


def test_concavity_examples():
    dense = np.linspace(0.1, 10.0, 200)
    assert concavity_probe(get_function("logarithmic"), dense, tol=1e-9).concave
    assert concavity_probe(get_function("arithmetic"), SMALL_GRID).concave

    verdict = concavity_probe(get_function("counterexample-g"), [0.5, 2.0], tol=1e-9)
    assert not verdict.concave
    assert verdict.witness == (0.5, 2.0)
    # g(1.25) = 1.1875 against (g(0.5) + g(2)) / 2 = 1.3125
    assert verdict.defect == pytest.approx(0.125, abs=1e-15)


def test_concavity_default_grid_labels_only_g():
    flagged = [fid for fid in ALL_IDS if not concavity_probe(get_function(fid)).concave]
    assert flagged == ["counterexample-g"]
    verdict = concavity_probe(get_function("counterexample-g"))
    assert verdict.witness is not None
    a, b = verdict.witness
    assert a < 1.0 < b


def test_concavity_needs_two_points():
    with pytest.raises(UsageError):
        concavity_probe(get_function("geometric"), [1.0])


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0, 0.0])
def test_probes_need_a_finite_positive_tol(tol):
    # With tol = inf a non-symmetric f would pass every check, and
    # counterexample-g would read as concave.
    with pytest.raises(UsageError, match="tol"):
        check_axioms(RepresentingFunction("bad", lambda x: x), tol=tol)
    with pytest.raises(UsageError, match="tol"):
        concavity_probe(get_function("counterexample-g"), tol=tol)


def _midpoint_defect(f, grid):
    """The reference probe: the midpoint defect (f(a)+f(b))/2 - f((a+b)/2) on
    all grid pairs, its first largest entry in C order, and the verdict and
    witness read from it."""
    g = np.unique(np.asarray(grid, dtype=float))
    a, b = g[:, None], g[None, :]
    defect = (f(a) + f(b)) / 2.0 - f((a + b) / 2.0)
    i, j = np.unravel_index(int(np.argmax(defect)), defect.shape)
    concave = defect[i, j] <= 1e-9
    witness = None if concave else (float(min(g[i], g[j])), float(max(g[i], g[j])))
    return float(defect[i, j]), concave, witness


@pytest.mark.parametrize("grid", [None, SMALL_GRID, np.linspace(0.1, 10.0, 200)], ids=["default", "small", "dense"])
@pytest.mark.parametrize("fid", ALL_IDS)
def test_concavity_probe_matches_the_midpoint_defect(fid, grid):
    # The probe judges two-point gaps through the verifier; its defect is
    # the midpoint defect bit for bit, the sign of a zero included.
    f = get_function(fid)
    defect, concave, witness = _midpoint_defect(f, default_grid() if grid is None else grid)
    verdict = concavity_probe(f, grid)
    assert verdict.defect.hex() == defect.hex()
    assert (verdict.concave, verdict.witness) == (concave, witness)


def _homogeneity_loop(f, grid):
    """The reference homogeneity check: one pass per scale, keeping the first
    largest relative defect (strict >) and its (x, y, scale) witness."""
    g = np.unique(np.asarray(grid, dtype=float))
    xs, ys = np.meshgrid(g, g, indexing="ij")
    m = mean_num(f, xs, ys)
    worst, witness = -np.inf, None
    for c in (0.5, 2.0, 10.0):
        hv = np.abs(mean_num(f, c * xs, c * ys) - c * m) / (c * m)
        i, j = np.unravel_index(int(np.argmax(hv)), hv.shape)
        if hv[i, j] > worst:
            worst, witness = float(hv[i, j]), (float(g[i]), float(g[j]), c)
    return worst, witness


@pytest.mark.parametrize("grid", [None, SMALL_GRID, [1.0]], ids=["default", "small", "one-point"])
@pytest.mark.parametrize("fid", ALL_IDS)
def test_homogeneity_check_matches_the_scale_loop(fid, grid):
    # Ties, such as every defect 0 on a one-point grid, go to the first
    # scale, then the first pair, as in the loop.
    f = get_function(fid)
    worst, witness = _homogeneity_loop(f, default_grid() if grid is None else grid)
    (check,) = [c for c in check_axioms(f, grid).checks if c.name == "mean-homogeneity"]
    assert (check.violation.hex(), check.witness) == (worst.hex(), witness)


@pytest.mark.parametrize("fid", ALL_IDS)
def test_verifier_certifies_claims_concave(fid):
    # The theorem's two directions through one verdict rule: the probe and
    # the search agree with the catalog's declaration.
    f = get_function(fid)
    verdict = concavity_probe(f)
    searched = search_violation(f, split_rng(0, 0), 1000)
    assert verdict.concave == (searched.verdict != "violated") == f.claims_concave
    if not verdict.concave:
        a, b = verdict.witness
        assert verify_numeric(construct_counterexample(a, b, 0.5), f).verdict == "violated"


def test_concavity_probe_weighs_before_it_adds():
    # E X = a/2 + b/2 is finite where (a + b) / 2 overflowed to a
    # "t must be finite" error.
    verdict = concavity_probe(get_function("arithmetic"), [1e308, 1.5e308])
    assert verdict.concave and verdict.defect == 0.0


def test_concavity_probe_rejects_non_finite_values():
    # A defect of inf - inf used to come back as nan, which no report can
    # serialize; the verifier rejects the non-finite side instead.
    blowup = RepresentingFunction("blowup", lambda x: np.where(x > 2.0, np.inf, x))
    with pytest.raises(NumericError, match="non-finite inequality sides"):
        concavity_probe(blowup, SMALL_GRID)

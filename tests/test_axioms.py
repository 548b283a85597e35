"""Axiom checker and concavity probe."""

import numpy as np
import pytest

from meanineq import (
    RepresentingFunction,
    UsageError,
    check_axioms,
    concavity_probe,
    get_function,
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

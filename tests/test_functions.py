"""Scalar representing functions and the means they generate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanineq import (
    DomainError,
    UsageError,
    default_grid,
    function_from_mean,
    get_function,
    mean_num,
    wyd_function,
)

CATALOG = ["arithmetic", "wyd:0.25", "wyd:0.5", "geometric", "harmonic", "logarithmic", "counterexample-g"]
CONCAVE = [fid for fid in CATALOG if fid != "counterexample-g"]


# --- point values; expected numbers come from the closed formulas, not the code ---


def test_eval_examples():
    assert get_function("geometric")(4.0) == 2.0
    assert get_function("arithmetic")(1.0) == 1.0
    # direct evaluation of the upper affine branch (3*2 + 1) / 4
    assert get_function("counterexample-g")(2.0) == 1.75
    # lower branch (0.5 + 3) / 4
    assert get_function("counterexample-g")(0.5) == 0.875
    # both branches agree at the kink
    assert get_function("counterexample-g")(1.0) == 1.0


def test_logarithmic_limit_at_one():
    f = get_function("logarithmic")
    assert f(1.0) == 1.0
    # continuous extension engages just off 1, stays within the branch cut error
    assert f(1.0 + 1e-13) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("x", [1.0 - 1e-13, 1.0 + 1e-13, 1.0 + 1e-10])
def test_logarithmic_near_one_matches_high_precision(x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        exact = (mpmath.mpf(x) - 1) / mpmath.log(mpmath.mpf(x))
        rel = abs((mpmath.mpf(get_function("logarithmic")(x)) - exact) / exact)
    assert rel <= 1e-15


def test_perspective_examples():
    assert mean_num(get_function("geometric"), 4.0, 1.0) == 2.0
    assert mean_num(get_function("arithmetic"), 3.0, 5.0) == 4.0
    # 3 * harmonic_f(1/3) = 3 * (2/3) / (4/3) = 1.5
    assert mean_num(get_function("harmonic"), 1.0, 3.0) == pytest.approx(1.5, abs=1e-15)


def test_mean_examples():
    assert mean_num(get_function("harmonic"), 2.0, 2.0) == pytest.approx(2.0, abs=1e-15)
    # logarithmic mean of (e, 1) from the two-variable formula (x-y)/(log x - log y)
    expected = (math.e - 1.0) / (math.log(math.e) - math.log(1.0))
    assert mean_num(get_function("logarithmic"), math.e, 1.0) == pytest.approx(expected, rel=1e-14)
    # WYD(0.25) of (16, 1): (16^0.25 * 1^0.75 + 16^0.75 * 1^0.25) / 2 = (2 + 8) / 2
    assert mean_num(get_function("wyd:0.25"), 16.0, 1.0) == pytest.approx(5.0, rel=1e-14)


def test_function_from_mean_examples():
    assert function_from_mean(lambda x, y: (x + y) / 2.0, 3.0) == 2.0
    assert function_from_mean(lambda x, y: math.sqrt(x * y), 4.0) == 2.0
    # harmonic mean at (1, 3): 2 / (1 + 1/3)
    assert function_from_mean(
        lambda x, y: 2.0 / (1.0 / x + 1.0 / y), 3.0
    ) == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("fid", CATALOG)
def test_bijection_round_trip(fid):
    f = get_function(fid)
    for t in default_grid():
        recovered = function_from_mean(lambda x, y: mean_num(f, x, y), float(t))
        assert recovered == pytest.approx(f(float(t)), abs=1e-12)


@pytest.mark.parametrize("fid", CATALOG + ["wyd:0.1", "wyd:0.75"])
def test_scalar_mean_has_the_bits_of_the_array_mean(fid):
    f = get_function(fid)
    xs, ys = 2.0 ** np.random.default_rng(11).uniform(-20.0, 20.0, size=(2, 2000))
    alone = [mean_num(f, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    assert alone == mean_num(f, xs, ys).tolist()
    assert [f(x) for x in xs.tolist()] == f(xs).tolist()


# --- invariants over the probe grid ---


@pytest.mark.parametrize("fid", CATALOG)
def test_normalization_and_symmetry_equation(fid):
    f = get_function(fid)
    assert abs(f(1.0) - 1.0) <= 1e-12
    for t in default_grid():
        t = float(t)
        lhs = t * f(1.0 / t)
        rhs = f(t)
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("fid", CATALOG)
def test_strictly_increasing_on_grid(fid):
    vals = get_function(fid)(default_grid())
    assert np.all(np.diff(vals) > 0.0)


@pytest.mark.parametrize("fid", CATALOG)
@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_homogeneity(fid, c):
    f = get_function(fid)
    g = default_grid()[::4]
    for x in g:
        for y in g:
            scaled = mean_num(f, c * x, c * y)
            assert scaled == pytest.approx(c * mean_num(f, x, y), rel=1e-10)


@pytest.mark.parametrize("fid", CATALOG)
def test_mean_symmetry_and_betweenness(fid):
    f = get_function(fid)
    g = default_grid()[::2]
    for x in g:
        for y in g:
            m = mean_num(f, x, y)
            assert m == pytest.approx(mean_num(f, y, x), rel=1e-10)
            if x != y:
                assert min(x, y) < m < max(x, y)


def test_wyd_half_coincides_with_geometric():
    f_w = get_function("wyd:0.5")
    f_g = get_function("geometric")
    g = default_grid()
    for x in g[::3]:
        for y in g[::3]:
            assert mean_num(f_w, x, y) == pytest.approx(mean_num(f_g, x, y), rel=1e-12)


@pytest.mark.parametrize("fid", CONCAVE)
def test_joint_concavity_of_concave_means(fid):
    f = get_function(fid)
    rng = np.random.default_rng(42)
    pts = 2.0 ** rng.uniform(-4, 4, size=(400, 4))
    for x1, y1, x2, y2 in pts:
        for lam in (0.25, 0.5, 0.75):
            mixed = mean_num(f, lam * x1 + (1 - lam) * x2, lam * y1 + (1 - lam) * y2)
            split = lam * mean_num(f, x1, y1) + (1 - lam) * mean_num(f, x2, y2)
            assert mixed >= split - 1e-9


# --- domain and grammar errors ---


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_eval_rejects_nonpositive(bad):
    with pytest.raises(DomainError):
        get_function("geometric")(bad)


def test_perspective_rejects_nonpositive():
    f = get_function("geometric")
    with pytest.raises(DomainError, match="x must be"):
        mean_num(f, -1.0, 2.0)
    with pytest.raises(DomainError, match="y must be"):
        mean_num(f, 1.0, 0.0)
    with pytest.raises(DomainError, match="y must be"):
        mean_num(f, 1.0, -2.0)
    with pytest.raises(DomainError):
        function_from_mean(lambda x, y: x, 0.0)


def test_unknown_ids_rejected():
    with pytest.raises(UsageError):
        get_function("quadratic")
    with pytest.raises(UsageError):
        get_function("wyd:oops")
    with pytest.raises(UsageError, match="^function id must be a string, got 3$"):
        get_function(3)


@pytest.mark.parametrize("beta", [0.0, 1.0, -0.5, 1.5, float("nan")])
def test_wyd_beta_validated(beta):
    with pytest.raises(UsageError):
        wyd_function(beta)


def test_wyd_id_round_trips():
    f = wyd_function(0.25)
    assert get_function(f.id).params == (0.25,)


def test_wyd_beta_is_any_real_but_a_bool():
    # The rule of reports.require_tol: numbers.Real, numpy scalars included.
    assert wyd_function(np.float32(0.25)).id == wyd_function(np.float64(0.25)).id == "wyd:0.25"
    assert wyd_function(np.float16(0.5)).params == (0.5,)
    for bad in (True, "0.5", None):
        with pytest.raises(UsageError, match=f"^wyd beta must be a finite number, got {bad!r}$"):
            wyd_function(bad)


def test_catalog_flags():
    for fid in CONCAVE:
        f = get_function(fid)
        assert f.claims_concave and f.claims_operator_monotone
    g = get_function("counterexample-g")
    assert not g.claims_concave and not g.claims_operator_monotone


# --- randomized invariants ---

positive = st.floats(min_value=1e-3, max_value=1e3)


@settings(max_examples=200, deadline=None)
@given(x=positive, y=positive)
def test_betweenness_random(x, y):
    for fid in CATALOG:
        m = mean_num(get_function(fid), x, y)
        assert min(x, y) - 1e-12 <= m <= max(x, y) + 1e-12


@settings(max_examples=200, deadline=None)
@given(x=positive, y=positive, c=st.floats(min_value=1e-2, max_value=1e2))
def test_homogeneity_random(x, y, c):
    f = get_function("logarithmic")
    assert mean_num(f, c * x, c * y) == pytest.approx(c * mean_num(f, x, y), rel=1e-9)

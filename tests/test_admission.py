"""Admission does not depend on units.

Every catalog mean is positively homogeneous, so whether a path admits an
input must not change when X and Y are scaled by c > 0.  For c = 2^k,
k in [-40, 40], every matrix path admits c * input exactly when it admits
the input: sampled triples and spaces, all admitted at every scale, and
diagonal boundary cases, whose spectra scale exactly, on both sides of the
condition guard and at or below 0.
"""

import math

import numpy as np
import pytest

from meanineq import (
    DomainError,
    commuting_oracle,
    matrix_space,
    operator_mean,
    operator_mean_spec,
    split_rng,
    sqrt_pd,
    trace_perspective_check,
    verify_operator,
    verify_random_matrix,
)
from meanineq.campaign import sample_matrix_space, sample_operator_triple
from meanineq.linalg import rebuild
from meanineq.verify import FiniteJointSpace

SCALES = [(k, 2.0**k) for k in range(-40, 41)]
GEO = operator_mean_spec("geometric")
#: Condition numbers on both sides of COND_LIMIT / 2 (the kernel's
#: certificate) and of COND_LIMIT (the guard).
CONDS = (4.9e7, 5.1e7, 9.9e7, 1.01e8)
#: Diagonal spectra: the condition cases, and a smallest eigenvalue at or below 0.
SPECTRA = [(1.0, math.sqrt(c), c) for c in CONDS] + [(0.0, 1.0, 2.0), (-(2.0**-30), 1.0, 2.0)]
RHO = np.eye(3) / 3.0


def _boundary_pairs():
    """(D, I) and (I, D) for every boundary spectrum D: commuting pairs."""
    pairs = []
    for spectrum in SPECTRA:
        d = np.diag(spectrum)
        pairs += [(d, np.eye(3)), (np.eye(3), d)]
    return pairs


def _sampled_triples():
    return [sample_operator_triple(split_rng(5, s), (2, 6)) for s in range(50)]


def _commuting(a, b):
    """B's spectrum in A's eigenbasis: a commuting pair."""
    return a, rebuild(np.linalg.eigvalsh(b), np.linalg.eigh(a)[1])


def _admits(path, *args) -> bool:
    try:
        path(*args)
    except DomainError:
        return False
    return True


#: Each path as a function of the scale c and one (rho, A, B) input.
PAIR_PATHS = {
    "matrix_space": lambda c, rho, a, b: matrix_space([(1.0, c * a, c * b, rho)]),
    "verify_operator": lambda c, rho, a, b: verify_operator(rho, c * a, c * b, GEO),
    "operator_mean": lambda c, rho, a, b: operator_mean(GEO, c * a, c * b),
    "sqrt_pd": lambda c, rho, a, b: (sqrt_pd(c * a), sqrt_pd(c * b)),
}
COMMUTING_PATHS = {
    "commuting_oracle": lambda c, rho, a, b: commuting_oracle(GEO, c * a, c * b),
    "trace_perspective_check": lambda c, rho, a, b: trace_perspective_check(GEO.f, c * a, c * b),
}


def _flips(path, inputs):
    """Per input, its admission at c = 1 and the k at which that changes."""
    out = []
    for args in inputs:
        base = _admits(path, 1.0, *args)
        out.append((base, [k for k, c in SCALES if _admits(path, c, *args) != base]))
    return out


def _check(path, sampled, boundary):
    for i, (base, flips) in enumerate(_flips(path, sampled)):
        assert base and flips == [], ("sampled", i, flips)
    outcomes = _flips(path, boundary)
    for i, (base, flips) in enumerate(outcomes):
        assert flips == [], ("boundary", i, flips)
    # The boundary cases land on both sides of the rule.
    assert {base for base, _ in outcomes} == {True, False}


@pytest.mark.parametrize("name", PAIR_PATHS)
def test_pair_admission_is_scale_free(name):
    boundary = [(RHO, a, b) for a, b in _boundary_pairs()]
    _check(PAIR_PATHS[name], _sampled_triples(), boundary)


@pytest.mark.parametrize("name", COMMUTING_PATHS)
def test_commuting_admission_is_scale_free(name):
    sampled = [(rho, *_commuting(a, b)) for rho, a, b in _sampled_triples()]
    boundary = [(RHO, a, b) for a, b in _boundary_pairs()]
    _check(COMMUTING_PATHS[name], sampled, boundary)


def test_boundary_cases_meet_the_condition_guard_as_stated():
    # 4.9e7 passes the kernel's certificate, 5.1e7 and 9.9e7 pass the guard
    # by eigvalsh, 1.01e8 fails it, and eigenvalues at or below 0 fail.
    admitted = [_admits(PAIR_PATHS["operator_mean"], 1.0, RHO, a, b) for a, b in _boundary_pairs()]
    assert admitted == [True, True, True, True, True, True, False, False, False, False, False, False]


def _scaled_space(c, s):
    return FiniteJointSpace(s.p, c * s.x, c * s.y, s.rho)


def _boundary_spaces():
    """Two-atom spaces whose first atom holds a boundary pair."""
    return [
        FiniteJointSpace(np.array([0.5, 0.5]), np.stack([a, np.eye(3)]), np.stack([b, np.eye(3)]), np.stack([RHO, RHO]))
        for a, b in _boundary_pairs()
    ]


SPACE_PATHS = {
    "verify_random_matrix": lambda c, s: verify_random_matrix(_scaled_space(c, s), GEO),
    "matrix_space": lambda c, s: matrix_space(list(zip(s.p, c * s.x, c * s.y, s.rho))),
}


@pytest.mark.parametrize("name", SPACE_PATHS)
def test_space_admission_is_scale_free(name):
    sampled = [(sample_matrix_space(split_rng(6, s), (2, 6), (1, 12)),) for s in range(20)]
    _check(SPACE_PATHS[name], sampled, [(s,) for s in _boundary_spaces()])

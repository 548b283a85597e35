"""The Cholesky perspective against the square-root formulation it replaced.

``reference_perspective`` keeps the square-root perspective
A^(1/2) f(A^(-1/2) B A^(-1/2)) A^(1/2) exactly as the kernel computed it
before: one eigensolve of A, both roots rebuilt from it, and one eigensolve
of the inner matrix.  The kernel's two readouts (the matrix and
Tr(rho P)), its admission of A by its own factor, and the campaign
verdicts are all checked against it.
"""

from pathlib import Path

import numpy as np
import pytest

from meanineq import (
    DomainError,
    NotPositiveDefiniteError,
    NumericError,
    get_function,
    sample_density,
    sample_spd,
    split_rng,
)
from meanineq import verify
from meanineq.campaign import CampaignConfig, load_campaign_config, run_campaign
from meanineq.functions import RepresentingFunction, run_slices
from meanineq.linalg import rebuild, require_pd, symmetrize
from meanineq.operator_means import perspective_kernel, perspective_traces
from meanineq.tolerances import CLAMP_TOL, COND_LIMIT

#: The catalog's operator monotone ids.
MONOTONE = ["arithmetic", "wyd:0.25", "geometric", "harmonic", "logarithmic"]

FIXTURES = Path(__file__).resolve().parent / "golden" / "fixtures"


def reference_perspective(f, a, b):
    """P_f(A, B) of each slice through A's square roots, with the inner
    matrix's roundoff clamp; ``f`` is one function or (f, count) runs."""
    lam_a, q_a = np.linalg.eigh(a)
    root = np.sqrt(lam_a)
    sqrt_a, inv_sqrt_a = rebuild(root, q_a), rebuild(1.0 / root, q_a)
    lam_m, q_m = np.linalg.eigh(symmetrize(inv_sqrt_a @ b @ inv_sqrt_a))
    lam_m = np.where(lam_m[..., :1] <= 0.0, np.maximum(lam_m, CLAMP_TOL * lam_m[..., -1:]), lam_m)
    runs = [(f, len(lam_m))] if isinstance(f, RepresentingFunction) else f
    images = np.concatenate([g.fn(lam_m[rows]) for g, rows in run_slices(runs)])
    return symmetrize(sqrt_a @ rebuild(images, q_m) @ sqrt_a)


def reference_traces(f, rho, a, b):
    """Tr(rho P_f(A, B)) of each slice, from the reference matrix."""
    return np.einsum("kij,kji->k", rho, reference_perspective(f, a, b))


def _triples(n, k, tag):
    rho = np.stack([sample_density(n, split_rng(71, n, tag, i, 0)) for i in range(k)])
    a = np.stack([sample_spd(n, split_rng(71, n, tag, i, 1)) for i in range(k)])
    b = np.stack([sample_spd(n, split_rng(71, n, tag, i, 2)) for i in range(k)])
    return rho, a, b


def _rel(x, y):
    return float(np.max(np.abs(x - y)) / np.max(np.abs(y)))


@pytest.mark.parametrize("n", [1, 2, 5, 17, 48, 64])
def test_readouts_match_the_reference_perspective(n):
    rho, a, b = _triples(n, 3, 0)
    for fid in MONOTONE:
        f = get_function(fid)
        matrix, traces = perspective_kernel(f, a, b), perspective_traces(f, rho, a, b)
        ref = reference_perspective(f, a, b)
        for i in range(len(a)):
            assert np.linalg.norm(matrix[i] - ref[i]) <= 1e-10 * np.linalg.norm(ref[i]), (fid, i)
        assert _rel(traces, reference_traces(f, rho, a, b)) <= 1e-10, fid
        # The trace readout is Tr(rho P) of the matrix readout.
        assert _rel(traces, np.einsum("kij,kji->k", rho, matrix)) <= 1e-12, fid
        for i in range(len(a)):
            assert np.array_equal(matrix[i], perspective_kernel(f, a[i], b[i])), (fid, i)
            assert np.array_equal(traces[i : i + 1], perspective_traces(f, rho[i : i + 1], a[i : i + 1], b[i : i + 1])), (fid, i)


def test_trace_readout_runs_apply_each_function_to_its_slices():
    rho, a, b = _triples(4, 5, 1)
    runs = [(get_function("geometric"), 2), (get_function("harmonic"), 3)]
    traces = perspective_traces(runs, rho, a, b)
    for f, rows in run_slices(runs):
        assert np.array_equal(traces[rows], perspective_traces(f, rho[rows], a[rows], b[rows]))


def _require_pd_outcome(a):
    """None when require_pd(eigvalsh(a), "first argument", COND_LIMIT)
    admits a, else the type and message of its error."""
    try:
        require_pd(np.linalg.eigvalsh(a), "first argument", COND_LIMIT)
    except DomainError as exc:
        return type(exc), str(exc)
    return None


def _kernel_outcome(a):
    try:
        perspective_kernel(get_function("geometric"), a, np.broadcast_to(np.eye(a.shape[-1]), a.shape).copy())
    except DomainError as exc:
        return type(exc), str(exc)
    return None


def test_admission_matches_require_pd_on_eigvalsh(monkeypatch):
    fallbacks = []
    eigvalsh = np.linalg.eigvalsh

    def counting(s):
        fallbacks.append(s.shape)
        return eigvalsh(s)

    good = np.diag([1.0, 2.0, 3.0])
    admitted_by_fallback = 0
    for cond in (1e7, 4.9e7, 5.1e7, 9.9e7, 1.01e8, 1e10):
        for low in (-1.0, 0.0, 2.0**-40, 1e-10, 1.0, 2.0**40):
            a = np.diag([low, low * np.sqrt(cond), low * cond])
            for case in (a, np.stack([good, a, good]), np.stack([good, good, a])):
                expected = _require_pd_outcome(case)
                fallbacks.clear()
                with monkeypatch.context() as m:
                    m.setattr(np.linalg, "eigvalsh", counting)
                    outcome = _kernel_outcome(case)
                assert outcome == expected, (cond, low, case.shape)
                admitted_by_fallback += outcome is None and bool(fallbacks)
    assert admitted_by_fallback > 0


def test_certified_arguments_take_no_eigvalsh(monkeypatch):
    def fail(s):
        raise AssertionError("the certificate should admit A")

    rho, a, b = _triples(64, 2, 2)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    perspective_traces(get_function("geometric"), rho, a, b)


def test_second_argument_without_a_factor_is_a_package_error(monkeypatch):
    f = get_function("geometric")
    with pytest.raises(NotPositiveDefiniteError, match="^second argument of atom 1 is not positive definite"):
        perspective_kernel(f, np.stack([np.eye(2)] * 2), np.stack([np.eye(2), np.diag([1.0, -1.0])]))

    def no_factor(s):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    # A pair the guard admits but whose factorization fails still raises a package error.
    monkeypatch.setattr(np.linalg, "cholesky", no_factor)
    with pytest.raises(NumericError, match="^first argument passed the guard but has no Cholesky factor"):
        perspective_kernel(f, np.eye(2), np.eye(2))


def _campaign_outcome(config):
    s = run_campaign(config)
    return s.violations, {fid: st.violations for fid, st in s.per_function.items()}, s.worst_case


_BENCH_SHAPED = [
    CampaignConfig(mode="op", functions=tuple(MONOTONE), trials=40, dims=(2, 6), seed=1000),
    CampaignConfig(mode="op", functions=tuple(MONOTONE), trials=12, dims=(48, 64), seed=1000),
    CampaignConfig(mode="rm", functions=tuple(MONOTONE), trials=6, dims=(2, 6), atoms=(1, 12), seed=1000),
]


@pytest.mark.parametrize(
    "config",
    [load_campaign_config(p) for p in sorted(FIXTURES.glob("campaign-*.cfg")) if "num" not in p.name] + _BENCH_SHAPED,
    ids=lambda c: f"{c.mode}-{c.dims[0]}-{c.dims[1]}-seed{c.seed}",
)
def test_campaign_verdicts_match_the_reference_kernel(config, monkeypatch):
    outcome = _campaign_outcome(config)
    monkeypatch.setattr(verify, "perspective_traces", reference_traces)
    assert outcome == _campaign_outcome(config)

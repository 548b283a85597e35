"""The Cholesky perspective against the square-root formulation it replaced,
and the closed-form trace readouts against the eigen route.

``reference_perspective`` keeps the square-root perspective
A^(1/2) f(A^(-1/2) B A^(-1/2)) A^(1/2) exactly as the kernel computed it
before: one eigensolve of A, both roots rebuilt from it, and one eigensolve
of the inner matrix.  The kernel's two readouts (the matrix and
Tr(rho P)), its admission of A by its own factor, and the campaign
verdicts are all checked against it.  The arithmetic and harmonic runs of
``perspective_traces`` take closed forms; ``eigen_traces`` reads the same
traces out of ``_eigen_factor``, the eigen route of both readouts.
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
from meanineq.linalg import SpectralDecomposition, rebuild, require_pd, symmetrize
from meanineq import operator_means
from meanineq.operator_means import CLOSED_TRACES, perspective_kernel, perspective_traces
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
        matrix, traces = perspective_kernel(f, a, b), perspective_traces([(f, len(a))], rho, a, b)
        ref = reference_perspective(f, a, b)
        for i in range(len(a)):
            assert np.linalg.norm(matrix[i] - ref[i]) <= 1e-10 * np.linalg.norm(ref[i]), (fid, i)
        assert _rel(traces, reference_traces(f, rho, a, b)) <= 1e-10, fid
        # The trace readout is Tr(rho P) of the matrix readout.
        assert _rel(traces, np.einsum("kij,kji->k", rho, matrix)) <= 1e-12, fid
        for i in range(len(a)):
            assert np.array_equal(matrix[i], perspective_kernel(f, a[i], b[i])), (fid, i)
            assert np.array_equal(traces[i : i + 1], perspective_traces([(f, 1)], rho[i : i + 1], a[i : i + 1], b[i : i + 1])), (fid, i)


def test_trace_readout_runs_apply_each_function_to_its_slices():
    rho, a, b = _triples(4, 5, 1)
    runs = [(get_function("geometric"), 2), (get_function("harmonic"), 3)]
    traces = perspective_traces(runs, rho, a, b)
    for f, rows in run_slices(runs):
        assert np.array_equal(traces[rows], perspective_traces([(f, rows.stop - rows.start)], rho[rows], a[rows], b[rows]))


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
    perspective_traces([(get_function("geometric"), len(a))], rho, a, b)


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


#: The catalog ids whose trace readout has a closed form.
CLOSED = ["arithmetic", "harmonic"]


def eigen_traces(f, rho, a, b):
    """Tr(rho P_f(A, B)) of each slice, read out of the eigen route,
    ``_eigen_factor`` on the stacks as ``_admit`` admits them, as
    sum_i f(λ_i) w_i with w = diag(F^T rho F)."""
    l, inv_l, r = operator_means._admit(a, b)
    factor, images = operator_means._eigen_factor([(f, len(a))], l, inv_l @ r)
    return (images * ((rho @ factor) * factor).sum(axis=-2)).sum(axis=-1)


def extended_traces(fid, rho, a, b):
    """Tr(rho P_f(A, B)) of each slice by the closed form of ``fid``, in
    np.longdouble: (A + B) / 2, or 2 A X with X = (A + B)^-1 B solved by
    Gauss-Jordan elimination, which needs no pivoting on a PD matrix."""
    r, a, b = (m.astype(np.longdouble) for m in (rho, a, b))
    if fid == "arithmetic":
        p = (a + b) / 2
    else:
        c, x = a + b, b.copy()
        for j in range(a.shape[-1]):
            pivot = c[:, j, j][:, None]
            cj, xj = c[:, j, :] / pivot, x[:, j, :] / pivot
            other = c[:, :, j].copy()
            other[:, j] = 0.0
            c -= other[:, :, None] * cj[:, None, :]
            x -= other[:, :, None] * xj[:, None, :]
            c[:, j, :], x[:, j, :] = cj, xj
        p = 2 * a @ x
    return np.einsum("kij,kji->k", r, p)


def test_closed_forms_are_the_catalog_entries():
    assert list(CLOSED_TRACES) == [get_function(fid).fn for fid in CLOSED]
    # A function that only shares an id takes the eigen route.
    impostor = RepresentingFunction("arithmetic", lambda t: np.sqrt(t))
    rho, a, b = _triples(3, 2, 8)
    assert np.array_equal(perspective_traces([(impostor, len(a))], rho, a, b), eigen_traces(impostor, rho, a, b))


@pytest.mark.parametrize("dims", [(2, 6), (7, 16), (48, 64)], ids=["dims-2-6", "dims-7-16", "dims-48-64"])
def test_closed_forms_match_the_eigen_readout(dims):
    # The eigen readout's own error reaches 3e-12 relative on these stacks
    # (harmonic, 16 of 368 sampled atoms above 1e-12); the extended-precision
    # value tells it apart from the closed forms', which stays near 1e-15.
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble carries no extra precision here")
    for n in range(dims[0], dims[1] + 1, 1 if dims[1] <= 16 else 8):
        rho, a, b = _triples(n, 6, 3)
        for fid in CLOSED:
            f = get_function(fid)
            closed, eigen = perspective_traces([(f, len(a))], rho, a, b), eigen_traces(f, rho, a, b)
            exact = extended_traces(fid, rho, a, b)
            assert (np.abs(closed - exact) <= 1e-14 * np.abs(exact)).all(), (fid, n)
            assert (np.abs(closed - eigen) <= 1e-12 * np.abs(eigen) + np.abs(eigen - exact)).all(), (fid, n)


#: A bucket's runs that mix the two kinds of kernel, closed forms at both ends.
MIXED = [("harmonic", 2), ("wyd:0.25", 3), ("arithmetic", 1), ("geometric", 2), ("harmonic", 1)]


def _mixed_runs():
    return [(get_function(fid), count) for fid, count in MIXED]


@pytest.mark.parametrize("n", [3, 17, 56])
def test_mixed_bucket_gives_each_atom_its_bits_alone(n):
    rho, a, b = _triples(n, 9, 4)
    traces = perspective_traces(_mixed_runs(), rho, a, b)
    for f, rows in run_slices(_mixed_runs()):
        for i in range(rows.start, rows.stop):
            alone = perspective_traces([(f, 1)], rho[i : i + 1], a[i : i + 1], b[i : i + 1])
            assert traces[i : i + 1].tobytes() == alone.tobytes(), (f.id, i)


def _traces_outcome(f, a, b):
    """None when ``perspective_traces`` admits the stacks, else the type and
    message of its error; ``f`` is one function or (f, count) runs."""
    runs = [(f, len(a))] if isinstance(f, RepresentingFunction) else f
    try:
        perspective_traces(runs, np.broadcast_to(np.eye(a.shape[-1]) / a.shape[-1], a.shape).copy(), a, b)
    except DomainError as exc:
        return type(exc), str(exc)
    return None


def test_closed_forms_reject_what_the_eigen_route_rejects():
    good = np.diag([1.0, 2.0, 3.0])
    bad = {
        "indefinite": np.diag([1.0, -1.0, 2.0]),
        "singular": np.diag([0.0, 1.0, 2.0]),
        "ill-conditioned": np.diag([1.0, 2.0, 2e8]),
        "well-conditioned": np.diag([1.0, 2.0, 4.0]),
    }
    outcomes = set()
    for name, m in bad.items():
        for at in range(3):
            stack = np.stack([good, good, good])
            stack[at] = m
            for a, b in ((stack, np.stack([good] * 3)), (np.stack([good] * 3), stack), (stack, stack)):
                expected = _traces_outcome(get_function("geometric"), a, b)
                outcomes.add(expected and expected[0])
                mixed = [(get_function(fid), 1) for fid in ("harmonic", "geometric", "arithmetic")]
                for f in [get_function(fid) for fid in CLOSED] + [mixed]:
                    assert _traces_outcome(f, a, b) == expected, (name, at)
    # Both error classes and admission all occur among the cases.
    assert outcomes == {None, DomainError, NotPositiveDefiniteError}


def _spectrum_spy(monkeypatch, alter=None):
    """The stack sizes of each eigensolve the kernel makes, through
    ``linalg.spectrum``; ``alter`` may change each solve's spectrum."""
    calls = []
    spectrum = operator_means.spectrum

    def spy(s):
        calls.append(len(s))
        lam, q = spectrum(s)
        return SpectralDecomposition(alter(lam) if alter else lam, q)

    monkeypatch.setattr(operator_means, "spectrum", spy)
    return calls


def test_inner_clamp_error_names_the_atom_in_the_bucket(monkeypatch):
    def negative_second(lam):  # the second slice of the gathered eigen subset
        lam = lam.copy()
        lam[1, 0] = -1e-6 * lam[1, -1]
        return lam

    calls = _spectrum_spy(monkeypatch, negative_second)
    rho, a, b = _triples(4, 9, 5)
    # The eigen subset is the bucket's atoms 2, 3, 4, 6 and 7: its second is atom 3.
    with pytest.raises(DomainError, match="^inner perspective matrix of atom 3 has eigenvalue"):
        perspective_traces(_mixed_runs(), rho, a, b)
    assert calls == [5]


def test_non_finite_images_name_the_atom_in_the_bucket():
    blowup = RepresentingFunction("blowup", lambda t: np.where(t > 0.0, np.inf, t))
    rho, a, b = _triples(3, 4, 6)
    runs = [(get_function("harmonic"), 2), (blowup, 1), (get_function("arithmetic"), 1)]
    with pytest.raises(DomainError, match="^scalar function of atom 2 produced non-finite"):
        perspective_traces(runs, rho, a, b)


def test_closed_forms_make_no_eigensolve(monkeypatch):
    calls = _spectrum_spy(monkeypatch)
    eigh = np.linalg.eigh

    def counting_eigh(s):
        calls.append(("eigh", len(s)))
        return eigh(s)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rho, a, b = _triples(5, 9, 7)
    closed_runs = [(get_function("arithmetic"), 4), (get_function("harmonic"), 5)]
    perspective_traces(closed_runs, rho, a, b)
    assert calls == []
    # The other runs of a bucket share one eigensolve of their 5 atoms.
    perspective_traces(_mixed_runs(), rho, a, b)
    assert calls == [5, ("eigh", 5)]
    # So does a campaign's bucket: one op campaign of one dimension.
    calls.clear()
    functions = ("arithmetic", "geometric", "harmonic", "logarithmic")
    run_campaign(CampaignConfig(mode="op", functions=functions, trials=3, dims=(4, 4), seed=9))
    assert calls == [6, ("eigh", 6)]
    calls.clear()
    run_campaign(CampaignConfig(mode="rm", functions=("harmonic", "arithmetic"), trials=3, dims=(4, 4), seed=9))
    assert calls == []

"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; the heavy campaigns are shared through
module-scoped fixtures so the suite stays inside its runtime budgets.
"""

import itertools
import json
import time

import numpy as np
import pytest

from meanineq import (
    CampaignConfig,
    check_axioms,
    commuting_oracle,
    concavity_probe,
    check_transformer,
    frobenius,
    get_function,
    matrix_space,
    operator_mean,
    operator_mean_spec,
    run_campaign,
    sample_density,
    sample_spd,
    scalar_space,
    split_rng,
    sym_matrix,
    verify_numeric,
    verify_operator,
    verify_random_matrix,
)
from meanineq.cli import emit_report, main

CONCAVE_IDS = ("arithmetic", "wyd:0.25", "wyd:0.5", "geometric", "harmonic", "logarithmic")
ALL_IDS = CONCAVE_IDS + ("counterexample-g",)


def record(capsys, num: int, name: str, ok: bool) -> None:
    # Suspend capture so every criterion prints its line in any pytest mode.
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def scalar_campaign():
    t0 = time.monotonic()
    summary = run_campaign(
        CampaignConfig(
            mode="num",
            functions=CONCAVE_IDS,
            trials=10_000,
            atoms=(1, 12),
            tol=1e-10,
            seed=20240,
        )
    )
    return summary, time.monotonic() - t0


@pytest.fixture(scope="module")
def operator_campaign():
    t0 = time.monotonic()
    summary = run_campaign(
        CampaignConfig(
            mode="op",
            functions=CONCAVE_IDS,
            trials=10_000,
            dims=(2, 6),
            tol=1e-8,
            seed=20241,
        )
    )
    return summary, time.monotonic() - t0


@pytest.fixture(scope="module")
def rm_campaign():
    t0 = time.monotonic()
    summary = run_campaign(
        CampaignConfig(
            mode="rm",
            functions=CONCAVE_IDS,
            trials=1_000,
            dims=(2, 4),
            atoms=(1, 8),
            tol=1e-8,
            seed=20242,
        )
    )
    return summary, time.monotonic() - t0


def test_criterion_01_counterexample_reproduction(capsys):
    ok = False
    try:
        t0 = time.monotonic()
        code = main(
            [
                "counterexample",
                "--function",
                "counterexample-g",
                "--x1",
                "0.5",
                "--x2",
                "2",
                "--p",
                "0.5",
            ]
        )
        elapsed = time.monotonic() - t0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 1
        assert abs(doc["lhs"] - 1.3125) <= 1e-12
        assert abs(doc["rhs"] - 1.1875) <= 1e-12
        assert abs(doc["gap"] - (-0.125)) <= 1e-12
        assert doc["verdict"] == "violated"
        assert elapsed < 1.0
        ok = True
    finally:
        record(capsys, 1, "counterexample-reproduction", ok)


def test_criterion_02_scalar_jensen_direction(scalar_campaign, capsys):
    summary, elapsed = scalar_campaign
    ok = False
    try:
        assert summary.trials == 60_000
        assert summary.violations == 0
        assert summary.worst_gap >= -1e-10
        assert elapsed < 30.0, f"scalar campaign took {elapsed:.1f}s"
        ok = True
    finally:
        record(capsys, 2, "scalar-jensen-direction", ok)


def test_criterion_03_arithmetic_equality(scalar_campaign, capsys):
    summary, _ = scalar_campaign
    ok = False
    try:
        stats = summary.per_function["arithmetic"]
        assert stats.trials == 10_000
        assert stats.max_abs_gap <= 1e-12
        ok = True
    finally:
        record(capsys, 3, "arithmetic-linearity-equality", ok)


def test_criterion_04_operator_inequality(operator_campaign, capsys):
    summary, elapsed = operator_campaign
    ok = False
    try:
        assert summary.trials == 60_000
        assert summary.violations == 0
        assert summary.worst_gap >= -1e-8
        assert elapsed < 120.0, f"operator campaign took {elapsed:.1f}s"
        ok = True
    finally:
        record(capsys, 4, "operator-state-inequality", ok)


def test_criterion_05_random_matrix_inequality(rm_campaign, capsys):
    summary, _ = rm_campaign
    ok = False
    try:
        assert summary.trials == 6_000
        assert summary.violations == 0
        assert summary.worst_gap >= -1e-8

        # Exact reduction: one-atom mode is bit-for-bit the operator verdict.
        for k, fid in enumerate(CONCAVE_IDS):
            spec = operator_mean_spec(fid)
            for j in range(10):
                rng = split_rng(9100, k, j)
                n = int(rng.integers(2, 5))
                rho = sample_density(n, rng)
                a = sample_spd(n, rng)
                b = sample_spd(n, rng)
                op = verify_operator(rho, a, b, spec, tol=1e-8)
                rm = verify_random_matrix(matrix_space([(1.0, a, b, rho)]), spec, tol=1e-8)
                assert rm.lhs == op.lhs and rm.rhs == op.rhs and rm.gap == op.gap
                assert rm.verdict == op.verdict

        # Exact reduction: n = 1 matches the scalar verifier within 1e-12.
        for k, fid in enumerate(CONCAVE_IDS):
            spec = operator_mean_spec(fid)
            for j in range(10):
                rng = split_rng(9200, k, j)
                m = int(rng.integers(1, 9))
                p = rng.exponential(1.0, m)
                p /= p.sum()
                xs = 2.0 ** rng.uniform(-4, 4, m)
                ys = 2.0 ** rng.uniform(-4, 4, m)
                scal = verify_numeric(scalar_space(zip(p, xs, ys)), get_function(fid), tol=1e-8)
                entries = [
                    (p[i], np.array([[xs[i]]]), np.array([[ys[i]]]), np.array([[1.0]]))
                    for i in range(m)
                ]
                rm = verify_random_matrix(matrix_space(entries), spec, tol=1e-8)
                assert abs(rm.lhs - scal.lhs) <= 1e-12
                assert abs(rm.rhs - scal.rhs) <= 1e-12
                assert abs(rm.gap - scal.gap) <= 1e-12
        ok = True
    finally:
        record(capsys, 5, "random-matrix-inequality-and-reductions", ok)


def _random_c(rng, n, smin, smax):
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = rng.uniform(smin, smax, size=n)
    return u @ np.diag(s) @ v.T


def test_criterion_06_transformer_and_equality(capsys):
    ok = False
    try:
        specs = [operator_mean_spec(fid) for fid in CONCAVE_IDS]
        # 1000 seeded (A, B, C) with ||C|| <= 1, every catalog mean.
        worst = np.inf
        for k in range(1000):
            rng = split_rng(6100, k)
            n = int(rng.integers(2, 6))
            a = sample_spd(n, rng)
            b = sample_spd(n, rng)
            c = _random_c(rng, n, 0.1, 1.0)
            assert np.linalg.norm(c, 2) <= 1.0 + 1e-12
            for spec in specs:
                rep = check_transformer(spec, a, b, c, tol=1e-8)
                worst = min(worst, rep.min_eig_gap)
        assert worst >= -1e-8, f"worst transformer gap {worst:.3e}"

        # 1000 seeded invertible C with condition number <= 100: equality.
        worst_defect = 0.0
        for k in range(1000):
            rng = split_rng(6200, k)
            n = int(rng.integers(2, 6))
            a = sample_spd(n, rng)
            b = sample_spd(n, rng)
            c = _random_c(rng, n, 0.01, 1.0)
            s = np.linalg.svd(c, compute_uv=False)
            assert s[0] / s[-1] <= 100.0 + 1e-9
            for spec in specs:
                rep = check_transformer(spec, a, b, c, tol=1e-7)
                worst_defect = max(worst_defect, rep.equality_defect)
                assert rep.equality_case
        assert worst_defect <= 1e-7, f"worst equality defect {worst_defect:.3e}"
        ok = True
    finally:
        record(capsys, 6, "transformer-inequality-and-equality-case", ok)


def test_criterion_07_commuting_oracle_equivalence(capsys):
    ok = False
    try:
        for fid in CONCAVE_IDS:
            spec = operator_mean_spec(fid)
            for k in range(500):
                rng = split_rng(7100, k)
                n = int(rng.integers(2, 7))
                s = sym_matrix(rng.normal(size=(n, n)))
                shift_a = rng.uniform(0.3, 1.5)
                shift_b = rng.uniform(0.3, 1.5)
                eye = np.eye(n)
                a = sym_matrix((s + shift_a * eye) @ (s + shift_a * eye) + 0.1 * eye)
                b = sym_matrix((s - shift_b * eye) @ (s - shift_b * eye) + 0.2 * eye)
                direct = operator_mean(spec, a, b)
                oracle = commuting_oracle(spec, a, b)
                err = frobenius(direct - oracle) / frobenius(oracle)
                assert err <= 1e-8, (fid, k, err)
        ok = True
    finally:
        record(capsys, 7, "commuting-oracle-equivalence", ok)


def test_criterion_08_closed_form_cross_checks(capsys):
    ok = False
    try:
        harm = operator_mean_spec("harmonic")
        for k in range(500):
            rng = split_rng(8100, k)
            n = int(rng.integers(2, 7))
            a = sample_spd(n, rng)
            b = sample_spd(n, rng)
            m = operator_mean(harm, a, b)
            closed = 2.0 * np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))
            assert frobenius(m - closed) <= 1e-8 * frobenius(closed), k

        geo = operator_mean_spec("geometric")
        for k in range(500):
            rng = split_rng(8200, k)
            n = int(rng.integers(2, 7))
            a = sample_spd(n, rng)
            b = sample_spd(n, rng)
            x = operator_mean(geo, a, b)
            resid = x @ np.linalg.inv(a) @ x - b
            assert frobenius(resid) <= 1e-7 * frobenius(b), k
        ok = True
    finally:
        record(capsys, 8, "closed-form-cross-checks", ok)


def test_criterion_09_eigensolver_quality(capsys):
    ok = False
    try:
        from meanineq import sym_eigen

        for k in range(1000):
            rng = split_rng(9300, k)
            n = int(rng.integers(2, 17))
            scale = float(rng.choice([1e-3, 1.0, 1e3]))
            a = sym_matrix(rng.normal(size=(n, n)) * scale)
            lam, q = sym_eigen(a)
            assert np.all(np.diff(lam) >= 0.0)
            assert frobenius(q.T @ q - np.eye(n)) <= 1e-10 * n
            assert frobenius((q * lam) @ q.T - a) <= 1e-10 * max(1.0, frobenius(a))
        ok = True
    finally:
        record(capsys, 9, "eigensolver-quality", ok)


def test_criterion_10_axiom_suite(capsys):
    ok = False
    try:
        for fid in ALL_IDS:
            report = check_axioms(get_function(fid), tol=1e-10)
            failing = [c.name for c in report.checks if not c.passed]
            assert report.passed, (fid, failing)
        flagged = [
            fid for fid in ALL_IDS if not concavity_probe(get_function(fid)).concave
        ]
        assert flagged == ["counterexample-g"]
        verdict = concavity_probe(get_function("counterexample-g"))
        assert verdict.witness is not None and len(verdict.witness) == 2
        ok = True
    finally:
        record(capsys, 10, "axiom-suite-and-concavity-labels", ok)


def test_criterion_11_campaign_determinism(capsys, monkeypatch):
    from meanineq import campaign

    def blockings():
        """Run the body once per (block size, key chunk) pair, patched."""
        for block, chunk in itertools.product((1, 4096), (1, 7, 4096)):
            monkeypatch.setattr(campaign, "BLOCK_ELEMENTS", block)
            monkeypatch.setattr(campaign, "KEY_CHUNK", chunk)
            yield
        monkeypatch.undo()

    def ranged(config, n):
        """The campaign run as n ranges, each on a thread of its own."""
        with monkeypatch.context() as m:
            m.setattr(campaign, "_range_count", lambda config: n)
            return run_campaign(config)

    ok = False
    try:
        config = CampaignConfig(
            mode="op",
            functions=("geometric", "harmonic", "wyd:0.25"),
            trials=120,
            dims=(2, 5),
            seed=1123,
        )
        runs = [run_campaign(config), run_campaign(config)]
        parallel = [ranged(config, 2), ranged(config, 5)]
        blocked = [run_campaign(config) for _ in blockings()]
        texts = [emit_report(s, "json") for s in runs + parallel + blocked]
        assert all(t == texts[0] for t in texts[1:])
        assert runs[0] == parallel[0] == parallel[1]
        assert all(s == runs[0] for s in blocked)

        # and a violating scalar campaign, where worst_case payloads must match too
        config = CampaignConfig(
            mode="num", functions=("counterexample-g",), trials=150, seed=99
        )
        t1 = emit_report(run_campaign(config), "json")
        t2 = emit_report(ranged(config, 3), "json")
        assert t1 == t2
        assert all(emit_report(run_campaign(config), "json") == t1 for _ in blockings())
        ok = True
    finally:
        record(capsys, 11, "campaign-determinism-across-parallelism", ok)

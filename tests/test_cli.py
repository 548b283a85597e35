"""CLI surface: subcommands, formats, exit codes, determinism."""

import json
import warnings

import numpy as np
import pytest

from meanineq import sample_density, sample_spd, save_matrix, split_rng
from meanineq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_two_atom_space(tmp_path):
    path = tmp_path / "two-atom.txt"
    path.write_text("0.5 1 1\n0.5 3 1\n")
    return path


def test_verify_num(tmp_path, capsys):
    space = write_two_atom_space(tmp_path)
    code, out, err = run_cli(
        capsys, "verify-num", "--function", "geometric", "--space", str(space)
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["mode"] == "num"
    assert doc["function"] == "geometric"
    assert doc["lhs"] == pytest.approx(1.3660254037844386, rel=1e-15)
    assert doc["rhs"] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert doc["verdict"] == "holds"


def test_counterexample_exact_values_and_exit(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "counterexample",
        "--function",
        "counterexample-g",
        "--x1",
        "0.5",
        "--x2",
        "2",
        "--p",
        "0.5",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["lhs"] == 1.3125
    assert doc["rhs"] == 1.1875
    assert doc["gap"] == -0.125
    assert doc["verdict"] == "violated"


def test_verify_op(tmp_path, capsys):
    rng = split_rng(1, 0)
    rho = sample_density(3, rng)
    a = sample_spd(3, rng)
    b = sample_spd(3, rng)
    save_matrix(tmp_path / "rho.txt", rho)
    save_matrix(tmp_path / "a.txt", a)
    save_matrix(tmp_path / "b.txt", b)
    code, out, _ = run_cli(
        capsys,
        "verify-op",
        "--function",
        "harmonic",
        "--rho",
        str(tmp_path / "rho.txt"),
        "--a",
        str(tmp_path / "a.txt"),
        "--b",
        str(tmp_path / "b.txt"),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "op" and doc["dims"] == 3
    assert doc["verdict"] in ("holds", "equality")
    assert doc["gap"] >= -1e-8


def test_verify_rm(tmp_path, capsys):
    rng = split_rng(2, 0)
    for name in ("x1", "y1", "x2", "y2"):
        save_matrix(tmp_path / f"{name}.txt", sample_spd(2, rng))
    save_matrix(tmp_path / "r1.txt", sample_density(2, rng))
    save_matrix(tmp_path / "r2.txt", sample_density(2, rng))
    space = tmp_path / "space.txt"
    space.write_text("0.5 x1.txt y1.txt r1.txt\n0.5 x2.txt y2.txt r2.txt\n")
    code, out, _ = run_cli(
        capsys, "verify-rm", "--function", "geometric", "--space", str(space)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "rm" and doc["atoms"] == 2
    assert doc["gap"] >= -1e-8


def test_axioms_subcommand(capsys):
    code, out, _ = run_cli(capsys, "axioms", "--function", "geometric")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["axioms_passed"] is True
    assert doc["concavity"]["verdict"] == "concave"
    names = {c["check"] for c in doc["axioms"]}
    assert "mean-homogeneity" in names and "f-symmetry" in names

    code, out, _ = run_cli(capsys, "axioms", "--function", "counterexample-g")
    assert code == 0  # axioms hold; non-concavity is a label, not a failure
    doc = json.loads(out)
    assert doc["concavity"]["verdict"] == "non-concave"
    assert doc["concavity"]["witness"] is not None


@pytest.mark.parametrize("report", [(1, 2), (), (1, 2, 3), [1, 2], 5], ids=["pair", "empty", "triple", "list", "int"])
def test_emit_report_rejects_what_is_not_a_report(report):
    # A tuple is an axioms report only as an (AxiomReport, ConcavityVerdict) pair.
    from meanineq import UsageError
    from meanineq.cli import emit_report

    for fmt in ("json", "csv"):
        with pytest.raises(UsageError, match=f"^cannot emit report of type {type(report).__name__}$"):
            emit_report(report, fmt)


def test_emit_report_renders_an_axioms_pair():
    from meanineq import check_axioms, concavity_probe, get_function
    from meanineq.cli import emit_report

    f = get_function("geometric")
    doc = json.loads(emit_report((check_axioms(f), concavity_probe(f))))
    assert doc["function"] == "geometric" and doc["concavity"]["verdict"] == "concave"


def test_emit_report_rejects_an_unknown_format():
    from meanineq import UsageError, check_axioms, get_function
    from meanineq.cli import emit_report

    with pytest.raises(UsageError, match="^unknown format 'xml'$"):
        emit_report(check_axioms(get_function("geometric")), "xml")


def test_json_writer_reads_as_pinned():
    from meanineq import NumericError, UsageError
    from meanineq.cli import _emit_json, fmt_float

    with pytest.raises(NumericError, match="^cannot serialize non-finite value nan$"):
        fmt_float(float("nan"))
    assert [_emit_json(v) for v in ({}, [], (), False, True, None)] == ["{}", "[]", "[]", "false", "true", "null"]
    with pytest.raises(UsageError, match="^cannot serialize value of type set$"):
        _emit_json({1.0})


def test_json_strings_are_quoted_as_json_dumps_quotes_them():
    from meanineq.cli import _emit_json

    strings = ["", "plain", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "wyd:0.25 \u00e9\u2264\U0001f600"]
    for s in strings:
        assert _emit_json(s) == json.dumps(s)
        assert _emit_json({s: s}) == "{\n  " + json.dumps(s) + ": " + json.dumps(s) + "\n}"


def test_campaign_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "camp.cfg"
    cfg.write_text("mode = num\nfunctions = geometric,harmonic\ntrials = 40\nseed = 7\n")
    code1, out1, _ = run_cli(capsys, "campaign", "--config", str(cfg))
    code2, out2, _ = run_cli(capsys, "campaign", "--config", str(cfg))
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["violations"] == 0
    assert "worst_case" not in doc
    assert set(doc["per_function"]) == {"geometric", "harmonic"}


def test_campaign_seed_override_changes_output(tmp_path, capsys):
    cfg = tmp_path / "camp.cfg"
    cfg.write_text("mode = num\nfunctions = geometric\ntrials = 20\nseed = 7\n")
    _, out1, _ = run_cli(capsys, "campaign", "--config", str(cfg))
    _, out2, _ = run_cli(capsys, "campaign", "--config", str(cfg), "--seed", "8")
    assert json.loads(out1)["seed"] == 7
    assert json.loads(out2)["seed"] == 8


@pytest.mark.parametrize("flag, value, key", [("--dim", "3", "dims = 3-3"), ("--tol", "0.05", "tol = 0.05")])
def test_campaign_override_matches_its_config_key(tmp_path, capsys, flag, value, key):
    base = "mode = rm\nfunctions = geometric,wyd:0.25\ntrials = 6\nseed = 4\n"
    cfg, keyed = tmp_path / "camp.cfg", tmp_path / "keyed.cfg"
    cfg.write_text(base)
    keyed.write_text(base + key + "\n")
    overridden = run_cli(capsys, "campaign", "--config", str(cfg), flag, value)
    assert overridden[0] == 0
    assert overridden == run_cli(capsys, "campaign", "--config", str(keyed))
    assert overridden != run_cli(capsys, "campaign", "--config", str(cfg))


def test_campaign_nan_tol_override_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "camp.cfg"
    cfg.write_text("mode = num\nfunctions = geometric\ntrials = 5\n")
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfg), "--tol", "nan")
    assert code == 2 and out == ""
    assert "tol" in err and err.count("\n") == 1


def test_campaign_violation_exit_code(tmp_path, capsys):
    cfg = tmp_path / "camp.cfg"
    cfg.write_text("mode = num\nfunctions = counterexample-g\ntrials = 100\nseed = 3\n")
    code, out, _ = run_cli(capsys, "campaign", "--config", str(cfg))
    assert code == 1
    doc = json.loads(out)
    assert doc["violations"] > 0
    assert doc["worst_case"]["space"]["mode"] == "scalar"


def test_search_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--function", "counterexample-g", "--seed", "5", "--trials", "500"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["gap"] <= -0.1
    assert doc["seed"] == 5

    code, out, _ = run_cli(
        capsys, "search", "--function", "geometric", "--seed", "5", "--trials", "200"
    )
    assert code == 0


def test_csv_format(tmp_path, capsys):
    space = write_two_atom_space(tmp_path)
    code, out, _ = run_cli(
        capsys,
        "verify-num",
        "--function",
        "geometric",
        "--space",
        str(space),
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "schema_version,mode,function,lhs,rhs,gap,tol,verdict,seed,dims,atoms"
    cells = lines[1].split(",")
    assert cells[1] == "num" and cells[7] == "holds"
    assert cells[8] == ""  # absent seed

    cfg = tmp_path / "camp.cfg"
    cfg.write_text("mode = num\nfunctions = geometric\ntrials = 10\nseed = 1\n")
    code, out, _ = run_cli(capsys, "campaign", "--config", str(cfg), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("schema_version,mode,function,trials")
    assert lines[-1].split(",")[2] == "(total)"


def test_json_round_trip_17_digits(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "counterexample",
        "--function",
        "geometric",
        "--x1",
        "1.1234567890123456",
        "--x2",
        "4",
        "--p",
        "0.3333333333333333",
    )
    doc = json.loads(out)
    from meanineq import construct_counterexample, get_function, verify_numeric

    rep = verify_numeric(
        construct_counterexample(1.1234567890123456, 4.0, 0.3333333333333333),
        get_function("geometric"),
    )
    # serialization preserved every bit of the 64-bit values
    assert doc["lhs"] == rep.lhs
    assert doc["rhs"] == rep.rhs
    assert doc["gap"] == rep.gap


def test_error_exit_codes(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify-num", "--function", "quadratic", "--space", "x")
    assert code == 2
    assert out == ""
    assert "quadratic" in err and err.count("\n") == 1

    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1.0 2.0\n0.5 1.0\n")
    code, _, err = run_cli(
        capsys, "verify-op", "--function", "geometric",
        "--rho", str(bad), "--a", str(bad), "--b", str(bad),
    )
    assert code == 2 and "bad.txt" in err

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = nope\nfunctions = geometric\ntrials = 5\n")
    code, _, err = run_cli(capsys, "campaign", "--config", str(cfg))
    assert code == 2 and "nope" in err

    # Trial 0 draws 2**62 atoms: 2**63 doubles, a size numpy refuses outright.
    cfg.write_text("mode = num\nfunctions = arithmetic\ntrials = 2\natoms = 4611686018427387904\n")
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: function 'arithmetic', trial 0: ") and err.count("\n") == 1

    code, _, err = run_cli(
        capsys, "counterexample", "--function", "counterexample-g",
        "--x1", "1", "--x2", "2", "--p", "1.5",
    )
    assert code == 2

    space = write_two_atom_space(tmp_path)
    code, _, err = run_cli(
        capsys, "verify-rm", "--function", "geometric", "--space", str(space)
    )
    assert code == 2  # scalar space fed to the matrix verifier


def test_verify_num_rejects_a_matrix_space_file(tmp_path, capsys):
    rng = split_rng(3, 0)
    save_matrix(tmp_path / "x.txt", sample_spd(2, rng))
    save_matrix(tmp_path / "y.txt", sample_spd(2, rng))
    space = tmp_path / "space.txt"
    space.write_text("1 x.txt y.txt\n")
    code, out, err = run_cli(
        capsys, "verify-num", "--function", "geometric", "--space", str(space)
    )
    assert code == 2 and out == ""
    assert "space.txt" in err and err.count("\n") == 1


@pytest.mark.parametrize("text", ["dims = 2-3-9", "atoms = 1-2-x"])
def test_malformed_range_is_a_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "camp.cfg"
    cfg.write_text(f"mode = op\nfunctions = geometric\ntrials = 5\n{text}\n")
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfg))
    assert code == 2 and out == ""
    assert text.split(" = ")[1] in err and err.count("\n") == 1


@pytest.mark.parametrize("x", [np.diag([1e-9, 1e9]), np.diag([1.0, -1.0])], ids=["ill-conditioned", "non-pd"])
def test_verify_rm_rejects_bad_observable_file(tmp_path, capsys, x):
    save_matrix(tmp_path / "x.txt", x)
    save_matrix(tmp_path / "y.txt", np.eye(2))
    save_matrix(tmp_path / "rho.txt", np.eye(2) / 2.0)
    space = tmp_path / "space.txt"
    space.write_text("1 x.txt y.txt rho.txt\n")
    code, out, err = run_cli(
        capsys, "verify-rm", "--function", "geometric", "--space", str(space)
    )
    assert code == 2 and out == ""
    assert "matrix atom X" in err


@pytest.mark.parametrize(
    "x, rho, detail",
    [
        (np.diag([1.0, -1.0]), np.eye(2) / 2.0, "matrix atom X is not positive definite"),
        (np.eye(2), np.eye(2) * 0.6, "density matrix trace"),
    ],
    ids=["non-pd", "trace"],
)
def test_verify_rm_names_the_space_line_of_a_bad_atom(tmp_path, capsys, x, rho, detail):
    save_matrix(tmp_path / "bad-x.txt", x)
    save_matrix(tmp_path / "bad-rho.txt", rho)
    save_matrix(tmp_path / "eye.txt", np.eye(2))
    save_matrix(tmp_path / "rho.txt", np.eye(2) / 2.0)
    space = tmp_path / "space.txt"
    space.write_text("# two atoms\n0.5 eye.txt eye.txt rho.txt\n\n0.5 bad-x.txt eye.txt bad-rho.txt\n")
    code, out, err = run_cli(capsys, "verify-rm", "--function", "geometric", "--space", str(space))
    assert code == 2 and out == ""
    assert err.startswith(f"error: space file {space}, line 4: ") and detail in err
    assert err.count("\n") == 1


def test_argparse_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-num"])  # missing required flags
    assert exc.value.code == 2


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    # Exit 1 means a violated verdict, so a bad seed must exit 2.
    cfg = tmp_path / "camp.cfg"
    cfg.write_text("mode = num\nfunctions = geometric\ntrials = 5\nseed = -1\n")
    ok = tmp_path / "ok.cfg"
    ok.write_text("mode = num\nfunctions = geometric\ntrials = 5\n")
    # No trial runs here, so only the config check can reject the seed.
    idle = tmp_path / "idle.cfg"
    idle.write_text("mode = num\nfunctions = geometric\ntrials = 0\nseed = -5\n")
    for argv in (
        ["campaign", "--config", str(cfg)],
        ["campaign", "--config", str(idle)],
        ["campaign", "--config", str(ok), "--seed", "-1"],
        ["search", "--function", "geometric", "--seed", "-1", "--trials", "5"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "seed" in err and err.count("\n") == 1


def test_trials_override_numpy_cannot_count_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "camp.cfg"
    cfg.write_text("mode = num\nfunctions = geometric\ntrials = 5\n")
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfg), "--trials", "99999999999999999999")
    assert code == 2 and out == ""
    assert "2**63" in err and err.count("\n") == 1


def test_duplicate_function_id_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "camp.cfg"
    cfg.write_text("mode = num\nfunctions = counterexample-g, counterexample-g\ntrials = 20\n")
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "counterexample-g" in err and err.count("\n") == 1


@pytest.mark.parametrize("ids", ["wyd:0.5, wyd:.5, wyd:0.50", "geometric, harmonic, geometric"])
def test_two_spellings_of_one_function_are_a_usage_error(tmp_path, capsys, ids):
    cfg = tmp_path / "camp.cfg"
    cfg.write_text(f"mode = num\nfunctions = {ids}\ntrials = 20\n")
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfg))
    fid = ids.split(",")[0]
    assert (code, out) == (2, "")
    assert err == f"error: config file {cfg}: function id {fid!r} is listed more than once\n"


def test_campaign_reports_the_ids_its_functions_resolve_to(tmp_path, capsys):
    cfg = tmp_path / "camp.cfg"
    cfg.write_text("mode = num\nfunctions = wyd:.50, geometric\ntrials = 5\n")
    code, out, _ = run_cli(capsys, "campaign", "--config", str(cfg), "--format", "csv")
    assert code == 0
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["wyd:0.5", "geometric", "(total)"]


def test_nan_tol_is_a_usage_error(tmp_path, capsys):
    space = write_two_atom_space(tmp_path)
    code, out, err = run_cli(
        capsys, "verify-num", "--function", "geometric", "--space", str(space), "--tol", "nan"
    )
    assert code == 2 and out == ""
    assert "tol" in err and err.count("\n") == 1


def test_axioms_inf_tol_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "axioms", "--function", "geometric", "--tol", "inf")
    assert code == 2 and out == ""
    assert "tol" in err and err.count("\n") == 1


def test_underflowing_expectation_is_a_domain_error(tmp_path, capsys):
    # 0.5 * 5e-324 rounds to 0, so E X is 0 although every atom is positive.
    space = tmp_path / "underflow.txt"
    space.write_text("0.5 5e-324 1\n0.5 5e-324 1\n")
    code, out, err = run_cli(capsys, "verify-num", "--function", "geometric", "--space", str(space))
    assert code == 2 and out == ""
    assert "positive" in err and "got 0.0" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, detail",
    [("0.5 1 1\n0.5 3 1x\n", "three numbers"), ("0.5 1 1\n0.5 -2 1\n", "must be positive")],
    ids=["malformed-value", "negative-value"],
)
def test_bad_scalar_space_line_exits_2_naming_it(tmp_path, capsys, text, detail):
    space = tmp_path / "space.txt"
    space.write_text(text)
    code, out, err = run_cli(capsys, "verify-num", "--function", "geometric", "--space", str(space))
    assert code == 2 and out == ""
    assert err.startswith(f"error: space file {space}, line 2: ") and detail in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text, where, detail",
    [
        ("0.5 1 1\n-0.5 3 1\n1.0 2 2\n", ", line 2", "atom probability must be finite and >= 0, got -0.5"),
        ("0.5 1 1\n0.4 3 1\n", "", "atom probabilities sum to 0.9, not 1"),
    ],
    ids=["negative", "sum"],
)
def test_bad_space_probability_exits_2_naming_the_file(tmp_path, capsys, text, where, detail):
    space = tmp_path / "space.txt"
    space.write_text(text)
    code, out, err = run_cli(capsys, "verify-num", "--function", "geometric", "--space", str(space))
    assert code == 2 and out == ""
    assert err == f"error: space file {space}{where}: {detail}\n"


def test_verify_rm_rejects_a_space_file_without_densities(tmp_path, capsys):
    # Every matrix atom needs a density: a three-field matrix line is an error
    # of that line.
    save_matrix(tmp_path / "x.txt", np.eye(2))
    space = tmp_path / "space.txt"
    space.write_text("1 x.txt x.txt\n")
    code, out, err = run_cli(capsys, "verify-rm", "--function", "geometric", "--space", str(space))
    assert code == 2 and out == ""
    assert err.startswith(f"error: space file {space}, line 1: ") and "density" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, text, mode, got",
    [("verify-num", "1 x.txt x.txt rho.txt\n", "scalar", "matrix"), ("verify-rm", "1 1 1\n", "matrix", "scalar")],
    ids=["verify-num", "verify-rm"],
)
def test_space_file_of_the_wrong_mode_names_the_file(tmp_path, capsys, command, text, mode, got):
    save_matrix(tmp_path / "x.txt", np.eye(2))
    save_matrix(tmp_path / "rho.txt", np.eye(2) / 2.0)
    space = tmp_path / "space.txt"
    space.write_text(text)
    code, out, err = run_cli(capsys, command, "--function", "geometric", "--space", str(space))
    assert code == 2 and out == ""
    assert err == f"error: space file {space}: expected {mode} mode, got {got} mode\n"


@pytest.mark.parametrize(
    "kind, data, argv",
    [
        ("config", b"mode = num\nfunctions = geometric\xff\n", ["campaign", "--config", "BAD"]),
        ("space", b"0.5 1 1\n0.5 3 1\xff\n", ["verify-num", "--function", "geometric", "--space", "BAD"]),
        ("matrix", b"1\n0.5\xff\n", ["verify-op", "--function", "geometric", "--rho", "BAD", "--a", "BAD", "--b", "BAD"]),
    ],
    ids=["config", "space", "matrix"],
)
def test_non_utf8_input_file_is_a_usage_error(tmp_path, capsys, kind, data, argv):
    # Exit 1 means a violated verdict, so an undecodable file must exit 2.
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data)
    code, out, err = run_cli(capsys, *(str(bad) if a == "BAD" else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {kind} file {bad}: ") and err.count("\n") == 1


def test_verify_op_names_both_dimensions_of_a_mismatched_pair(tmp_path, capsys):
    save_matrix(tmp_path / "a.txt", np.eye(2))
    save_matrix(tmp_path / "b.txt", np.eye(3))
    save_matrix(tmp_path / "rho.txt", np.eye(3) / 3.0)
    code, out, err = run_cli(
        capsys, "verify-op", "--function", "geometric",
        "--rho", str(tmp_path / "rho.txt"), "--a", str(tmp_path / "a.txt"), "--b", str(tmp_path / "b.txt"),
    )
    assert code == 2 and out == ""
    assert err == "error: matrix atom X has dimension 2 but Y has dimension 3\n"


def _verify_op_files(tmp_path, **bad):
    """--rho, --a and --b files of a valid triple, each replaced by the
    matrix ``bad`` gives for it."""
    files = {"rho": np.eye(2) / 2.0, "a": np.eye(2), "b": np.eye(2), **bad}
    argv = []
    for flag, m in files.items():
        save_matrix(tmp_path / f"{flag}.txt", m)
        argv += [f"--{flag}", str(tmp_path / f"{flag}.txt")]
    return argv


@pytest.mark.parametrize(
    "flag, m, detail",
    [
        ("rho", np.zeros((2, 2)), "density matrix trace 0.0 differs from 1 beyond tolerance"),
        ("a", np.diag([1.0, -1.0]), "matrix atom X is not positive definite (min eigenvalue -1.0)"),
        ("b", np.diag([1.0, -1.0]), "matrix atom Y is not positive definite (min eigenvalue -1.0)"),
    ],
    ids=["rho", "a", "b"],
)
def test_verify_op_names_the_flag_and_file_of_a_bad_matrix(tmp_path, capsys, flag, m, detail):
    argv = _verify_op_files(tmp_path, **{flag: m})
    code, out, err = run_cli(capsys, "verify-op", "--function", "geometric", *argv)
    assert code == 2 and out == ""
    assert err == f"error: --{flag} {tmp_path / f'{flag}.txt'}: {detail}\n"


def test_verify_op_rejects_a_matrix_whose_average_overflows(tmp_path, capsys):
    # Finite entries above max / 2 overflow when the loader symmetrizes:
    # one message that names the file, and no numpy warning.
    argv = _verify_op_files(tmp_path)
    big = tmp_path / "big.txt"
    big.write_text("2\n1e308 0\n0 1e308\n")
    argv[argv.index("--a") + 1] = str(big)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "verify-op", "--function", "geometric", *argv)
    assert code == 2 and out == ""
    assert err == f"error: matrix file {big}: matrix entries must be finite and at most 8.988e+307 in magnitude\n"


#: Malformed input files: (kind, text, the 1-based line the error names or
#: None for the whole file, a part of the message after the location).
MALFORMED = {
    "config-unknown-key": (
        "config", "mode = num\n# two ids\nfunctions = geometric\nbogus = 3\ntrials = 5\n", 4,
        "unknown config key 'bogus'",
    ),
    "config-not-key-value": ("config", "mode = num\n\njust a line\n", 3, "expected 'key = value'"),
    "config-duplicate": ("config", "mode = num\nmode = op\n", 2, "duplicate config key 'mode'"),
    "config-trials": ("config", "mode = num\nfunctions = geometric\ntrials = x\n", 3, "'trials' needs an integer"),
    "config-range": (
        "config", "mode = op\nfunctions = geometric\ntrials = 5\ndims = 2-3-9\n", 4, "got '2-3-9'",
    ),
    "config-missing-key": ("config", "mode = num\nfunctions = geometric\n", None, "'trials'"),
    "config-invalid": ("config", "mode = nope\nfunctions = geometric\ntrials = 5\n", None, "'nope'"),
    "config-trials-int64": (
        "config", "mode = num\nfunctions = geometric, harmonic\ntrials = 4611686018427387904\n", None, "2**63",
    ),
    "config-atoms-int64": (
        "config", "mode = rm\nfunctions = geometric\ntrials = 5\natoms = 1-9223372036854775808\n", None, "2**63",
    ),
    "space-empty": ("space", "# nothing\n", None, "at least one atom"),
    "matrix-non-numeric": ("matrix", "2\n1 0\n\n# second row\n0 zz\n", 5, "2 finite numbers, got '0 zz'"),
    "matrix-row-length": ("matrix", "2\n1 0 0\n0 1\n", 2, "2 finite numbers, got '1 0 0'"),
    "matrix-dimension": ("matrix", "# n\ntwo\n", 2, "dimension"),
    "matrix-non-finite": ("matrix", "2\n1 0\n0 inf\n", 3, "finite"),
    "matrix-few-rows": ("matrix", "3\n1 0 0\n0 1 0\n", None, "expected 3 rows, found 2"),
    "matrix-asymmetric": ("matrix", "2\n1 2\n0.5 1\n", None, "symmetry violation"),
    "matrix-empty": ("matrix", "", None, "empty"),
}
COMMANDS = {
    "config": ["campaign", "--config", "BAD"],
    "space": ["verify-num", "--function", "geometric", "--space", "BAD"],
    "matrix": ["verify-op", "--function", "geometric", "--rho", "BAD", "--a", "BAD", "--b", "BAD"],
}


@pytest.mark.parametrize("kind, text, line, detail", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_file_exits_2_naming_its_place(tmp_path, capsys, kind, text, line, detail):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    code, out, err = run_cli(capsys, *(str(bad) if a == "BAD" else a for a in COMMANDS[kind]))
    assert code == 2 and out == ""
    where = f"{kind} file {bad}" if line is None else f"{kind} file {bad}, line {line}"
    assert err.startswith(f"error: {where}: ") and detail in err and err.count("\n") == 1

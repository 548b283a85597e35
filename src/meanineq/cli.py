"""Command-line front end: verification, counterexamples, campaigns, reports.

Output contract: exactly one JSON document (default) or CSV block on stdout;
diagnostics only on stderr.  Floats are serialized with 17 significant
digits so every 64-bit value round-trips, and documents are emitted with a
fixed key order, so identical inputs and seeds give byte-identical output.

Exit codes: 0 when every requested verdict is holds/equality, 1 when any
verdict is violated, 2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii

from .axioms import AxiomReport, ConcavityVerdict, check_axioms, concavity_probe
from .campaign import (
    CampaignSummary,
    load_campaign_config,
    run_campaign,
    search_violation,
)
from .errors import MeanIneqError, NumericError, UsageError, located, place
from .functions import get_function
from .linalg import load_matrix
from .operator_means import OperatorMeanSpec
from .reports import InequalityReport
from .sampling import split_rng
from .tolerances import MATRIX_TOL, SCALAR_TOL
from .verify import (
    MODE_MATRIX,
    MODE_SCALAR,
    construct_counterexample,
    load_space,
    verify_numeric,
    verify_operator,
    verify_random_matrix,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# serialization


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NumericError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def _emit_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):  # json.dumps's bytes for a str, without its dispatch
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{encode_basestring_ascii(str(k))}: {_emit_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = [f"{inner}{_emit_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise UsageError(f"cannot serialize value of type {type(value).__name__}")


def report_to_doc(report: InequalityReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": report.mode,
        "function": report.function,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "gap": report.gap,
        "tol": report.tol,
        "verdict": report.verdict,
        "seed": report.seed,
        "dims": report.dims,
        "atoms": report.atoms,
    }


def campaign_to_doc(summary: CampaignSummary) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "mode": summary.mode,
        "functions": list(summary.functions),
        "trials": summary.trials,
        "violations": summary.violations,
        "tol": summary.tol,
        "seed": summary.seed,
        "dims": list(summary.dims),
        "atoms": list(summary.atoms),
    }
    if summary.worst_gap is not None:
        doc["worst_gap"] = summary.worst_gap
    doc["per_function"] = {
        fid: {
            "trials": st.trials,
            "violations": st.violations,
            **({"worst_gap": st.worst_gap} if st.worst_gap is not None else {}),
            **({"max_abs_gap": st.max_abs_gap} if st.max_abs_gap is not None else {}),
        }
        for fid, st in summary.per_function.items()
    }
    if summary.worst_case is not None:
        doc["worst_case"] = summary.worst_case
    return doc


def axioms_to_doc(report: AxiomReport, probe: ConcavityVerdict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "function": report.function,
        "tol": report.tol,
        "grid": {
            "points": report.grid_points,
            "lo": report.grid_lo,
            "hi": report.grid_hi,
        },
        "axioms": [
            {
                "check": c.name,
                "violation": c.violation,
                "witness": list(c.witness),
                "verdict": "pass" if c.passed else "fail",
            }
            for c in report.checks
        ],
        "axioms_passed": report.passed,
        "concavity": {
            "verdict": "concave" if probe.concave else "non-concave",
            "defect": probe.defect,
            "witness": list(probe.witness) if probe.witness is not None else None,
            "tol": probe.tol,
        },
    }


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def _csv(header, rows) -> str:
    """A CSV block: the header line, then one line per row of cells."""
    return "\n".join(",".join(map(_csv_cell, row)) for row in (header, *rows))


def _report_csv(report: InequalityReport) -> str:
    doc = report_to_doc(report)
    return _csv(doc.keys(), [doc.values()])


def _campaign_csv(summary: CampaignSummary) -> str:
    per = summary.per_function
    rows = [(fid, st.trials, st.violations, st.worst_gap, st.max_abs_gap) for fid, st in per.items()]
    rows.append(("(total)", summary.trials, summary.violations, summary.worst_gap, None))
    header = ("schema_version", "mode", "function", "trials", "violations", "worst_gap", "max_abs_gap")
    return _csv(header, [(SCHEMA_VERSION, summary.mode, *row) for row in rows])


def _axioms_csv(report: AxiomReport, probe: ConcavityVerdict) -> str:
    rows = [(c.name, c.violation, "pass" if c.passed else "fail") for c in report.checks]
    rows.append(("concavity-probe", probe.defect, "concave" if probe.concave else "non-concave"))
    header = ("schema_version", "function", "check", "violation", "verdict")
    return _csv(header, [(SCHEMA_VERSION, report.function, *row) for row in rows])


#: Each report type with its renderers; an axioms report, an (AxiomReport,
#: ConcavityVerdict) pair, is keyed by its parts' types.
_RENDERERS = {
    InequalityReport: {"json": report_to_doc, "csv": _report_csv},
    CampaignSummary: {"json": campaign_to_doc, "csv": _campaign_csv},
    (AxiomReport, ConcavityVerdict): {"json": lambda pair: axioms_to_doc(*pair), "csv": lambda pair: _axioms_csv(*pair)},
}


def emit_report(report, fmt: str = "json") -> str:
    """Render a report object to its final byte-stable text form."""
    if fmt not in ("json", "csv"):
        raise UsageError(f"unknown format {fmt!r}")
    render = _RENDERERS.get(tuple(map(type, report)) if type(report) is tuple else type(report))
    if render is None:
        raise UsageError(f"cannot emit report of type {type(report).__name__}")
    rendered = render[fmt](report)  # a document for json, the text for csv
    return _emit_json(rendered) if fmt == "json" else rendered


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanineq",
        description=(
            "Verify expectation inequalities for bivariate means: scalar, "
            "operator, and random-matrix forms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, tol_default: float) -> None:
        p.add_argument("--tol", type=float, default=tol_default, help="verdict tolerance")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("axioms", help="check mean axioms and probe concavity")
    p.add_argument("--function", required=True, help="function id, e.g. geometric or wyd:0.25")
    common(p, SCALAR_TOL)

    p = sub.add_parser("verify-num", help="scalar inequality on a finite space file")
    p.add_argument("--function", required=True)
    p.add_argument("--space", required=True, help="space file: lines 'p x y'")
    common(p, SCALAR_TOL)

    p = sub.add_parser("verify-op", help="operator inequality for (rho, A, B) files")
    p.add_argument("--function", required=True)
    p.add_argument("--rho", required=True, help="density matrix file")
    p.add_argument("--a", required=True, help="first observable file")
    p.add_argument("--b", required=True, help="second observable file")
    common(p, MATRIX_TOL)

    p = sub.add_parser("verify-rm", help="random-matrix inequality on a space file")
    p.add_argument("--function", required=True)
    p.add_argument("--space", required=True, help="space file: lines 'p x.txt y.txt rho.txt'")
    common(p, MATRIX_TOL)

    p = sub.add_parser("counterexample", help="build and verify a two-point space")
    p.add_argument("--function", required=True)
    p.add_argument("--x1", type=float, required=True)
    p.add_argument("--x2", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    common(p, SCALAR_TOL)

    p = sub.add_parser("campaign", help="run a seeded verification campaign")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--trials", type=int, default=None, help="override the config trials")
    p.add_argument("--dim", type=int, default=None, help="override dims as a single n")
    p.add_argument("--tol", type=float, default=None, help="override the config tol")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("search", help="random-restart search for a violation")
    p.add_argument("--function", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000, help="search budget")
    common(p, SCALAR_TOL)

    return parser


def _space_file(path: str, mode: str):
    """The space file at ``path``, which must be in ``mode``."""
    space = load_space(path)
    with located(place("space", path)):
        if space.mode != mode:
            raise UsageError(f"expected {mode} mode, got {space.mode} mode")
    return space


def _run(args: argparse.Namespace, out) -> int:
    if args.command == "axioms":
        f = get_function(args.function)
        report = check_axioms(f, tol=args.tol)
        probe = concavity_probe(f)
        out.write(emit_report((report, probe), args.format) + "\n")
        return 0 if report.passed else 1

    if args.command == "campaign":
        dims = None if args.dim is None else (args.dim, args.dim)
        overrides = {"seed": args.seed, "trials": args.trials, "dims": dims, "tol": args.tol}
        config = replace(load_campaign_config(args.config), **{k: v for k, v in overrides.items() if v is not None})
        summary = run_campaign(config)
        out.write(emit_report(summary, args.format) + "\n")
        return 1 if summary.violations > 0 else 0

    f = get_function(args.function)
    if args.command == "verify-num":
        report = verify_numeric(_space_file(args.space, MODE_SCALAR), f, args.tol)
    elif args.command == "verify-op":
        spec = OperatorMeanSpec(f)
        rho, a, b = (load_matrix(path) for path in (args.rho, args.a, args.b))
        report = verify_operator(rho, a, b, spec, args.tol, where=lambda arg: f"--{arg} {getattr(args, arg)}")
    elif args.command == "verify-rm":
        spec = OperatorMeanSpec(f)
        report = verify_random_matrix(_space_file(args.space, MODE_MATRIX), spec, args.tol)
    elif args.command == "counterexample":
        report = verify_numeric(construct_counterexample(args.x1, args.x2, args.p), f, args.tol)
    elif args.command == "search":
        report = search_violation(f, split_rng(args.seed, 0), args.trials, tol=args.tol, seed=args.seed)
    else:
        raise UsageError(f"unknown command {args.command!r}")
    out.write(emit_report(report, args.format) + "\n")
    return 1 if report.verdict == "violated" else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args, sys.stdout)
    except MeanIneqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

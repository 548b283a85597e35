"""Rewrite the golden CLI outputs beside this file.

Each case is one ``meanineq`` invocation on the checked-in files under
``fixtures/``; its golden file holds the exact stdout.  ``tests/test_golden.py``
compares every case byte for byte.  Run this only after a change that alters
output bytes on purpose, and say why in the change log:

    PYTHONPATH=src python3 tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"

_COMMANDS = {
    "axioms-g": ["axioms", "--function", "counterexample-g"],
    "axioms-wyd": ["axioms", "--function", "wyd:0.25"],
    "campaign-num": ["campaign", "--config", "campaign-num.cfg"],
    "campaign-num-wyd": ["campaign", "--config", "campaign-num-wyd.cfg"],
    "campaign-num-big": ["campaign", "--config", "campaign-num-big.cfg"],
    "campaign-op": ["campaign", "--config", "campaign-op.cfg"],
    "campaign-op-large": ["campaign", "--config", "campaign-op-large.cfg"],
    "campaign-rm": ["campaign", "--config", "campaign-rm.cfg"],
    "campaign-rm-wide": ["campaign", "--config", "campaign-rm-wide.cfg"],
    "campaign-rm-wyd": ["campaign", "--config", "campaign-rm-wyd.cfg"],
    "search": ["search", "--function", "counterexample-g", "--seed", "3", "--trials", "200"],
    "counterexample": ["counterexample", "--function", "wyd:0.25", "--x1", "0.3", "--x2", "5", "--p", "0.4"],
    "verify-num": ["verify-num", "--function", "logarithmic", "--space", "num-space.txt"],
    "verify-op": ["verify-op", "--function", "geometric", "--rho", "op-rho.txt", "--a", "op-a.txt", "--b", "op-b.txt"],
    "verify-rm": ["verify-rm", "--function", "harmonic", "--space", "rm-space.txt"],
}

#: Golden file name -> CLI arguments, with fixture file names relative to ``fixtures/``.
CASES = {
    f"{name}.{fmt}": argv + ["--format", fmt]
    for name, argv in _COMMANDS.items()
    for fmt in ("json", "csv")
}


def render(name: str) -> str:
    """Run one case through ``cli.main`` and return its stdout."""
    from meanineq.cli import main

    argv = [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def main() -> None:
    for name in CASES:
        (HERE / name).write_text(render(name))
        print(f"wrote {HERE / name}")


if __name__ == "__main__":
    main()

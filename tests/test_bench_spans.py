"""The benchmark trace wraps public names of the package; each must exist, and
a short traced run must count trials and atoms."""

import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
_spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("name, module, attribute", spans.TARGETS, ids=spans.NAMES)
def test_trace_target_resolves(name, module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None)), name


@pytest.mark.parametrize("workload", ["num-mixed", "rm-atoms"])
def test_traced_benchmark_run_counts_trials_and_atoms(workload):
    # The trace divides every per-trial figure by the calls it counts on
    # campaign._run_trial; a campaign that stopped making them would divide
    # by zero here.
    root = _SPANS.parent.parent
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--trace", "1", "--seconds", "0.3"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    traced = re.search(r"^traced: .*, (\d+) trials, (\S+) atoms per trial$", proc.stdout, re.M)
    assert traced is not None, proc.stdout
    assert int(traced[1]) > 0
    assert 1.0 <= float(traced[2]) <= 12.0

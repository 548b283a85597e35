"""The benchmark trace wraps public names of the package; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
_spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("name, module, attribute", spans.TARGETS, ids=spans.NAMES)
def test_trace_target_resolves(name, module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None)), name

"""Golden outputs: fixed CLI invocations must reproduce their stdout byte for byte.

The goldens under ``tests/golden/`` are rewritten by ``tests/golden/regen.py``
when a change alters output bytes on purpose.
"""

import importlib.util
from pathlib import Path

import pytest

_REGEN = Path(__file__).resolve().parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_golden_output_byte_identical(name):
    expected = (regen.HERE / name).read_bytes()
    assert regen.render(name).encode() == expected

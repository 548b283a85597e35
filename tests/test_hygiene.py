"""Source hygiene: no module imports a name it never uses, and the package
touches numpy's random module only through explicit generators."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# A package __init__ imports names to re-export them, not to use them.
FILES = sorted(
    p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


SRC = sorted((ROOT / "src").rglob("*.py"))
#: Campaigns reseed one Philox generator per trial, which is only sound when
#: no draw comes from numpy's global random state or another bit generator.
RANDOM_NAMES = {"Generator", "Philox", "SeedSequence"}


def _numpy_random_uses(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            inner = node.value
            if inner.attr == "random" and isinstance(inner.value, ast.Name) and inner.value.id in ("np", "numpy"):
                if node.attr not in RANDOM_NAMES:
                    found.append(f"line {node.lineno}: {inner.value.id}.random.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            found += [f"line {node.lineno}: numpy.random.{a.name}" for a in node.names if a.name not in RANDOM_NAMES]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"line {node.lineno}: from numpy import random" for a in node.names if a.name == "random"]
    return found


def test_random_scan_catches_global_state():
    tree = ast.parse("import numpy as np\nnp.random.seed(1)\nx = np.random.normal()\nfrom numpy.random import default_rng\n")
    assert sorted(_numpy_random_uses(tree)) == [
        "line 2: np.random.seed",
        "line 3: np.random.normal",
        "line 4: numpy.random.default_rng",
    ]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_src_uses_only_explicit_generators(path):
    assert _numpy_random_uses(ast.parse(path.read_text())) == []

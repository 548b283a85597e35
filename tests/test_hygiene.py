"""Source hygiene: no module imports a name it never uses, every module-level
constant of the package is read somewhere, and the package touches numpy's
random module only through explicit generators."""

import ast
import re
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


#: The one module that reads a generator's raw words or sets its state: the
#: v1 stream's internals (Philox keys, fresh states, numpy's bounded-integer
#: rule) stay where they are tested against numpy.
STREAM_OWNER = "sampling.py"


def _stream_internals(tree: ast.AST) -> list[str]:
    """Every ``random_raw`` attribute, called or not, and every assignment to
    a ``state`` attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random_raw":
            found.append(f"line {node.lineno}: random_raw")
        elif isinstance(node, ast.Attribute) and node.attr == "state" and isinstance(node.ctx, ast.Store):
            found.append(f"line {node.lineno}: state =")
    return sorted(found)


def test_stream_scan_catches_raw_words_and_state():
    tree = ast.parse(
        "w = rng.bit_generator.random_raw()\nraw = bg.random_raw\nrng.bit_generator.state = s\n"
        "bg.state, x = s, 1\ns = rng.bit_generator.state\nstate = {}\n"
    )
    assert _stream_internals(tree) == ["line 1: random_raw", "line 2: random_raw", "line 3: state =", "line 4: state ="]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_src_touches_stream_internals_only_in_sampling(path):
    found = _stream_internals(ast.parse(path.read_text()))
    if path.name == STREAM_OWNER:
        assert found != []
    else:
        assert found == []


#: The one function of the package that reads a file: it turns a file that
#: cannot be read or decoded into a usage error naming it (exit 2), where a
#: loader of its own would let the exception escape as a traceback (exit 1).
READER = ("errors.py", "read_input")
READ_CALLS = {"read_text", "read_bytes", "open"}


def _file_reads(tree: ast.AST, reader: str | None = None) -> list[str]:
    """Calls of READ_CALLS, bare or as attributes, outside the function named
    ``reader``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef) and node.name == reader:
            continue
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in READ_CALLS:
                found.append(f"line {node.lineno}: {name}")
        found += _file_reads(node, reader)
    return found


def test_read_scan_catches_file_reads():
    tree = ast.parse(
        "def read_input(p):\n    return p.read_text()\n"
        "text = open('f').read()\ndata = path.read_bytes()\nwith path.open() as fh:\n    pass\n"
    )
    assert _file_reads(tree, "read_input") == ["line 3: open", "line 4: read_bytes", "line 5: open"]
    assert _file_reads(tree) == ["line 2: read_text", "line 3: open", "line 4: read_bytes", "line 5: open"]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_src_reads_files_only_through_the_reader(path):
    tree = ast.parse(path.read_text())
    assert _file_reads(tree, READER[1] if path.name == READER[0] else None) == []
    if path.name == READER[0]:
        assert _file_reads(tree) != []


#: The one function of the package that splits an input file into lines:
#: blank and ``#`` comment lines are skipped, and the others keep their
#: numbers, so every file format shares one grammar and one line count.
GRAMMAR = ("errors.py", "content_lines")


def _line_splits(tree: ast.AST, grammar: str | None = None) -> list[str]:
    """Calls of ``.splitlines()`` and ``startswith("#")`` tests outside the
    function named ``grammar``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef) and node.name == grammar:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name, args = node.func.attr, node.args
            hash_test = name == "startswith" and args and getattr(args[0], "value", None) == "#"
            if name == "splitlines" or hash_test:
                found.append(f"line {node.lineno}: {name}")
        found += _line_splits(node, grammar)
    return found


def test_line_scan_catches_line_grammars():
    tree = ast.parse(
        "def content_lines(text):\n    return [ln for ln in text.splitlines() if not ln.startswith('#')]\n"
        "rows = [r for r in data.splitlines()]\nif line.startswith('#'):\n    pass\n"
        "ok = line.startswith('x') or line.startswith(prefix)\n"
    )
    assert _line_splits(tree, "content_lines") == ["line 3: splitlines", "line 4: startswith"]
    assert _line_splits(tree) == [
        "line 2: splitlines", "line 2: startswith", "line 3: splitlines", "line 4: startswith",
    ]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_src_splits_input_lines_only_through_the_grammar(path):
    tree = ast.parse(path.read_text())
    assert _line_splits(tree, GRAMMAR[1] if path.name == GRAMMAR[0] else None) == []
    if path.name == GRAMMAR[0]:
        assert _line_splits(tree) != []


#: Module-level UPPER_CASE names, public or private.
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _module_constants(tree: ast.Module) -> dict[str, int]:
    found = {}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            for name in ast.walk(target) if target is not None else ():
                if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id):
                    found[name.id] = node.lineno
    return found


def _reads(tree: ast.Module) -> set[str]:
    """Names loaded in a module, bare or as attributes; assignments (such as
    a test patching a constant) do not count."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _unread_constants(defining: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    read = set().union(*map(_reads, readers))
    return sorted(
        f"{path} line {line}: {name}"
        for path, tree in defining.items()
        for name, line in _module_constants(tree).items()
        if name not in read
    )


def test_constant_scan_catches_unread_names():
    defining = {"m.py": ast.parse("USED = 1\nUNREAD = 2.0\n_PRIVATE, lower = 3, 4\nTYPED: int = USED\n")}
    reader = ast.parse("import m\nprint(m.TYPED)\nm.UNREAD = 5\n")
    assert _unread_constants(defining, [*defining.values(), reader]) == [
        "m.py line 2: UNREAD",
        "m.py line 3: _PRIVATE",
    ]


def test_every_src_constant_is_read():
    # A constant nothing reads is a setting that changes nothing.
    defining = {str(p.relative_to(ROOT)): ast.parse(p.read_text()) for p in SRC}
    readers = [ast.parse(p.read_text()) for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")]
    assert _unread_constants(defining, readers) == []


#: The one module that defines a verdict threshold, admission rule or
#: numeric guard; one home lets a threshold become scale-aware in one place.
TOLERANCES = "tolerances.py"
#: A float this small in code is a tolerance in all but name.
TINY = 1e-6
THRESHOLD_NAME = re.compile(r".*_R?TOL|PD_FLOOR|COND_LIMIT")


def _thresholds(tree: ast.Module) -> list[str]:
    """Float literals with 0 < |v| < TINY anywhere, and module-level names
    that read as thresholds."""
    found = [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0.0 < abs(node.value) < TINY
    ]
    found += [f"line {line}: {name}" for name, line in _module_constants(tree).items() if THRESHOLD_NAME.fullmatch(name)]
    return sorted(found)


def test_threshold_scan_catches_thresholds():
    tree = ast.parse(
        "EDGE_TOL = 0.5\nPD_FLOOR = 1\nSTEP_RTOL: float = 2.0\nTOLERANT = 3\n"
        "def f(x, tol=1e-9):\n    return x > -2.5e-300 and x < 1e-6\n"
    )
    assert _thresholds(tree) == [
        "line 1: EDGE_TOL", "line 2: PD_FLOOR", "line 3: STEP_RTOL", "line 5: 1e-09", "line 6: 2.5e-300",
    ]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_src_defines_thresholds_only_in_tolerances(path):
    found = _thresholds(ast.parse(path.read_text()))
    if path.name == TOLERANCES:
        assert found != []
    else:
        assert found == []


#: The one module that runs an eigensolve or a Cholesky factorization and
#: reads the admission guard; a second home could admit a matrix the first
#: rejects, or spend a second eigensolve on a decision already made.
SPECTRUM = "linalg.py"
SOLVERS = {"eigh", "eigvalsh", "cholesky"}
GUARD = "COND_LIMIT"


def _spectrum_decisions(tree: ast.AST) -> list[str]:
    """Uses of an attribute named in SOLVERS (``np.linalg.eigh``, or through
    any alias), imports of those names, and imports or reads of GUARD."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SOLVERS | {GUARD} and isinstance(node.ctx, ast.Load):
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id == GUARD and isinstance(node.ctx, ast.Load):
            found.append(f"line {node.lineno}: {GUARD}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name in SOLVERS | {GUARD}]
    return sorted(found)


def test_spectrum_scan_catches_solvers_and_the_guard():
    tree = ast.parse(
        "import numpy as np\nfrom numpy.linalg import eigh\nfrom .tolerances import COND_LIMIT\n"
        "lam = np.linalg.eigvalsh(a)\nl = numpy.linalg.cholesky(a)\nok = high / low <= tolerances.COND_LIMIT\n"
        "solve = la.eigh\nCOND_LIMIT = 1e8\nif x > COND_LIMIT:\n    pass\nlam, q = spectrum(a)\n"
    )
    assert _spectrum_decisions(tree) == [
        "line 2: import eigh",
        "line 3: import COND_LIMIT",
        "line 4: .eigvalsh",
        "line 5: .cholesky",
        "line 6: .COND_LIMIT",
        "line 7: .eigh",
        "line 9: COND_LIMIT",
    ]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_src_decides_spectra_only_in_linalg(path):
    found = _spectrum_decisions(ast.parse(path.read_text()))
    if path.name == SPECTRUM:
        assert found != []
    else:
        assert found == []


#: A row of README's tolerance table: name, value and the first word of its kind.
TABLE_ROW = re.compile(r"^\| `([A-Z_]+)` \| `([^`]+)` \| (\w+)", re.M)


def _tolerance_constants(source: str) -> dict[str, tuple[float, str]]:
    """Each constant of a tolerances module: its value and the first word of
    its ``#:`` comment (absolute or relative), lowercased."""
    found, comment = {}, []
    for line in source.splitlines():
        if line.startswith("#:"):
            comment.append(line[2:].strip())
        elif m := re.fullmatch(r"([A-Z_]+) = (\S+)", line):
            found[m[1]] = (float(m[2]), re.match(r"\w+", " ".join(comment))[0].lower())
            comment = []
    return found


def test_constant_parse_reads_value_and_kind():
    source = '"""doc"""\n\n#: Absolute.  A guard.\nA_TOL = 1e-9\n\n#: Relative, to x.\n#: More.\nB_RTOL = 2.5\n'
    assert _tolerance_constants(source) == {"A_TOL": (1e-9, "absolute"), "B_RTOL": (2.5, "relative")}


def test_readme_tolerance_table_matches_tolerances():
    # Same names, same values, and each row's kind is its constant's.
    table = {name: (float(value), kind) for name, value, kind in TABLE_ROW.findall((ROOT / "README.md").read_text())}
    assert table == _tolerance_constants((ROOT / "src" / "meanineq" / TOLERANCES).read_text())


#: The one module that decides which caller's ``tol`` is admissible
#: (``reports.require_tol``); a check of its own elsewhere could admit a
#: ``tol`` that the others reject.
TOL_CHECK = "reports.py"


def _tol_messages(tree: ast.AST) -> list[str]:
    """String literals, plain or the literal parts of f-strings, that start
    with ``tol must``: the message of a check of a caller's ``tol``."""
    return sorted(
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("tol must")
    )


def test_tol_scan_catches_inline_checks():
    tree = ast.parse(
        "if not 0.0 < tol < inf:\n    raise UsageError(f\"tol must be positive, got {tol!r}\")\n"
        "msg = 'tol must be finite'\nok = f'the tol must be {tol}'\n"
    )
    assert _tol_messages(tree) == ["line 2: 'tol must be positive, got '", "line 3: 'tol must be finite'"]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_src_checks_tol_only_in_reports(path):
    found = _tol_messages(ast.parse(path.read_text()))
    if path.name == TOL_CHECK:
        assert found != []
    else:
        assert found == []


#: The one module that decides which of a caller's values is an integer
#: (``errors.require_integer``); a check of its own elsewhere could admit a
#: float or a bool that the others reject.
INTEGER_CHECK = "errors.py"


def _integer_messages(tree: ast.AST) -> list[str]:
    """String literals, plain or the literal parts of f-strings, that hold
    ``must be an integer``: the message of a check of a caller's integer."""
    return sorted(
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "must be an integer" in node.value
    )


def test_integer_scan_catches_inline_checks():
    tree = ast.parse(
        "if not isinstance(n, int):\n    raise UsageError(f\"{name} must be an integer, got {n!r}\")\n"
        "msg = 'seed must be an integer'\nok = f'seed must be a non-negative integer, got {seed}'\n"
    )
    assert _integer_messages(tree) == ["line 2: ' must be an integer, got '", "line 3: 'seed must be an integer'"]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_src_checks_integers_only_in_errors(path):
    found = _integer_messages(ast.parse(path.read_text()))
    if path.name == INTEGER_CHECK:
        assert found != []
    else:
        assert found == []


#: Parameters of the package that nothing reads, each kept for a caller, as
#: (file, function, parameter): a nested function is named inside its own.
KEPT_PARAMETERS = {
    ("campaign.py", "run_campaign", "workers"): "bench/run.py passes it (ROADMAP item 3)",
    ("campaign.py", "_run_trial", "fi"): "test hooks and bench/spans.py read a trial's coordinates",
    ("campaign.py", "_run_trial", "t"): "test hooks and bench/spans.py read a trial's coordinates",
    ("verify.py", "load_space.where", "part"): "matrix_space's location callback; a space line is one place",
    ("verify.py", "verify_operator.<lambda>", "i"): "matrix_space's location callback; the one atom is 0",
}


def _unread_parameters(tree: ast.AST, scope: str = "") -> list[str]:
    """``function parameter`` for each parameter that its function's body
    never loads, a function being a def or a lambda at any depth, named by
    the functions and classes it is in."""
    found = []
    for node in ast.iter_child_nodes(tree):
        name = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            name = ".".join(filter(None, (scope, getattr(node, "name", "<lambda>"))))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for part in body for n in ast.walk(part) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            params = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
            found += [f"{name} {p.arg}" for p in params if p is not None and p.arg not in read]
        found += _unread_parameters(node, name)
    return found


def test_parameter_scan_catches_unread_parameters():
    tree = ast.parse(
        "def f(a, b, *args, c, d=1, **kw):\n    return a + c\n"
        "class K:\n    def m(self, x):\n        def inner(y):\n            return x\n        return inner\n"
        "g = lambda i, part: part\n"
        "def h(n):\n    return lambda: n\n"
    )
    assert _unread_parameters(tree) == [
        "f b", "f d", "f args", "f kw", "K.m self", "K.m.inner y", "<lambda> i",
    ]


def test_src_reads_every_parameter():
    # A parameter nothing reads is a setting that changes nothing, as the
    # ``f`` of construct_counterexample once was.
    found = {(p.name, *f.split(" ")) for p in SRC for f in _unread_parameters(ast.parse(p.read_text()))}
    assert found == set(KEPT_PARAMETERS)

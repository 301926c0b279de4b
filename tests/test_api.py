"""The public names: every module's __all__ and the package's imports agree,
and no module imports a name it never uses."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import skewrook
from skewrook import qalgebra, verify

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["qalgebra", "permutations", "boards", "rooks", "intervals", "verify", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"skewrook.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing
    assert len(module.__all__) == len(set(module.__all__))


def test_package_imports_only_listed_names():
    tree = ast.parse(inspect.getsource(skewrook))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    unlisted = []
    for node in imports:
        assert node.level == 1, "the package imports only from its own modules"
        module = importlib.import_module(f"skewrook.{node.module}")
        unlisted += [
            f"{node.module}.{a.name}" for a in node.names if a.name not in module.__all__
        ]
    assert not unlisted, unlisted


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import in the file and never read there."""
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # skewrook/__init__.py is the package's API: its imports are checked above
    files = [
        *(ROOT / "src" / "skewrook").glob("*.py"),
        *(ROOT / "tests").glob("*.py"),
        *(ROOT / "scripts").glob("*.py"),
    ]
    files = [f for f in files if f.name != "__init__.py"]
    assert len(files) > 10
    unused = [entry for f in sorted(files) for entry in _unused_imports(f)]
    assert not unused, unused


# The benchmark harness reads the recurrences' caches through cache_info()
# and times each verify check as one step of its suite generator.


@pytest.mark.parametrize("name", ["q_stirling", "q_factorial", "stirling2"])
def test_recurrences_expose_cache_info(name):
    fn = getattr(qalgebra, name)
    assert callable(fn.__wrapped__)
    info = fn.cache_info()
    assert info.hits >= 0 and info.misses >= 0


@pytest.mark.parametrize(
    "suite, scale, route",
    [
        ("stirling", 2, "poly_bernoulli"),
        ("rook", 2, "sharp_q_rook"),
        ("intervals", 3, "aztec_interval_size"),
        ("typeB", 2, "sharp_rb"),
    ],
)
def test_suite_steps_one_check_at_a_time(monkeypatch, suite, scale, route):
    calls = []
    right = getattr(verify, route)

    def counting(*args):
        calls.append(args)
        return right(*args)

    monkeypatch.setattr(verify, route, counting)
    steps = verify.SUITES[suite](scale)
    next(steps)
    assert calls == [], f"{route} ran during the first check"
    assert all(r.passed for r in steps)
    assert calls, f"{route} is not a route of a later check"


# The traced benchmark names its spans "<layer>.<function>" or
# "<layer>.<Class>.<method>" and reads them back by name; a name that no
# longer resolves would turn its metric into a silent 0.

SPANS = ROOT / "perfbench" / "spans.py"
SPAN_TUPLES = ("HULLS", "INTERVAL_SCANS", "PATTERN_SCANS", "ROOK_ENTRIES")
# boards.intersect was deleted from the library; boards.Board.intersect, in
# the same tuple, still times every hull intersection.
STALE_SPAN_NAMES = {"boards.intersect"}


def _span_names_read() -> set[str]:
    tree = ast.parse(SPANS.read_text())
    names: set[str] = set()

    def strings(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            return [e.value for e in node.elts if isinstance(e, ast.Constant)]
        return []

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in SPAN_TUPLES for t in node.targets
        ):
            names.update(strings(node.value))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "inclusive"
            and node.args
        ):
            names.update(strings(node.args[0]))
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "own"
            and isinstance(node.slice, ast.Constant)
        ):
            names.add(node.slice.value)
    return names


def _resolves(span: str) -> bool:
    layer, _, name = span.partition(".")
    module = importlib.import_module(f"skewrook.{layer}")
    cls, _, method = name.rpartition(".")
    if cls:
        return inspect.isclass(getattr(module, cls, None)) and hasattr(getattr(module, cls), method)
    return name in module.__all__ and callable(getattr(module, name))


def test_traced_span_names_resolve():
    names = _span_names_read()
    assert {"rooks.full_placement_q_poly", "boards.Board.intersect"} <= names
    assert len(names) > 15
    stale = sorted(n for n in names if not _resolves(n))
    assert stale == sorted(STALE_SPAN_NAMES), stale

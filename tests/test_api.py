"""The public names: every module's __all__ and the package's imports agree,
and no module imports a name it never uses."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import skewrook

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

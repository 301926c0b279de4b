"""The public names: every module's __all__ and the package's imports agree,
no module imports a name it never uses, `import skewrook` leaves verify
unloaded until first use, and the records keep their value behaviour."""

import ast
import copy
import importlib
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import skewrook
from skewrook import qalgebra, rooks, verify
from skewrook.boards import Board, block_sharp, enumerate_rook_configs, right_hull, triangular
from skewrook.intervals import (
    aztec_interval_size,
    count_lower_interval_dp,
    max_coset_rep_A,
    max_coset_rep_B,
    poincare_B_brute,
    poincare_B_via_rook,
    poincare_via_rook,
    theoremA_poincare,
    theoremB_poincare,
)
from skewrook.permutations import Permutation, bruhat_interval, poincare_brute
from skewrook.rooks import (
    full_placement_q_poly,
    q_rook_number,
    q_rook_number_brute,
    rb_polynomial,
    rb_polynomial_brute,
    rook_number,
)

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
    # the names the package serves from verify on first use
    assert set(skewrook._FROM_VERIFY) <= set(verify.__all__)


IMPORT_PROBE = """
import sys
import skewrook
assert not {"dataclasses", "skewrook.verify"} & set(sys.modules), "loaded at import"
assert skewrook.verify.SUITES is sys.modules["skewrook.verify"].SUITES
verify = sys.modules["skewrook.verify"]
assert skewrook.run_suite is verify.run_suite
from skewrook import CheckResult
assert CheckResult is verify.CheckResult
try:
    skewrook.no_such_name
except AttributeError:
    print("ok")
"""


def test_import_loads_neither_dataclasses_nor_verify():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "ok\n"


# The five records are immutable slotted classes that keep the behaviour of
# the frozen dataclasses they replaced: equality within one class, the hash of
# the field tuple (so set and dict orders stay put), the repr, copying and
# pickling.
RECORDS = [
    ({"word": (2, 1, 3)}, Permutation((2, 1, 3)), "Permutation(word=(2, 1, 3))"),
    ({"rows": (1, 3), "width": 2}, Board((1, 3), 2), "Board(rows=(1, 3), width=2)"),
    (
        {"n": 3, "k": 1, "w": Permutation((3, 1, 2))},
        max_coset_rep_A(3, 1),
        "CosetRepA(n=3, k=1, w=Permutation(word=(3, 1, 2)))",
    ),
    (
        {"p": Permutation((2, 1))},
        max_coset_rep_B(1),
        "SignedPermutation(p=Permutation(word=(2, 1)))",
    ),
    (
        {"name": "x", "passed": True, "detail": "d"},
        verify.CheckResult("x", True, "d"),
        "CheckResult(name='x', passed=True, detail='d')",
    ),
]


@pytest.mark.parametrize(
    "fields, record, text", RECORDS, ids=[type(r).__name__ for _, r, _ in RECORDS]
)
def test_records_keep_their_dataclass_behaviour(fields, record, text):
    values = tuple(fields.values())
    assert tuple(getattr(record, name) for name in fields) == values
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    assert hash(record) == hash(values)
    assert record != values
    assert repr(record) == text
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == fields[name]


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


# Fast routes never call the brute-force oracles.

ORACLES = (
    "q_rook_number_brute",
    "rb_polynomial_brute",
    "enumerate_rook_configs",
    "max_configs",
    "bruhat_interval",
    "poincare_brute",
    "poincare_B_brute",
    "_interval_words",
)


def test_fast_routes_never_call_the_oracles(monkeypatch):
    board = right_hull(Permutation.from_text("35124"))
    signed = block_sharp(triangular(2).rotate180(), triangular(2))
    u, w = Permutation.from_text("2134"), Permutation.from_text("3412")
    ident, rep = Permutation.identity(4), max_coset_rep_A(4, 2)
    # each fast route, with its value from an oracle taken before the patch
    routes = [
        (lambda: q_rook_number(board, 2), q_rook_number_brute(board, 2)),
        (lambda: rook_number(board, 3), sum(1 for _ in enumerate_rook_configs(board, 3))),
        (lambda: full_placement_q_poly(board), q_rook_number_brute(board, 5)),
        (lambda: rb_polynomial(signed), rb_polynomial_brute(signed)),
        (lambda: poincare_via_rook(u, w), poincare_brute(u, w)),
        (lambda: poincare_B_via_rook(2), poincare_B_brute(2)),
        (lambda: theoremA_poincare(4, 2), poincare_brute(ident, rep.w)),
        (lambda: theoremB_poincare(2), poincare_B_brute(2)),
        (lambda: count_lower_interval_dp(rep), len(bruhat_interval(ident, rep.w))),
        (lambda: aztec_interval_size(2), len(bruhat_interval(rep.w.flip_ud(), rep.w))),
    ]
    rooks._q_rook_table.cache_clear()
    rooks.full_placement_q_poly.cache_clear()

    def raiser(*args, **kwargs):
        raise AssertionError("a fast route called a brute-force oracle")

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "skewrook"]
    patched = 0
    for module in modules:
        for name in ORACLES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, raiser)
                patched += 1
    assert patched >= 2 * len(ORACLES)  # the defining module and the package
    for route, want in routes:
        assert route() == want


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

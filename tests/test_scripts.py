"""Smoke tests for the runnable demos in scripts/: each runs in a fresh
interpreter at a small bound and prints a known line, and each exits
nonzero, naming n and k, when one of the routes it checks is wrong."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.mark.parametrize(
    "argv, line",
    [
        (["diamond_gallery.py", "--max-n", "3"], "n = 2: w = 3412, placements = 4"),
        (["interval_census.py", "--max-n", "4", "--with-brute"], "4\t2\t3412\t14\t14\t14"),
    ],
)
def test_script_runs(argv, line):
    script, *args = argv
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert r.returncode == 0, r.stderr
    assert line in r.stdout.splitlines()


# (script, arguments, the module attribute replaced, its wrong stand-in, the
# first n and k that it breaks)
BROKEN_ROUTES = [
    ("interval_census.py", ["--max-n", "4"], "skewrook.intervals", "count_lower_interval_dp",
     "lambda rep: -1", "n = 2, k = 1"),
    ("diamond_gallery.py", ["--max-n", "3"], "skewrook.rooks", "q_rook_number",
     "lambda board, k: ZERO", "n = 1, k = 1"),
]


@pytest.mark.parametrize("script, args, module, name, stub, where", BROKEN_ROUTES)
def test_script_fails_on_a_wrong_route_under_O(script, args, module, name, stub, where):
    # -O strips assert statements, so the check must be an explicit exit
    code = "\n".join(
        [
            "import runpy, sys",
            "from skewrook.qalgebra import ZERO",
            f"import {module} as target",
            f"target.{name} = {stub}",
            f"sys.argv = {[script, *args]!r}",
            f"runpy.run_path({str(ROOT / 'scripts' / script)!r}, run_name='__main__')",
        ]
    )
    r = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=ENV
    )
    assert r.returncode == 1, (r.stdout, r.stderr)
    assert r.stderr.startswith(f"mismatch at {where}:"), r.stderr

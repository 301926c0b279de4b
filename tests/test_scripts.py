"""Smoke tests for the runnable demos in scripts/: each runs in a fresh
interpreter at a small bound and prints a known line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv, line",
    [
        (["diamond_gallery.py", "--max-n", "3"], "n = 2: w = 3412, placements = 4"),
        (["interval_census.py", "--max-n", "4", "--with-brute"], "4\t2\t3412\t14\t14\t14"),
    ],
)
def test_script_runs(argv, line):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script, *args = argv
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 0, r.stderr
    assert line in r.stdout.splitlines()

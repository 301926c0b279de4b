"""Tests of the benchmark itself: tiny configurations of each workload
checked against the brute-force oracles, the exactness checker catching a
corrupted output, and the printed metric names and units.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import skewrook as sk  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "qrook-boards": {"sides": {4: 3, 5: 3}, "bands": {4: (0, 10**6), 5: (0, 10**6)}, "repeats": 2},
    "bruhat-pairs": {
        "mix": {n: {"id": 2, "flip": 2, "w": 1, "flip_ud(u)": 1} for n in (5, 6)},
        "band": (0, 10**6),
    },
    "closed-forms": {"a": (4, 3, 6), "b": (2, 1, 3), "rows": (3, 2, 6)},
    "verify-sweep": {"scales": {"stirling": 3, "rook": 2, "intervals": 4, "typeB": 2}},
}


def tiny_run(workload, seed=0):
    queries = workloads.generate(workload, seed, **TINY[workload])
    result = worker.run({"workload": workload, "queries": queries, "trace": False})
    return queries, result["outputs"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_its_checks(workload):
    queries, outputs = tiny_run(workload)
    assert workloads.check(workload, queries, outputs, sk) == [None] * len(outputs)
    assert tiny_run(workload)[1] == outputs


def test_qrook_boards_match_brute_force():
    queries, outputs = tiny_run("qrook-boards")
    assert len({q["board"] for q in queries}) < len(queries), "a board must repeat"
    for q, o in zip(queries, outputs):
        board = sk.Board(tuple(q["rows"]), q["width"])
        brute = [sk.q_rook_number_brute(board, k) for k in range(min(board.dims) + 1)]
        assert [sk.LaurentPoly.from_json_dict(p) for p in o["q"]] == brute
        assert o["r"] == [p.evaluate_at_one() for p in brute]


def test_bruhat_pairs_match_brute_force():
    queries, outputs = tiny_run("bruhat-pairs")
    kinds = {q["expect"] for q in queries}
    assert kinds == {"avoid", "w", "flip_ud(u)"}
    for q, o in zip(queries, outputs):
        u, w = sk.Permutation(tuple(q["u"])), sk.Permutation(tuple(q["w"]))
        if q["expect"] == "avoid":
            assert sk.LaurentPoly.from_json_dict(o["poly"]) == sk.poincare_brute(u, w)
        else:
            assert o["refused"] == q["expect"]


def test_closed_forms_match_brute_force():
    queries, outputs = tiny_run("closed-forms")
    for q, o in zip(queries, outputs):
        n = q["n"]
        if q["kind"] == "A":
            want = sk.poincare_brute(sk.Permutation.identity(n), sk.max_coset_rep_A(n, q["k"]).w)
            assert sk.LaurentPoly.from_json_dict(o["poly"]) == want
        elif q["kind"] == "B":
            assert sk.LaurentPoly.from_json_dict(o["poly"]) == sk.poincare_B_brute(n)
        else:
            # R_k(T_{n-1}) = q^binom(n-1, 2) S_{n, n-k}(q) on the staircase board
            stair = sk.triangular(n - 1)
            shift = sk.LaurentPoly.monomial((n - 1) * (n - 2) // 2)
            row = [sk.LaurentPoly.from_json_dict(p) for p in o["row"]]
            for k in range(n):
                assert shift * row[n - k - 1] == sk.q_rook_number_brute(stair, k)


def test_verify_sweep_steps_every_check():
    queries, outputs = tiny_run("verify-sweep")
    names = [r.name for q in queries for r in sk.verify.SUITES[q["suite"]](q["scale"])]
    assert [o["name"] for o in outputs] == names
    assert all(o["passed"] for o in outputs)


def _corrupt_coefficient(obj):
    """Add one to the first coefficient found in obj, in place."""
    if isinstance(obj, dict):
        if "coeffs" in obj:
            obj["coeffs"][0] = str(int(obj["coeffs"][0]) + 1)
            return True
        return any(_corrupt_coefficient(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_corrupt_coefficient(v) for v in obj)
    return False


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_catches_a_corrupted_output(workload):
    queries, outputs = tiny_run(workload)
    bad = copy.deepcopy(outputs)
    if workload == "verify-sweep":
        victim = 3
        bad[victim]["passed"] = False
    else:
        victim = next(i for i, o in enumerate(bad) if _corrupt_coefficient(o))
    fails = workloads.check(workload, queries, bad, sk)
    assert fails[victim] is not None
    assert workloads.digest(bad) != workloads.digest(outputs)


def test_checker_catches_a_wrong_refusal():
    queries, outputs = tiny_run("bruhat-pairs")
    i = next(i for i, o in enumerate(outputs) if "refused" in o)
    bad = copy.deepcopy(outputs)
    bad[i]["positions"] = bad[i]["positions"][::-1]
    assert workloads.check("bruhat-pairs", queries, bad, sk)[i] is not None
    bad = copy.deepcopy(outputs)
    bad[i]["refused"] = "w" if bad[i]["refused"] != "w" else "flip_ud(u)"
    assert workloads.check("bruhat-pairs", queries, bad, sk)[i] is not None


def test_generation_is_seeded():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate("closed-forms", 7) != workloads.generate("closed-forms", 8)


def test_reference_has_the_default_seed():
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    assert all("0" in reference[w] for w in workloads.WORKLOADS)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("--workload", "bruhat-pairs", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 100
    units = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "closed-forms", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""End-to-end CLI tests through subprocess: frozen stdout, exit codes,
error channels and determinism.  The internal-error exit code is tested in
process, by making a command raise, and so are the size limits of the brute
methods, with their group scans replaced by stubs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from skewrook import cli
from skewrook.intervals import max_coset_rep_A
from skewrook.permutations import Permutation
from skewrook.qalgebra import LaurentPoly

SRC = str(Path(__file__).resolve().parents[1] / "src")

AZTEC_4 = "\n".join(
    [
        "...##...",
        "..####..",
        ".######.",
        "########",
        "########",
        ".######.",
        "..####..",
        "...##...",
    ]
)


def run_cli(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "skewrook", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_hull_right():
    r = run_cli("hull", "35124")
    assert r.returncode == 0
    assert r.stdout == "###..\n#####\n#####\n.####\n...##\n"
    assert r.stderr == ""


def test_hull_left():
    r = run_cli("hull", "231", "--side", "left")
    assert r.returncode == 0
    assert r.stdout == ".##\n.##\n#..\n"


def test_check_violating():
    r = run_cli("check", "4231")
    assert r.returncode == 0
    assert r.stdout.strip() == (
        '{"avoids":false,"violating_pattern":"4231","positions":[1,2,3,4]}'
    )


def test_check_avoiding():
    r = run_cli("check", "35124")
    assert r.returncode == 0
    assert r.stdout.strip() == '{"avoids":true,"violating_pattern":null,"positions":null}'


def test_poincare_pair():
    r = run_cli("poincare", "--u", "1234", "--w", "3412")
    assert r.returncode == 0
    assert r.stdout.strip() == '{"min_exp":0,"coeffs":["1","3","5","4","1"]}'


def test_poincare_pair_brute_agrees():
    rook = run_cli("poincare", "--u", "1234", "--w", "3412")
    brute = run_cli("poincare", "--u", "1234", "--w", "3412", "--method", "brute")
    assert rook.stdout == brute.stdout


def test_poincare_pair_flipped_lower_end():
    # u itself may contain patterns as long as its flip avoids them
    r = run_cli("poincare", "--u", "4231", "--w", "4321")
    assert r.returncode == 0
    assert r.stdout.strip() == '{"min_exp":5,"coeffs":["1","1"]}'


def test_poincare_type_A_routes_agree():
    formula = run_cli("poincare", "--type", "A", "--n", "4", "--k", "2")
    rook = run_cli("poincare", "--type", "A", "--n", "4", "--k", "2", "--method", "rook")
    brute = run_cli("poincare", "--type", "A", "--n", "4", "--k", "2", "--method", "brute")
    assert formula.returncode == 0
    assert formula.stdout.strip() == '{"min_exp":0,"coeffs":["1","3","5","4","1"]}'
    assert rook.stdout == formula.stdout
    assert brute.stdout == formula.stdout


def test_poincare_at_one():
    r = run_cli("poincare", "--type", "A", "--n", "5", "--k", "2", "--at-one")
    assert r.returncode == 0
    assert r.stdout.strip() == "46"


def test_interval_size_has_one_command():
    # poincare has no recurrence method; count is the route to that value
    gone = run_cli(
        "poincare", "--type", "A", "--n", "4", "--k", "2", "--method", "dp", "--at-one"
    )
    assert gone.returncode == 2
    count = run_cli("count", "--n", "4", "--k", "2")
    assert count.returncode == 0
    assert count.stdout.strip() == "14"


def test_poincare_type_B_routes_agree():
    formula = run_cli("poincare", "--type", "B", "--n", "2")
    rook = run_cli("poincare", "--type", "B", "--n", "2", "--method", "rook")
    brute = run_cli("poincare", "--type", "B", "--n", "2", "--method", "brute")
    assert formula.returncode == 0
    assert formula.stdout.strip() == '{"min_exp":0,"coeffs":["1","2","2","1"]}'
    assert rook.stdout == formula.stdout
    assert brute.stdout == formula.stdout


def test_poincare_type_B_rook_route_at_n_9():
    # the signed hull route is a DP; enumerating it took 23 s at n = 8
    formula = run_cli("poincare", "--type", "B", "--n", "9")
    rook = run_cli("poincare", "--type", "B", "--n", "9", "--method", "rook")
    assert formula.returncode == rook.returncode == 0, rook.stderr
    assert rook.stdout == formula.stdout
    assert formula.stdout.startswith('{"min_exp":0,"coeffs":["1",')


def test_poincare_argument_validation():
    assert run_cli("poincare", "--u", "123", "--w", "1234").returncode == 2
    assert run_cli("poincare", "--type", "A", "--n", "3", "--k", "3").returncode == 2
    assert run_cli("poincare", "--type", "B", "--n", "2", "--k", "1").returncode == 2
    assert run_cli("poincare", "--u", "12", "--w", "21", "--type", "A").returncode == 2
    assert run_cli("poincare", "--u", "12", "--w", "21", "--n", "5").returncode == 2
    assert run_cli("poincare", "--u", "12", "--w", "21", "--k", "1").returncode == 2
    assert run_cli("poincare", "--u", "12").returncode == 2
    assert run_cli("poincare").returncode == 2


def test_pattern_violations_exit_3():
    r = run_cli("poincare", "--u", "1234", "--w", "4231")
    assert r.returncode == 3
    assert "w = 4231 contains the pattern 4231 at positions [1, 2, 3, 4]" in r.stderr
    assert r.stdout == ""
    r = run_cli("poincare", "--u", "1324", "--w", "4321")
    assert r.returncode == 3
    assert "flip_ud(u) = 4231" in r.stderr


def test_check_avoiders_of_60_letters():
    # a scan of every position set would take minutes at this size
    avoiding = '{"avoids":true,"violating_pattern":null,"positions":null}'
    for p in (Permutation.identity(60), max_coset_rep_A(60, 30).w):
        r = run_cli("check", p.to_text())
        assert r.returncode == 0
        assert r.stdout.strip() == avoiding


def test_pattern_violation_in_40_letter_word():
    u = Permutation.identity(40)
    w = list(u.word)
    w[4], w[32] = w[32], w[4]  # 33 at position 5 and 5 at position 33
    w = Permutation(tuple(w))
    r = run_cli("poincare", "--u", u.to_text(), "--w", w.to_text())
    assert r.returncode == 3
    assert r.stdout == ""
    m = re.search(r"w = [\d ]+ contains the pattern 4231 at positions \[([\d, ]+)\]", r.stderr)
    assert m is not None, r.stderr
    positions = [int(t) for t in m.group(1).split(",")]
    vals = [w(i) for i in positions]
    assert [sorted(vals).index(v) + 1 for v in vals] == [4, 2, 3, 1]
    assert positions == [5, 6, 7, 33]  # the first occurrence in position order


def test_internal_error_exits_4(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_hull", boom)
    assert cli.main(["hull", "1"]) == cli.EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_bad_permutation_exits_2():
    r = run_cli("hull", "121")
    assert r.returncode == 2
    assert "not a permutation" in r.stderr
    assert r.stdout == ""


def test_count_max_rep_and_word():
    assert run_cli("count", "--n", "4", "--k", "2").stdout.strip() == "14"
    assert run_cli("count", "--word", "231", "--k", "2").stdout.strip() == "4"
    brute = run_cli("count", "--n", "9", "--k", "4", "--method", "brute")
    dp = run_cli("count", "--n", "9", "--k", "4")
    assert brute.stdout.strip() == dp.stdout.strip() == "41506"


def test_count_rejects_bad_word():
    r = run_cli("count", "--word", "231", "--k", "1")
    assert r.returncode == 2
    assert "must increase away from position 1" in r.stderr
    assert run_cli("count", "--word", "231").returncode == 2
    assert run_cli("count", "--k", "2").returncode == 2
    r = run_cli("count", "--n", "7", "--word", "231", "--k", "2")
    assert (r.returncode, r.stdout) == (2, "")
    assert "--n cannot be combined with --word" in r.stderr


def _stub_brute_oracles(monkeypatch):
    """Replace the group scans the brute methods run with records of the call."""
    calls = []

    def record(name, value):
        def stub(*args):
            calls.append(name)
            return value

        monkeypatch.setattr(cli, name, stub)

    record("poincare_brute", LaurentPoly.monomial(0))
    record("poincare_B_brute", LaurentPoly.monomial(0))
    record("bruhat_interval", set())
    return calls


def _spaced(n):
    return " ".join(map(str, range(1, n + 1)))


# (arguments, the brute oracle they reach) at the largest n each brute method
# accepts; one more is refused
BRUTE_AT_LIMIT = [
    (["count", "--n", "{n}", "--k", "5"], 10, "bruhat_interval"),
    (["count", "--word", "{word}", "--k", "1"], 10, "bruhat_interval"),
    (["poincare", "--type", "A", "--n", "{n}", "--k", "5"], 10, "poincare_brute"),
    (["poincare", "--u", "{word}", "--w", "{word}"], 10, "poincare_brute"),
    (["poincare", "--type", "B", "--n", "{n}"], 6, "poincare_B_brute"),
]


def test_brute_methods_refuse_n_above_the_limit(monkeypatch, capsys):
    calls = _stub_brute_oracles(monkeypatch)
    for template, limit, oracle in BRUTE_AT_LIMIT:
        for n, code in ((limit, 0), (limit + 1, 2)):
            argv = [a.format(n=n, word=_spaced(n)) for a in template] + ["--method", "brute"]
            del calls[:]
            assert cli.main(argv) == code, argv
            out, err = capsys.readouterr()
            if code:
                # refused before the scan starts, naming n and the limit
                assert calls == [] and out == ""
                assert f"limited to n <= {limit}, got n = {n}" in err
            else:
                assert calls == [oracle] and err == ""


def test_brute_refusal_exits_2_from_the_command_line():
    r = run_cli("count", "--n", "11", "--k", "5", "--method", "brute")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: --method brute is limited to n <= 10, got n = 11\n"
    r = run_cli("poincare", "--type", "B", "--n", "7", "--method", "brute")
    assert (r.returncode, r.stdout) == (2, "")
    assert "limited to n <= 6, got n = 7" in r.stderr


# every input error the CLI raises itself, and the one verify's run_suite
# adds, with the exact stderr line each prints
INPUT_ERRORS = [
    (["poincare", "--type", "A", "--n", "11", "--k", "5", "--method", "brute"],
     "--method brute is limited to n <= 10, got n = 11"),
    (["poincare", "--u", "12", "--w", "21", "--method", "formula"],
     "method 'formula' is not valid for a permutation pair"),
    (["poincare", "--type", "A", "--n", "4"], "--type A requires --n and --k"),
    (["poincare", "--type", "B"], "--type B requires --n"),
    (["poincare", "--type", "B", "--n", "2", "--k", "1"], "--type B does not take --k"),
    (["poincare", "--u", "12"], "--u and --w must be given together"),
    (["poincare", "--u", "12", "--w", "21", "--n", "5"],
     "--type, --n and --k cannot be combined with --u/--w"),
    (["poincare"], "give either --type A/B or a --u/--w pair"),
    (["count", "--word", "231"], "--word requires --k"),
    (["count", "--n", "7", "--word", "231", "--k", "2"], "--n cannot be combined with --word"),
    (["count", "--k", "2"], "give --n and --k, or --word and --k"),
    (["qstirling", "--n", "-1"], "need n >= 0"),
    (["polybernoulli", "--n", "2", "--k", "-1"], "need n, k >= 0"),
    (["table", "--kind", "qstirling", "--max-n", "-1"], "need --max-n >= 0"),
    (["table", "--kind", "theorem8", "--max-n", "1"], "theorem8 table needs --max-n >= 2"),
    (["table", "--kind", "qstirling", "--max-n", "3", "--max-k", "2"],
     "--max-k applies to --kind polybernoulli only"),
    (["table", "--kind", "polybernoulli", "--max-n", "2", "--max-k", "-1"],
     "need --max-k >= 0"),
    (["verify", "--max-n", "0"], "max_n must be at least 1, got 0"),
]


def test_input_errors_print_one_line_and_exit_2(capsys):
    for argv, message in INPUT_ERRORS:
        assert cli.main(argv) == cli.EXIT_INPUT == 2, argv
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n"), argv


def test_qstirling_row():
    r = run_cli("qstirling", "--n", "3")
    assert r.returncode == 0
    assert json.loads(r.stdout) == [
        {"min_exp": 0, "coeffs": ["1"]},
        {"min_exp": 1, "coeffs": ["2", "1"]},
        {"min_exp": 3, "coeffs": ["1"]},
    ]


def test_polybernoulli_values():
    assert run_cli("polybernoulli", "--n", "2", "--k", "2").stdout.strip() == "14"
    assert run_cli("polybernoulli", "--n", "4", "--k", "2").stdout.strip() == "146"
    assert run_cli("polybernoulli", "--n", "2", "--k", "-1").returncode == 2


def test_table_theorem8_tsv():
    r = run_cli("table", "--kind", "theorem8", "--max-n", "4")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "2\t1\t2\t2\t2",
        "3\t1\t4\t4\t4",
        "3\t2\t4\t4\t4",
        "4\t1\t8\t8\t8",
        "4\t2\t14\t14\t14",
        "4\t3\t8\t8\t8",
    ]
    assert run_cli("table", "--kind", "theorem8", "--max-n", "1").returncode == 2


def test_table_json():
    r = run_cli("table", "--kind", "qstirling", "--max-n", "2", "--format", "json")
    assert json.loads(r.stdout) == [["0", "1"], ["1", "0", "1"], ["2", "0", "1", "q"]]


def test_table_polybernoulli():
    r = run_cli("table", "--kind", "polybernoulli", "--max-n", "2", "--max-k", "3")
    assert r.stdout.splitlines() == [
        "0\t1\t1\t1\t1",
        "1\t1\t2\t4\t8",
        "2\t1\t4\t14\t46",
    ]


def test_verify_passes():
    r = run_cli("verify", "--suite", "rook", "--max-n", "2")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    passed, total = lines[-1].split()[0].split("/")
    assert passed == total
    assert r.stderr == ""


def test_verify_clamps_with_warning():
    r = run_cli("verify", "--suite", "typeB", "--max-n", "9")
    assert r.returncode == 0
    assert "exceeds the documented limit 4; clamping" in r.stderr
    assert r.stdout.splitlines()[-1] == "4/4 checks passed"


def test_verify_rejects_unknown_suite():
    assert run_cli("verify", "--suite", "nonsense").returncode == 2


def test_runs_are_deterministic():
    for args in (
        ("poincare", "--type", "A", "--n", "5", "--k", "2"),
        ("table", "--kind", "theorem8", "--max-n", "5"),
        ("verify", "--suite", "stirling", "--max-n", "3"),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_verify_rejects_scale_below_one():
    # an empty sweep must not report "checks passed"
    for scale in ("0", "-1"):
        r = run_cli("verify", "--suite", "stirling", "--max-n", scale)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: max_n must be at least 1, got {scale}\n"


def test_polybernoulli_far_beyond_recursion_depth():
    r = run_cli("polybernoulli", "--n", "600", "--k", "1")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == str(2 ** 600)


def test_table_rejects_bad_max_k():
    r = run_cli("table", "--kind", "polybernoulli", "--max-n", "2", "--max-k", "-1")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: need --max-k >= 0\n"
    for kind in ("qstirling", "theorem8"):
        r = run_cli("table", "--kind", kind, "--max-n", "3", "--max-k", "2")
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == "error: --max-k applies to --kind polybernoulli only\n"

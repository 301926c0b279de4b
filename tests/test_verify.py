"""The self-verification sweeps themselves, at small scale."""

import random

import pytest

from skewrook import cli, intervals, verify
from skewrook.boards import Board, all_skew_ferrers_boards, enumerate_rook_configs, ones, zeros
from skewrook.intervals import CosetRepA, max_coset_rep_B
from skewrook.permutations import Permutation, _interval_words, all_permutations
from skewrook.qalgebra import ONE, Q, BiPoly, LaurentPoly
from skewrook.verify import SUITES, bjorner_ekedahl_violation, run_suite


def test_rank_inequality_helper():
    # palindromic unimodal-start polynomials pass
    assert bjorner_ekedahl_violation(LaurentPoly({0: 1, 1: 3, 2: 5, 3: 4, 4: 1})) is None
    assert bjorner_ekedahl_violation(LaurentPoly({0: 1})) is None
    # a gap in the low coefficients is caught
    assert bjorner_ekedahl_violation(LaurentPoly({0: 1, 2: 1})) == (0, 1)
    assert bjorner_ekedahl_violation(LaurentPoly({0: 2, 1: 1, 2: 2})) == (0, 1)


def test_run_suite_defaults_all_pass():
    results, warnings = run_suite("all")
    assert warnings == []
    assert results, "suites must produce checks"
    failing = [r for r in results if not r.passed]
    assert not failing, failing
    names = [r.name for r in results]
    assert len(names) == len(set(names))


# hull-characterization compares the hull placements with the interval word
# by word, which decides set equality only while both streams are strictly
# increasing


def _strictly_increasing(words):
    return all(a < b for a, b in zip(words, words[1:]))


def test_full_placement_words_increase():
    for m in range(1, 6):
        for n in range(1, 6):
            for b in all_skew_ferrers_boards(m, n, "right"):
                words = list(enumerate_rook_configs(b, b.height))
                assert _strictly_increasing(words), b.to_text()


def test_interval_words_increase():
    for n in range(1, 6):
        words = [p.word for p in all_permutations(n)]
        for u in words:
            for w in words:
                assert _strictly_increasing(list(_interval_words(u, w))), (u, w)


def reference_ideal_failures(b):
    """Oracle for verify._ideal_failures: the pair loop it ran on every word
    before the bitmask sweeps.  Each inversion (i, j) of a full placement
    fails when undoing it leaves the board."""
    rows = b.rows
    for word in enumerate_rook_configs(b, b.height):
        for i, x in enumerate(word):
            for j in range(i + 1, len(word)):
                y = word[j]
                if x > y and not (rows[i] >> (y - 1) & rows[j] >> (x - 1) & 1):
                    yield (b.to_text(), word, (i + 1, j + 1))


def test_ideal_failures_match_the_pair_loop():
    """The same failures in the same order on every 3 x 3 board, on 300
    seeded random 4 x 4 and 5 x 5 boards, and (none at all) on every square
    skew board within 4 x 4: the first failure the check names is the pair
    loop's."""
    rng = random.Random(26)
    boards = [
        *verify._boards(3, 3),
        *(Board(tuple(rng.randrange(1 << n) for _ in range(n)), n)
          for n in (4, 5) for _ in range(150)),
        *(b for n in range(1, 5) for b in all_skew_ferrers_boards(n, n, "right")),
    ]
    failing = 0
    for b in boards:
        want = list(reference_ideal_failures(b))
        assert list(verify._ideal_failures(b)) == want, b.rows
        failing += bool(want)
    assert failing == 399  # 204 of them 3 x 3


def test_run_suite_clamps_and_warns():
    results, warnings = run_suite("typeB", max_n=9)
    assert len(warnings) == 1
    assert "exceeds the documented limit 4; clamping" in warnings[0]
    assert all(r.passed for r in results)


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_single_suite_at_reduced_scale():
    results, warnings = run_suite("rook", max_n=2)
    assert warnings == []
    assert all(r.passed for r in results)
    assert {r.name for r in results} <= {r.name for r in SUITES["rook"](2)}


def test_typeB_hull_route_reports_odd_exponent(monkeypatch):
    # one term q^0 t^1 has an odd combined exponent
    odd = BiPoly({1: LaurentPoly({0: 1})})
    monkeypatch.setattr(intervals, "rb_polynomial", lambda board: odd)
    with pytest.raises(RuntimeError):
        intervals.poincare_B_via_rook(2)
    results = {r.name: r for r in SUITES["typeB"](2)}
    assert not results["typeB.hull-route"].passed
    assert "parity" in results["typeB.hull-route"].detail
    assert results["typeB.closed-form"].passed
    assert cli.main(["poincare", "--type", "B", "--n", "2", "--method", "rook"]) == 4


def _wrong_at(monkeypatch, name, point, wrong):
    """Patch verify's binding of `name` to return wrong(value) at `point`."""
    right = getattr(verify, name)

    def patched(*args):
        value = right(*args)
        return wrong(value) if args == point else value

    monkeypatch.setattr(verify, name, patched)


ID1, ID3 = Permutation.identity(1), Permutation.identity(3)
P12, P21 = Permutation((1, 2)), Permutation((2, 1))
# the first seeded random board of the rook suite at scale 4; no other rook
# check asks for the top q-rook number of its flip
SEEDED = Board((14, 14, 6, 5), 4)

# (suite, scale, route, arguments of the one wrong call, how it is wrong,
#  the check that must fail, its witness, and the other checks that the same
#  wrong value must fail, each with its witness)
FAILURES = [
    ("stirling", 3, "t_board_q_rook", (2, 1), lambda v: v + ONE,
     "stirling.staircase", (2, 1), {}),
    ("rook", 2, "gjw_product", (ones(2, 2), 2, 2), lambda v: v + 1,
     "rook.factored-rook-poly", (ones(2, 2).to_text(), 2), {}),
    # shifted by q: wrong as a polynomial, the same at q = 1 and in shape,
    # so the counts and the rank inequality downstream still pass
    ("intervals", 5, "theoremA_poincare", (4, 2), lambda v: v * Q,
     "intervals.closed-form-A", (4, 2), {}),
    ("typeB", 2, "sharp_rb", (ones(1, 1),), lambda v: BiPoly({}),
     "typeB.block-composition", ones(1, 1).to_text(), {}),
    ("stirling", 3, "q_factorial", (3,), lambda v: v + ONE,
     "stirling.full-square", "n=3", {}),
    ("stirling", 3, "stirling2", (3, 2), lambda v: v + 1,
     "stirling.q-one", (3, 2), {}),
    ("stirling", 3, "poly_bernoulli", (2, -1), lambda v: v + 1,
     "stirling.poly-bernoulli-symmetry", (1, 2), {}),
    ("rook", 2, "q_rook_number_brute", (ones(1, 1), 1), lambda v: v + ONE,
     "rook.dp-vs-brute", ((1,), 1), {}),
    ("rook", 2, "garsia_remmel_product", (ones(2, 2), 2, 2), lambda v: v + ONE,
     "rook.factored-q-rook-poly", (ones(2, 2).to_text(), 2), {}),
    ("rook", 2, "sharp_q_rook", (ones(1, 1), ones(1, 1)), lambda v: v + ONE,
     "rook.block-composition", (ones(1, 1).to_text(), ones(1, 1).to_text()), {}),
    ("rook", 4, "q_rook_number", (SEEDED.flip_ud(), 4), lambda v: v + ONE,
     "rook.flip-inversion", SEEDED.to_text(), {}),
    # the interval below 321 loses its bottom word; dp-count also reads
    # interval words, but only below one-descent representatives
    ("intervals", 3, "_interval_words", ((1, 2, 3), (3, 2, 1)),
     lambda v: (x for x in v if x != (1, 2, 3)),
     "intervals.hull-characterization", (3, 2, 1), {}),
    ("intervals", 3, "poincare_brute", (P21, P21), lambda v: v * Q,
     "intervals.poincare-via-rook", ((2, 1), (2, 1)), {}),
    ("intervals", 3, "count_lower_interval_dp", (CosetRepA(3, 1, ID3),), lambda v: v + 1,
     "intervals.dp-count", (3, 1, (1, 2, 3)), {}),
    ("intervals", 3, "theorem8_counts", (3, 1), lambda v: (v[0] + 1, *v[1:]),
     "intervals.three-counts", (3, 1, (5, 4, 4, 4, 4)), {}),
    ("intervals", 3, "aztec_interval_size", (3,), lambda v: v + 1,
     "intervals.aztec", 3, {}),
    # a hull too large is no longer minimal, and its placements outgrow [id, 12]
    ("intervals", 3, "right_hull", (P12,), lambda v: ones(2, 2),
     "intervals.hull-minimality", ("minimal", (1, 2), "#.\n.#"),
     {"intervals.hull-characterization": (1, 2)}),
    # the empty board is no hull, so only the order-ideal check reads it
    ("intervals", 3, "enumerate_rook_configs", (zeros(2, 2), 2), lambda v: [(2, 1)],
     "intervals.order-ideal", (zeros(2, 2).to_text(), (2, 1), (1, 2)), {}),
    ("intervals", 3, "bruhat_leq", (ID1, ID1), lambda v: not v,
     "intervals.order-axioms", ("reflexive", (1,)), {}),
    # the same value at q = 1, so the counts pass, but f_0 > f_1
    ("intervals", 4, "theoremA_poincare", (4, 2), lambda v: v + 2 - 2 * Q,
     "intervals.rank-inequality", ("3 + q + 5*q^2 + 4*q^3 + q^4", (0, 1)),
     {"intervals.closed-form-A": (4, 2)}),
    ("typeB", 2, "poincare_B_brute", (2,), lambda v: v * Q,
     "typeB.closed-form", "n=2", {}),
    ("typeB", 2, "poincare_B_via_rook", (2,), lambda v: v * Q,
     "typeB.hull-route", ("value", 2), {}),
    ("typeB", 2, "right_hull", (max_coset_rep_B(2).p,), lambda v: ones(4, 4),
     "typeB.structure", ("hull", 2), {}),
]


@pytest.mark.parametrize("suite, scale, route, point, wrong, check, witness, also", FAILURES)
def test_wrong_route_fails_only_its_check(
    monkeypatch, suite, scale, route, point, wrong, check, witness, also
):
    clean = {r.name: r for r in SUITES[suite](scale)}
    _wrong_at(monkeypatch, route, point, wrong)
    results = list(SUITES[suite](scale))
    assert [r.name for r in results] == list(clean)
    expected = {check: witness, **also}
    failed = {r.name: r.detail for r in results if not r.passed}
    assert failed.keys() == expected.keys()
    for name, bad in expected.items():
        assert failed[name] == f"{clean[name].detail}; first failure {bad}"
    assert all(r == clean[r.name] for r in results if r.passed)


@pytest.mark.parametrize("scale", [0, -1])
def test_run_suite_rejects_scale_below_one(scale):
    for suite in ("all", "stirling"):
        with pytest.raises(ValueError, match=f"max_n must be at least 1, got {scale}"):
            run_suite(suite, max_n=scale)

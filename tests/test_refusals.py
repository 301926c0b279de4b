"""Every public refusal that no other test reaches: each bad input gets its
own exception type and message, raised before any work is done."""

import inspect
from enum import IntEnum

import pytest

from skewrook.boards import (
    MAX_WIDTH,
    Board,
    all_skew_ferrers_boards,
    enumerate_rook_configs,
    left_hull,
    ones,
    right_hull,
    triangular,
    zeros,
)
from skewrook.intervals import (
    CosetRepA,
    aztec_interval_size,
    coset_reps_A,
    hull_interval_elements,
    max_coset_rep_A,
    max_coset_rep_B,
    poincare_B_brute,
    poincare_B_via_rook,
    poincare_via_rook,
    symmetric_permutations,
    theorem8_counts,
    theoremA_poincare,
    theoremB_poincare,
)
from skewrook.permutations import Permutation, bruhat_interval, eulerian_gf, poincare_brute
from skewrook.qalgebra import (
    Q,
    LaurentPoly,
    poly_bernoulli,
    q_factorial,
    q_falling,
    q_int,
    q_stirling,
    stirling2,
)
from skewrook.rooks import (
    full_placement_q_poly,
    garsia_remmel_product,
    gjw_product,
    inv_stat,
    q_rook_number,
    q_rook_poly,
    sharp_rb,
    t_board_q_rook,
)
from skewrook.verify import run_suite

ID2, ID3 = Permutation.identity(2), Permutation.identity(3)
SQUARE = ones(2, 2)
TALL = zeros(MAX_WIDTH + 1, 1)
WIDE = Permutation.identity(MAX_WIDTH + 1)
TOO_WIDE = f"board width must be in 0..{MAX_WIDTH}"
NOT_INTS = "n and k must be ints"
NOT_INT = "n must be an int"
NOT_INT_ARGS = "polynomial index and argument must be ints"
NOT_RANGE = "need 1 <= k <= n-1"
NOT_INDEX_WIDTH = "polynomial index must equal the board width"
NOT_RIGHT = Board.parse("#.\n##")  # not right-aligned Ferrers
NOT_LEFT = Board.parse(".#\n##")  # not left-aligned Ferrers


class Index(IntEnum):
    MINUS_TWO = -2
    THREE = 3


REFUSALS = [
    (full_placement_q_poly, (ones(2, 3),), ValueError, "need a square board"),
    (sharp_rb, (ones(2, 3),), ValueError, "need a square board"),
    (coset_reps_A, (3, 0), ValueError, "need 1 <= k <= n-1"),
    (coset_reps_A, (3, 3), ValueError, "need 1 <= k <= n-1"),
    (CosetRepA, (3, 1.0, ID3), ValueError, "n and k must be ints"),
    (CosetRepA, (3, True, ID3), ValueError, "n and k must be ints"),
    (CosetRepA, (3.0, 1, ID3), ValueError, "n and k must be ints"),
    (symmetric_permutations, (-1,), ValueError, "need n >= 0"),
    # a size that is not an int, a bool or float included, is refused before
    # any work, not met by a TypeError inside or an answer for True
    (coset_reps_A, (3.0, 1), ValueError, NOT_INTS),
    (coset_reps_A, (3, True), ValueError, NOT_INTS),
    (max_coset_rep_A, (5.0, 2), ValueError, NOT_INTS),
    (max_coset_rep_A, (5, True), ValueError, NOT_INTS),
    (theoremA_poincare, (3.0, 1), ValueError, NOT_INTS),
    (theoremA_poincare, (3, True), ValueError, NOT_INTS),
    (theorem8_counts, (5, 2.0), ValueError, NOT_INTS),
    (theorem8_counts, (True, 1), ValueError, NOT_INTS),
    (aztec_interval_size, (2.5,), ValueError, NOT_INT),
    (aztec_interval_size, (True,), ValueError, NOT_INT),
    (max_coset_rep_B, (2.5,), ValueError, NOT_INT),
    (max_coset_rep_B, (True,), ValueError, NOT_INT),
    (symmetric_permutations, (2.5,), ValueError, NOT_INT),
    (symmetric_permutations, (True,), ValueError, NOT_INT),
    (theoremB_poincare, (2.5,), ValueError, NOT_INT),
    (theoremB_poincare, (True,), ValueError, NOT_INT),
    (poincare_B_via_rook, (2.5,), ValueError, NOT_INT),
    (poincare_B_via_rook, (True,), ValueError, NOT_INT),
    (poincare_B_brute, (2.0,), ValueError, NOT_INT),
    (poincare_B_brute, (True,), ValueError, NOT_INT),
    # the range branch of each shared size guard, at every call site
    (max_coset_rep_A, (3, 0), ValueError, NOT_RANGE),
    (max_coset_rep_A, (3, 3), ValueError, NOT_RANGE),
    (theoremA_poincare, (3, 0), ValueError, NOT_RANGE),
    (theoremA_poincare, (3, 3), ValueError, NOT_RANGE),
    (theorem8_counts, (3, 0), ValueError, NOT_RANGE),
    (theorem8_counts, (3, 3), ValueError, NOT_RANGE),
    (aztec_interval_size, (0,), ValueError, "need n >= 1"),
    (max_coset_rep_B, (0,), ValueError, "need n >= 1"),
    (theoremB_poincare, (0,), ValueError, "need n >= 1"),
    (symmetric_permutations, (-2,), ValueError, "need n >= 0"),
    (Permutation.identity, (-1,), ValueError, "size must be nonnegative"),
    (Permutation.identity, (2.5,), ValueError, "size must be an int, got 2.5"),
    (Permutation.identity, (True,), ValueError, "size must be an int, got True"),
    (Permutation, ((2.0, 1.0),), ValueError, "has a letter that is not an int"),
    (Permutation, ((True, 2),), ValueError, "has a letter that is not an int"),
    (Permutation.from_text, ("1234567890",), ValueError, "only covers n <= 9"),
    (ID2, (0,), ValueError, "position 0 out of range 1..2"),
    (Permutation.neg_statistic, (ID3,), ValueError, "needs an even size"),
    (bruhat_interval, (ID2, ID3), ValueError, "must have the same size"),
    (poincare_brute, (ID2, ID3), ValueError, "must have the same size"),
    (eulerian_gf, (ID2, ID3), ValueError, "must have the same size"),
    (SQUARE.cell, (3, 1), ValueError, "cell (3, 1) out of range"),
    (SQUARE.cell, (1, 0), ValueError, "cell (1, 0) out of range"),
    (TALL.transpose, (), ValueError, TOO_WIDE),
    (poincare_via_rook, (WIDE, WIDE), ValueError, TOO_WIDE),
    (hull_interval_elements, (WIDE,), ValueError, TOO_WIDE),
    (right_hull, (WIDE,), ValueError, TOO_WIDE),
    (left_hull, (WIDE,), ValueError, TOO_WIDE),
    (all_skew_ferrers_boards, (0, MAX_WIDTH + 1), ValueError, TOO_WIDE),
    (Board, ((True, 1), 1), ValueError, "row mask does not fit the declared width"),
    (Board, ((1,), True), ValueError, TOO_WIDE),
    (Board, ((), 2.0), ValueError, TOO_WIDE),
    (Board.from_matrix, ([[1, 0], [1]],), ValueError, "ragged matrix"),
    (Board.from_matrix, ([[1, 2]],), ValueError, "must be 0 or 1, got 2"),
    (Board.from_matrix, ([[True, 0]],), ValueError, "must be 0 or 1, got True"),
    (Board.from_matrix, ([[1.0, 0]],), ValueError, "must be 0 or 1, got 1.0"),
    (Board.from_matrix, ([[1, 0.0]],), ValueError, "must be 0 or 1, got 0.0"),
    (ones, (-1, 2), ValueError, "dimensions must be nonnegative"),
    (ones, (2, -1), ValueError, "dimensions must be nonnegative"),
    (zeros, (-1, 0), ValueError, "dimensions must be nonnegative"),
    (ones, (2.5, 2), ValueError, "dimensions must be nonnegative ints"),
    (ones, (2, 2.5), ValueError, "dimensions must be nonnegative ints"),
    (ones, (True, 2), ValueError, "dimensions must be nonnegative ints"),
    (zeros, (2.5, 0), ValueError, "dimensions must be nonnegative ints"),
    (zeros, (True, 2), ValueError, "dimensions must be nonnegative ints"),
    (triangular, (-1,), ValueError, "size must be nonnegative"),
    (triangular, (2.5,), ValueError, "size must be an int, got 2.5"),
    (triangular, (True,), ValueError, "size must be an int, got True"),
    (enumerate_rook_configs, (SQUARE, -1), ValueError, "rook count must be nonnegative"),
    (enumerate_rook_configs, (SQUARE, 1.0), ValueError, "rook count must be an int, got 1.0"),
    (enumerate_rook_configs, (SQUARE, 2.5), ValueError, "rook count must be an int, got 2.5"),
    (enumerate_rook_configs, (SQUARE, True), ValueError, "rook count must be an int, got True"),
    (q_rook_number, (SQUARE, 1.0), ValueError, "rook count must be an int, got 1.0"),
    (q_rook_number, (SQUARE, 2.5), ValueError, "rook count must be an int, got 2.5"),
    (q_rook_number, (SQUARE, True), ValueError, "rook count must be an int, got True"),
    (inv_stat, (SQUARE, (1,)), ValueError, "a placement on 2 rows needs a word of length 2"),
    (inv_stat, (SQUARE, (3, 0)), ValueError, "row 1 names column 3, outside 1..2"),
    (inv_stat, (SQUARE, (0, -1)), ValueError, "row 2 names column -1, outside 1..2"),
    (inv_stat, (SQUARE, (1.0, 0)), ValueError, "row 1 names column 1.0, outside 1..2"),
    (inv_stat, (SQUARE, (1, 1)), ValueError, "column 1 holds more than one rook"),
    (SQUARE.is_skew_ferrers, ("up",), ValueError, "align must be 'left' or 'right'"),
    (all_skew_ferrers_boards, (2, 2, "up"), ValueError, "align must be 'left' or 'right'"),
    (all_skew_ferrers_boards, (-1, 2), ValueError, "dimensions must be nonnegative ints"),
    (all_skew_ferrers_boards, (2, -1), ValueError, "dimensions must be nonnegative ints"),
    (all_skew_ferrers_boards, (2.5, 2), ValueError, "dimensions must be nonnegative ints"),
    (q_factorial, (-1,), ValueError, "nonnegative argument"),
    (q_falling, (3, -1), ValueError, "nonnegative length"),
    (q_falling, (3, 1.5), ValueError, "q_falling needs ints, got 3 and 1.5"),
    (q_falling, (2.5, 1), ValueError, "q_falling needs ints, got 2.5 and 1"),
    (q_falling, (True, 1), ValueError, "q_falling needs ints, got True and 1"),
    (q_int, (2.5,), ValueError, "q_int needs an int, got 2.5"),
    (q_int, (True,), ValueError, "q_int needs an int, got True"),
    (q_stirling, (-1, 0), ValueError, "nonnegative row index"),
    (stirling2, (-1, 0), ValueError, "nonnegative row index"),
    (poly_bernoulli, (-1, 0), ValueError, "nonnegative lower index"),
    (poly_bernoulli, (2.5, 0), ValueError, "integer lower index"),
    (poly_bernoulli, (True, 0), ValueError, "integer lower index"),
    (poly_bernoulli, (2, 1.5), ValueError, "integer upper index"),
    (poly_bernoulli, (3, Index.MINUS_TWO), ValueError, "integer upper index"),
    (poly_bernoulli, (Index.THREE, -2), ValueError, "integer lower index"),
    (q_stirling, (-2, 1.5), ValueError, "q_stirling needs a nonnegative row index"),
    (q_stirling, (3, 1.5), ValueError, "q_stirling needs an int column index"),
    (stirling2, (-2, 1.5), ValueError, "stirling2 needs a nonnegative row index"),
    (stirling2, (3, 1.5), ValueError, "stirling2 needs an int column index"),
    (LaurentPoly, ({1.5: 1},), TypeError, "exponent must be int, got 1.5"),
    (LaurentPoly, ({0: 1.5},), TypeError, "coefficient must be int, got 1.5"),
    (LaurentPoly.monomial, (1.5,), TypeError, "exponent must be int, got 1.5"),
    (LaurentPoly.monomial, (True,), TypeError, "exponent must be int, got True"),
    (LaurentPoly.monomial, (0, 1.5), TypeError, "coefficient must be int, got 1.5"),
    (LaurentPoly.monomial, (0, True), TypeError, "coefficient must be int, got True"),
    (Q.__pow__, (True,), ValueError, "exponent must be a nonnegative int"),
    (Q.stretch, (True,), ValueError, "stretch factor must be a positive int"),
    # indices, arguments and scales: a bool or float is refused before any
    # work, not answered as the int it equals or met by a TypeError inside
    (gjw_product, (SQUARE, 2, 1.5), ValueError, f"{NOT_INT_ARGS}, got 2 and 1.5"),
    (gjw_product, (SQUARE, 2, True), ValueError, f"{NOT_INT_ARGS}, got 2 and True"),
    (gjw_product, (ones(1, 1), True, 0), ValueError, f"{NOT_INT_ARGS}, got True and 0"),
    (garsia_remmel_product, (SQUARE, 2, True), ValueError, f"{NOT_INT_ARGS}, got 2 and True"),
    (garsia_remmel_product, (SQUARE, 2.0, 1), ValueError, f"{NOT_INT_ARGS}, got 2.0 and 1"),
    # the factored products refuse a non-int, then the board's shape, then
    # an index other than its width
    (gjw_product, (NOT_RIGHT, 3.0, 1), ValueError, f"{NOT_INT_ARGS}, got 3.0 and 1"),
    (gjw_product, (NOT_RIGHT, 3, 1), ValueError, "board is not a right-aligned Ferrers matrix"),
    (gjw_product, (SQUARE, 3, 1), ValueError, NOT_INDEX_WIDTH),
    (garsia_remmel_product, (NOT_LEFT, 3.0, 1), ValueError, f"{NOT_INT_ARGS}, got 3.0 and 1"),
    (garsia_remmel_product, (NOT_LEFT, 3, 1), ValueError, "board is not a left-aligned Ferrers matrix"),
    (garsia_remmel_product, (SQUARE, 3, 1), ValueError, NOT_INDEX_WIDTH),
    (q_rook_poly, (SQUARE, True, 0), ValueError, f"{NOT_INT_ARGS}, got True and 0"),
    (q_rook_poly, (SQUARE, 2, True), ValueError, f"{NOT_INT_ARGS}, got 2 and True"),
    (q_rook_poly, (SQUARE, 0, 1.5), ValueError, f"{NOT_INT_ARGS}, got 0 and 1.5"),
    (t_board_q_rook, (True, 0), ValueError, "n and k must be ints, got True and 0"),
    (t_board_q_rook, (2, 1.0), ValueError, "n and k must be ints, got 2 and 1.0"),
    (ID2, (True,), ValueError, "position must be an int, got True"),
    (ID2, (1.0,), ValueError, "position must be an int, got 1.0"),
    (ID2.rank_count, (True, 1), ValueError, "indices must be ints, got True and 1"),
    (ID2.rank_count, (1, 1.0), ValueError, "indices must be ints, got 1 and 1.0"),
    (SQUARE.cell, (True, 1), ValueError, "cell indices must be ints, got True and 1"),
    (SQUARE.cell, (1, 1.0), ValueError, "cell indices must be ints, got 1 and 1.0"),
    (run_suite, ("rook", True), ValueError, "max_n must be an int, got True"),
    (run_suite, ("rook", 2.0), ValueError, "max_n must be an int, got 2.0"),
]


@pytest.mark.parametrize(
    "fn, args, error, message",
    REFUSALS,
    ids=[
        f"{getattr(fn, '__qualname__', type(fn).__name__)}({', '.join(map(repr, args))})"
        for fn, args, _, _ in REFUSALS
    ],
)
def test_public_refusal(fn, args, error, message):
    with pytest.raises(error) as info:
        out = fn(*args)
        if inspect.isgenerator(out):
            next(out)  # a generator refuses when first consumed
    assert message in str(info.value)


def test_size_gate_precedes_the_pattern_scan(monkeypatch):
    # WIDE avoids the four patterns, so the essential-set criterion would
    # answer for it without reaching _find_pattern; every pattern check
    # raises here
    def scan(*args):
        raise AssertionError("pattern check ran before the board width check")

    for method in ("_find_pattern", "find_forbidden", "avoids_forbidden"):
        monkeypatch.setattr(Permutation, method, scan)
    for fn, args in [
        (poincare_via_rook, (WIDE, WIDE)),
        (hull_interval_elements, (WIDE,)),
        (aztec_interval_size, (MAX_WIDTH // 2 + 1,)),
    ]:
        with pytest.raises(ValueError, match=TOO_WIDE):
            fn(*args)


def test_tall_boards_have_column_heights():
    # only the transpose is refused past MAX_WIDTH rows; column heights are
    # read from the row masks, so a tall board has them
    assert TALL.col_lengths() == (0,)
    rows = [(5 * i + 3) % 32 for i in range(MAX_WIDTH + 7)]
    tall = Board(rows, 5)
    assert tall.col_lengths() == tuple(
        sum(tall.cell(i, j) for i in range(1, tall.height + 1)) for j in range(1, 6)
    )


@pytest.mark.parametrize("x", range(-2, 4))
def test_factored_products_of_a_tall_column_match_q_rook_poly(x):
    tall = ones(MAX_WIDTH + 1, 1)
    want = q_rook_poly(tall, 1, x)
    assert gjw_product(tall, 1, x) == want.evaluate_at_one()
    assert garsia_remmel_product(tall, 1, x) == want


# The memoised functions key their caches by argument type: a bool or float
# argument is refused even right after the int it equals was cached.
CACHED_REFUSALS = [
    (q_factorial, (1,), (True,), "q_factorial needs a nonnegative argument"),
    (q_factorial, (2,), (2.0,), "q_factorial needs a nonnegative argument"),
    (q_stirling, (3, 2), (3.0, 2), "q_stirling needs a nonnegative row index"),
    (q_stirling, (3, 2), (3, 2.0), "q_stirling needs an int column index"),
    (stirling2, (3, 2), (3.0, 2), "stirling2 needs a nonnegative row index"),
    (stirling2, (3, 1), (3, True), "stirling2 needs an int column index"),
    (all_skew_ferrers_boards, (1, 2), (True, 2), "dimensions must be nonnegative ints"),
    (all_skew_ferrers_boards, (2, 2), (2.0, 2), "dimensions must be nonnegative ints"),
]


@pytest.mark.parametrize(
    "fn, cached, args, message",
    CACHED_REFUSALS,
    ids=[f"{fn.__qualname__}({', '.join(map(repr, args))})" for fn, _, args, _ in CACHED_REFUSALS],
)
def test_refusal_does_not_depend_on_the_cache(fn, cached, args, message):
    fn(*cached)
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert message in str(info.value)

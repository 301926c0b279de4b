"""Rook statistics: inv, q-rook numbers, factored forms, block composition."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewrook.boards import (
    MAX_WIDTH,
    Board,
    block_sharp,
    enumerate_rook_configs,
    left_hull,
    ones,
    right_hull,
    triangular,
    zeros,
)
from skewrook.permutations import Permutation
from skewrook.qalgebra import ONE, ZERO, BiPoly, LaurentPoly, q_factorial, q_falling
from skewrook.rooks import (
    _full_placement_scan,
    _q_rook_scan,
    _q_rook_table,
    _scan_bound,
    _scans_anti_transpose,
    _scans_transpose,
    _word_inv,
    full_placement_q_poly,
    garsia_remmel_product,
    gjw_product,
    inv_stat,
    q_rook_number,
    q_rook_number_brute,
    q_rook_poly,
    rb_polynomial,
    rb_polynomial_brute,
    rook_number,
    sharp_q_rook,
    sharp_rb,
    t_board_q_rook,
)

Q = LaurentPoly.monomial(1)
T2 = triangular(2)


def poly(coeffs: dict[int, int]) -> LaurentPoly:
    return LaurentPoly(coeffs)


@st.composite
def boards(draw, max_side=3):
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    return Board(tuple(rows), n)


@st.composite
def square_boards(draw, max_side=3):
    n = draw(st.integers(1, max_side))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return Board(tuple(rows), n)


def test_inv_stat_staircase_frozen():
    assert inv_stat(T2, (0, 0)) == 4
    assert inv_stat(T2, (1, 0)) == 3
    assert inv_stat(T2, (2, 0)) == 2
    assert inv_stat(T2, (0, 1)) == 2
    assert inv_stat(T2, (2, 1)) == 1


def test_inv_stat_requires_coverage():
    with pytest.raises(ValueError, match=r"^cell \(2, 2\) is not a one-cell of the board$"):
        inv_stat(T2, (0, 2))


def _assert_word_inv_is_inv_stat(b):
    """The oracle's word-level inv equals inv_stat on every placement of b."""
    for k in range(min(b.dims) + 1):
        for word in enumerate_rook_configs(b, k):
            assert _word_inv(word, b.width) == inv_stat(b, word), (b.rows, b.width, word)


def test_word_inv_matches_inv_stat_within_3x3():
    for m, n in itertools.product(range(1, 4), repeat=2):
        for code in range(1 << (m * n)):
            rows = tuple((code >> (n * i)) & ((1 << n) - 1) for i in range(m))
            _assert_word_inv_is_inv_stat(Board(rows, n))


def test_word_inv_matches_inv_stat_on_seeded_boards():
    rng = random.Random(19)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        _assert_word_inv_is_inv_stat(Board(tuple(rng.randrange(1 << n) for _ in range(m)), n))


def test_brute_refuses_negative_rook_count():
    with pytest.raises(ValueError, match="^rook count must be nonnegative$"):
        q_rook_number_brute(T2, -1)


@given(boards(max_side=4))
def test_inv_stat_empty_is_area(b):
    m, n = b.dims
    assert inv_stat(b, (0,) * m) == m * n


@given(st.integers(1, 6).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_inv_of_full_placement_is_inversion_number(word):
    p = Permutation(tuple(word))
    n = len(word)
    assert inv_stat(ones(n, n), p.word) == p.inversions()
    # the statistic ignores which cells are zero, so any covering board agrees
    assert inv_stat(right_hull(p), p.word) == p.inversions()


def test_q_rook_numbers_staircase_frozen():
    assert q_rook_number(T2, 0) == poly({4: 1})
    assert q_rook_number(T2, 1) == poly({2: 2, 3: 1})
    assert q_rook_number(T2, 2) == poly({1: 1})
    assert q_rook_number(ones(2, 2), 1) == poly({1: 1, 2: 2, 3: 1})


def test_q_rook_number_edge_cases():
    assert q_rook_number(ones(2, 2), 3).is_zero
    assert q_rook_number(zeros(2, 2), 1).is_zero
    assert q_rook_number(zeros(2, 3), 0) == poly({6: 1})
    with pytest.raises(ValueError):
        q_rook_number(T2, -1)


@given(boards(), st.integers(0, 3))
def test_dp_matches_enumeration(b, k):
    assert q_rook_number(b, k) == q_rook_number_brute(b, k)


@given(boards(), st.integers(0, 3))
def test_rook_number_is_q_rook_at_one(b, k):
    assert rook_number(b, k) == q_rook_number(b, k).evaluate_at_one()
    assert rook_number(b, k) == sum(1 for _ in enumerate_rook_configs(b, k))


def test_wide_board_dp_matches_enumeration():
    # both numbers come from the mask DP, checked against enumeration
    b = Board.from_matrix(
        [
            [int(j in (1, 5, 21, 22)) for j in range(1, 23)],
            [int(j in (2, 5, 20)) for j in range(1, 23)],
            [int(j in (1, 3, 22)) for j in range(1, 23)],
        ]
    )
    assert b.dims == (3, 22)
    for k in range(4):
        assert rook_number(b, k) == sum(1 for _ in enumerate_rook_configs(b, k))
        assert q_rook_number(b, k) == q_rook_number_brute(b, k)
    assert [rook_number(b, k) for k in range(4)] == [1, 10, 30, 27]


def _q_binomials(top):
    """Rows 0..top of [n choose k]_q, by the q-Pascal rule
    [n choose k] = [n-1 choose k-1] + q^k [n-1 choose k]."""
    rows = [[ONE]]
    for n in range(1, top + 1):
        prev = rows[-1] + [ZERO]
        step = [prev[k - 1] + LaurentPoly.monomial(k) * prev[k] for k in range(1, n + 1)]
        rows.append([ONE] + step)
    return rows


def test_full_rectangles_match_the_product_formula():
    """q_rook_number(ones(m, n), k) = q^((m-k)(n-k)) [m]_q...[m-k+1]_q [n choose k]_q
    for all m, n <= 8 and for 10 x 10 (about 1 s on a 2-core VM).  Full
    boards carry the largest coefficients of their shape, 4,716,824 at
    10 x 10, far past what enumeration reaches, so this pins the table's
    output at scale."""
    binom = _q_binomials(10)
    shapes = [(m, n) for m in range(9) for n in range(9)] + [(10, 10)]
    for m, n in shapes:
        board = ones(m, n)
        for k in range(min(m, n) + 1):
            want = LaurentPoly.monomial((m - k) * (n - k)) * q_falling(m, k) * binom[n][k]
            assert q_rook_number(board, k) == want, (m, n, k)
    top = max(c for k in range(11) for _, c in q_rook_number(ones(10, 10), k).items())
    assert top == 4_716_824


def _padded(b, k):
    """The (m + n - k)-square board with n - k new top rows of ones on b's
    columns only, m - k new left columns of ones on b's rows only, b in the
    lower right and zeros in the top-left corner."""
    m, n = b.dims
    left = (1 << (m - k)) - 1
    top = ((1 << n) - 1) << (m - k)
    return Board((top,) * (n - k) + tuple(left | r << (m - k) for r in b.rows), m + n - k)


def test_table_matches_full_placement_on_padded_boards():
    """R_k(B) [n-k]!_q [m-k]!_q is the full-placement polynomial of the padded
    board: the top rooks fill B's empty columns above every original row and
    the left rooks fill B's empty rows left of every original column, so the
    original rectangle scores inv of B's placement and each new block only
    its own inversions.  This plays the two DPs against each other."""
    rng = random.Random(22)
    checks = 0
    for _ in range(400):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        density = rng.random()
        b = Board(tuple(sum(1 << j for j in range(n) if rng.random() < density)
                        for _ in range(m)), n)
        for k in range(min(m, n) + 1):
            want = full_placement_q_poly(_padded(b, k))
            assert q_rook_number(b, k) * q_factorial(n - k) * q_factorial(m - k) == want, (b, k)
            checks += 1
    assert checks > 1000


def test_board_at_max_width():
    b = ones(3, MAX_WIDTH)
    for k in range(3):
        assert q_rook_number(b, k) == q_rook_number_brute(b, k)
    for k in range(4):
        assert rook_number(b, k) == math.comb(3, k) * math.perm(MAX_WIDTH, k)


def _random_rect(rng, m, n, density):
    return Board(
        tuple(sum(1 << j for j in range(n) if rng.random() < density) for _ in range(m)), n
    )


def test_scan_bound_sums_the_live_masks():
    """After r lines touching c columns a scan holds at most
    sum_{k <= r} C(c, k) masks; the bound sums that over the lines."""
    rng = random.Random(30)
    for _ in range(500):
        touched = list(itertools.accumulate(rng.randint(0, 4) for _ in range(rng.randint(0, 12))))
        want = sum(sum(math.comb(c, k) for k in range(r + 1))
                   for r, c in enumerate(touched, start=1))
        assert _scan_bound(touched) == want, touched
    # ones(3, 64) down its rows, then down its columns
    assert _scan_bound([64] * 3) == 65 + 2081 + 43745
    assert _scan_bound([3] * 64) == 4 + 7 + 62 * 8
    assert _scans_transpose(ones(3, 64).rows, 64) and not _scans_transpose(ones(64, 3).rows, 3)
    # a tie keeps the rows
    assert not _scans_transpose(ones(4, 4).rows, 4)
    assert not _scans_transpose(T2.rows, 2)


def test_q_rook_numbers_are_transpose_invariant():
    """R_k(B) = R_k(B^T): a cell counts for inv when its row at or right of
    it and its column at or below it hold no rook, and transposing swaps
    the two.  The table picks one side, so the scan runs on both here: on
    three seeded boards of every shape up to 7 x 7, and on six seeded boards
    of density 0.6 with sides 7-12."""
    rng = random.Random(31)
    boards = [_random_rect(rng, m, n, rng.random())
              for m in range(8) for n in range(8) for _ in range(3)]
    boards += [_random_rect(rng, rng.randint(7, 12), rng.randint(7, 12), 0.6) for _ in range(6)]
    for b in boards:
        m, n = b.dims
        t = b.transpose()
        assert _q_rook_scan(b.rows, n) == _q_rook_scan(t.rows, m), b.to_text()
        for k in range(min(m, n) + 1):
            assert q_rook_number(b, k) == q_rook_number(t, k), (b.to_text(), k)


def test_table_matches_enumeration_up_to_4x4():
    """Every board with at most 9 cells and 134 seeded boards each of 3 x 4,
    4 x 3 and 4 x 4, on whichever side the table scans."""
    cases = [Board(rows, n) for m in range(5) for n in range(5) if m * n <= 9
             for rows in itertools.product(range(1 << n), repeat=m)]
    rng = random.Random(32)
    cases += [_random_rect(rng, m, n, rng.random())
              for m, n in [(3, 4), (4, 3), (4, 4)] for _ in range(134)]
    for b in cases:
        m, n = b.dims
        for k in range(min(m, n) + 1):
            assert q_rook_number(b, k) == q_rook_number_brute(b, k), (b.to_text(), k)
    transposed = sum(_scans_transpose(b.rows, b.width) for b in cases)
    assert 100 < transposed < len(cases) - 100


def test_boards_of_more_than_64_rows():
    """Seeded 65 x 3 boards: a dense one is scanned down its rows, and a
    sparse one down its columns, through a 3 x 65 transpose that Board
    would refuse."""
    rng = random.Random(33)
    dense = Board(tuple(rng.randrange(8) for _ in range(65)), 3)
    sparse = Board(tuple(rng.randrange(8) if rng.random() < 0.1 else 0 for _ in range(65)), 3)
    assert not _scans_transpose(dense.rows, 3) and _scans_transpose(sparse.rows, 3)
    for b in (dense, sparse):
        for k in range(4):
            assert q_rook_number(b, k) == q_rook_number_brute(b, k), (b.rows, k)


def test_wide_board_scans_its_columns():
    """A seeded 6 x 30 board with 8 one-cells per row: its rows touch 24
    columns, so the row scan's bound is 234,130 masks, and the column
    scan's 1,649, at most 2^6 per line.  ones(3, 64) is held to the brute
    oracle and the placement count in test_board_at_max_width."""
    rng = random.Random(6)
    b = Board(tuple(sum(1 << j for j in rng.sample(range(30), 8)) for _ in range(6)), 30)
    assert _scans_transpose(b.rows, 30)
    for k in range(7):
        assert rook_number(b, k) == sum(1 for _ in enumerate_rook_configs(b, k)), k
    for k in (1, 2):
        assert q_rook_number(b, k) == q_rook_number_brute(b, k), k


@given(square_boards())
def test_full_placement_fast_path(b):
    n = b.height
    fast = full_placement_q_poly(b)
    assert fast == q_rook_number_brute(b, n)
    assert fast == _q_rook_table(b.rows, n)[n]


def _random_board(rng, n, density):
    return _random_rect(rng, n, n, density)


def _orphan_early(rng, b):
    """b with one column whose last one-cell sits in one of the first rows,
    so a top-down scan must fill that column early or drop the state."""
    n = b.height
    col, row = 1 << rng.randrange(n), rng.randrange(max(1, n // 3))
    return Board(tuple((m | col) if i == row else m & ~col if i > row else m
                       for i, m in enumerate(b.rows)), n)


def _empty_column(rng, b):
    col = 1 << rng.randrange(b.height)
    return Board(tuple(m & ~col for m in b.rows), b.height)


def _pruned_cases():
    rng = random.Random(11)
    plain = [_random_board(rng, rng.randint(3, 7), rng.uniform(0.4, 1.0)) for _ in range(90)]
    orphan = [_orphan_early(rng, b) for b in plain[:60]]
    return plain, orphan, [_empty_column(rng, b) for b in plain[60:]]


def _scan_own_rows(b):
    """The full-placement DP down b's own rows, the orientation in which the
    tests below build their blocks and orphaned columns: the kernel scans
    the columns of the board whose rows and columns it is given, so it is
    given b's transpose (b's columns as rows, b's rows as columns), where
    the public entry would give it b or b turned.  A board with an empty
    row or column goes to the public entry."""
    cols = b.transpose().rows
    if not all(b.rows) or not all(cols):
        return full_placement_q_poly(b)
    return _full_placement_scan(cols, b.rows)


def test_packed_full_placement_matches_enumeration():
    rng = random.Random(11)
    cases = [Board((), 0), ones(1, 1), zeros(1, 1), Board((0b11, 0), 2)]
    cases += [_random_board(rng, rng.randint(0, 7), rng.random()) for _ in range(150)]
    assert any(0 in b.rows for b in cases[4:])
    plain, orphan, empty = _pruned_cases()
    assert sum(b.height == 7 for b in plain) >= 15
    for b in cases + plain + orphan:
        assert _scan_own_rows(b) == q_rook_number_brute(b, b.height), b.to_text()
    # an orphaned column must be filled while the rows still reach it
    assert sum(not _scan_own_rows(b).is_zero for b in orphan) >= 20
    for b in empty:
        assert full_placement_q_poly(b).is_zero and q_rook_number_brute(b, b.height).is_zero


def test_full_placement_is_transpose_invariant():
    plain, orphan, _ = _pruned_cases()
    for b in plain + orphan:
        assert full_placement_q_poly(b) == full_placement_q_poly(b.transpose()), b.to_text()


def _blocky_board(rng, n):
    """A square board made of runs of two to four adjacent columns that
    differ only above a random row each, so the blocks of a top-down scan
    merge at several different rows."""
    cols = []
    while len(cols) < n:
        base = sum(1 << i for i in range(n) if rng.random() < 0.75)
        for _ in range(min(rng.randint(2, 4), n - len(cols))):
            cols.append(base ^ rng.getrandbits(rng.randint(0, n // 2 + 1)))
    return Board(tuple(sum((c >> i & 1) << j for j, c in enumerate(cols)) for i in range(n)), n)


def test_full_placement_merges_interchangeable_columns():
    rng = random.Random(5)
    blocky = [_blocky_board(rng, rng.randint(2, 7)) for _ in range(200)]
    # the row from which two adjacent columns agree, and so share a block
    join_rows = {(a ^ b).bit_length() for board in blocky
                 for a, b in itertools.pairwise(board.transpose().rows)}
    assert set(range(5)) <= join_rows
    orphan = [_orphan_early(rng, b) for b in blocky[:60]]
    empty = [_empty_column(rng, b) for b in blocky[:20]]
    for b in blocky + orphan + empty:
        assert _scan_own_rows(b) == q_rook_number_brute(b, b.height), b.to_text()
    assert sum(not _scan_own_rows(b).is_zero for b in blocky) >= 100
    assert sum(not _scan_own_rows(b).is_zero for b in orphan) >= 20
    assert all(full_placement_q_poly(b).is_zero for b in empty)


def _hull_board(rng, n):
    """A right hull, a left hull or the intersection of the two, of random
    words of length n: a board whose rows are intervals."""
    u, w = (Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(2))
    return rng.choice((right_hull(w), left_hull(u), right_hull(w).intersect(left_hull(u))))


def test_full_placement_is_invariant_under_the_inv_symmetries():
    """Transpose, 180-degree turn and anti-transpose keep a full
    placement's inversions, so the pick of full_placement_q_poly between
    transpose and anti-transpose must not show: each image of a board
    answers the brute oracle's polynomial, on hull boards of sides 2 to 8
    and random boards up to 7 x 7, with both sides of the pick taken."""
    rng = random.Random(35)
    hulls = [_hull_board(rng, rng.randint(2, 8)) for _ in range(120)]
    rand = [_random_board(rng, rng.randint(1, 7), rng.uniform(0.4, 1.0)) for _ in range(120)]
    picks = {True: 0, False: 0}
    for b in hulls + rand:
        want = q_rook_number_brute(b, b.height)
        turned = b.transpose().rotate180()
        for image in (b, b.transpose(), b.rotate180(), turned):
            assert full_placement_q_poly(image) == want, (b.to_text(), image.to_text())
        if not want.is_zero:
            picks[_scans_anti_transpose(b.rows)] += 1
    assert min(picks.values()) >= 20, picks


def test_full_placement_is_cached_per_board():
    b = Board((0b0111, 0b1101, 0b1110, 0b1011), 4)
    q_rook_number(b, 4)
    hits = full_placement_q_poly.cache_info().hits
    assert rook_number(b, 4) == 9
    assert full_placement_q_poly.cache_info().hits == hits + 1


def test_q_rook_poly_frozen():
    assert q_rook_poly(T2, 2, 1) == poly({1: 1, 2: 2, 3: 1})
    assert q_rook_poly(ones(2, 2), 2, 1) == poly({0: 1, 1: 2, 2: 2, 3: 1})
    assert q_rook_poly(zeros(1, 1), 1, 1) == Q
    assert q_rook_poly(zeros(1, 1), 1, 0).is_zero
    with pytest.raises(ValueError):
        q_rook_poly(T2, -1, 0)


@given(square_boards())
def test_q_rook_poly_at_x_zero_is_top_rook_number(b):
    n = b.height
    assert q_rook_poly(b, n, 0) == q_rook_number(b, n)


def test_gjw_product_frozen():
    assert gjw_product(ones(2, 2), 2, 1) == 6
    for n in range(1, 6):
        assert gjw_product(ones(n, n), n, 0) == math.factorial(n)
    with pytest.raises(ValueError):
        gjw_product(Board.parse("#.\n##"), 2, 1)  # not right-aligned Ferrers
    with pytest.raises(ValueError):
        gjw_product(ones(2, 2), 3, 1)


def test_gjw_product_matches_poly_at_q_one():
    for b in _ferrers_boards(3, "right"):
        for x in range(4):
            n = b.width
            assert gjw_product(b, n, x) == q_rook_poly(b, n, x).evaluate_at_one()


def test_garsia_remmel_frozen():
    assert garsia_remmel_product(T2, 2, 0) == Q
    assert garsia_remmel_product(T2, 2, 2) == poly({1: 1, 2: 2, 3: 3, 4: 2, 5: 1})
    for n in range(1, 5):
        assert garsia_remmel_product(ones(n, n), n, 0) == q_factorial(n)
    with pytest.raises(ValueError):
        garsia_remmel_product(Board.parse(".#\n##"), 2, 1)
    with pytest.raises(ValueError):
        garsia_remmel_product(T2, 3, 1)


def test_garsia_remmel_matches_poly():
    for b in _ferrers_boards(3, "left"):
        for x in range(4):
            n = b.width
            assert garsia_remmel_product(b, n, x) == q_rook_poly(b, n, x)


def test_factorizations_on_seeded_ferrers_boards():
    # sides 8 to 12, past the 3 x 3 boxes above; rows of nonincreasing
    # length, left-aligned, and for gjw_product their mirror images
    rng = random.Random(34)
    for _ in range(20):
        m, n = rng.randint(8, 12), rng.randint(8, 12)
        lengths = sorted((rng.randint(0, n) for _ in range(m)), reverse=True)
        b = Board(tuple((1 << k) - 1 for k in lengths), n)
        for x in (0, 1, 3):
            want = q_rook_poly(b, n, x)
            where = f"board\n{b.to_text()}\nat x = {x}"
            assert garsia_remmel_product(b, n, x) == want, where
            assert gjw_product(b.mirror_lr(), n, x) == want.evaluate_at_one(), where


def _ferrers_boards(max_side, align):
    for m in range(1, max_side + 1):
        for n in range(1, max_side + 1):
            for rows in itertools.product(range(1 << n), repeat=m):
                b = Board(rows, n)
                if b.is_ferrers(align):
                    yield b


def test_staircase_closed_form():
    for n in range(1, 6):
        for k in range(n + 1):
            assert t_board_q_rook(n, k) == q_rook_number(triangular(n), k)
    assert t_board_q_rook(2, 1) == poly({2: 2, 3: 1})
    with pytest.raises(ValueError):
        t_board_q_rook(2, 3)


def test_sharp_q_rook_frozen():
    assert sharp_q_rook(ones(1, 1), ones(1, 1)) == ONE + Q
    with pytest.raises(ValueError):
        sharp_q_rook(ones(1, 2), ones(1, 1))


def test_sharp_q_rook_matches_block_board():
    sides = [zeros(1, 1), ones(1, 1), T2, ones(2, 2), Board.parse(".#\n##")]
    for a in sides:
        for b in sides:
            m, n = a.height, b.height
            assert sharp_q_rook(a, b) == q_rook_number(block_sharp(b, a), m + n)


def test_sharp_q_rook_matches_block_board_random_3x3():
    rng = random.Random(23)
    for _ in range(30):
        a = Board(tuple(rng.randrange(8) for _ in range(3)), 3)
        b = Board(tuple(rng.randrange(8) for _ in range(3)), 3)
        assert sharp_q_rook(a, b) == q_rook_number(block_sharp(b, a), 6)


def test_flip_inverts_q_for_full_placements():
    # top rook number of the flipped square board reverses the q powers
    for rows in itertools.product(range(4), repeat=2):
        b = Board(rows, 2)
        _check_flip(b)
    rng = random.Random(11)
    for _ in range(40):
        b = Board(tuple(rng.randrange(8) for _ in range(3)), 3)
        _check_flip(b)


def _check_flip(b):
    n = b.height
    lhs = q_rook_number(b.flip_ud(), n)
    rhs = LaurentPoly.monomial(n * (n - 1) // 2) * q_rook_number(
        b, n
    ).substitute_q_inverse()
    assert lhs == rhs, b.to_text()


def test_rb_polynomial_frozen():
    for route in (rb_polynomial, rb_polynomial_brute):
        assert route(ones(2, 2)) == BiPoly({0: ONE, 1: Q})
        assert route(zeros(2, 2)) == BiPoly({})
        with pytest.raises(ValueError):
            route(ones(3, 3))
        with pytest.raises(ValueError):
            route(ones(2, 4))


def test_rb_polynomial_matches_enumeration():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.choice([0, 2, 4, 6, 8])
        b = _random_board(rng, n, rng.uniform(0.3, 1.0))
        if rng.random() < 0.5:
            # keep the top half and mirror it, so symmetric placements exist
            b = Board(b.rows[: n // 2] + b.rotate180().rows[n // 2:], n)
        assert rb_polynomial(b) == rb_polynomial_brute(b), b.to_text()


def test_rb_polynomial_counts_symmetric_placements():
    # t-degree sums at q=1 count the 180-degree symmetric full placements
    for n in (1, 2, 5):
        bp = rb_polynomial(ones(2 * n, 2 * n))
        total = sum(c.evaluate_at_one() for _, c in bp.items())
        assert total == 2**n * math.factorial(n)


@given(square_boards(max_side=2))
def test_sharp_rb_matches_direct_enumeration(a):
    assert sharp_rb(a) == rb_polynomial_brute(block_sharp(a.rotate180(), a))


def test_sharp_rb_matches_direct_enumeration_3x3():
    rng = random.Random(7)
    for _ in range(15):
        a = Board(tuple(rng.randrange(8) for _ in range(3)), 3)
        assert sharp_rb(a) == rb_polynomial_brute(block_sharp(a.rotate180(), a))

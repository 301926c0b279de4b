"""Boards: recognition, symmetry, composition, hulls and rook enumeration."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewrook.boards import (
    MAX_WIDTH,
    Board,
    _pair_rows,
    all_skew_ferrers_boards,
    block_sharp,
    enumerate_rook_configs,
    left_hull,
    max_configs,
    ones,
    right_hull,
    triangular,
    zeros,
)
from skewrook.permutations import Permutation, all_permutations

P = Permutation.from_text

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

# two small fixtures: a left-aligned shape and a right-aligned one
LAMBDA_BOARD = Board.parse("###.\n##..\n....")
MU_BOARD = Board.parse("###\n###\n..#")


@st.composite
def boards(draw, max_side=5):
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    return Board(tuple(rows), n)


def test_parse_round_trip_frozen():
    b = Board.parse("#.\n.#")
    assert b.to_text() == "#.\n.#"
    assert b.dims == (2, 2)
    assert b.cell(1, 1) and not b.cell(1, 2)


@given(boards())
def test_parse_round_trips(b):
    assert Board.parse(b.to_text()) == b


def test_parse_rejects_garbage():
    with pytest.raises(ValueError, match="bad board character 'x'"):
        Board.parse("#x")
    with pytest.raises(ValueError, match="ragged matrix"):
        Board.parse("##\n#")
    # every character is checked before the rows' lengths are compared
    with pytest.raises(ValueError, match="bad board character 'x'"):
        Board.parse("##\n#x.")
    with pytest.raises(ValueError, match="empty board text"):
        Board.parse("")


def test_width_limit():
    Board((0,), MAX_WIDTH)
    with pytest.raises(ValueError):
        Board((0,), MAX_WIDTH + 1)
    with pytest.raises(ValueError):
        Board((1 << 3,), 3)  # mask bit outside the width


def test_standard_boards():
    assert ones(2, 2).count_ones() == 4
    assert zeros(2, 3).count_ones() == 0
    assert triangular(1) == Board.parse("#")
    assert triangular(3) == Board.parse("###\n##.\n#..")
    assert ones(2, 3).dims == (2, 3)


def test_profiles_frozen():
    assert LAMBDA_BOARD.row_lengths() == (3, 2, 0)
    assert LAMBDA_BOARD.col_lengths() == (2, 2, 1, 0)
    assert MU_BOARD.row_lengths() == (3, 3, 1)
    assert MU_BOARD.col_lengths() == (2, 2, 3)
    assert ones(2, 3).row_lengths() == (3, 3)
    assert ones(2, 3).col_lengths() == (2, 2, 2)


@given(boards())
def test_profiles_count_cells(b):
    assert sum(b.row_lengths()) == b.count_ones()
    assert sum(b.col_lengths()) == b.count_ones()
    assert b.count_ones() + b.count_zeros() == b.dims[0] * b.dims[1]


def test_flip_and_rotate_frozen():
    assert triangular(3).flip_ud() == Board.parse("#..\n##.\n###")
    assert ones(3, 2).rotate180() == ones(3, 2)
    assert triangular(2).rotate180() == Board.parse(".#\n##")


@given(boards())
def test_flip_and_rotate_are_involutions(b):
    assert b.flip_ud().flip_ud() == b
    assert b.rotate180().rotate180() == b
    assert b.flip_ud().row_lengths() == tuple(reversed(b.row_lengths()))
    assert b.rotate180().col_lengths() == tuple(reversed(b.col_lengths()))


def test_transpose_frozen():
    assert LAMBDA_BOARD.transpose() == Board.parse("##.\n##.\n#..\n...")
    assert ones(2, 3).transpose() == ones(3, 2)
    assert triangular(3).transpose() == triangular(3)
    assert Board((0, 0), 0).transpose() == Board((), 2)


@given(boards())
def test_transpose_is_an_involution_that_swaps_dims(b):
    t = b.transpose()
    assert t.dims == b.dims[::-1]
    assert t.transpose() == b
    m, n = b.dims
    assert all(t.cell(j, i) == b.cell(i, j) for i in range(1, m + 1) for j in range(1, n + 1))
    assert b.col_lengths() == t.row_lengths()
    assert b.col_lengths() == tuple(
        sum(b.cell(i, j) for i in range(1, m + 1)) for j in range(1, n + 1)
    )


def _inverse(p):
    word = [0] * p.size
    for i, v in enumerate(p.word, 1):
        word[v - 1] = i
    return Permutation(tuple(word))


def test_transpose_inverts_every_full_placement():
    # tests/test_rooks.py holds full_placement_q_poly to this symmetry
    rng = random.Random(6)
    square = [b for b in _all_boards(3, 3) if b.height == b.width]
    dense = [Board(tuple(sum(1 << j for j in range(6) if rng.random() < 0.75)
                         for _ in range(6)), 6) for _ in range(60)]
    assert sum(bool(max_configs(b)) for b in dense) >= 30
    for b in [Board((), 0)] + square + dense:
        assert max_configs(b.transpose()) == {_inverse(p) for p in max_configs(b)}, b.to_text()


def test_is_ferrers_frozen():
    assert LAMBDA_BOARD.is_ferrers("left")
    assert not LAMBDA_BOARD.is_ferrers("right")
    assert MU_BOARD.is_ferrers("right")
    assert triangular(4).is_ferrers("left")
    assert ones(2, 3).is_ferrers("left") and ones(2, 3).is_ferrers("right")
    assert not Board.parse(".#\n##").is_ferrers("left")
    with pytest.raises(ValueError):
        ones(1, 1).is_ferrers("diagonal")


def test_ferrers_local_condition_is_definitional():
    # left-aligned: each one-cell has ones directly left and directly above
    for b in _all_boards(3, 3):
        want = all(
            (j == 1 or b.cell(i, j - 1)) and (i == 1 or b.cell(i - 1, j))
            for i, j in b.one_cells()
        )
        assert b.is_ferrers("left") == want, b.to_text()


def _all_boards(max_m, max_n):
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            for rows in itertools.product(range(1 << n), repeat=m):
                yield Board(rows, n)


@pytest.mark.parametrize("align", ["right", "left"])
def test_skew_recognition_matches_difference_definition(align):
    # is_skew_ferrers against explicit lambda-minus-mu enumeration
    for m in range(1, 5):
        for n in range(1, 5):
            wanted = set(all_skew_ferrers_boards(m, n, align))
            for rows in itertools.product(range(1 << n), repeat=m):
                b = Board(rows, n)
                assert b.is_skew_ferrers(align) == (b in wanted), b.to_text()


@given(boards())
def test_skew_alignments_mirror(b):
    assert b.is_skew_ferrers("left") == b.mirror_lr().is_skew_ferrers("right")


@given(boards(max_side=4))
def test_ferrers_boards_are_skew(b):
    for align in ("left", "right"):
        if b.is_ferrers(align):
            assert b.is_skew_ferrers(align)


def test_block_sharp_frozen():
    assert block_sharp(ones(1, 1), ones(1, 1)) == ones(2, 2)
    assert block_sharp(triangular(1), triangular(1)) == ones(2, 2)
    got = block_sharp(triangular(2), ones(1, 1))
    assert got == Board.parse("###\n#.#\n###")
    assert block_sharp(zeros(2, 2), zeros(3, 3)).dims == (5, 5)
    with pytest.raises(ValueError):
        block_sharp(ones(1, 2), ones(1, 1))


@given(boards(max_side=3), boards(max_side=3))
def test_block_sharp_layout(a, b):
    if a.dims[0] != a.dims[1] or b.dims[0] != b.dims[1]:
        return
    n, m = a.dims[0], b.dims[0]
    c = block_sharp(a, b)
    assert c.dims == (m + n, m + n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert c.cell(i, j) == a.cell(i, j)
        for j in range(n + 1, n + m + 1):
            assert c.cell(i, j)
    for i in range(n + 1, n + m + 1):
        for j in range(1, n + 1):
            assert c.cell(i, j)
        for j in range(n + 1, n + m + 1):
            assert c.cell(i, j) == b.cell(i - n, j - n)


def test_right_hull_frozen():
    ident = Permutation.identity(4)
    assert right_hull(ident) == Board.parse("#...\n.#..\n..#.\n...#")
    h = right_hull(P("35124"))
    assert h.to_text() == "###..\n#####\n#####\n.####\n...##"
    assert right_hull(P("231")) == Board.parse("##.\n###\n###")


def test_aztec_intersection_frozen():
    got = right_hull(P("56781234")).intersect(left_hull(P("43218765")))
    assert got.to_text() == AZTEC_4


@given(st.integers(1, 6).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_hull_covers_and_flip_identity(word):
    p = Permutation(tuple(word))
    h = right_hull(p)
    assert h.is_skew_ferrers("right")
    assert all(h.cell(i, j) for i, j in enumerate(p.word, 1))
    assert left_hull(p) == right_hull(p.flip_ud()).flip_ud()


def test_right_hull_minimality_exhaustive():
    for n in range(1, 4):
        skews = all_skew_ferrers_boards(n, n, "right")
        for p in all_permutations(n):
            h = right_hull(p)
            cells = tuple(enumerate(p.word, 1))
            for b in skews:
                if all(b.cell(i, j) for i, j in cells):
                    assert all(b.cell(i, j) for i, j in h.one_cells())


def test_intersect():
    b = Board.parse("#.\n##")
    assert b.intersect(ones(2, 2)) == b
    assert b.intersect(b) == b
    assert b.intersect(Board.parse(".#\n##")) == Board.parse("..\n##")
    with pytest.raises(ValueError):
        b.intersect(ones(2, 3))


def _descent_swaps(rng, word, count):
    """word with up to count of its descents, drawn at random, swapped into
    ascents: a word below it in the Bruhat order."""
    u = list(word)
    for _ in range(count):
        i = rng.randrange(len(u) - 1)
        if u[i] > u[i + 1]:
            u[i], u[i + 1] = u[i + 1], u[i]
    return tuple(u)


def test_pair_rows_are_the_hull_intersection():
    # every pair of words of up to 6 letters (533,418 pairs, about 4 s on a
    # 2-core VM), then 300 seeded pairs of 7-64 letters, half of them with u
    # below w: the masks read off the two words' row ends are the rows of
    # right_hull(w) intersected with left_hull(u), or None when one of those
    # rows is empty
    def check(w, u, board):
        rows = board.rows
        assert _pair_rows(w, u) == (rows if all(rows) else None), (w, u)
        return all(rows)

    full = 0
    for n in range(7):
        perms = list(all_permutations(n))
        rights = [(p.word, right_hull(p)) for p in perms]
        lefts = [(p.word, left_hull(p)) for p in perms]
        full += sum(check(w, u, r.intersect(h)) for w, r in rights for u, h in lefts)
    assert full == 199_000
    rng = random.Random(37)
    full = 0
    for i in range(300):
        n = rng.randint(7, MAX_WIDTH)
        w = tuple(rng.sample(range(1, n + 1), n))
        u = _descent_swaps(rng, w, n * n) if i % 2 else tuple(rng.sample(range(1, n + 1), n))
        full += check(w, u, right_hull(Permutation(w)).intersect(left_hull(Permutation(u))))
    assert 150 <= full < 300, full


def test_hull_transpose_is_the_hull_of_the_inverse():
    # transposing a permutation matrix inverts the permutation, and a hull's
    # transpose is the same kind of hull, so it is the hull of the inverse;
    # the pair route reads its column masks off the inverse words this way
    rng = random.Random(38)
    words = [p for n in range(8) for p in all_permutations(n)]
    words += [Permutation(tuple(rng.sample(range(1, n + 1), n)))
              for n in (rng.randint(8, MAX_WIDTH) for _ in range(200))]
    for p in words:
        inv = _inverse(p)
        assert right_hull(p).transpose() == right_hull(inv), p.word
        assert left_hull(p).transpose() == left_hull(inv), p.word


def test_enumerate_rook_configs_frozen():
    # a placement is a word: the column of the rook in each row, 0 if none
    assert list(enumerate_rook_configs(zeros(2, 2), 0)) == [(0, 0)]
    assert list(enumerate_rook_configs(ones(2, 2), 1)) == [(1, 0), (2, 0), (0, 1), (0, 2)]
    assert list(enumerate_rook_configs(triangular(2), 2)) == [(2, 1)]
    assert list(enumerate_rook_configs(ones(3, 3), 3)) == [
        p.word for p in all_permutations(3)
    ]
    assert list(enumerate_rook_configs(ones(2, 2), 3)) == []


def test_enumerate_rook_configs_frozen_with_an_empty_column():
    # every row holds a one-cell, but only columns 1 and 3 do
    b = Board.parse("#.#\n#..\n..#")
    assert list(enumerate_rook_configs(b, 3)) == []
    assert list(enumerate_rook_configs(b, 2)) == [(1, 0, 3), (3, 1, 0), (0, 1, 3)]
    assert list(enumerate_rook_configs(Board.parse("#.\n#."), 2)) == []


def recursive_placements(board, k):
    """Oracle for enumerate_rook_configs: the recursive search it replaced.
    Each row tries its free columns left to right, then is left empty while
    more rows remain than rooks still to place."""
    rows = board.rows
    m = len(rows)
    word = [0] * m

    def rec(i, used, left):
        if left == 0:
            yield tuple(word)
            return
        free = rows[i] & ~used
        while free:
            b = free & -free
            free ^= b
            word[i] = b.bit_length()
            yield from rec(i + 1, used | b, left - 1)
        word[i] = 0
        if m - i > left:
            yield from rec(i + 1, used, left)

    if k <= m:
        yield from rec(0, 0, k)


def test_rook_words_match_recursive_search():
    """The same words in the same order on 2,500 seeded boards with m, n <= 6
    (0 x 0 and non-square boards among them, a fifth of the rows empty), for
    every k from 0 to m + 1."""
    rng = random.Random(15)
    cases = [(zeros(0, 0), 0), (zeros(0, 0), 1), (zeros(3, 0), 0), (zeros(0, 3), 0)]
    for _ in range(2500):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        rows = tuple(rng.randrange(1 << n) if rng.random() < 0.8 else 0 for _ in range(m))
        cases += [(Board(rows, n), k) for k in range(m + 2)]
    for b, k in cases:
        got = list(enumerate_rook_configs(b, k))
        assert got == list(recursive_placements(b, k)), (b.rows, b.width, k)


@given(boards(max_side=4), st.integers(0, 4))
def test_enumeration_is_duplicate_free_and_covered(b, k):
    words = list(enumerate_rook_configs(b, k))
    assert len(words) == len(set(words))
    for word in words:
        assert len(word) == b.height
        cols = [j for j in word if j]
        assert len(cols) == len(set(cols)) == k
        assert all(b.cell(i, j) for i, j in enumerate(word, 1) if j)


@given(boards(max_side=4), st.integers(0, 3))
def test_enumeration_count_is_symmetry_invariant(b, k):
    count = sum(1 for _ in enumerate_rook_configs(b, k))
    assert count == sum(1 for _ in enumerate_rook_configs(b.flip_ud(), k))
    assert count == sum(1 for _ in enumerate_rook_configs(b.rotate180(), k))


def test_max_configs_frozen():
    assert max_configs(ones(3, 3)) == set(all_permutations(3))
    assert max_configs(triangular(2)) == {P("21")}
    assert max_configs(right_hull(P("231"))) == {
        P("123"),
        P("132"),
        P("213"),
        P("231"),
    }
    with pytest.raises(ValueError):
        max_configs(ones(2, 3))


@given(boards(max_side=4))
def test_max_configs_matches_enumeration(b):
    if b.dims[0] != b.dims[1]:
        return
    n = b.dims[0]
    assert max_configs(b) == {Permutation(w) for w in enumerate_rook_configs(b, n)}


def test_all_skew_ferrers_boards_is_deduped_and_sorted():
    got = all_skew_ferrers_boards(3, 3, "right")
    assert len(got) == len(set(got))
    assert list(got) == sorted(got, key=lambda b: b.rows)
    for b in got:
        assert b.is_skew_ferrers("right")


# counts for 1 <= m, n <= 5, and digests of repr([b.rows for b in boards]),
# taken from the earlier generator that filtered every pair of partitions
SKEW_COUNTS = [
    [2, 4, 7, 11, 16],
    [4, 13, 33, 71, 136],
    [7, 33, 114, 321, 781],
    [11, 71, 321, 1146, 3449],
    [16, 136, 781, 3449, 12578],
]
SKEW_DIGESTS = {
    (5, 5): (12578, "62b68b84e693239ece16aea6f305c7c033514c3902e630fc849994c0542cb218"),
    (4, 6): (9115, "58c6bc4174eed3ac8d89a1cb60f0201541f4cc4892f84adfc499567895d06ea1"),
}


def test_all_skew_ferrers_boards_frozen_beyond_the_exhaustive_check():
    for m in range(1, 6):
        for n in range(1, 6):
            assert len(all_skew_ferrers_boards(m, n, "right")) == SKEW_COUNTS[m - 1][n - 1]
    for (m, n), (count, digest) in SKEW_DIGESTS.items():
        got = all_skew_ferrers_boards(m, n, "right")
        assert len(got) == count
        assert hashlib.sha256(repr([b.rows for b in got]).encode()).hexdigest() == digest


def test_all_skew_ferrers_boards_edge_shapes():
    assert all_skew_ferrers_boards(0, 3) == (Board((), 3),)
    assert all_skew_ferrers_boards(2, 0) == (Board((0, 0), 0),)
    # one row per level of the walk, with no recursion limit
    assert all_skew_ferrers_boards(2000, 0) == (Board((0,) * 2000, 0),)

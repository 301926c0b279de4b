"""Rook statistics and polynomials on zero-one boards.

A rook placement is a word, as boards.enumerate_rook_configs yields it:
entry i is the column of the rook in row i, or 0 for an empty row.  The
central statistic is inv: for a placement on an m x n board, inv counts
the matrix positions (one- and zero-entries alike) with no rook weakly to
their right in the same row and no rook strictly below in the same column.
For a full placement on a square board this is the inversion number of the
corresponding permutation, and the empty placement scores m*n.  Generating
functions over k-rook placements are Laurent polynomials in q with
nonnegative exponents.

Three computation routes are kept side by side on purpose, and the test
suite plays them against each other:

* the enumeration oracle, q_rook_number_brute, which sums q^inv over every
  placement word of boards.enumerate_rook_configs and scores each word
  bottom-up with a bitmask of the columns holding a rook below
  (_word_inv); inv_stat stays the public definition, and the tests hold
  _word_inv to it;
* the bottom-up table, _q_rook_table, a column-mask DP that yields every
  q-rook number of a board at once and is cached per board.  Rook numbers
  are this table at q = 1.  The table scans the board or its transpose,
  whichever has the smaller bound on live column masks (ties keep the
  rows): the sum over the lines scanned of sum_{k <= r} C(c, k), where r
  lines from the bottom touch c columns.  The two tables are equal, since
  a cell counts for inv exactly when its row at or right of it and its
  column at or below it hold no rook, and transposing swaps the two.  A
  wide board is scanned down its columns: ones(3, 64) then takes 64 steps
  of at most 8 states;
* the top-down full-placement DP, full_placement_q_poly, for the n-rook
  number of an n x n board, also cached per board.

Every query goes through one of the two DPs, whatever the board's width up
to boards.MAX_WIDTH; the enumeration oracle serves only the tests and the
verify checks.

Full placement keeps its own DP because it scans top-down, carries only
placements with a rook in every row so far, drops a state as soon as a
column it misses has no one-cell left below, and keys a state by the free
count of each block of interchangeable columns.  It scans the board's
columns, from the left or, on the anti-transpose, from the right,
whichever side's row ends take fewer distinct values, so that its blocks
are the steps of the shorter boundary path of a hull board.  On the hull
intersections of the bruhat-pairs benchmark workload (seed 0) it makes
2,417 transitions, 6,712 when it scanned the board's own rows, the
column-mask scan it replaced 28,972, a bottom-up scan restricted to a rook
in every row 2.80M, and the all-k table 49.4M.

The signed statistic of the hyperoctahedral group has the same pair: the
DP rb_polynomial over the top half of an even board, and the oracle
rb_polynomial_brute, which walks every full placement word of the same
enumerator, keeps those fixed by 180-degree rotation and scores them with
_word_inv.  The oracle never pairs mirror rows, so it shares no step with
the DP it checks.

All three DPs share one state rule: a state's key is a bit mask of what
the placements reaching it have taken (in full placement, of the columns
still free, in canonical form), its value is their q-weight and nothing
else, and every other count is read off the key.  _q_rook_table reads the
rook count as the key's popcount, and rb_polynomial, whose key holds the
taken columns and the set of values placed, reads neg off the latter.
The two full-placement DPs pack the q-weight into one nonnegative int by
Kronecker substitution q -> 2^(8w), with w whole bytes bounded from the
board before the scan (see qalgebra._pack for the rule), so every packed
int holds one q-polynomial at one width; a transition is a shift and an
add, with one product more for a block of several free columns, and each
int is unpacked once at the end.  _q_rook_table holds a LaurentPoly per state.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import or_
from typing import Iterable

from .boards import Board, _revbits, _transpose_masks, enumerate_rook_configs
from .qalgebra import (
    ONE,
    ZERO,
    BiPoly,
    LaurentPoly,
    q_factorial,
    q_int,
    q_stirling,
    _from_dense,
    _unpack,
)

__all__ = [
    "inv_stat",
    "q_rook_number",
    "q_rook_number_brute",
    "rook_number",
    "q_rook_poly",
    "gjw_product",
    "garsia_remmel_product",
    "t_board_q_rook",
    "sharp_q_rook",
    "rb_polynomial",
    "rb_polynomial_brute",
    "sharp_rb",
    "full_placement_q_poly",
]

def inv_stat(board: Board, word: tuple[int, ...]) -> int:
    """inv of a rook placement on a board, given as a word: word[i - 1] is
    the column of the rook in row i, or 0 for an empty row.

    Counts positions (i, j) of the full m x n rectangle such that no rook
    occupies (i, j') with j' >= j and no rook occupies (i', j) with i' > i.
    The statistic only reads the rectangle dimensions and the rook cells,
    but a word that is not a placement on the board's one-cells is a caller
    error.
    """
    m, n = board.dims
    if len(word) != m:
        raise ValueError(f"a placement on {m} rows needs a word of length {m}")
    col_rook = [0] * (n + 1)  # row of the rook in each column, 0 if none
    for i, (mask, j) in enumerate(zip(board.rows, word), start=1):
        if type(j) is not int or not 0 <= j <= n:
            raise ValueError(f"row {i} names column {j!r}, outside 1..{n}")
        if not j:
            continue
        if not mask >> (j - 1) & 1:
            raise ValueError(f"cell ({i}, {j}) is not a one-cell of the board")
        if col_rook[j]:
            raise ValueError(f"column {j} holds more than one rook")
        col_rook[j] = i
    total = 0
    for i, c in enumerate(word, start=1):
        for j in range(c + 1, n + 1):
            if col_rook[j] <= i:
                total += 1
    return total


def _word_inv(word: tuple[int, ...], width: int) -> int:
    """inv_stat of the placement whose rook in row i sits in column word[i],
    0 for an empty row, read one row at a time from the bottom: a row with
    its rook in column c (or none, c = 0) scores the columns right of c that
    hold no rook below it, counted off a bitmask of those columns."""
    below = total = 0
    for c in reversed(word):
        total += width - c - (below >> c).bit_count()
        if c:
            below |= 1 << (c - 1)
    return total


def q_rook_number_brute(board: Board, k: int) -> LaurentPoly:
    """Sum of q^inv over all k-rook placements, by direct enumeration of the
    placement words of enumerate_rook_configs."""
    words = enumerate_rook_configs(board, k)
    return LaurentPoly(Counter(_word_inv(word, board.width) for word in words))


def _scan_bound(touched: Iterable[int]) -> int:
    """A bound on the live states of a bottom-up column-mask scan, summed
    over its lines.  touched gives, after each line, the number c of
    columns that the lines so far touch, so it never falls.  After r lines
    a state is a set of at most r of those c columns: there are at most
    sum_{k <= r} C(c, k).  Raising r adds C(c, r), and raising c doubles the
    sum less C(c, r) (Pascal's rule), so each line and each newly touched
    column costs one binomial."""
    total = r = c = 0
    live = 1  # sum_{k <= r} C(c, k)
    for now in touched:
        r += 1
        live += comb(c, r)
        for j in range(c, now):
            live = 2 * live - comb(j, r)
        c = now
        total += live
    return total


@lru_cache(maxsize=4096)
def _q_rook_table(rows: tuple[int, ...], width: int) -> tuple[LaurentPoly, ...]:
    """All q-rook numbers of a board at once, indexed by rook count, from
    _q_rook_scan over the board or its transpose, whichever has the smaller
    _scan_bound; a tie keeps the rows (_scans_transpose).

    Both scans give the same table: a cell counts for inv exactly when no
    rook lies in its own row at or right of it, nor in its own column at or
    below it, and transposing swaps the row part with the column part.  The
    board's bound reads the columns that its bottom r rows touch.  The
    transpose's bound scans the board's columns from the right, and the r
    rightmost columns touch the rows whose highest one-cell lies among
    them.  Both bounds come from the row masks in O(m + n), and only a
    chosen transpose is built.
    """
    if _scans_transpose(rows, width):
        return _q_rook_scan(_transpose_masks(rows, width), len(rows))
    return _q_rook_scan(rows, width)


def _scans_transpose(rows: tuple[int, ...], width: int) -> bool:
    """Whether the transpose's _scan_bound is below the board's."""
    # highest[j]: the number of rows whose last one-cell is column j
    highest = [0] * (width + 1)
    for mask in rows:
        highest[mask.bit_length()] += 1
    return _scan_bound(accumulate(highest[:0:-1])) < _scan_bound(
        map(int.bit_count, accumulate(reversed(rows), or_))
    )


def _q_rook_scan(rows: tuple[int, ...], width: int) -> tuple[LaurentPoly, ...]:
    """The column-mask DP behind _q_rook_table.

    Scans rows bottom to top carrying, for each set of columns holding rooks
    in the rows already processed, the q-polynomial of the placements that
    reach it.  The rook count of a state is the size of its column set, so
    it is read off when the table is assembled.  The inv contribution of a
    row depends only on rooks strictly below it, so it is decided at the
    row's own step: a skipped row scores one per rook-free column; a rook
    placed in column j scores one per rook-free column strictly to its right.
    """
    states: dict[int, LaurentPoly] = {0: ONE}
    for mask in reversed(rows):
        nxt: dict[int, LaurentPoly] = {}
        for occ, poly in states.items():
            skip = poly * LaurentPoly.monomial(width - occ.bit_count())
            old = nxt.get(occ)
            nxt[occ] = skip if old is None else old + skip
            free = mask & ~occ
            while free:
                bit = free & -free
                free ^= bit
                j = bit.bit_length()
                key = occ | bit
                place = poly * LaurentPoly.monomial(width - j - (occ >> j).bit_count())
                old = nxt.get(key)
                nxt[key] = place if old is None else old + place
        states = nxt
    table = [ZERO] * (min(len(rows), width) + 1)
    for occ, poly in states.items():
        k = occ.bit_count()
        table[k] = table[k] + poly
    return tuple(table)


@lru_cache(maxsize=4096)
def full_placement_q_poly(board: Board) -> LaurentPoly:
    """Sum of q^inversions over permutations fitting inside a square board.

    _full_placement_scan runs on the board's transpose or on its
    anti-transpose (the transpose turned by 180 degrees).  A permutation
    matrix and its inverse have the same inversions, and so do a matrix and
    its 180-degree turn, so both scans give the same polynomial, equal to
    q_rook_number(board, n).  A board with an empty row or column has no
    full placement and is answered before the transpose is built.

    Either scan walks the board's columns, and its blocks of
    interchangeable columns are runs of adjacent board rows that agree on
    the columns still to come.  On the transpose, scanned from the left,
    such rows end up grouped by their last one-cell; on the anti-transpose,
    scanned from the right, by their first one-cell.  The rows of a hull
    board of poincare_via_rook are intervals, whose first and last
    one-cells trace its two boundary paths, so the pick scans against the
    path with fewer steps: the anti-transpose when the rows' first
    one-cells take fewer distinct columns than their last ones
    (_scans_anti_transpose), the transpose otherwise, ties included.

    On the 360 hull boards with a full placement among the bruhat-pairs
    queries of seeds 0-11, the pick makes 30,304 transitions: 75,630 down
    the board's own rows, 148,294 on every transpose, 42,134 on every
    anti-transpose, and 29,431 for the best of the four per board.
    """
    n = board.height
    if board.width != n:
        raise ValueError("full placements need a square board")
    rows = board.rows
    if not all(rows):
        return ZERO
    cols = _transpose_masks(rows, n)
    if not all(cols):
        return ZERO
    if _scans_anti_transpose(rows):
        return _full_placement_scan(
            tuple(_revbits(mask, n) for mask in reversed(cols)),
            tuple(_revbits(mask, n) for mask in reversed(rows)),
        )
    return _full_placement_scan(cols, rows)


def _scans_anti_transpose(rows: tuple[int, ...]) -> bool:
    """Whether the rows' first one-cells take fewer distinct columns than
    their last ones."""
    return len({mask & -mask for mask in rows}) < len({mask.bit_length() for mask in rows})


def _full_placement_scan(rows: tuple[int, ...], cols: tuple[int, ...]) -> LaurentPoly:
    """The block DP behind full_placement_q_poly, on the row masks of a
    square board with no empty row or column and on its column masks.

    Scans rows top-down.  A rook in column c scores the free columns left
    of c, the later rows with smaller values, so a full placement scores its
    inversion number.

    At row i a block is a maximal run of adjacent columns whose one-cells
    agree on rows i..n-1, so its columns are interchangeable from there on.
    A key is the free-column mask with each block's free columns moved to
    its highest ones: it records only the free count of each block.  Blocks
    only merge as rows are consumed, and the keys are then re-canonicalised
    on the merged blocks.  A block of the row with m free columns, a free
    columns left of it, makes one transition: it drops its lowest free
    column and multiplies by q^a [m]_q.  A column whose last one-cell is in
    the row must take its rook there: a state with two such free columns is
    dropped, and one with a single one places its rook there.

    Each state's polynomial is one int, packed by q -> 2^(8w), so q^a is a
    shift and [m]_q a product.  Row i offers at most min(popcount, n - i)
    columns, so w is the byte length of the product of those counts.
    """
    n = len(rows)
    bound = 1
    for i, mask in enumerate(rows):
        bound *= min(mask.bit_count(), n - i)
    width = (bound.bit_length() + 7) & -8  # 8w bits, w whole bytes
    repunits = [0]  # repunits[m] packs [m]_q
    for _ in range(n):
        repunits.append(repunits[-1] << width | 1)
    # joins[r]: the columns j that join column j + 1 from row r on;
    # ends[r]: the columns whose last one-cell is in row r - 1
    joins: list[list[int]] = [[] for _ in range(n + 1)]
    ends = [0] * (n + 1)
    for j, col in enumerate(cols):
        ends[col.bit_length()] |= 1 << j
        if j:
            joins[(cols[j - 1] ^ col).bit_length()].append(j - 1)
    cuts = (1 << n) - 1  # bit j: column j is the highest of its block
    states: dict[int, int] = {cuts: 1}
    for i, mask in enumerate(rows):
        if joins[i]:
            cuts &= ~sum(1 << j for j in joins[i])
            merged = {}
            for j in joins[i]:
                top = cuts & -(1 << j)
                top &= -top
                merged[top] = (top << 1) - (1 << (cuts & ((1 << j) - 1)).bit_length())
            canon: dict[int, int] = {}
            for key, packed in states.items():
                for top, block in merged.items():
                    c = (key & block).bit_count()
                    key = key & ~block | (top << 1) - (top << 1 >> c)
                canon[key] = canon.get(key, 0) + packed
            states = canon
        must = ends[i + 1]
        single = cuts & ((cuts << 1) | 1)
        nxt: dict[int, int] = {}
        for key, packed in states.items():
            free = key & mask
            need = key & must
            if need:
                if need & (need - 1):
                    continue
                free = need
            while free:
                bit = free & -free
                if bit & single:
                    free ^= bit
                    value = packed
                else:
                    top = cuts & -bit
                    top &= -top
                    free &= -(top << 1)
                    value = packed * repunits[top.bit_length() - bit.bit_length() + 1]
                key_ = key ^ bit
                nxt[key_] = nxt.get(key_, 0) + (value << width * (key & (bit - 1)).bit_count())
        states = nxt
    return _from_dense(0, _unpack(sum(states.values()), width >> 3))


def q_rook_number(board: Board, k: int) -> LaurentPoly:
    """kth q-rook number: sum of q^inv over k-rook placements."""
    if type(k) is not int:
        raise ValueError(f"rook count must be an int, got {k!r}")
    if k < 0:
        raise ValueError("rook count must be nonnegative")
    m, n = board.dims
    if k > min(m, n):
        return ZERO
    if k == m == n:
        return full_placement_q_poly(board)
    return _q_rook_table(board.rows, n)[k]


def rook_number(board: Board, k: int) -> int:
    """kth rook number: placements of k non-taking rooks on the one-cells,
    read off the kth q-rook number at q = 1."""
    return q_rook_number(board, k).evaluate_at_one()


def _check_index_and_argument(n: int, x: int) -> None:
    """Refuse a polynomial index or argument that is not an int, a bool or
    float included, before any work."""
    if type(n) is not int or type(x) is not int:
        raise ValueError(f"polynomial index and argument must be ints, got {n!r} and {x!r}")


def q_rook_poly(board: Board, n: int, x: int) -> LaurentPoly:
    """nth q-rook polynomial at integer x: sum of R_{n-k}(q) [x][x-1]...[x-k+1]."""
    _check_index_and_argument(n, x)
    if n < 0:
        raise ValueError("polynomial index must be nonnegative")
    total = ZERO
    falling = ONE  # [x][x-1]...[x-k+1], one factor more at each k
    for k in range(n + 1):
        if k:
            falling = falling * q_int(x - k + 1)
            if falling.is_zero:
                break
        r = q_rook_number(board, n - k)
        if not r.is_zero:
            total = total + r * falling
    return total


def _check_factored(board: Board, n: int, x: int, align: str) -> tuple[int, ...]:
    """The column heights of a board, after refusing a non-int index or
    argument, a board not Ferrers on the align side, then n != width."""
    _check_index_and_argument(n, x)
    if not board.is_ferrers(align):
        raise ValueError(f"board is not a {align}-aligned Ferrers matrix")
    if n != board.width:
        raise ValueError("polynomial index must equal the board width")
    return board.col_lengths()


def gjw_product(board: Board, n: int, x: int) -> int:
    """Factored nth rook polynomial of a right-aligned Ferrers board at q=1.

    Product over columns of (x + c_j - j + 1) where c_j is the column
    height.  Agrees with q_rook_poly at q=1.
    """
    result = 1
    for j, c in enumerate(_check_factored(board, n, x, "right"), start=1):
        result *= x + c - j + 1
    return result


def garsia_remmel_product(board: Board, n: int, x: int) -> LaurentPoly:
    """Factored nth q-rook polynomial of a left-aligned Ferrers board.

    q^z times the product over columns of [x + c_j + j - n]_q, where z is
    the number of zero-entries.  Factors may be q-integers of negative
    argument, so the result is genuinely Laurent before cancellation.
    """
    heights = _check_factored(board, n, x, "left")
    result = LaurentPoly.monomial(board.count_zeros())
    for j, c in enumerate(heights, start=1):
        result = result * q_int(x + c + j - n)
    return result


def t_board_q_rook(n: int, k: int) -> LaurentPoly:
    """kth q-rook number of the staircase board via q-Stirling numbers."""
    if type(n) is not int or type(k) is not int:
        raise ValueError(f"n and k must be ints, got {n!r} and {k!r}")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return LaurentPoly.monomial(n * (n - 1) // 2) * q_stirling(n + 1, n + 1 - k)


def sharp_q_rook(a: Board, b: Board) -> LaurentPoly:
    """Top q-rook number of the block composition, from the two summands.

    a is m x m (bottom-right block), b is n x n (top-left block); returns
    sum over i of R^a_{m-i}(q) R^{b rotated}_{n-i}(q) [i]!_q^2 q^{-i^2},
    which equals q_rook_number(block_sharp(b, a), m + n).
    """
    m, n = a.height, b.height
    if a.width != m or b.width != n:
        raise ValueError("block composition needs square boards")
    b_rot = b.rotate180()
    total = ZERO
    for i in range(min(m, n) + 1):
        term = q_rook_number(a, m - i) * q_rook_number(b_rot, n - i)
        if term.is_zero:
            continue
        fact = q_factorial(i)
        total = total + term * fact * fact * LaurentPoly.monomial(-i * i)
    return total


def _check_even_square(board: Board) -> None:
    size = board.height
    if board.width != size or size % 2:
        raise ValueError("need a square board of even size")


def rb_polynomial_brute(board: Board) -> BiPoly:
    """Oracle for rb_polynomial, the definition itself: sums q^inversions
    t^neg over the full placement words w of the 2n x 2n board fixed by
    180-degree rotation (w[i] + w[-1-i] == 2n + 1 in every row), scored by
    _word_inv, which on a full placement is the inversion number; neg counts
    the bottom n rows whose rook sits in one of the first n columns."""
    _check_even_square(board)
    size = board.height
    n = size // 2
    counts = Counter(
        (sum(v <= n for v in word[n:]), _word_inv(word, size))
        for word in enumerate_rook_configs(board, size)
        if all(word[i] + word[-1 - i] == size + 1 for i in range(n))
    )
    return BiPoly((t, LaurentPoly.monomial(e, c)) for (t, e), c in counts.items())


def rb_polynomial(board: Board) -> BiPoly:
    """Generating function q^inversions t^neg over the rotationally
    symmetric full placements of an even square board.

    A symmetric placement w of the 2n x 2n board is fixed by its top n rows:
    w(2n+1-i) = 2n+1-w(i).  The DP fills the top rows downwards; its state
    is the set T of values placed so far, and the columns taken are T with
    its mirror image.  Putting v in top row i needs the one-cells (i, v) and
    (2n+1-i, 2n+1-v); against the rows already filled and their mirrors it
    adds 2 (#{t in T: t > v} + #{t in T: t > 2n+1-v}) + [v > n] inversions,
    the last term from the pair of rows i and 2n+1-i.  neg is the number of
    values in T above n, so it is read off the final states.

    A state's q-polynomial is one int, packed by q -> 2^(8w).  Row i (from
    0) offers at most min(choices, 2n - 2i) values, and w is the byte length
    of the product of those counts.
    """
    _check_even_square(board)
    size = board.height
    n = size // 2
    # allowed[i]: the values v with one-cells at (i, v) and at its mirror
    allowed = [a & b for a, b in zip(board.rows[:n], board.rotate180().rows)]
    bound = 1
    for i, mask in enumerate(allowed):
        bound *= min(mask.bit_count(), size - 2 * i)
    if not bound:
        return BiPoly({})
    width = (bound.bit_length() + 7) & -8  # 8w bits, w whole bytes
    # a state key holds the taken columns in its low `size` bits and T above
    states: dict[int, int] = {0: 1}
    for mask in allowed:
        nxt: dict[int, int] = {}
        for key, packed in states.items():
            placed = key >> size
            free = mask & ~key
            while free:
                bit = free & -free
                free ^= bit
                v = bit.bit_length()
                above = (placed >> v).bit_count() + (placed >> (size + 1 - v)).bit_count()
                tgt = key | bit | (1 << (size - v)) | (bit << size)
                nxt[tgt] = nxt.get(tgt, 0) + (packed << (width * (2 * above + (v > n))))
        states = nxt
    by_neg = [0] * (n + 1)
    for key, packed in states.items():
        by_neg[(key >> (size + n)).bit_count()] += packed
    return BiPoly((t, _from_dense(0, _unpack(p, width >> 3))) for t, p in enumerate(by_neg))


def sharp_rb(a: Board) -> BiPoly:
    """Symmetric-placement generating function of block_sharp(rotate180(a), a),
    assembled from the q-rook numbers of a alone (q -> q^2 by exponent
    doubling)."""
    n = a.height
    if a.width != n:
        raise ValueError("need a square board")
    return BiPoly(
        (i, q_rook_number(a, n - i).stretch(2) * q_factorial(i).stretch(2)
         * LaurentPoly.monomial(-i * i))
        for i in range(n + 1)
    )

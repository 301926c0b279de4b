"""Rook statistics and polynomials on zero-one boards.

The central statistic is inv: for a rook configuration on an m x n board,
inv counts the matrix positions (one- and zero-entries alike) with no rook
weakly to their right in the same row and no rook strictly below in the
same column.  For a full placement on a square board this is the inversion
number of the corresponding permutation, and the empty placement scores
m*n.  Generating functions over k-rook placements are Laurent polynomials
in q with nonnegative exponents.

Three computation routes are kept side by side on purpose, and the test
suite plays them against each other:

* the enumeration oracle, q_rook_number_brute, which sums q^inv over every
  placement;
* the bottom-up table, _q_rook_table, a column-mask DP that yields every
  q-rook number of a board at once and is cached per board.  Rook numbers
  are this table at q = 1;
* the top-down full-placement DP, full_placement_q_poly, for the n-rook
  number of an n x n board, also cached per board.

Every query goes through one of the two DPs, whatever the board's width up
to boards.MAX_WIDTH; the enumeration oracle serves only the tests and the
verify checks.

Full placement keeps its own DP because it scans top-down, carries only
placements with a rook in every row so far, drops a state as soon as a
column it misses has no one-cell left below, and scans the rows of
Board.transpose instead when that bounds fewer states.  On the hull
intersections of the bruhat-pairs benchmark workload (seed 0) it makes
0.029M mask transitions (0.21M without the prune and the orientation
pick); a bottom-up scan restricted to a rook in every row makes 2.80M, and
the all-k table 49.4M.

The signed statistic of the hyperoctahedral group has the same pair: the
DP rb_polynomial over the top half of an even board, and the oracle
rb_polynomial_brute, which walks every full placement (boards.max_configs)
and keeps those fixed by 180-degree rotation.  The oracle never pairs
mirror rows, so it shares no step with the DP it checks.

All three DPs share one state rule: a state's key is a bit mask of what
the placements reaching it have taken, its value is their q-weight and
nothing else, and every other count is read off the key.  _q_rook_table
reads the rook count as the key's popcount, and rb_polynomial, whose key
holds the taken columns and the set of values placed, reads neg off the
latter.  The two full-placement DPs pack the q-weight into one
nonnegative int by Kronecker substitution q -> 2^B, with B bounded from
the board before the scan (see qalgebra._unpack for the rule), so every
packed int holds one q-polynomial at one width; a transition is one shift
and one add, and each int is unpacked once at the end.  _q_rook_table
still holds a LaurentPoly per state.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb

from .boards import Board, RookConfig, covers, enumerate_rook_configs, max_configs
from .qalgebra import (
    ONE,
    ZERO,
    BiPoly,
    LaurentPoly,
    q_factorial,
    q_falling,
    q_int,
    q_stirling,
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

def inv_stat(board: Board, config: RookConfig) -> int:
    """inv of a rook configuration on a board.

    Counts positions (i, j) of the full m x n rectangle such that no rook
    occupies (i, j') with j' >= j and no rook occupies (i', j) with i' > i.
    The statistic only reads the rectangle dimensions and the rook cells,
    but a configuration off the board's one-cells is a caller error.
    """
    if not covers(board, config):
        raise ValueError("configuration is not covered by the board")
    m, n = board.dims
    row_rook = [0] * (m + 1)  # column of the rook in each row, 0 if none
    col_rook = [0] * (n + 1)  # row of the rook in each column, 0 if none
    for i, j in config.cells:
        row_rook[i] = j
        col_rook[j] = i
    total = 0
    for i in range(1, m + 1):
        for j in range(row_rook[i] + 1, n + 1):
            if col_rook[j] <= i:
                total += 1
    return total


def q_rook_number_brute(board: Board, k: int) -> LaurentPoly:
    """Sum of q^inv over all k-rook placements, by direct enumeration."""
    return LaurentPoly(Counter(inv_stat(board, c) for c in enumerate_rook_configs(board, k)))


@lru_cache(maxsize=4096)
def _q_rook_table(rows: tuple[int, ...], width: int) -> tuple[LaurentPoly, ...]:
    """All q-rook numbers of a board at once, indexed by rook count.

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


def _scan_plan(rows: tuple[int, ...], full: int) -> tuple[int, list[int]]:
    """The state bound of a top-down full-placement scan of `rows`, and per
    row the columns that no later row has a one in.

    After row i (from 0) a live state holds i + 1 columns, all seen so far,
    and must hold every such orphaned column, so the states number at most
    C(|seen - orphaned|, i + 1 - |orphaned|); the bound sums that over rows.
    """
    orphaned = []
    later = 0
    for mask in reversed(rows):
        orphaned.append(full & ~later)
        later |= mask
    orphaned.reverse()
    bound = 0
    seen = 0
    for i, (mask, must) in enumerate(zip(rows, orphaned)):
        seen |= mask
        k = i + 1 - must.bit_count()
        if k >= 0:
            bound += comb((seen & ~must).bit_count(), k)
    return bound, orphaned


@lru_cache(maxsize=4096)
def full_placement_q_poly(board: Board) -> LaurentPoly:
    """Sum of q^inversions over permutations fitting inside a square board.

    Top-to-bottom DP over used-column masks; placing a rook in column j
    below already-placed rooks adds one inversion per used column right of
    j.  Equals q_rook_number(board, n) since inv of a full placement is the
    inversion number of its permutation.

    A column with no one-cell below the current row must already hold a
    rook once the row is done: a state missing two such columns is dropped,
    and a state missing one may place its rook only there.  Transposing the
    board maps each placement w to w^-1, with the same inversion number, so
    the DP scans the rows of whichever of the board and board.transpose()
    has the smaller state bound (_scan_plan), the board itself on a tie.

    Each state's polynomial is one int, packed by q -> 2^B.  Row i (from 0)
    of the scan offers at most min(popcount, n - i) columns, so no
    coefficient exceeds the product of those counts, and B is its bit length.

    The key stays a column mask.  Keyed instead by the free count of each
    block (a run of adjacent columns whose one-cells agree on the rows not
    yet scanned), a prototype made fewer transitions on the hull
    intersections of the bruhat-pairs benchmark workload (seed 0: 28,972 ->
    10,796) but took longer (0.023 -> 0.059 s), because it builds a tuple
    key per transition.
    """
    n = board.height
    if board.width != n:
        raise ValueError("full placements need a square board")
    rows, cols = board.rows, board.transpose().rows
    full = (1 << n) - 1
    row_cost, orphaned = _scan_plan(rows, full)
    col_cost, col_orphaned = _scan_plan(cols, full)
    if col_cost < row_cost:
        rows, orphaned = cols, col_orphaned
    bound = 1
    for i, mask in enumerate(rows):
        bound *= min(mask.bit_count(), n - i)
    if not bound:
        return ZERO
    width = bound.bit_length()
    states: dict[int, int] = {0: 1}
    for mask, must in zip(rows, orphaned):
        nxt: dict[int, int] = {}
        for used, packed in states.items():
            free = mask & ~used
            need = must & ~used
            if need:
                if need & (need - 1):
                    continue
                free &= need
            while free:
                bit = free & -free
                free ^= bit
                key = used | bit
                shift = width * (used >> bit.bit_length()).bit_count()
                nxt[key] = nxt.get(key, 0) + (packed << shift)
        states = nxt
    return LaurentPoly(enumerate(_unpack(sum(states.values()), width)))


def q_rook_number(board: Board, k: int) -> LaurentPoly:
    """kth q-rook number: sum of q^inv over k-rook placements."""
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


def q_rook_poly(board: Board, n: int, x: int) -> LaurentPoly:
    """nth q-rook polynomial at integer x: sum of R_{n-k}(q) [x][x-1]...[x-k+1]."""
    if n < 0:
        raise ValueError("polynomial index must be nonnegative")
    total = ZERO
    for k in range(n + 1):
        r = q_rook_number(board, n - k)
        if not r.is_zero:
            total = total + r * q_falling(x, k)
    return total


def gjw_product(board: Board, n: int, x: int) -> int:
    """Factored nth rook polynomial of a right-aligned Ferrers board at q=1.

    Product over columns of (x + c_j - j + 1) where c_j is the column
    height.  Agrees with q_rook_poly at q=1.
    """
    if not board.is_ferrers("right"):
        raise ValueError("board is not a right-aligned Ferrers matrix")
    if n != board.width:
        raise ValueError("polynomial index must equal the board width")
    result = 1
    for j, c in enumerate(board.col_lengths(), start=1):
        result *= x + c - j + 1
    return result


def garsia_remmel_product(board: Board, n: int, x: int) -> LaurentPoly:
    """Factored nth q-rook polynomial of a left-aligned Ferrers board.

    q^z times the product over columns of [x + c_j + j - n]_q, where z is
    the number of zero-entries.  Factors may be q-integers of negative
    argument, so the result is genuinely Laurent before cancellation.
    """
    if not board.is_ferrers("left"):
        raise ValueError("board is not a left-aligned Ferrers matrix")
    if n != board.width:
        raise ValueError("polynomial index must equal the board width")
    result = LaurentPoly.monomial(board.count_zeros())
    for j, c in enumerate(board.col_lengths(), start=1):
        result = result * q_int(x + c + j - n)
    return result


def t_board_q_rook(n: int, k: int) -> LaurentPoly:
    """kth q-rook number of the staircase board via q-Stirling numbers."""
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
    t^neg over the full placements of the board fixed by 180-degree
    rotation."""
    _check_even_square(board)
    counts = Counter(
        (p.neg_statistic(), p.inversions()) for p in max_configs(board) if p.rotate180() == p
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

    A state's q-polynomial is one int, packed by q -> 2^B.  Row i (from 0)
    offers at most min(choices, 2n - 2i) values, and B is the bit length of
    the product of those counts.
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
    width = bound.bit_length()
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
    return BiPoly((t, LaurentPoly(enumerate(_unpack(p, width)))) for t, p in enumerate(by_neg))


def sharp_rb(a: Board) -> BiPoly:
    """Symmetric-placement generating function of block_sharp(rotate180(a), a),
    assembled from the q-rook numbers of a alone (q -> q^2 by exponent
    doubling)."""
    n = a.height
    if a.width != n:
        raise ValueError("need a square board")
    terms: dict[int, LaurentPoly] = {}
    for i in range(n + 1):
        coeff = q_rook_number(a, n - i).stretch(2) * q_factorial(i).stretch(2)
        coeff = coeff * LaurentPoly.monomial(-i * i)
        if not coeff.is_zero:
            terms[i] = coeff
    return BiPoly(terms)

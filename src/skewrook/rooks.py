"""Rook statistics and polynomials on zero-one boards.

The central statistic is inv: for a rook configuration on an m x n board,
inv counts the matrix positions (one- and zero-entries alike) with no rook
weakly to their right in the same row and no rook strictly below in the
same column.  For a full placement on a square board this is the inversion
number of the corresponding permutation, and the empty placement scores
m*n.  Generating functions over k-rook placements are Laurent polynomials
in q with nonnegative exponents.

Three independent computation routes are kept side by side on purpose:
plain enumeration (the oracle), a bottom-to-top column-mask DP over all k
at once (the workhorse), and a top-to-bottom full-placement DP (fast path
for the n-rook number of a square board).  The test suite plays them
against each other.
"""

from __future__ import annotations

from functools import lru_cache

from .boards import Board, RookConfig, covers, enumerate_rook_configs
from .permutations import Permutation
from .qalgebra import (
    ONE,
    ZERO,
    BiPoly,
    LaurentPoly,
    q_factorial,
    q_falling,
    q_int,
    q_stirling,
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
    "sharp_rb",
    "full_placement_q_poly",
]

_DP_MAX_WIDTH = 20


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
    coeffs: dict[int, int] = {}
    for config in enumerate_rook_configs(board, k):
        e = inv_stat(board, config)
        coeffs[e] = coeffs.get(e, 0) + 1
    return LaurentPoly(coeffs)


@lru_cache(maxsize=4096)
def _q_rook_table(rows: tuple[int, ...], width: int) -> tuple[LaurentPoly, ...]:
    """All q-rook numbers of a board at once, indexed by rook count.

    Scans rows bottom to top carrying the set of columns holding rooks in
    the rows already processed.  The inv contribution of a row depends only
    on rooks strictly below it, so it is decided at the row's own step:
    a skipped row scores one per rook-free column; a rook placed in column
    j scores one per rook-free column strictly to its right.
    """
    m = len(rows)
    k_max = min(m, width)
    # state: occupied-column mask -> list over rook count of q-polynomials
    states: dict[int, list[LaurentPoly]] = {0: [ONE]}
    for mask in reversed(rows):
        nxt: dict[int, list[LaurentPoly]] = {}

        def add(occ: int, k: int, poly: LaurentPoly) -> None:
            lst = nxt.get(occ)
            if lst is None:
                lst = nxt[occ] = []
            while len(lst) <= k:
                lst.append(ZERO)
            lst[k] = lst[k] + poly

        for occ, by_k in states.items():
            skip_exp = width - occ.bit_count()
            for k, poly in enumerate(by_k):
                if not poly.is_zero:
                    add(occ, k, poly * LaurentPoly.monomial(skip_exp))
            free = mask & ~occ
            while free:
                bit = free & -free
                free ^= bit
                j = bit.bit_length()
                place_exp = width - j - (occ >> j).bit_count()
                mono = LaurentPoly.monomial(place_exp)
                for k, poly in enumerate(by_k):
                    if k + 1 <= k_max and not poly.is_zero:
                        add(occ | bit, k + 1, poly * mono)
        states = nxt
    table = [ZERO] * (k_max + 1)
    for by_k in states.values():
        for k, poly in enumerate(by_k):
            table[k] = table[k] + poly
    return tuple(table)


def full_placement_q_poly(board: Board) -> LaurentPoly:
    """Sum of q^inversions over permutations fitting inside a square board.

    Top-to-bottom DP over used-column masks; placing a rook in column j
    below already-placed rooks adds one inversion per used column right of
    j.  Equals q_rook_number(board, n) since inv of a full placement is the
    inversion number of its permutation.
    """
    n = board.height
    if board.width != n:
        raise ValueError("full placements need a square board")
    states: dict[int, dict[int, int]] = {0: {0: 1}}
    for mask in board.rows:
        nxt: dict[int, dict[int, int]] = {}
        for used, by_exp in states.items():
            free = mask & ~used
            while free:
                bit = free & -free
                free ^= bit
                inc = (used >> bit.bit_length()).bit_count()
                tgt = nxt.setdefault(used | bit, {})
                for e, c in by_exp.items():
                    tgt[e + inc] = tgt.get(e + inc, 0) + c
        states = nxt
    coeffs: dict[int, int] = {}
    for by_exp in states.values():
        for e, c in by_exp.items():
            coeffs[e] = coeffs.get(e, 0) + c
    return LaurentPoly(coeffs)


def q_rook_number(board: Board, k: int) -> LaurentPoly:
    """kth q-rook number: sum of q^inv over k-rook placements."""
    if k < 0:
        raise ValueError("rook count must be nonnegative")
    m, n = board.dims
    if k > min(m, n):
        return ZERO
    if k == m == n:
        return full_placement_q_poly(board)
    if n <= _DP_MAX_WIDTH:
        return _q_rook_table(board.rows, n)[k]
    return q_rook_number_brute(board, k)


@lru_cache(maxsize=4096)
def _rook_table(rows: tuple[int, ...], width: int) -> tuple[int, ...]:
    """Ordinary rook numbers by the same mask DP, integer arithmetic only."""
    m = len(rows)
    k_max = min(m, width)
    states: dict[int, list[int]] = {0: [1]}
    for mask in reversed(rows):
        nxt: dict[int, list[int]] = {}
        for occ, by_k in states.items():
            lst = nxt.setdefault(occ, [])
            for k, c in enumerate(by_k):
                while len(lst) <= k:
                    lst.append(0)
                lst[k] += c
            free = mask & ~occ
            while free:
                bit = free & -free
                free ^= bit
                lst = nxt.setdefault(occ | bit, [])
                for k, c in enumerate(by_k):
                    if k + 1 > k_max:
                        break
                    while len(lst) <= k + 1:
                        lst.append(0)
                    lst[k + 1] += c
        states = nxt
    table = [0] * (k_max + 1)
    for by_k in states.values():
        for k, c in enumerate(by_k):
            table[k] += c
    return tuple(table)


def rook_number(board: Board, k: int) -> int:
    """kth rook number: placements of k non-taking rooks on the one-cells."""
    if k < 0:
        raise ValueError("rook count must be nonnegative")
    m, n = board.dims
    if k > min(m, n):
        return 0
    if n <= _DP_MAX_WIDTH:
        return _rook_table(board.rows, n)[k]
    return sum(1 for _ in enumerate_rook_configs(board, k))


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


def _symmetric_max_words(board: Board):
    """Full placements on a 2n x 2n board fixed by 180-degree rotation.

    Rows are filled in the pairs (i, 2n+1-i) from the outside in; the rook
    of the mirror row is forced by symmetry.
    """
    size = board.height
    n = size // 2
    rows = board.rows
    word = [0] * size

    def rec(i: int, used: int):
        if i == n:
            yield tuple(word)
            return
        mirror = size - 1 - i
        free = rows[i] & ~used
        while free:
            bit = free & -free
            free ^= bit
            j = bit.bit_length()
            mbit = 1 << (size - j)
            if mbit & rows[mirror] & ~used:
                word[i] = j
                word[mirror] = size + 1 - j
                yield from rec(i + 1, used | bit | mbit)

    yield from rec(0, 0)


def rb_polynomial(board: Board) -> BiPoly:
    """Generating function q^inversions t^neg over the rotationally
    symmetric full placements of an even square board."""
    size = board.height
    if board.width != size or size % 2:
        raise ValueError("need a square board of even size")
    terms: dict[int, LaurentPoly] = {}
    for word in _symmetric_max_words(board):
        p = Permutation(word)
        t_exp = p.neg_statistic()
        q_term = LaurentPoly.monomial(p.inversions())
        terms[t_exp] = terms.get(t_exp, ZERO) + q_term
    return BiPoly(terms)


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

"""Zero-one boards: Ferrers and skew Ferrers recognition, hulls of
permutations, block compositions, and rook-placement enumeration.

A rook placement is a word: entry i is the column of the rook in row i, or
0 for an empty row.  One enumerator, enumerate_rook_configs, walks the
k-rook placements of a board row by row, as an iterative depth-first
search over column bitmasks.  It returns at once when fewer than k rows
or fewer than k columns hold a one-cell, and fills the last two rows of a
search in one step.  The full placements of a square board (max_configs),
every brute-force rook oracle in rooks.py, and verify's
hull-characterization and order-ideal checks all read it.  A recursive
search that yields the same words in the same order is kept as its oracle
in tests/test_boards.py.

all_skew_ferrers_boards lists every skew Ferrers board of a box from the
definition, as the oracle of the interval-based recogniser
Board.is_skew_ferrers; it reads each row mask from a table built once per
call.

A board is an m x n matrix over {0, 1}, stored as one column bitmask per
row (bit j-1 set means cell (i, j) is a one).  Rows and columns are
1-indexed in the API to match the permutation conventions.  Widths beyond
64 columns are out of scope and rejected at construction.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from .permutations import Permutation, _Record, _check_nonneg_size

__all__ = [
    "Board",
    "MAX_WIDTH",
    "ones",
    "zeros",
    "triangular",
    "block_sharp",
    "right_hull",
    "left_hull",
    "enumerate_rook_configs",
    "max_configs",
    "all_skew_ferrers_boards",
]

MAX_WIDTH = 64


def _check_width(width) -> None:
    """Refuse a board width that is not an int in 0..MAX_WIDTH."""
    if type(width) is not int or not 0 <= width <= MAX_WIDTH:
        raise ValueError(f"board width must be in 0..{MAX_WIDTH}")


def _check_dims(m, n) -> None:
    """Refuse board dimensions that are not nonnegative ints."""
    if type(m) is not int or type(n) is not int or m < 0 or n < 0:
        raise ValueError("dimensions must be nonnegative ints")


def _check_rook_count(k) -> None:
    """Refuse a rook count that is not a nonnegative int, a bool included."""
    if type(k) is not int:
        raise ValueError(f"rook count must be an int, got {k!r}")
    if k < 0:
        raise ValueError("rook count must be nonnegative")


def _check_square(board: Board) -> None:
    """Refuse a board that is not square: it has no full placement."""
    if board.height != board.width:
        raise ValueError("full placements need a square board")


def _check_blocks(a: Board, b: Board) -> None:
    """Refuse a block composition whose blocks are not both square."""
    if a.width != a.height or b.width != b.height:
        raise ValueError("block composition needs square boards")


def _is_left(align) -> bool:
    """Whether align is 'left', after refusing all but 'left' and 'right'."""
    if align not in ("left", "right"):
        raise ValueError("align must be 'left' or 'right'")
    return align == "left"


class Board(_Record):
    """An m x n zero-one matrix with per-row column bitmasks."""

    __slots__ = ("rows", "width")
    rows: tuple[int, ...]
    width: int

    def __init__(self, rows: Iterable[int], width: int):
        rows = tuple(rows)
        _check_width(width)
        full = (1 << width) - 1
        for mask in rows:
            if not isinstance(mask, int) or isinstance(mask, bool) or mask < 0 or mask & ~full:
                raise ValueError("row mask does not fit the declared width")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "width", width)

    @classmethod
    def _trusted(cls, rows: tuple[int, ...], width: int) -> "Board":
        """Wrap row masks that fit the width by construction, without the
        checks of __init__; only the symmetries, intersections, hulls and
        generators that derive them from a valid board or permutation call
        it, after any width check of their own."""
        b = object.__new__(cls)
        object.__setattr__(b, "rows", rows)
        object.__setattr__(b, "width", width)
        return b

    @classmethod
    def from_matrix(cls, matrix: Iterable[Iterable[int]], width: int | None = None) -> "Board":
        rows = []
        for row in matrix:
            cells = list(row)
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError("ragged matrix")
            mask = 0
            for j, v in enumerate(cells):
                if type(v) is not int or v not in (0, 1):
                    raise ValueError(f"matrix entries must be 0 or 1, got {v!r}")
                if v:
                    mask |= 1 << j
            rows.append(mask)
        return cls(tuple(rows), 0 if width is None else width)

    @classmethod
    def parse(cls, text: str) -> "Board":
        """Parse the '#'/'.' text form, one line per row."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty board text")
        bits = {"#": 1, ".": 0}
        for ch in "".join(lines):
            if ch not in bits:
                raise ValueError(f"bad board character {ch!r}")
        return cls.from_matrix(map(bits.get, ln) for ln in lines)

    def to_text(self) -> str:
        return "\n".join(
            "".join("#" if mask >> j & 1 else "." for j in range(self.width))
            for mask in self.rows
        )

    # -- shape queries ------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def dims(self) -> tuple[int, int]:
        return (len(self.rows), self.width)

    def cell(self, i: int, j: int) -> bool:
        if type(i) is not int or type(j) is not int:
            raise ValueError(f"cell indices must be ints, got {i!r} and {j!r}")
        if not (1 <= i <= self.height and 1 <= j <= self.width):
            raise ValueError(f"cell ({i}, {j}) out of range")
        return bool(self.rows[i - 1] >> (j - 1) & 1)

    def one_cells(self) -> Iterator[tuple[int, int]]:
        for i, mask in enumerate(self.rows, start=1):
            m = mask
            while m:
                b = m & -m
                m ^= b
                yield (i, b.bit_length())

    def count_ones(self) -> int:
        return sum(mask.bit_count() for mask in self.rows)

    def count_zeros(self) -> int:
        return self.height * self.width - self.count_ones()

    def row_lengths(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.rows)

    def col_lengths(self) -> tuple[int, ...]:
        """Column heights, read from the row masks, so a board of any
        height has them."""
        return tuple(sum(mask >> j & 1 for mask in self.rows) for j in range(self.width))

    # -- symmetries -----------------------------------------------------------

    def transpose(self) -> "Board":
        """The n x m board whose row j is column j of this one.  A board of
        more than MAX_WIDTH rows has no transpose, so it is refused."""
        _check_width(len(self.rows))
        return Board._trusted(_transpose_masks(self.rows, self.width), len(self.rows))

    def flip_ud(self) -> "Board":
        return Board._trusted(self.rows[::-1], self.width)

    def mirror_lr(self) -> "Board":
        return Board._trusted(tuple(_revbits(m, self.width) for m in self.rows), self.width)

    def rotate180(self) -> "Board":
        return Board._trusted(tuple(_revbits(m, self.width) for m in self.rows[::-1]), self.width)

    # -- shape predicates -------------------------------------------------------

    def is_ferrers(self, align: str) -> bool:
        """Ferrers in the given alignment: each one-cell has a one directly
        above, and directly toward the aligned side (when those cells exist)."""
        if _is_left(align):
            return self.mirror_lr().is_ferrers("right")
        top = (1 << self.width) - 1 >> 1  # all but the rightmost column
        prev = (1 << self.width) - 1
        for mask in self.rows:
            if mask & top & ~(mask >> 1):
                return False  # a one with a zero directly to its right
            if mask & ~prev:
                return False  # a one with a zero directly above
            prev = mask
        return True

    def is_skew_ferrers(self, align: str) -> bool:
        """Difference of nested Ferrers shapes in the given alignment.

        Fast interval test: every row is contiguous, the end columns of the
        nonempty rows move weakly rightward going down, and rows separated by
        an empty row do not overlap in columns.  Cross-checked against the
        definitional shape-difference enumeration in the test suite.
        """
        if _is_left(align):
            return self.mirror_lr().is_skew_ferrers("right")
        prev_span = None  # (lo, hi) of the previous nonempty row
        gap_since_prev = False
        for mask in self.rows:
            if mask == 0:
                gap_since_prev = True
                continue
            lo = (mask & -mask).bit_length()
            hi = mask.bit_length()
            if mask != _interval_mask(lo, hi):
                return False  # row is not a contiguous interval
            if prev_span is not None:
                plo, phi = prev_span
                if lo < plo or hi < phi:
                    return False
                if gap_since_prev and lo <= phi:
                    return False
            prev_span = (lo, hi)
            gap_since_prev = False
        return True

    def intersect(self, other: "Board") -> "Board":
        if self.dims != other.dims:
            raise ValueError("boards must share dimensions")
        return Board._trusted(tuple(a & b for a, b in zip(self.rows, other.rows)), self.width)

    def __str__(self):
        return self.to_text()


def _transpose_masks(rows: tuple[int, ...], width: int) -> tuple[int, ...]:
    """The column masks of the rows (bit i of entry j set when row i has a
    one in column j + 1), for any number of rows; Board.transpose and the
    rook DPs read them."""
    cols = [0] * width
    for i, mask in enumerate(rows):
        bit = 1 << i
        while mask:
            low = mask & -mask
            mask ^= low
            cols[low.bit_length() - 1] |= bit
    return tuple(cols)


def _revbits(mask: int, width: int) -> int:
    """The mask with column j + 1 moved to column width - j, for a mask of
    at most width bits: its binary digits read backwards, shifted up to
    width bits."""
    return int(bin(mask)[:1:-1], 2) << (width - mask.bit_length())


def _interval_mask(lo: int, hi: int) -> int:
    """Bitmask of columns lo..hi inclusive (empty when lo > hi)."""
    if lo > hi:
        return 0
    return ((1 << hi) - 1) ^ ((1 << (lo - 1)) - 1)


# -- stock boards -------------------------------------------------------------


def ones(m: int, n: int) -> Board:
    _check_dims(m, n)
    return Board((((1 << n) - 1),) * m, n)


def zeros(m: int, n: int) -> Board:
    _check_dims(m, n)
    return Board((0,) * m, n)


def triangular(n: int) -> Board:
    """The n x n staircase: cell (i, j) is a one iff i <= n - j + 1."""
    _check_nonneg_size(n)
    return Board(tuple((1 << (n - i)) - 1 for i in range(n)), n)


def block_sharp(top_left: Board, bottom_right: Board) -> Board:
    """Block matrix with the two boards on the diagonal and ones elsewhere.

    top_left is n x n, bottom_right is m x m; the result is (n+m) x (n+m).
    """
    _check_blocks(top_left, bottom_right)
    n, m = top_left.height, bottom_right.height
    right_ones = ((1 << m) - 1) << n
    left_ones = (1 << n) - 1
    rows = tuple(mask | right_ones for mask in top_left.rows) + tuple(
        left_ones | (mask << n) for mask in bottom_right.rows
    )
    return Board(rows, n + m)


# -- hulls --------------------------------------------------------------------


def right_hull(p: Permutation) -> Board:
    """Smallest right-aligned skew Ferrers board covering the permutation.

    Row i spans the column interval from min of the values at or below i to
    max of the values at or above i.  A permutation of more than MAX_WIDTH
    letters has no hull board and is refused.
    """
    w = p.word
    _check_width(len(w))
    lo = list(accumulate(reversed(w), min))[::-1]
    hi = accumulate(w, max)
    return Board._trusted(tuple(_interval_mask(a, b) for a, b in zip(lo, hi)), len(w))


def left_hull(p: Permutation) -> Board:
    """Smallest left-aligned skew Ferrers board covering the permutation."""
    return right_hull(p.flip_ud()).flip_ud()


# _DOWN[v] and _UP[v]: the columns 1..v, and the columns v, v + 1, ... as a
# negative int; an OR of _DOWN masks is the _DOWN mask of the largest letter,
# and an OR of _UP masks the _UP mask of the smallest
_DOWN = tuple((1 << v) - 1 for v in range(MAX_WIDTH + 1))
_UP = (0,) + tuple(-1 << v - 1 for v in range(1, MAX_WIDTH + 1))


def _pair_rows(w: Sequence[int], u: Sequence[int]) -> tuple[int, ...] | None:
    """The row masks of right_hull(w) intersected with left_hull(u), for two
    words of one length, or None when a row is empty; a word of more than
    MAX_WIDTH letters is refused first.

    Row i spans [max(min w[i:], min u[:i+1]), min(max w[:i+1], max u[i:])]:
    it is the AND of four running ORs, one accumulate scan each, over the
    columns up to or from each letter (_DOWN, _UP).  On the inverse words it
    gives the board's column masks, since the transpose of a hull is the
    hull of the inverse.
    """
    _check_width(len(w))
    down, up = _DOWN.__getitem__, _UP.__getitem__
    w_lo = list(accumulate(map(up, reversed(w)), or_))[::-1]
    u_hi = list(accumulate(map(down, reversed(u)), or_))[::-1]
    rows = tuple(map(and_, map(and_, accumulate(map(down, w), or_), w_lo),
                     map(and_, accumulate(map(up, u), or_), u_hi)))
    return rows if all(rows) else None


# -- rook placements ----------------------------------------------------------


def enumerate_rook_configs(board: Board, k: int) -> Iterator[tuple[int, ...]]:
    """Every k-rook placement on the board's one-cells, each exactly once, as
    a word giving the column of the rook in each row, or 0 for an empty row.

    Each row tries its free columns left to right and is left empty last,
    and only while more rows remain than rooks still to place.  The search
    is an iterative depth-first search: the stack holds, per row, the
    columns taken above it and the options not yet tried, as one bitmask in
    which the bit just past the last column stands for the empty row, so
    that the lowest option is always the next one in that order.  A row
    with one rook left yields a word for each free column at once.

    Two shortcuts keep the same words in the same order.  A board with
    fewer nonempty rows or fewer nonempty columns than k has no placement,
    so the search returns before it starts.  When the last two rows must
    both take a rook, the second-last row pairs each of its free columns,
    left to right, with each column of the last row that it leaves free,
    left to right, and yields those words in one step instead of
    descending a row for each.
    """
    _check_rook_count(k)
    rows = board.rows
    m = len(rows)
    if k > m - rows.count(0) or k > reduce(or_, rows, 0).bit_count():
        return
    if k == 0:
        yield (0,) * m
        return
    empty = 1 << board.width
    word = [0] * m
    taken = [0] * m
    options = [0] * m
    i, used = 0, 0
    while True:
        left = k - used.bit_count()
        c = rows[i] & ~used
        if left == 1:
            while c:
                low = c & -c
                c ^= low
                word[i] = low.bit_length()
                yield tuple(word)
            word[i] = 0
        elif left == 2 and i == m - 2:
            # the last two rows both take a rook: pair each free column of
            # this row with each column of the last row that it leaves free
            last = rows[-1] & ~used
            while c:
                low = c & -c
                c ^= low
                word[i] = low.bit_length()
                free = last & ~low
                while free:
                    b = free & -free
                    free ^= b
                    word[-1] = b.bit_length()
                    yield tuple(word)
            word[i] = word[-1] = 0
        if m - i > left:
            c |= empty
        taken[i], options[i] = used, c
        # take the next option of the deepest row that has one
        while not options[i]:
            word[i] = 0
            i -= 1
            if i < 0:
                return
        c = options[i]
        low = c & -c
        options[i] = c ^ low
        used = taken[i]
        if low == empty:
            word[i] = 0
        else:
            word[i] = low.bit_length()
            used |= low
        i += 1


def max_configs(board: Board) -> set[Permutation]:
    """The permutations whose full rook placement fits inside a square board."""
    _check_square(board)
    words = enumerate_rook_configs(board, board.height)
    return {Permutation._trusted(word) for word in words}


# -- exhaustive skew Ferrers generation (shared by tests and verification) ----


@lru_cache(maxsize=None, typed=True)
def all_skew_ferrers_boards(m: int, n: int, align: str = "right") -> tuple[Board, ...]:
    """Every m x n skew Ferrers board, built from the definition.

    Walks the nested pairs of Ferrers shapes in the m x n box row by row,
    depth first on an explicit stack: row i takes lambda_i <= lambda_(i-1)
    and mu_i <= min(mu_(i-1), lambda_i), and the board keeps the cells of
    lambda not in mu.  The mask of each (lambda_i, mu_i) is read from a
    table built once per call, and the boards completed by the last row go
    straight into a set.  Distinct differences are returned sorted by their
    rows.  Deliberately definitional; it is the oracle against which the
    interval-based recogniser is checked.
    """
    _check_dims(m, n)
    if _is_left(align):
        return tuple(b.mirror_lr() for b in all_skew_ferrers_boards(m, n, "right"))
    _check_width(n)
    # cells[lam][mu] is the row of lambda_i = lam and mu_i = mu, as a
    # one-mask tuple
    cells = [
        [(_interval_mask(n - lam + 1, n - mu),) for mu in range(lam + 1)]
        for lam in range(n + 1)
    ]
    shapes: set[tuple[int, ...]] = set()
    stack = [((), n, n)]  # (rows so far, lambda and mu of the last row)
    while stack:
        rows, lam, mu = stack.pop()
        if len(rows) == m:  # only when m = 0
            shapes.add(rows)
        elif len(rows) == m - 1:
            # every row allowed last completes a board
            shapes.update(rows + cell for row in cells[: lam + 1] for cell in row[: mu + 1])
        else:
            stack.extend(
                (rows + cells[lam_i][mu_i], lam_i, mu_i)
                for lam_i in range(lam + 1)
                for mu_i in range(min(mu, lam_i) + 1)
            )
    return tuple(Board._trusted(rows, n) for rows in sorted(shapes))

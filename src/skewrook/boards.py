"""Zero-one boards: Ferrers and skew Ferrers recognition, hulls of
permutations, block compositions, and rook-configuration enumeration.

One enumerator walks the rook placements of a board, row by row; the
k-rook configurations (enumerate_rook_configs) and the full placements of
a square board (max_configs) are both read from it, and so is every
brute-force rook oracle in rooks.py.

A board is an m x n matrix over {0, 1}, stored as one column bitmask per
row (bit j-1 set means cell (i, j) is a one).  Rows and columns are
1-indexed in the API to match the permutation conventions.  Widths beyond
64 columns are out of scope and rejected at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations_with_replacement
from typing import Iterable, Iterator

from .permutations import Permutation

__all__ = [
    "Board",
    "RookConfig",
    "MAX_WIDTH",
    "ones",
    "zeros",
    "triangular",
    "block_sharp",
    "right_hull",
    "left_hull",
    "covers",
    "enumerate_rook_configs",
    "max_configs",
    "all_skew_ferrers_boards",
]

MAX_WIDTH = 64


@dataclass(frozen=True)
class Board:
    """An m x n zero-one matrix with per-row column bitmasks."""

    rows: tuple[int, ...]
    width: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not 0 <= self.width <= MAX_WIDTH:
            raise ValueError(f"board width must be in 0..{MAX_WIDTH}")
        full = (1 << self.width) - 1
        for mask in self.rows:
            if not isinstance(mask, int) or mask < 0 or mask & ~full:
                raise ValueError("row mask does not fit the declared width")

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
                if v not in (0, 1):
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
        width = len(lines[0])
        rows = []
        for ln in lines:
            if len(ln) != width:
                raise ValueError("ragged board text")
            mask = 0
            for j, ch in enumerate(ln):
                if ch == "#":
                    mask |= 1 << j
                elif ch != ".":
                    raise ValueError(f"bad board character {ch!r}")
            rows.append(mask)
        return cls(tuple(rows), width)

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
        return self.transpose().row_lengths()

    # -- symmetries -----------------------------------------------------------

    def transpose(self) -> "Board":
        """The n x m board whose row j is column j of this one.  A board of
        more than MAX_WIDTH rows has no transpose, so it is refused here and
        in col_lengths."""
        cols = [0] * self.width
        for i, mask in enumerate(self.rows):
            bit = 1 << i
            while mask:
                low = mask & -mask
                mask ^= low
                cols[low.bit_length() - 1] |= bit
        return Board(tuple(cols), len(self.rows))

    def flip_ud(self) -> "Board":
        return Board(self.rows[::-1], self.width)

    def mirror_lr(self) -> "Board":
        return Board(tuple(_revbits(m, self.width) for m in self.rows), self.width)

    def rotate180(self) -> "Board":
        return Board(tuple(_revbits(m, self.width) for m in self.rows[::-1]), self.width)

    # -- shape predicates -------------------------------------------------------

    def is_ferrers(self, align: str) -> bool:
        """Ferrers in the given alignment: each one-cell has a one directly
        above, and directly toward the aligned side (when those cells exist)."""
        if align == "left":
            return self.mirror_lr().is_ferrers("right")
        if align != "right":
            raise ValueError("align must be 'left' or 'right'")
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
        if align == "left":
            return self.mirror_lr().is_skew_ferrers("right")
        if align != "right":
            raise ValueError("align must be 'left' or 'right'")
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
        return Board(tuple(a & b for a, b in zip(self.rows, other.rows)), self.width)

    def __str__(self):
        return self.to_text()


def _revbits(mask: int, width: int) -> int:
    out = 0
    for j in range(width):
        if mask >> j & 1:
            out |= 1 << (width - 1 - j)
    return out


def _interval_mask(lo: int, hi: int) -> int:
    """Bitmask of columns lo..hi inclusive (empty when lo > hi)."""
    if lo > hi:
        return 0
    return ((1 << hi) - 1) ^ ((1 << (lo - 1)) - 1)


# -- stock boards -------------------------------------------------------------


def ones(m: int, n: int) -> Board:
    if m < 0 or n < 0:
        raise ValueError("dimensions must be nonnegative")
    return Board((((1 << n) - 1),) * m, n)


def zeros(m: int, n: int) -> Board:
    if m < 0 or n < 0:
        raise ValueError("dimensions must be nonnegative")
    return Board((0,) * m, n)


def triangular(n: int) -> Board:
    """The n x n staircase: cell (i, j) is a one iff i <= n - j + 1."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    return Board(tuple((1 << (n - i)) - 1 for i in range(n)), n)


def block_sharp(top_left: Board, bottom_right: Board) -> Board:
    """Block matrix with the two boards on the diagonal and ones elsewhere.

    top_left is n x n, bottom_right is m x m; the result is (n+m) x (n+m).
    """
    n, m = top_left.height, bottom_right.height
    if top_left.width != n or bottom_right.width != m:
        raise ValueError("block composition needs square boards")
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
    max of the values at or above i.
    """
    w = p.word
    lo = list(accumulate(reversed(w), min))[::-1]
    hi = accumulate(w, max)
    return Board(tuple(_interval_mask(a, b) for a, b in zip(lo, hi)), len(w))


def left_hull(p: Permutation) -> Board:
    """Smallest left-aligned skew Ferrers board covering the permutation."""
    return right_hull(p.flip_ud()).flip_ud()


# -- rook configurations -------------------------------------------------------


@dataclass(frozen=True)
class RookConfig:
    """A set of cells, no two sharing a row or a column."""

    cells: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "cells", frozenset(self.cells))
        rows = [i for i, _ in self.cells]
        cols = [j for _, j in self.cells]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("rooks must occupy distinct rows and columns")

    @classmethod
    def of(cls, *cells: tuple[int, int]) -> "RookConfig":
        return cls(frozenset(cells))

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        return iter(sorted(self.cells))


def covers(board: Board, config: RookConfig) -> bool:
    """True if every rook sits on a one-cell of the board."""
    m, n = board.dims
    return all(
        1 <= i <= m and 1 <= j <= n and board.cell(i, j) for i, j in config.cells
    )


def _rook_words(board: Board, k: int) -> Iterator[tuple[int, ...]]:
    """Every k-rook placement on the board's one-cells, each exactly once, as
    a word giving the column of the rook in each row, or 0 for an empty row.

    Each row tries its free columns left to right and is left empty last,
    and only while more rows remain than rooks still to place.
    """
    rows = board.rows
    m = len(rows)
    word = [0] * m

    def rec(i: int, used: int, left: int) -> Iterator[tuple[int, ...]]:
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


def enumerate_rook_configs(board: Board, k: int) -> Iterator[RookConfig]:
    """All k-rook placements on the board's one-cells, each exactly once."""
    if k < 0:
        raise ValueError("rook count must be nonnegative")
    for word in _rook_words(board, k):
        yield RookConfig(frozenset((i, j) for i, j in enumerate(word, 1) if j))


def max_configs(board: Board) -> set[Permutation]:
    """The permutations whose full rook placement fits inside a square board."""
    if board.height != board.width:
        raise ValueError("full placements need a square board")
    return {Permutation(word) for word in _rook_words(board, board.height)}


# -- exhaustive skew Ferrers generation (shared by tests and verification) ----


@cache
def all_skew_ferrers_boards(m: int, n: int, align: str = "right") -> tuple[Board, ...]:
    """Every m x n skew Ferrers board, built from the definition.

    Enumerates all nested pairs of Ferrers shapes in the m x n box and takes
    their differences, deduplicated.  Deliberately definitional; it is the
    oracle against which the interval-based recogniser is checked.
    """
    if align == "left":
        return tuple(
            b.mirror_lr() for b in all_skew_ferrers_boards(m, n, "right")
        )
    if align != "right":
        raise ValueError("align must be 'left' or 'right'")
    seen: set[tuple[int, ...]] = set()
    out: list[Board] = []
    # the weakly decreasing m-tuples over 0..n, largest first
    partitions = list(combinations_with_replacement(range(n, -1, -1), m))
    for lam in partitions:
        for mu in partitions:
            if any(mu[i] > lam[i] for i in range(m)):
                continue
            rows = tuple(
                _interval_mask(n - lam[i] + 1, n - mu[i]) for i in range(m)
            )
            if rows not in seen:
                seen.add(rows)
                out.append(Board(rows, n))
    out.sort(key=lambda b: b.rows)
    return tuple(out)

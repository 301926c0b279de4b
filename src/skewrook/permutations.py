"""Permutations of [n] in one-line notation: inversion, descent and sign
statistics, Bruhat order, interval enumeration, and pattern containment.

The Bruhat machinery here is the project's oracle, so it tests nothing but
the rank-count criterion: u <= v iff #{a <= i : u(a) >= j} is at most the
same count of v for every i and j.  Row i of those counts reads only the
first i letters of a word.  So comparison builds the rows one at a time and
stops at the first failing row, and interval enumeration is a depth-first
search over prefixes that extends a prefix only while its row holds.  A
pruned prefix has no completion in the interval, and a complete word passed
every row, so the search accepts exactly the words that a filter of all of
S_n accepts, in the same order.

Pattern containment guards every rook-route Poincare polynomial, so it too
is a depth-first search, one that extends a partial occurrence only while it
stays order-isomorphic to the pattern's prefix.  The plain scans these
searches replace, the C(n, k) position sets and the filter of S_n by full
rank tables, are kept as oracles in tests/test_permutations.py.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .qalgebra import BiPoly, LaurentPoly

__all__ = [
    "Permutation",
    "FORBIDDEN_PATTERNS",
    "all_permutations",
    "bruhat_leq",
    "bruhat_interval",
    "poincare_brute",
    "eulerian_gf",
]


@dataclass(frozen=True)
class Permutation:
    """A permutation of [n] = {1, ..., n}, 1-indexed throughout.

    word[i-1] is the image of i.  Text forms: space separated ("3 5 1 2 4")
    for any n, or a compact digit string ("35124") when n <= 9.
    """

    word: tuple[int, ...]

    def __post_init__(self):
        w = tuple(self.word)
        object.__setattr__(self, "word", w)
        if sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"{w!r} is not a permutation of [{len(w)}]")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 0:
            raise ValueError("size must be nonnegative")
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        s = text.strip()
        if not s:
            raise ValueError("empty permutation text")
        spaced = any(ch.isspace() for ch in s)
        tokens = s.split() if spaced else list(s)
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise ValueError(f"bad permutation text {text!r}")
        if not spaced and len(s) > 9:
            raise ValueError("compact digit form only covers n <= 9")
        return cls(tuple(int(tok) for tok in tokens))

    def to_text(self) -> str:
        if self.size <= 9:
            return "".join(str(v) for v in self.word)
        return " ".join(str(v) for v in self.word)

    # -- basics -------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.word)

    def __len__(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.word):
            raise ValueError(f"position {i} out of range 1..{len(self.word)}")
        return self.word[i - 1]

    def __str__(self):
        return self.to_text()

    # -- statistics ----------------------------------------------------------

    def inversions(self) -> int:
        """Number of pairs i < j with word(i) > word(j); the Coxeter length."""
        return _inversions(self.word)

    def rank_count(self, i: int, j: int) -> int:
        """Number of a <= i with word(a) >= j."""
        n = len(self.word)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"indices ({i}, {j}) out of range 1..{n}")
        return sum(1 for a in range(i) if self.word[a] >= j)

    def descent_number(self) -> int:
        return _descents(self.word)

    def neg_statistic(self) -> int:
        """For even size 2n, the count of i in [n+1, 2n] with word(i) <= n."""
        n2 = len(self.word)
        if n2 % 2:
            raise ValueError("neg statistic needs an even size")
        n = n2 // 2
        return sum(1 for i in range(n, n2) if self.word[i] <= n)

    # -- symmetries ------------------------------------------------------------

    def flip_ud(self) -> "Permutation":
        """Reverse the positions: result(i) = word(n + 1 - i)."""
        return Permutation(self.word[::-1])

    def rotate180(self) -> "Permutation":
        """Reverse positions and complement values: result(i) = n+1-word(n+1-i)."""
        n = len(self.word)
        return Permutation(tuple(n + 1 - v for v in self.word[::-1]))

    # -- patterns ---------------------------------------------------------------

    def contains_pattern(self, pattern: "Permutation") -> bool:
        """True if some subsequence of the word is order-isomorphic to pattern."""
        return self._find_pattern(pattern) is not None

    def _find_pattern(self, pattern: "Permutation") -> Optional[tuple[int, ...]]:
        """The lexicographically first occurrence of pattern, as 1-indexed
        positions, or None.

        "First" is in itertools.combinations order over the position sets,
        so the answer is the one a plain scan of all C(n, k) sets would
        return.  The search fixes positions left to right; at step d the
        value must lie strictly between the values already matched to the
        pattern entries nearest below and nearest above pat[d], and the
        position may not pass n - k + d.  Pruned branches hold no
        occurrence, so the first leaf reached is the first occurrence.
        """
        word, pat = self.word, pattern.word
        n, k = len(word), len(pat)
        if k > n:
            return None
        bounds = _prefix_bounds(pat)
        # vals[t] is the value matched to pat[t]; slots k and k+1 are the
        # sentinels 0 and n+1 that _prefix_bounds names for a missing side
        vals = [0] * k + [0, n + 1]
        positions = [0] * k

        def extend(d: int, start: int) -> bool:
            if d == k:
                return True
            lo_t, hi_t = bounds[d]
            lo, hi = vals[lo_t], vals[hi_t]
            for i in range(start, n - k + d + 1):
                v = word[i]
                if lo < v < hi:
                    vals[d] = v
                    positions[d] = i + 1
                    if extend(d + 1, i + 1):
                        return True
            return False

        return tuple(positions) if extend(0, 0) else None

    def find_forbidden(self) -> Optional[tuple["Permutation", tuple[int, ...]]]:
        """First forbidden pattern occurrence, as (pattern, 1-indexed positions)."""
        for pat in FORBIDDEN_PATTERNS:
            hit = self._find_pattern(pat)
            if hit is not None:
                return pat, hit
        return None

    def avoids_forbidden(self) -> bool:
        """True if the word avoids 4231, 35142, 42513 and 351624: exactly
        when the full placements of its right hull form the lower Bruhat
        interval [id, w]."""
        return self.find_forbidden() is None


@lru_cache(maxsize=64)
def _prefix_bounds(pat: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """For each step d, the steps t < d whose pattern entries are nearest
    below and nearest above pat[d]; k and k + 1 stand for "none"."""
    k = len(pat)
    bounds = []
    for d, v in enumerate(pat):
        below = [t for t in range(d) if pat[t] < v]
        above = [t for t in range(d) if pat[t] > v]
        bounds.append(
            (
                max(below, key=pat.__getitem__, default=k),
                min(above, key=pat.__getitem__, default=k + 1),
            )
        )
    return tuple(bounds)


FORBIDDEN_PATTERNS = (
    Permutation((4, 2, 3, 1)),
    Permutation((3, 5, 1, 4, 2)),
    Permutation((4, 2, 5, 1, 3)),
    Permutation((3, 5, 1, 6, 2, 4)),
)


def all_permutations(n: int) -> Iterator[Permutation]:
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)


# -- word-level helpers (used by the sweeps, kept free of object overhead) ---


def _inversions(word: tuple[int, ...]) -> int:
    n = len(word)
    return sum(1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j])


def _descents(word: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(word) - 1) if word[i] > word[i + 1])


def _rank_table(word: tuple[int, ...]) -> list[list[int]]:
    """t[i][j] = #{a <= i : word(a) >= j} for 0 <= i <= n, 1 <= j <= n."""
    n = len(word)
    table = [[0] * (n + 1)]
    for i in range(1, n + 1):
        prev = table[-1]
        v = word[i - 1]
        table.append([prev[j] + (1 if v >= j else 0) for j in range(n + 1)])
    return table


def _interval_words(u: tuple[int, ...], w: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Yield every word v of S_n with u <= v <= w, in itertools.permutations
    order, by a depth-first search over prefixes.

    Row i of the rank-count criterion reads only the first i letters, so a
    prefix that breaks a row has no completion in the interval, and a word
    whose every prefix keeps its row is in it.  Per row only the constraints
    (j, lo, hi) that can bind are kept.  Placing v adds 1 to the count k of
    placed values >= j exactly when v >= j: if only k + 1 lies in [lo, hi]
    the row forces v >= j, if only k does it forces v < j, and if neither
    does the prefix is dead.  So each row admits one window [vlo, vhi] of
    values, and trying its free values in increasing order keeps the
    lexicographic order.  Row n holds for every word, so the last letter is
    the one value left.  The stack holds, per row, the values placed above
    it and the candidates not yet tried, as bitmasks over 1..n.
    """
    n = len(u)
    if len(w) != n:
        raise ValueError("permutations must have the same size")
    if n < 2:  # S_0 and S_1 have one word, in every interval
        yield u
        return
    ut, wt = _rank_table(u), _rank_table(w)
    row_cons: list[tuple[tuple[int, int, int], ...]] = []
    for i in range(1, n + 1):
        cons = []
        for j in range(2, n + 1):
            lo, hi = ut[i][j], wt[i][j]
            if lo > max(0, i - j + 1) or hi < min(i, n - j + 1):
                cons.append((j, lo, hi))
        row_cons.append(tuple(cons))
    full = (2 << n) - 2
    leaf = n - 2
    word = [0] * n
    placed = [0] * n
    cands = [0] * n
    i, m = 0, 0
    while True:
        # the free values in row i's window; vhi = 0 empties it
        vlo, vhi = 1, n
        for j, lo, hi in row_cons[i]:
            k = (m >> j).bit_count()
            if k < lo:
                if k + 1 < lo or k >= hi:
                    vhi = 0
                    break
                if j > vlo:
                    vlo = j
            elif k >= hi:
                if k > hi:
                    vhi = 0
                    break
                if j <= vhi:
                    vhi = j - 1
        c = ((2 << vhi) - 1) >> vlo << vlo & ~m
        if i == leaf:
            while c:
                low = c & -c
                c ^= low
                word[i] = low.bit_length() - 1
                word[i + 1] = (full ^ m ^ low).bit_length() - 1
                yield tuple(word)
        else:
            placed[i], cands[i] = m, c
            i += 1
        # place the next candidate of the deepest row that has one
        while True:
            i -= 1
            if i < 0:
                return
            c = cands[i]
            if c:
                break
        low = c & -c
        cands[i] = c ^ low
        word[i] = low.bit_length() - 1
        m = placed[i] | low
        i += 1


def bruhat_leq(p: Permutation, r: Permutation) -> bool:
    """Bruhat order: p <= r iff every rank count of p is at most that of r.

    The rank rows are built one row at a time, as d[j] = #{a <= i : r(a) >= j}
    - #{a <= i : p(a) >= j}, and the answer is False at the first row where
    some d[j] goes negative.  Row i differs from row i - 1 only for j between
    p(i) and r(i), and can go negative only when p(i) > r(i).
    """
    if p.size != r.size:
        raise ValueError("permutations must have the same size")
    d = [0] * (p.size + 1)
    for a, b in zip(p.word, r.word):
        if a > b:
            for j in range(b + 1, a + 1):
                d[j] -= 1
                if d[j] < 0:
                    return False
        else:
            for j in range(a + 1, b + 1):
                d[j] += 1
    return True


def bruhat_interval(u: Permutation, w: Permutation) -> set[Permutation]:
    """The set {v : u <= v <= w}; empty when u and w are incomparable."""
    return {Permutation(word) for word in _interval_words(u.word, w.word)}


def poincare_brute(u: Permutation, w: Permutation) -> LaurentPoly:
    """Sum of q^length over the Bruhat interval [u, w], by enumerating it."""
    return LaurentPoly(Counter(_inversions(v) for v in _interval_words(u.word, w.word)))


def eulerian_gf(u: Permutation, w: Permutation) -> BiPoly:
    """Sum of t^descents q^length over the Bruhat interval [u, w]."""
    counts = Counter((_descents(v), _inversions(v)) for v in _interval_words(u.word, w.word))
    return BiPoly((d, LaurentPoly.monomial(l, c)) for (d, l), c in counts.items())

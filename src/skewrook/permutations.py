"""Permutations of [n] in one-line notation: inversion, descent and sign
statistics, Bruhat order, interval enumeration, and pattern containment.

The Bruhat machinery here is the project's oracle, so it tests nothing but
the rank-count criterion: u <= v iff #{a <= i : u(a) >= j} is at most the
same count of v for every i and j.  Row i of those counts reads only the
first i letters of a word.  So comparison builds the rows one at a time and
stops at the first failing row.  Interval enumeration builds the rows of both
ends first and stops there for an incomparable pair; otherwise a depth-first
search extends a prefix only while its row holds.  A pruned prefix has no
completion in the interval, and a complete word passed every row, so the
search accepts exactly the words a filter of S_n accepts, in order.

Avoidance of 4231, 35142, 42513 and 351624 guards every rook-route Poincare
polynomial.  It is decided without a search, by the criterion of Gasharov
and Reiner (J. London Math. Soc. 66, 2002): with c(i) = n + 1 - w(i), w
avoids the four patterns exactly when every box of Fulton's essential set
of c (Duke Math. J. 65, 1992) carries one of two extreme rank values, read
off one bitmask of the values of c seen so far in a few int operations per
descent of c.  Only a word that fails it is searched for a witness, by a
depth-first search that extends a partial occurrence only while it stays
order-isomorphic to the pattern's prefix.  The search is one loop over a
stack of per-step position iterators, not a recursion, so no pattern is
too long for it.  It is the witness route and the criterion's oracle.  The
plain scans the searches replace (the C(n, k) position sets, the filter of
S_n by full rank tables) and the criterion's sorted-prefix form are kept as
oracles in tests/test_permutations.py.

_Record, the base of the package's immutable records, lives here, in the
lowest module that defines one.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import Counter
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


class _Record:
    """Base of the package's immutable records (Permutation, Board,
    CosetRepA, SignedPermutation, CheckResult).

    A subclass names its fields in __slots__ and sets each in its own
    __init__, after its checks, through object.__setattr__.  Fields cannot
    be assigned or deleted; equality holds only between records of one class
    with equal fields; the hash is the hash of the field tuple; the repr
    reads Name(field=value, ...); and copy and pickle rebuild a record
    through its own __init__.  The records are plain classes so that
    importing the package stays cheap.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # Board keys the rook-table caches and Permutation fills interval
        # sets, so __eq__ and __hash__ are generated per class, building the
        # field tuple inline: a generic loop over __slots__ costs several
        # times as much per call.
        this = "".join(f"self.{name}, " for name in cls.__slots__)
        that = this.replace("self.", "other.")
        namespace: dict = {}
        exec(
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({this}) == ({that})\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({this}))\n",
            namespace,
        )
        cls.__eq__, cls.__hash__ = namespace["__eq__"], namespace["__hash__"]

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = zip(self.__slots__, self._astuple())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self):
        return type(self), self._astuple()


def _check_nonneg_size(n) -> None:
    """Refuse a size that is not a nonnegative int, a bool included."""
    if type(n) is not int:
        raise ValueError(f"size must be an int, got {n!r}")
    if n < 0:
        raise ValueError("size must be nonnegative")


class Permutation(_Record):
    """A permutation of [n] = {1, ..., n}, 1-indexed throughout.

    word[i-1] is the image of i.  Text forms: space separated ("3 5 1 2 4")
    for any n, or a compact digit string ("35124") when n <= 9.
    """

    __slots__ = ("word",)
    word: tuple[int, ...]

    def __init__(self, word: tuple[int, ...]):
        w = tuple(word)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in w):
            raise ValueError(f"{w!r} has a letter that is not an int")
        if sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"{w!r} is not a permutation of [{len(w)}]")
        object.__setattr__(self, "word", w)

    @classmethod
    def _trusted(cls, word: tuple[int, ...]) -> "Permutation":
        """Wrap a tuple that is a permutation by construction, without the
        checks of __init__; only the enumerators and symmetries that build
        their words from one call it."""
        p = object.__new__(cls)
        object.__setattr__(p, "word", word)
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        _check_nonneg_size(n)
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
        if type(i) is not int:
            raise ValueError(f"position must be an int, got {i!r}")
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
        if type(i) is not int or type(j) is not int:
            raise ValueError(f"indices must be ints, got {i!r} and {j!r}")
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
        return Permutation._trusted(self.word[::-1])

    def rotate180(self) -> "Permutation":
        """Reverse positions and complement values: result(i) = n+1-word(n+1-i)."""
        n = len(self.word)
        return Permutation._trusted(tuple(n + 1 - v for v in self.word[::-1]))

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
        occurrence, so the first leaf reached is the first occurrence.  It is
        one loop over a stack of iterators, one per step, over the positions
        not yet tried: a match pushes the next step's, and an exhausted one
        is popped, so that the step before resumes its own where it stopped.
        """
        word, pat = self.word, pattern.word
        n, k = len(word), len(pat)
        # below[d], above[d]: the pattern values nearest pat[d] among pat[:d],
        # with 0 and k + 1 for a missing side
        below, above = [], []
        seen = [0, k + 1]
        for v in pat:
            r = bisect_right(seen, v)
            below.append(seen[r - 1])
            above.append(seen[r])
            seen.insert(r, v)
        # matched[p] is the letter matched to pattern value p; the sentinels
        # 0 and k + 1 match 0 and n + 1
        matched = [0] * (k + 2)
        matched[k + 1] = n + 1
        positions = [0] * k
        tries = [iter(range(n - k + 1))]
        while tries:
            d = len(tries) - 1
            if d == k:
                return tuple(positions)
            lo, hi = matched[below[d]], matched[above[d]]
            for i in tries[d]:
                v = word[i]
                if lo < v < hi:
                    break
            else:
                tries.pop()
                continue
            matched[pat[d]] = v
            positions[d] = i + 1
            tries.append(iter(range(i + 1, n - k + d + 2)))
        return None

    def find_forbidden(self) -> Optional[tuple["Permutation", tuple[int, ...]]]:
        """First forbidden pattern occurrence, as (pattern, 1-indexed positions).

        An avoider is answered at once by Gasharov and Reiner's rank
        conditions on Fulton's essential set (_avoids_forbidden).  Only a
        word that fails them runs the depth-first search of _find_pattern,
        pattern by pattern, so the witness is the first occurrence of the
        first pattern that occurs.  The search is the witness route and the
        criterion's oracle; if it finds no occurrence where the criterion
        said there is one, the two disagree and RuntimeError is raised.
        """
        if _avoids_forbidden(self.word):
            return None
        for pat in FORBIDDEN_PATTERNS:
            hit = self._find_pattern(pat)
            if hit is not None:
                return pat, hit
        raise RuntimeError(
            f"the essential-set criterion rejects {self.to_text()} but no forbidden pattern occurs"
        )

    def avoids_forbidden(self) -> bool:
        """True if the word avoids 4231, 35142, 42513 and 351624: exactly
        when the full placements of its right hull form the lower Bruhat
        interval [id, w].  Decided by Gasharov and Reiner's rank conditions
        on Fulton's essential set alone (_avoids_forbidden); no occurrence
        is searched for."""
        return _avoids_forbidden(self.word)


FORBIDDEN_PATTERNS = (
    Permutation((4, 2, 3, 1)),
    Permutation((3, 5, 1, 4, 2)),
    Permutation((4, 2, 5, 1, 3)),
    Permutation((3, 5, 1, 6, 2, 4)),
)


def all_permutations(n: int) -> Iterator[Permutation]:
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation._trusted(word)


# -- word-level helpers (for the sweeps and verify, free of object overhead) --


def _inversions(word: tuple[int, ...]) -> int:
    """Pairs i < j with word(i) > word(j), for distinct positive letters: each
    letter counts the larger letters before it in a bitmask of those seen."""
    seen = total = 0
    for v in word:
        total += (seen >> v).bit_count()
        seen |= 1 << v
    return total


def _descents(word: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(word) - 1) if word[i] > word[i + 1])


def _avoids_forbidden(word: tuple[int, ...]) -> bool:
    """True if the word avoids 4231, 35142, 42513 and 351624, by the
    essential-set criterion of Gasharov and Reiner (J. London Math. Soc. 66,
    2002) on Fulton's essential set (Duke Math. J. 65, 1992).

    Let c(i) = n + 1 - w(i).  The diagram of c is the boxes (i, j) with
    j < c(i) and i < c^-1(j); a box is essential when neither (i + 1, j) nor
    (i, j + 1) is in it.  With r(i, j) = #{a <= i : c(a) <= j}, w avoids
    the four patterns exactly when every essential box has r = 0 or
    r = i + j - n.  Row i holds essential boxes only at a descent of c, at
    c(i + 1) <= j < c(i), and there (i, j) is essential exactly when j is
    not among c(1..i) and j + 1 is.  With seen the bitmask of c(1..i), those
    j are the set bits of ((1 << c(i)) - (1 << c(i + 1))) & ~seen &
    (seen >> 1), read here shifted down by c(i + 1), and r(i, j) counts the
    set bits of seen up to bit j: a few int operations per descent of c and
    one more per box.  Permutation._find_pattern is this test's oracle.
    """
    n, seen = len(word), 0
    for i in range(1, n):
        top, low = n + 1 - word[i - 1], n + 1 - word[i]
        seen |= 1 << top
        if low < top:
            window = seen >> low & (2 << top - low) - 1
            boxes = window >> 1 & ~window
            while boxes:
                j = low + (boxes & -boxes).bit_length() - 1
                boxes &= boxes - 1
                r = (seen & (2 << j) - 1).bit_count()
                if r and r != i + j - n:
                    return False
    return True


def _interval_words(u: tuple[int, ...], w: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Yield every word v of S_n with u <= v <= w, in itertools.permutations
    order, by a depth-first search over prefixes.

    Row i of the rank-count criterion reads only the first i letters, so a
    prefix that breaks a row has no completion in the interval, and a word
    whose every prefix keeps its row is in it.  The setup builds the rank
    rows of u and w, each from the row before, keeps per row only the
    constraints (j, lo, hi) that can bind, and returns at the first lo > hi:
    u is not below w there.  Placing v adds 1 to the count k of placed values
    >= j exactly when v >= j.  The bounds never fall and rise by at most one
    per row, and each earlier row was kept, so lo <= k + 1 and k <= hi at
    every node: k < lo forces v >= j, k = hi forces v < j, and as lo <= hi
    never both.  So each row admits one window [vlo, vhi] of values, and
    trying its free values in increasing order keeps the lexicographic order.
    A window can still hold no free value; the search then backs up.  Row n
    holds for every word, so the last letter is the one value left.  The stack
    holds, per row, the values placed above it and the candidates not yet
    tried, as bitmasks over 1..n.  The free values of a window depend only on
    the set m of values placed above it, whose size is the row, so each is
    worked out once per call and kept in a dict keyed by m: at most 2^n
    entries, and never more than the nodes the search visits.
    """
    n = len(u)
    if len(w) != n:
        raise ValueError("permutations must have the same size")
    if n < 2:  # S_0 and S_1 have one word, in every interval
        yield u
        return
    # row i of #{a <= i : u(a) >= j} and of the same count for w
    urow, wrow = [0] * (n + 1), [0] * (n + 1)
    row_cons: list[tuple[tuple[int, int, int], ...]] = []
    for i, (x, y) in enumerate(zip(u, w), 1):
        cons = []
        for j in range(2, n + 1):
            urow[j] += x >= j
            wrow[j] += y >= j
            lo, hi = urow[j], wrow[j]
            if lo > max(0, i - j + 1) or hi < min(i, n - j + 1):
                if lo > hi:  # u is not below w
                    return
                cons.append((j, lo, hi))
        row_cons.append(tuple(cons))
    full = (2 << n) - 2
    leaf = n - 2
    windows: dict[int, int] = {}  # free values of the window, by m
    word = [0] * n
    placed = [0] * n
    cands = [0] * n
    i, m = 0, 0
    while True:
        # the free values in row i's window
        c = windows.get(m)
        if c is None:
            vlo, vhi = 1, n
            for j, lo, hi in row_cons[i]:
                k = (m >> j).bit_count()
                if k < lo:
                    if j > vlo:
                        vlo = j
                elif k >= hi:
                    if j <= vhi:
                        vhi = j - 1
            c = windows[m] = ((2 << vhi) - 1) >> vlo << vlo & ~m
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
    return {Permutation._trusted(word) for word in _interval_words(u.word, w.word)}


def poincare_brute(u: Permutation, w: Permutation) -> LaurentPoly:
    """Sum of q^length over the Bruhat interval [u, w], by enumerating it."""
    return LaurentPoly(Counter(_inversions(v) for v in _interval_words(u.word, w.word)))


def eulerian_gf(u: Permutation, w: Permutation) -> BiPoly:
    """Sum of t^descents q^length over the Bruhat interval [u, w]."""
    counts = Counter((_descents(v), _inversions(v)) for v in _interval_words(u.word, w.word))
    return BiPoly((d, LaurentPoly.monomial(l, c)) for (d, l), c in counts.items())

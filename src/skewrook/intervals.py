"""Bruhat intervals through rook theory.

The pattern-avoidance characterisation of lower intervals that coincide
with the full placements of a right hull; Poincare polynomials of general
intervals via the q-rook number of intersected hulls; closed forms and a
polynomial-time counting recurrence for the intervals below minimal coset
representatives, in the symmetric group and in the hyperoctahedral group
embedded as rotationally symmetric permutations.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import Counter
from math import factorial
from typing import Iterator

from .boards import left_hull, max_configs, right_hull
from .permutations import Permutation, _Record, bruhat_leq
from .qalgebra import (
    ZERO,
    LaurentPoly,
    _add_dense,
    _dense,
    _from_dense,
    _times_q_int,
    poly_bernoulli,
    q_factorial,
    q_stirling,
    stirling2,
)
from .rooks import q_rook_number, rb_polynomial

__all__ = [
    "PatternViolationError",
    "CosetRepA",
    "SignedPermutation",
    "hull_interval_elements",
    "poincare_via_rook",
    "max_coset_rep_A",
    "coset_reps_A",
    "reduce_coset_rep",
    "count_lower_interval_dp",
    "theoremA_poincare",
    "theorem8_counts",
    "aztec_interval_size",
    "max_coset_rep_B",
    "rank_B",
    "symmetric_permutations",
    "theoremB_poincare",
    "poincare_B_via_rook",
    "poincare_B_brute",
]


class PatternViolationError(ValueError):
    """A permutation contains one of the four forbidden patterns."""

    def __init__(self, perm: Permutation, pattern: Permutation,
                 positions: tuple[int, ...], role: str):
        self.perm = perm
        self.pattern = pattern
        self.positions = positions
        self.role = role
        super().__init__(
            f"{role} = {perm.to_text()} contains the pattern "
            f"{pattern.to_text()} at positions {list(positions)}"
        )


def _require_avoiding(p: Permutation, role: str) -> None:
    hit = p.find_forbidden()
    if hit is not None:
        pattern, positions = hit
        raise PatternViolationError(p, pattern, positions, role)


def hull_interval_elements(p: Permutation) -> set[Permutation]:
    """The lower interval [id, p], read off as full placements of the right
    hull of p.  Only valid for pattern-avoiding p; raises otherwise, after
    the hull has refused a word wider than a board."""
    hull = right_hull(p)
    _require_avoiding(p, "pi")
    return max_configs(hull)


def poincare_via_rook(u: Permutation, w: Permutation) -> LaurentPoly:
    """Poincare polynomial of the interval [u, w], as the top q-rook number
    of the intersection of the right hull of w with the left hull of u.

    Requires that w and the upside-down flip of u avoid the four patterns;
    the raised error names the offending side.  The hulls are built first,
    so a word wider than a board is refused before either pattern scan.
    """
    if u.size != w.size:
        raise ValueError("u and w must have the same size")
    board = right_hull(w).intersect(left_hull(u))
    _require_avoiding(w, "w")
    _require_avoiding(u.flip_ud(), "flip_ud(u)")
    return q_rook_number(board, w.size)


# -- minimal coset representatives, symmetric group ----------------------------


class CosetRepA(_Record):
    """A permutation increasing on positions 1..k and on k+1..n.

    These are the minimal-length representatives of the cosets modulo the
    subgroup generated by all adjacent transpositions except the kth.
    k = n is allowed (the identity after reduction).
    """

    __slots__ = ("n", "k", "w")
    n: int
    k: int
    w: Permutation

    def __init__(self, n: int, k: int, w: Permutation):
        if type(n) is not int or type(k) is not int:
            raise ValueError("n and k must be ints")
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        if w.size != n:
            raise ValueError("word size differs from n")
        word = w.word
        for i in range(n - 1):
            if i + 1 != k and word[i] > word[i + 1]:
                raise ValueError(f"word must increase away from position {k}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "w", w)


def _check_n_and_k(n: int, k: int) -> None:
    """Refuse (n, k) unless both are ints, not bools, and 1 <= k <= n-1."""
    if type(n) is not int or type(k) is not int:
        raise ValueError(f"n and k must be ints, got {n!r} and {k!r}")
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")


def _check_size(n: int, least: int) -> None:
    """Refuse a size n that is not an int, a bool included, or is below least."""
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    if n < least:
        raise ValueError(f"need n >= {least}")


def max_coset_rep_A(n: int, k: int) -> CosetRepA:
    """The longest representative: word (n-k+1, ..., n, 1, ..., n-k)."""
    _check_n_and_k(n, k)
    word = tuple(range(n - k + 1, n + 1)) + tuple(range(1, n - k + 1))
    return CosetRepA(n, k, Permutation(word))


def coset_reps_A(n: int, k: int) -> Iterator[CosetRepA]:
    """All representatives for the given n and k, in lexicographic order of
    the first increasing run."""
    _check_n_and_k(n, k)
    universe = range(1, n + 1)
    for first in itertools.combinations(universe, k):
        rest = tuple(v for v in universe if v not in first)
        yield CosetRepA(n, k, Permutation(first + rest))


def reduce_coset_rep(rep: CosetRepA) -> CosetRepA:
    """Truncate to the equivalent representative with w(k) maximal.

    When w(k) < n the tail of the word is forced to be n-w(k)+1, ..., n, and
    the lower interval of w is isomorphic to that of the truncated word
    inside the smaller symmetric group.  Idempotent.
    """
    cut = rep.w(rep.k)
    if cut == rep.n:
        return rep
    word = rep.w.word[: cut]
    return CosetRepA(cut, rep.k, Permutation(word))


def _dp_rows(rep: CosetRepA) -> Iterator[list[int]]:
    """The rows f(a, .) behind count_lower_interval_dp, for a reduced rep,
    yielded for a = n down to 1; only the current row is held, O(k) integers.

    f is indexed by column a in 1..n and rook deficit b in 0..k, with
    f(n, b) a Kronecker delta and, going right to left,
    f(a, b) = (c_a - a - b + 1) * (f(a+1, b) + f(a+1, b-1)), where the
    second addend only appears when a is a value of the first run and c_a
    is the column height of the enclosing shape.
    """
    k = rep.k
    word = rep.w.word
    first_run = set(word[:k])
    tail = sorted(word[k:])
    row = [1] + [0] * k
    yield row
    for a in range(rep.n - 1, 0, -1):
        # c_a - a + 1, with c_a = k full rows plus the tail rows reaching a
        top = k + bisect_right(tail, a) - a + 1
        if a in first_run:
            row = [x + y for x, y in zip(row, [0] + row)]
        row = [(top - b) * x for b, x in enumerate(row)]
        yield row


def count_lower_interval_dp(rep: CosetRepA) -> int:
    """Number of elements below the representative in Bruhat order,
    computed in polynomial time by the alternating-sum recurrence, which
    carries one row of O(k) integers."""
    for row in _dp_rows(reduce_coset_rep(rep)):
        pass
    return sum((-1) ** b * v for b, v in enumerate(row))


def theoremA_poincare(n: int, k: int) -> LaurentPoly:
    """Closed form for the Poincare polynomial of the lower interval under
    max_coset_rep_A(n, k):

        q^{(n-k)k} * sum_i S_{k+1,i+1}(1/q) S_{n-k+1,i+1}(1/q) [i]!_q^2 q^i.

    Terms with i > m = min(k, n-k) vanish.  Since [i]!_q^2 q^i is the
    product of q [j]_q^2 over j <= i, the sum is taken by Horner's rule:
    with c_i = S_{k+1,i+1}(1/q) S_{n-k+1,i+1}(1/q), start at acc = c_m and
    step acc <- c_i + q [i+1]_q^2 acc for i = m-1, ..., 0.  acc is a dense
    coefficient list, each factor [i+1]_q a linear-time window sum, so the
    one polynomial product left per step is c_i's.  The result is an
    ordinary polynomial with constant term 1 and degree k(n-k).
    """
    _check_n_and_k(n, k)
    lo, acc = 0, []
    for i in range(min(k, n - k), -1, -1):
        if acc:
            acc = _times_q_int(_times_q_int(acc, i + 1), i + 1)
            lo += 1
        c = (q_stirling(k + 1, i + 1) * q_stirling(n - k + 1, i + 1)).substitute_q_inverse()
        lo = _add_dense(lo, acc, *_dense(c))
    return _from_dense(lo + (n - k) * k, acc)


def theorem8_counts(n: int, k: int) -> tuple[int, int, int]:
    """The size of the lower interval under max_coset_rep_A(n, k) as
    (double-Stirling sum, alternating sum, poly-Bernoulli number).  The
    first two are independent; by Kaneko's formula the alternating sum
    (-1)^k sum_i (-1)^i (i+1)^(n-k) i! S(k, i) is B_k^(k-n) itself, so
    poly_bernoulli computes it once for the last two places."""
    _check_n_and_k(n, k)
    symmetric = sum(
        stirling2(k + 1, i + 1) * stirling2(n - k + 1, i + 1) * factorial(i) ** 2
        for i in range(k + 1)
    )
    alternating = poly_bernoulli(k, k - n)
    return (symmetric, alternating, alternating)


def aztec_interval_size(n: int) -> int:
    """Number of elements of [flip_ud(w), w] for the middle maximal coset
    representative w of the symmetric group on 2n letters; the enclosing
    board is the order-n Aztec diamond and the count is 2^n.  Coset
    representatives avoid the four patterns, so the guard always passes."""
    _check_size(n, 1)
    w = max_coset_rep_A(2 * n, n).w
    return poincare_via_rook(w.flip_ud(), w).evaluate_at_one()


# -- hyperoctahedral group ------------------------------------------------------


class SignedPermutation(_Record):
    """An element of the hyperoctahedral group on n symbols, stored as a
    rotationally symmetric permutation of 2n letters."""

    __slots__ = ("p",)
    p: Permutation

    def __init__(self, p: Permutation):
        if p.size % 2:
            raise ValueError("need even size")
        if p.rotate180() != p:
            raise ValueError("permutation is not rotationally symmetric")
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.p.size // 2


def rank_B(s: SignedPermutation) -> int:
    """Coxeter length in the hyperoctahedral group: (inversions + neg) / 2."""
    total = s.p.inversions() + s.p.neg_statistic()
    if total % 2:
        raise RuntimeError("inversions + neg must be even for a symmetric permutation")
    return total // 2


def max_coset_rep_B(n: int) -> SignedPermutation:
    """The longest representative modulo the parabolic subgroup generated by
    everything but the sign generator: the word (n+1, ..., 2n, 1, ..., n)."""
    _check_size(n, 1)
    word = tuple(range(n + 1, 2 * n + 1)) + tuple(range(1, n + 1))
    return SignedPermutation(Permutation(word))


def symmetric_permutations(n: int) -> Iterator[SignedPermutation]:
    """All 2^n n! rotationally symmetric permutations of 2n letters."""
    _check_size(n, 0)
    size = 2 * n
    for half in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((False, True), repeat=n):
            word = [0] * size
            for i, (v, flip) in enumerate(zip(half, signs)):
                val = size + 1 - v if flip else v
                word[i] = val
                word[size - 1 - i] = size + 1 - val
            yield SignedPermutation(Permutation._trusted(tuple(word)))


def theoremB_poincare(n: int) -> LaurentPoly:
    """Closed form for the rank generating function of the lower interval
    under max_coset_rep_B(n):

        q^{binom(n+1,2)} * sum_i S_{n+1,i+1}(1/q) [i]!_q.
    """
    _check_size(n, 1)
    total = ZERO
    for i in range(n + 1):
        total = total + q_stirling(n + 1, i + 1).substitute_q_inverse() * q_factorial(i)
    return LaurentPoly.monomial(n * (n + 1) // 2) * total


def poincare_B_via_rook(n: int) -> LaurentPoly:
    """The same rank generating function through the signed hull
    polynomial: rb_polynomial of the right hull of max_coset_rep_B(n), with
    sqrt(q) substituted for both q and t.  Raises RuntimeError when a term
    has an odd combined exponent, which would become a half-integer power
    of q."""
    rb = rb_polynomial(right_hull(max_coset_rep_B(n).p))
    terms = [(q_exp + t_exp, c) for t_exp, coeff in rb.items() for q_exp, c in coeff.items()]
    if any(e % 2 for e, _ in terms):
        raise RuntimeError("odd combined exponent in the signed route")
    return LaurentPoly((e // 2, c) for e, c in terms)


def poincare_B_brute(n: int) -> LaurentPoly:
    """Oracle: sum of q^rank_B over the symmetric permutations below
    max_coset_rep_B(n) in the Bruhat order of the ambient symmetric group."""
    w = max_coset_rep_B(n).p
    return LaurentPoly(Counter(rank_B(s) for s in symmetric_permutations(n) if bruhat_leq(s.p, w)))

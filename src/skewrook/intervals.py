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
from dataclasses import dataclass
from math import factorial
from typing import Iterator

from .boards import left_hull, max_configs, right_hull
from .permutations import Permutation, bruhat_leq
from .qalgebra import (
    ZERO,
    LaurentPoly,
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
    hull of p.  Only valid for pattern-avoiding p; raises otherwise."""
    _require_avoiding(p, "pi")
    return max_configs(right_hull(p))


def poincare_via_rook(u: Permutation, w: Permutation) -> LaurentPoly:
    """Poincare polynomial of the interval [u, w], as the top q-rook number
    of the intersection of the right hull of w with the left hull of u.

    Requires that w and the upside-down flip of u avoid the four patterns;
    the raised error names the offending side.
    """
    if u.size != w.size:
        raise ValueError("u and w must have the same size")
    _require_avoiding(w, "w")
    _require_avoiding(u.flip_ud(), "flip_ud(u)")
    board = right_hull(w).intersect(left_hull(u))
    return q_rook_number(board, w.size)


# -- minimal coset representatives, symmetric group ----------------------------


@dataclass(frozen=True)
class CosetRepA:
    """A permutation increasing on positions 1..k and on k+1..n.

    These are the minimal-length representatives of the cosets modulo the
    subgroup generated by all adjacent transpositions except the kth.
    k = n is allowed (the identity after reduction).
    """

    n: int
    k: int
    w: Permutation

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        if self.w.size != self.n:
            raise ValueError("word size differs from n")
        word = self.w.word
        for i in range(self.n - 1):
            if i + 1 != self.k and word[i] > word[i + 1]:
                raise ValueError(f"word must increase away from position {self.k}")


def max_coset_rep_A(n: int, k: int) -> CosetRepA:
    """The longest representative: word (n-k+1, ..., n, 1, ..., n-k)."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    word = tuple(range(n - k + 1, n + 1)) + tuple(range(1, n - k + 1))
    return CosetRepA(n, k, Permutation(word))


def coset_reps_A(n: int, k: int) -> Iterator[CosetRepA]:
    """All representatives for the given n and k, in lexicographic order of
    the first increasing run."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
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


def _dp_table(rep: CosetRepA) -> list[list[int]]:
    """The table f(a, b) behind count_lower_interval_dp, for a reduced rep.

    f is indexed by column a in 1..n and rook deficit b in 0..k, with
    f(n, b) a Kronecker delta and, going right to left,
    f(a, b) = (c_a - a - b + 1) * (f(a+1, b) + f(a+1, b-1)), where the
    second addend only appears when a is a value of the first run and c_a
    is the column height of the enclosing shape.
    """
    n, k = rep.n, rep.k
    word = rep.w.word
    first_run = set(word[:k])
    tail = sorted(word[k:])
    # column heights: k full rows plus the tail rows reaching column j
    heights = [k + bisect_right(tail, j) for j in range(1, n + 1)]
    f = [[0] * (k + 1) for _ in range(n + 1)]  # f[a][b], a in 1..n
    f[n][0] = 1
    for a in range(n - 1, 0, -1):
        in_run = a in first_run
        for b in range(k + 1):
            acc = f[a + 1][b]
            if in_run and b > 0:
                acc += f[a + 1][b - 1]
            f[a][b] = (heights[a - 1] - a - b + 1) * acc
    return f[1:]


def count_lower_interval_dp(rep: CosetRepA) -> int:
    """Number of elements below the representative in Bruhat order,
    computed in polynomial time by the alternating-sum recurrence."""
    table = _dp_table(reduce_coset_rep(rep))
    return sum((-1) ** b * v for b, v in enumerate(table[0]))


def theoremA_poincare(n: int, k: int) -> LaurentPoly:
    """Closed form for the Poincare polynomial of the lower interval under
    max_coset_rep_A(n, k):

        q^{(n-k)k} * sum_i S_{k+1,i+1}(1/q) S_{n-k+1,i+1}(1/q) [i]!_q^2 q^i.

    Terms with i > min(k, n-k) vanish.  The result is an ordinary
    polynomial with constant term 1 and degree k(n-k).
    """
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    total = ZERO
    for i in range(k + 1):
        term = q_stirling(k + 1, i + 1).substitute_q_inverse()
        term = term * q_stirling(n - k + 1, i + 1).substitute_q_inverse()
        fact = q_factorial(i)
        term = term * fact * fact * LaurentPoly.monomial(i)
        total = total + term
    return LaurentPoly.monomial((n - k) * k) * total


def theorem8_counts(n: int, k: int) -> tuple[int, int, int]:
    """The size of the lower interval under max_coset_rep_A(n, k) as
    (double-Stirling sum, alternating sum, poly-Bernoulli number).  The
    first two are independent; by Kaneko's formula the alternating sum
    (-1)^k sum_i (-1)^i (i+1)^(n-k) i! S(k, i) is B_k^(k-n) itself, so
    poly_bernoulli computes it once for the last two places."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
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
    if n < 1:
        raise ValueError("need n >= 1")
    w = max_coset_rep_A(2 * n, n).w
    return poincare_via_rook(w.flip_ud(), w).evaluate_at_one()


# -- hyperoctahedral group ------------------------------------------------------


@dataclass(frozen=True)
class SignedPermutation:
    """An element of the hyperoctahedral group on n symbols, stored as a
    rotationally symmetric permutation of 2n letters."""

    p: Permutation

    def __post_init__(self):
        if self.p.size % 2:
            raise ValueError("need even size")
        if self.p.rotate180() != self.p:
            raise ValueError("permutation is not rotationally symmetric")

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
    if n < 1:
        raise ValueError("need n >= 1")
    word = tuple(range(n + 1, 2 * n + 1)) + tuple(range(1, n + 1))
    return SignedPermutation(Permutation(word))


def symmetric_permutations(n: int) -> Iterator[SignedPermutation]:
    """All 2^n n! rotationally symmetric permutations of 2n letters."""
    if n < 0:
        raise ValueError("need n >= 0")
    size = 2 * n
    for half in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((False, True), repeat=n):
            word = [0] * size
            for i, (v, flip) in enumerate(zip(half, signs)):
                val = size + 1 - v if flip else v
                word[i] = val
                word[size - 1 - i] = size + 1 - val
            yield SignedPermutation(Permutation(tuple(word)))


def theoremB_poincare(n: int) -> LaurentPoly:
    """Closed form for the rank generating function of the lower interval
    under max_coset_rep_B(n):

        q^{binom(n+1,2)} * sum_i S_{n+1,i+1}(1/q) [i]!_q.
    """
    if n < 1:
        raise ValueError("need n >= 1")
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
    total: dict[int, int] = {}
    for t_exp, coeff in rb.items():
        for q_exp, c in coeff.items():
            combined = q_exp + t_exp
            if combined % 2:
                raise RuntimeError("odd combined exponent in the signed route")
            e = combined // 2
            total[e] = total.get(e, 0) + c
    return LaurentPoly(total)


def poincare_B_brute(n: int) -> LaurentPoly:
    """Oracle: sum of q^rank_B over the symmetric permutations below
    max_coset_rep_B(n) in the Bruhat order of the ambient symmetric group."""
    w = max_coset_rep_B(n).p
    return LaurentPoly(Counter(rank_B(s) for s in symmetric_permutations(n) if bruhat_leq(s.p, w)))

"""Self-verification sweeps: every theorem, closed form and recurrence in the
package checked against a brute-force oracle at configurable scale.

Each suite returns CheckResult records; the CLI renders them.  All sweeps are
deterministic (fixed seeds, sorted iteration) and clamp their scale to the
documented limits, warning when a request exceeds them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial
from typing import Callable, Iterator, Optional

from .boards import (
    Board,
    all_skew_ferrers_boards,
    block_sharp,
    max_configs,
    ones,
    right_hull,
    triangular,
)
from .intervals import (
    aztec_interval_size,
    coset_reps_A,
    count_lower_interval_dp,
    max_coset_rep_A,
    max_coset_rep_B,
    poincare_B_brute,
    poincare_B_via_rook,
    poincare_via_rook,
    rank_B,
    symmetric_permutations,
    theoremA_poincare,
    theoremB_poincare,
    theorem8_counts,
)
from .permutations import (
    Permutation,
    all_permutations,
    bruhat_interval,
    bruhat_leq,
    poincare_brute,
)
from .qalgebra import (
    LaurentPoly,
    poly_bernoulli,
    q_factorial,
    q_stirling,
    stirling2,
)
from .rooks import (
    garsia_remmel_product,
    gjw_product,
    q_rook_number,
    q_rook_number_brute,
    q_rook_poly,
    rb_polynomial,
    sharp_q_rook,
    sharp_rb,
    t_board_q_rook,
)

__all__ = ["CheckResult", "SUITES", "run_suite", "bjorner_ekedahl_violation"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# documented scale limits and the defaults used when --max-n is absent
_LIMITS = {"stirling": 8, "rook": 4, "intervals": 7, "typeB": 4}
_DEFAULTS = {"stirling": 6, "rook": 3, "intervals": 5, "typeB": 3}


def bjorner_ekedahl_violation(poly: LaurentPoly) -> Optional[tuple[int, int]]:
    """First (i, j) with f_i > f_j and 0 <= i < j <= length - i, if any.

    f_i is the number of interval elements i ranks above the bottom, read off
    the polynomial after shifting away its minimal exponent.
    """
    lo = poly.min_exp()
    length = poly.degree() - lo
    f = [poly.coefficient(lo + i) for i in range(length + 1)]
    for i in range(length + 1):
        for j in range(i + 1, length - i + 1):
            if f[i] > f[j]:
                return (i, j)
    return None


def _ferrers_boards(side: int, align: str) -> Iterator[Board]:
    for m in range(1, side + 1):
        for n in range(1, side + 1):
            for b in all_skew_ferrers_boards(m, n, align):
                if b.is_ferrers(align):
                    yield b


def _square_boards(n: int) -> Iterator[Board]:
    for rows in range(1 << (n * n)):
        yield Board(
            tuple((rows >> (n * i)) & ((1 << n) - 1) for i in range(n)), n
        )


def _suite_stirling(max_n: int) -> Iterator[CheckResult]:
    bad = [
        (n, k)
        for n in range(max_n + 1)
        for k in range(n + 1)
        if q_rook_number(triangular(n), k) != t_board_q_rook(n, k)
    ]
    yield CheckResult(
        "stirling.staircase",
        not bad,
        f"q-rook numbers of T_n match the q-Stirling form, n <= {max_n}"
        + (f"; first failure {bad[0]}" if bad else ""),
    )

    bad = [
        n
        for n in range(max_n + 1)
        if q_rook_number(ones(n, n), n) != q_factorial(n)
    ]
    yield CheckResult(
        "stirling.full-square",
        not bad,
        f"top q-rook number of the full n x n board is [n]!_q, n <= {max_n}"
        + (f"; first failure n={bad[0]}" if bad else ""),
    )

    bad = [
        (n, k)
        for n in range(max_n + 2)
        for k in range(n + 1)
        if q_stirling(n, k).evaluate_at_one() != stirling2(n, k)
    ]
    yield CheckResult(
        "stirling.q-one",
        not bad,
        "q-Stirling numbers reduce to Stirling numbers at q = 1"
        + (f"; first failure {bad[0]}" if bad else ""),
    )

    bad = [
        (n, k)
        for n in range(max_n + 1)
        for k in range(max_n + 1)
        if poly_bernoulli(n, -k) != poly_bernoulli(k, -n)
    ]
    yield CheckResult(
        "stirling.poly-bernoulli-symmetry",
        not bad,
        f"B_n^(-k) = B_k^(-n) for n, k <= {max_n}"
        + (f"; first failure {bad[0]}" if bad else ""),
    )


def _suite_rook(side: int) -> Iterator[CheckResult]:
    exhaust = min(side, 3)
    count = 0
    bad = None
    for m in range(1, exhaust + 1):
        for n in range(1, exhaust + 1):
            for code in range(1 << (m * n)):
                rows = tuple((code >> (n * i)) & ((1 << n) - 1) for i in range(m))
                b = Board(rows, n)
                for k in range(min(m, n) + 1):
                    if q_rook_number(b, k) != q_rook_number_brute(b, k):
                        bad = bad or (rows, k)
                count += 1
    yield CheckResult(
        "rook.dp-vs-brute",
        bad is None,
        f"mask DP agrees with direct enumeration on all {count} boards within "
        f"{exhaust}x{exhaust}" + (f"; first failure {bad}" if bad else ""),
    )

    checks = 0
    bad = None
    for b in _ferrers_boards(side, "right"):
        for x in range(5):
            if gjw_product(b, b.width, x) != q_rook_poly(b, b.width, x).evaluate_at_one():
                bad = bad or (b.to_text(), x)
            checks += 1
    yield CheckResult(
        "rook.factored-rook-poly",
        bad is None,
        f"right-aligned factorization matches the defining sum at q = 1 "
        f"({checks} evaluations within {side}x{side})"
        + (f"; first failure {bad}" if bad else ""),
    )

    checks = 0
    bad = None
    for b in _ferrers_boards(side, "left"):
        for x in range(5):
            if garsia_remmel_product(b, b.width, x) != q_rook_poly(b, b.width, x):
                bad = bad or (b.to_text(), x)
            checks += 1
    yield CheckResult(
        "rook.factored-q-rook-poly",
        bad is None,
        f"left-aligned q-factorization matches the defining sum "
        f"({checks} evaluations within {side}x{side})"
        + (f"; first failure {bad}" if bad else ""),
    )

    pair_side = min(side, 2)
    bad = None
    pairs = 0
    squares = [b for n in range(pair_side + 1) for b in _square_boards(n)]
    for a in squares:
        for b in squares:
            if sharp_q_rook(a, b) != q_rook_number(
                block_sharp(b, a), a.width + b.width
            ):
                bad = bad or (a.to_text(), b.to_text())
            pairs += 1
    yield CheckResult(
        "rook.block-composition",
        bad is None,
        f"block composition formula matches the direct top q-rook number on "
        f"{pairs} square pairs within {pair_side}x{pair_side}"
        + (f"; first failure {bad}" if bad else ""),
    )

    rng = random.Random(11)
    bad = None
    for _ in range(120):
        n = rng.randint(1, side)
        b = Board(tuple(rng.randrange(1 << n) for _ in range(n)), n)
        lhs = q_rook_number(b.flip_ud(), n)
        rhs = q_rook_number(b, n).substitute_q_inverse()
        rhs = LaurentPoly.monomial(n * (n - 1) // 2) * rhs
        if lhs != rhs:
            bad = bad or b.to_text()
    yield CheckResult(
        "rook.flip-inversion",
        bad is None,
        "flipping a square board inverts q in the top q-rook number "
        "(120 seeded random boards)" + (f"; first failure {bad}" if bad else ""),
    )


def _suite_intervals(max_n: int) -> Iterator[CheckResult]:
    thm4_n = min(max_n, 6)
    bad = None
    total = 0
    for n in range(1, thm4_n + 1):
        ident = Permutation.identity(n)
        for p in all_permutations(n):
            equal = max_configs(right_hull(p)) == bruhat_interval(ident, p)
            if equal != p.avoids_forbidden():
                bad = bad or p.word
            total += 1
    yield CheckResult(
        "intervals.hull-characterization",
        bad is None,
        f"hull placements equal the lower interval exactly for pattern "
        f"avoiders ({total} permutations, n <= {thm4_n})"
        + (f"; first failure {bad}" if bad else ""),
    )

    rng = random.Random(5)
    pair_n = min(max_n, 5)
    produced: list[LaurentPoly] = []
    bad = None
    checked = 0
    for n in range(2, pair_n + 1):
        perms = list(all_permutations(n))
        for _ in range(40):
            u, w = rng.choice(perms), rng.choice(perms)
            if not (w.avoids_forbidden() and u.flip_ud().avoids_forbidden()):
                continue
            got = poincare_via_rook(u, w)
            if got != poincare_brute(u, w):
                bad = bad or (u.word, w.word)
            if not got.is_zero:
                produced.append(got)
            checked += 1
    yield CheckResult(
        "intervals.poincare-via-rook",
        bad is None,
        f"rook-number route matches brute force on {checked} seeded pairs, "
        f"n <= {pair_n}" + (f"; first failure {bad}" if bad else ""),
    )

    thm6_n = min(max_n, 7)
    bad = None
    for n in range(2, thm6_n + 1):
        ident = Permutation.identity(n)
        for k in range(1, n):
            got = theoremA_poincare(n, k)
            if got != poincare_brute(ident, max_coset_rep_A(n, k).w):
                bad = bad or (n, k)
            produced.append(got)
    yield CheckResult(
        "intervals.closed-form-A",
        bad is None,
        f"closed form matches brute force for every maximal representative, "
        f"n <= {thm6_n}" + (f"; first failure {bad}" if bad else ""),
    )

    dp_n = min(max_n, 7)
    bad = None
    reps = 0
    for n in range(2, dp_n + 1):
        ident = Permutation.identity(n)
        for k in range(1, n):
            for rep in coset_reps_A(n, k):
                if count_lower_interval_dp(rep) != len(
                    bruhat_interval(ident, rep.w)
                ):
                    bad = bad or (n, k, rep.w.word)
                reps += 1
    yield CheckResult(
        "intervals.dp-count",
        bad is None,
        f"recurrence count equals brute interval size for all {reps} "
        f"representatives, n <= {dp_n}" + (f"; first failure {bad}" if bad else ""),
    )

    bad = None
    for n in range(2, 11):
        for k in range(1, n):
            a, b, c = theorem8_counts(n, k)
            dp = count_lower_interval_dp(max_coset_rep_A(n, k))
            formula = theoremA_poincare(n, k).evaluate_at_one()
            if not a == b == c == dp == formula:
                bad = bad or (n, k, (a, b, c, dp, formula))
    yield CheckResult(
        "intervals.three-counts",
        bad is None,
        "double-Stirling, alternating and poly-Bernoulli counts agree with "
        "the recurrence and the closed form at q = 1, n <= 10"
        + (f"; first failure {bad}" if bad else ""),
    )

    bad = None
    for n in range(1, 5):
        if aztec_interval_size(n) != 2 ** n:
            bad = bad or n
    for n in (1, 2):
        w = max_coset_rep_A(2 * n, n).w
        if aztec_interval_size(n) != len(bruhat_interval(w.flip_ud(), w)):
            bad = bad or ("brute", n)
    yield CheckResult(
        "intervals.aztec",
        bad is None,
        "diamond-shaped middle intervals have 2^n elements, n <= 4, and match "
        "brute force for n <= 2" + (f"; first failure {bad}" if bad else ""),
    )

    hull_n = min(max_n, 4)
    bad = None
    for n in range(1, hull_n + 1):
        skews = all_skew_ferrers_boards(n, n, "right")
        for p in all_permutations(n):
            h = right_hull(p)
            cells = tuple(enumerate(p.word, 1))
            if not h.is_skew_ferrers("right") or not all(
                h.cell(i, j) for i, j in cells
            ):
                bad = bad or ("shape", p.word)
                continue
            for b in skews:
                if all(b.cell(i, j) for i, j in cells) and not all(
                    b.cell(i, j) for i, j in h.one_cells()
                ):
                    bad = bad or ("minimal", p.word, b.to_text())
    yield CheckResult(
        "intervals.hull-minimality",
        bad is None,
        f"the right hull is the smallest right-aligned skew shape covering "
        f"the permutation, exhaustive n <= {hull_n}"
        + (f"; first failure {bad}" if bad else ""),
    )

    ideal_n = min(max_n, 5)
    bad = None
    boards = 0
    for n in range(1, ideal_n + 1):
        for b in all_skew_ferrers_boards(n, n, "right"):
            configs = max_configs(b)
            for p in configs:
                word = p.word
                for i in range(n):
                    for j in range(i + 1, n):
                        if word[i] > word[j]:
                            swapped = list(word)
                            swapped[i], swapped[j] = swapped[j], swapped[i]
                            if Permutation(tuple(swapped)) not in configs:
                                bad = bad or (b.to_text(), word, (i + 1, j + 1))
            boards += 1
    yield CheckResult(
        "intervals.order-ideal",
        bad is None,
        f"full placements of right-aligned skew boards are downward closed "
        f"({boards} boards within {ideal_n}x{ideal_n})"
        + (f"; first failure {bad}" if bad else ""),
    )

    order_n = min(max_n, 5)
    bad = None
    for n in range(1, order_n + 1):
        perms = list(all_permutations(n))
        index = {p: i for i, p in enumerate(perms)}
        # cone[i] holds the upper cone {r : p_i <= r} as a bitmask
        cone = [0] * len(perms)
        for i, p in enumerate(perms):
            for r in perms:
                if bruhat_leq(p, r):
                    cone[i] |= 1 << index[r]
        for i, p in enumerate(perms):
            if not cone[i] >> i & 1:
                bad = bad or ("reflexive", p.word)
            for j, r in enumerate(perms):
                leq = bool(cone[i] >> j & 1)
                if i != j and leq and cone[j] >> i & 1:
                    bad = bad or ("antisymmetric", p.word, r.word)
                if leq and (cone[j] | cone[i]) != cone[i]:
                    bad = bad or ("transitive", p.word, r.word)
                if leq != bruhat_leq(r.flip_ud(), p.flip_ud()):
                    bad = bad or ("antiautomorphism", p.word, r.word)
    yield CheckResult(
        "intervals.order-axioms",
        bad is None,
        f"Bruhat comparison is a partial order and flipping reverses it, "
        f"exhaustive n <= {order_n}" + (f"; first failure {bad}" if bad else ""),
    )

    bad = None
    for poly in produced:
        hit = bjorner_ekedahl_violation(poly)
        if hit is not None:
            bad = bad or (str(poly), hit)
    yield CheckResult(
        "intervals.rank-inequality",
        bad is None,
        f"lower-coefficient inequality f_i <= f_j (j <= length - i) holds on "
        f"all {len(produced)} Poincare polynomials produced above"
        + (f"; first failure {bad}" if bad else ""),
    )


def _suite_typeB(max_n: int) -> Iterator[CheckResult]:
    bad = None
    for n in range(1, max_n + 1):
        if theoremB_poincare(n) != poincare_B_brute(n):
            bad = bad or n
    yield CheckResult(
        "typeB.closed-form",
        bad is None,
        f"closed form matches the symmetric-element brute force, n <= {max_n}"
        + (f"; first failure n={bad}" if bad else ""),
    )

    bad = None
    for n in range(1, max_n + 1):
        try:
            got = poincare_B_via_rook(n)
        except RuntimeError:
            bad = bad or ("parity", n)
            continue
        if got != theoremB_poincare(n):
            bad = bad or ("value", n)
    yield CheckResult(
        "typeB.hull-route",
        bad is None,
        f"diagonal substitution in the signed hull polynomial recovers the "
        f"closed form, n <= {max_n}" + (f"; first failure {bad}" if bad else ""),
    )

    bad = None
    pair_side = min(max_n, 2)
    squares = [b for n in range(1, pair_side + 1) for b in _square_boards(n)]
    for a in squares:
        if sharp_rb(a) != rb_polynomial(block_sharp(a.rotate180(), a)):
            bad = bad or a.to_text()
    yield CheckResult(
        "typeB.block-composition",
        bad is None,
        f"signed block-composition formula matches direct enumeration on "
        f"{len(squares)} boards within {pair_side}x{pair_side}"
        + (f"; first failure {bad}" if bad else ""),
    )

    bad = None
    for n in range(1, max_n + 1):
        w = max_coset_rep_B(n)
        if w.p.rotate180() != w.p:
            bad = bad or ("symmetry", n)
        want = block_sharp(triangular(n).rotate180(), triangular(n)).flip_ud()
        if right_hull(w.p) != want:
            bad = bad or ("hull", n)
        seen = 0
        for s in symmetric_permutations(n):
            rank_B(s)  # raises on parity failure
            seen += 1
        if seen != 2 ** n * factorial(n):
            bad = bad or ("count", n)
    yield CheckResult(
        "typeB.structure",
        bad is None,
        f"maximal representative is symmetric with the staircase block hull; "
        f"group scan sees 2^n n! elements, n <= {max_n}"
        + (f"; first failure {bad}" if bad else ""),
    )


SUITES: dict[str, Callable[[int], Iterator[CheckResult]]] = {
    "stirling": _suite_stirling,
    "rook": _suite_rook,
    "intervals": _suite_intervals,
    "typeB": _suite_typeB,
}


def run_suite(
    suite: str, max_n: Optional[int] = None
) -> tuple[list[CheckResult], list[str]]:
    """Run one suite or all of them; returns (results, warnings)."""
    names = list(SUITES) if suite == "all" else [suite]
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    results: list[CheckResult] = []
    warnings: list[str] = []
    for name in names:
        scale = _DEFAULTS[name] if max_n is None else max_n
        if scale > _LIMITS[name]:
            warnings.append(
                f"suite {name}: max_n {scale} exceeds the documented limit "
                f"{_LIMITS[name]}; clamping"
            )
            scale = _LIMITS[name]
        results.extend(SUITES[name](scale))
    return results, warnings

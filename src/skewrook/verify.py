"""Self-verification sweeps: every theorem, closed form and recurrence in the
package checked against a brute-force oracle at configurable scale.

Each suite returns CheckResult records; the CLI renders them.  All sweeps are
deterministic (fixed seeds, sorted iteration) and clamp their scale to the
documented limits, warning when a request exceeds them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations
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


def _result(name: str, bad: object, detail: str) -> CheckResult:
    """A check passes iff its first counterexample `bad` is None."""
    if bad is None:
        return CheckResult(name, True, detail)
    return CheckResult(name, False, f"{detail}; first failure {bad}")


def _ferrers_boards(side: int, align: str) -> Iterator[Board]:
    for m in range(1, side + 1):
        for n in range(1, side + 1):
            for b in all_skew_ferrers_boards(m, n, align):
                if b.is_ferrers(align):
                    yield b


def _boards(m: int, n: int) -> Iterator[Board]:
    """Every m x n board, one per 0/1 filling."""
    for code in range(1 << (m * n)):
        yield Board(tuple((code >> (n * i)) & ((1 << n) - 1) for i in range(m)), n)


def _suite_stirling(max_n: int) -> Iterator[CheckResult]:
    bad = next((
        (n, k) for n in range(max_n + 1) for k in range(n + 1)
        if q_rook_number(triangular(n), k) != t_board_q_rook(n, k)
    ), None)
    yield _result(
        "stirling.staircase", bad,
        f"q-rook numbers of T_n match the q-Stirling form, n <= {max_n}",
    )

    bad = next((
        f"n={n}" for n in range(max_n + 1) if q_rook_number(ones(n, n), n) != q_factorial(n)
    ), None)
    yield _result(
        "stirling.full-square", bad,
        f"top q-rook number of the full n x n board is [n]!_q, n <= {max_n}",
    )

    bad = next((
        (n, k) for n in range(max_n + 2) for k in range(n + 1)
        if q_stirling(n, k).evaluate_at_one() != stirling2(n, k)
    ), None)
    yield _result(
        "stirling.q-one", bad, "q-Stirling numbers reduce to Stirling numbers at q = 1"
    )

    bad = next((
        (n, k) for n in range(max_n + 1) for k in range(max_n + 1)
        if poly_bernoulli(n, -k) != poly_bernoulli(k, -n)
    ), None)
    yield _result(
        "stirling.poly-bernoulli-symmetry", bad, f"B_n^(-k) = B_k^(-n) for n, k <= {max_n}"
    )


def _suite_rook(side: int) -> Iterator[CheckResult]:
    exhaust = min(side, 3)
    sides = range(1, exhaust + 1)
    boards = [b for m in sides for n in sides for b in _boards(m, n)]
    bad = next((
        (b.rows, k) for b in boards for k in range(min(b.dims) + 1)
        if q_rook_number(b, k) != q_rook_number_brute(b, k)
    ), None)
    yield _result(
        "rook.dp-vs-brute", bad,
        f"mask DP agrees with direct enumeration on all {len(boards)} boards within "
        f"{exhaust}x{exhaust}",
    )

    xs = range(5)
    boards = list(_ferrers_boards(side, "right"))
    bad = next((
        (b.to_text(), x) for b in boards for x in xs
        if gjw_product(b, b.width, x) != q_rook_poly(b, b.width, x).evaluate_at_one()
    ), None)
    yield _result(
        "rook.factored-rook-poly", bad,
        f"right-aligned factorization matches the defining sum at q = 1 "
        f"({len(boards) * len(xs)} evaluations within {side}x{side})",
    )

    boards = list(_ferrers_boards(side, "left"))
    bad = next((
        (b.to_text(), x) for b in boards for x in xs
        if garsia_remmel_product(b, b.width, x) != q_rook_poly(b, b.width, x)
    ), None)
    yield _result(
        "rook.factored-q-rook-poly", bad,
        f"left-aligned q-factorization matches the defining sum "
        f"({len(boards) * len(xs)} evaluations within {side}x{side})",
    )

    pair_side = min(side, 2)
    squares = [b for n in range(pair_side + 1) for b in _boards(n, n)]
    bad = next((
        (a.to_text(), b.to_text()) for a in squares for b in squares
        if sharp_q_rook(a, b) != q_rook_number(block_sharp(b, a), a.width + b.width)
    ), None)
    yield _result(
        "rook.block-composition", bad,
        f"block composition formula matches the direct top q-rook number on "
        f"{len(squares) ** 2} square pairs within {pair_side}x{pair_side}",
    )

    rng = random.Random(11)
    sizes = (rng.randint(1, side) for _ in range(120))
    randoms = (Board(tuple(rng.randrange(1 << n) for _ in range(n)), n) for n in sizes)
    bad = next((
        b.to_text() for b in randoms
        if q_rook_number(b.flip_ud(), b.width)
        != LaurentPoly.monomial(b.width * (b.width - 1) // 2)
        * q_rook_number(b, b.width).substitute_q_inverse()
    ), None)
    yield _result(
        "rook.flip-inversion", bad,
        "flipping a square board inverts q in the top q-rook number "
        "(120 seeded random boards)",
    )


def _hull_failures(n: int) -> Iterator[tuple]:
    # the right hull must be a right-aligned skew shape covering p, inside
    # every other such shape
    skews = all_skew_ferrers_boards(n, n, "right")
    for p in all_permutations(n):
        h = right_hull(p)
        cells = tuple(enumerate(p.word, 1))
        if not h.is_skew_ferrers("right") or not all(h.cell(i, j) for i, j in cells):
            yield ("shape", p.word)
            continue
        for b in skews:
            if all(b.cell(i, j) for i, j in cells) and not all(
                b.cell(i, j) for i, j in h.one_cells()
            ):
                yield ("minimal", p.word, b.to_text())


def _ideal_failures(b: Board) -> Iterator[tuple]:
    # undoing any inversion of a full placement must stay on the board
    configs = max_configs(b)
    for p in configs:
        word = p.word
        for i, j in combinations(range(len(word)), 2):
            if word[i] > word[j]:
                swapped = list(word)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                if Permutation(tuple(swapped)) not in configs:
                    yield (b.to_text(), word, (i + 1, j + 1))


def _order_failures(n: int) -> Iterator[tuple]:
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
            yield ("reflexive", p.word)
        for j, r in enumerate(perms):
            leq = bool(cone[i] >> j & 1)
            if i != j and leq and cone[j] >> i & 1:
                yield ("antisymmetric", p.word, r.word)
            if leq and (cone[j] | cone[i]) != cone[i]:
                yield ("transitive", p.word, r.word)
            if leq != bruhat_leq(r.flip_ud(), p.flip_ud()):
                yield ("antiautomorphism", p.word, r.word)


def _suite_intervals(max_n: int) -> Iterator[CheckResult]:
    thm4_n = min(max_n, 6)
    perms = [p for n in range(1, thm4_n + 1) for p in all_permutations(n)]
    bad = next((
        p.word for p in perms
        if (max_configs(right_hull(p)) == bruhat_interval(Permutation.identity(p.size), p))
        != p.avoids_forbidden()
    ), None)
    yield _result(
        "intervals.hull-characterization", bad,
        f"hull placements equal the lower interval exactly for pattern "
        f"avoiders ({len(perms)} permutations, n <= {thm4_n})",
    )

    rng = random.Random(5)
    pair_n = min(max_n, 5)
    pairs = []
    for n in range(2, pair_n + 1):
        perms = list(all_permutations(n))
        for _ in range(40):
            u, w = rng.choice(perms), rng.choice(perms)
            if w.avoids_forbidden() and u.flip_ud().avoids_forbidden():
                pairs.append((u, w, poincare_via_rook(u, w)))
    produced = [got for _, _, got in pairs if not got.is_zero]
    bad = next(((u.word, w.word) for u, w, got in pairs if got != poincare_brute(u, w)), None)
    yield _result(
        "intervals.poincare-via-rook", bad,
        f"rook-number route matches brute force on {len(pairs)} seeded pairs, "
        f"n <= {pair_n}",
    )

    thm6_n = min(max_n, 7)
    forms = {(n, k): theoremA_poincare(n, k) for n in range(2, thm6_n + 1) for k in range(1, n)}
    produced.extend(forms.values())
    bad = next((
        (n, k) for (n, k), got in forms.items()
        if got != poincare_brute(Permutation.identity(n), max_coset_rep_A(n, k).w)
    ), None)
    yield _result(
        "intervals.closed-form-A", bad,
        f"closed form matches brute force for every maximal representative, "
        f"n <= {thm6_n}",
    )

    dp_n = min(max_n, 7)
    reps = [rep for n in range(2, dp_n + 1) for k in range(1, n) for rep in coset_reps_A(n, k)]
    bad = next((
        (rep.n, rep.k, rep.w.word) for rep in reps
        if count_lower_interval_dp(rep) != len(bruhat_interval(Permutation.identity(rep.n), rep.w))
    ), None)
    yield _result(
        "intervals.dp-count", bad,
        f"recurrence count equals brute interval size for all {len(reps)} "
        f"representatives, n <= {dp_n}",
    )

    counts = (
        (n, k, (
            *theorem8_counts(n, k),
            count_lower_interval_dp(max_coset_rep_A(n, k)),
            theoremA_poincare(n, k).evaluate_at_one(),
        ))
        for n in range(2, 11) for k in range(1, n)
    )
    bad = next((row for row in counts if len(set(row[2])) > 1), None)
    yield _result(
        "intervals.three-counts", bad,
        "double-Stirling, alternating and poly-Bernoulli counts agree with "
        "the recurrence and the closed form at q = 1, n <= 10",
    )

    middles = {n: max_coset_rep_A(2 * n, n).w for n in (1, 2)}
    bad = next(chain(
        (n for n in range(1, 5) if aztec_interval_size(n) != 2 ** n),
        (("brute", n) for n, w in middles.items()
         if aztec_interval_size(n) != len(bruhat_interval(w.flip_ud(), w))),
    ), None)
    yield _result(
        "intervals.aztec", bad,
        "diamond-shaped middle intervals have 2^n elements, n <= 4, and match "
        "brute force for n <= 2",
    )

    hull_n = min(max_n, 4)
    bad = next((x for n in range(1, hull_n + 1) for x in _hull_failures(n)), None)
    yield _result(
        "intervals.hull-minimality", bad,
        f"the right hull is the smallest right-aligned skew shape covering "
        f"the permutation, exhaustive n <= {hull_n}",
    )

    ideal_n = min(max_n, 5)
    boards = [b for n in range(1, ideal_n + 1) for b in all_skew_ferrers_boards(n, n, "right")]
    bad = next((x for b in boards for x in _ideal_failures(b)), None)
    yield _result(
        "intervals.order-ideal", bad,
        f"full placements of right-aligned skew boards are downward closed "
        f"({len(boards)} boards within {ideal_n}x{ideal_n})",
    )

    order_n = min(max_n, 5)
    bad = next((x for n in range(1, order_n + 1) for x in _order_failures(n)), None)
    yield _result(
        "intervals.order-axioms", bad,
        f"Bruhat comparison is a partial order and flipping reverses it, "
        f"exhaustive n <= {order_n}",
    )

    hits = ((str(poly), bjorner_ekedahl_violation(poly)) for poly in produced)
    bad = next((hit for hit in hits if hit[1] is not None), None)
    yield _result(
        "intervals.rank-inequality", bad,
        f"lower-coefficient inequality f_i <= f_j (j <= length - i) holds on "
        f"all {len(produced)} Poincare polynomials produced above",
    )


def _hull_route_failures(n: int) -> Iterator[tuple]:
    try:
        got = poincare_B_via_rook(n)
    except RuntimeError:
        yield ("parity", n)
        return
    if got != theoremB_poincare(n):
        yield ("value", n)


def _structure_failures(n: int) -> Iterator[tuple]:
    w = max_coset_rep_B(n)
    if w.p.rotate180() != w.p:
        yield ("symmetry", n)
    want = block_sharp(triangular(n).rotate180(), triangular(n)).flip_ud()
    if right_hull(w.p) != want:
        yield ("hull", n)
    # rank_B raises on a parity failure
    if len([rank_B(s) for s in symmetric_permutations(n)]) != 2 ** n * factorial(n):
        yield ("count", n)


def _suite_typeB(max_n: int) -> Iterator[CheckResult]:
    sizes = range(1, max_n + 1)
    bad = next((f"n={n}" for n in sizes if theoremB_poincare(n) != poincare_B_brute(n)), None)
    yield _result(
        "typeB.closed-form", bad,
        f"closed form matches the symmetric-element brute force, n <= {max_n}",
    )

    bad = next((x for n in sizes for x in _hull_route_failures(n)), None)
    yield _result(
        "typeB.hull-route", bad,
        f"diagonal substitution in the signed hull polynomial recovers the "
        f"closed form, n <= {max_n}",
    )

    pair_side = min(max_n, 2)
    squares = [b for n in range(1, pair_side + 1) for b in _boards(n, n)]
    bad = next((
        a.to_text() for a in squares if sharp_rb(a) != rb_polynomial(block_sharp(a.rotate180(), a))
    ), None)
    yield _result(
        "typeB.block-composition", bad,
        f"signed block-composition formula matches direct enumeration on "
        f"{len(squares)} boards within {pair_side}x{pair_side}",
    )

    bad = next((x for n in sizes for x in _structure_failures(n)), None)
    yield _result(
        "typeB.structure", bad,
        f"maximal representative is symmetric with the staircase block hull; "
        f"group scan sees 2^n n! elements, n <= {max_n}",
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
    """Run one suite or all of them; returns (results, warnings).

    max_n must be at least 1; a scale above a suite's documented limit is
    clamped to it, with a warning."""
    names = list(SUITES) if suite == "all" else [suite]
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
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

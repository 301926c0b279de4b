"""Acceptance suite: one test per advertised guarantee, each printing a
single CRITERION line.  Every comparison is exact; the brute-force side of
each equality is built from first principles (explicit enumeration), never
from the formula under test."""

import itertools
import math
import random

from skewrook.boards import (
    Board,
    all_skew_ferrers_boards,
    block_sharp,
    max_configs,
    ones,
    right_hull,
    triangular,
)
from skewrook.intervals import (
    aztec_interval_size,
    coset_reps_A,
    count_lower_interval_dp,
    max_coset_rep_A,
    poincare_B_brute,
    poincare_via_rook,
    theorem8_counts,
    theoremA_poincare,
    theoremB_poincare,
)
from skewrook.permutations import (
    Permutation,
    all_permutations,
    bruhat_interval,
    bruhat_leq,
    poincare_brute,
)
from skewrook.qalgebra import LaurentPoly, poly_bernoulli, q_factorial, q_falling
from skewrook.rooks import (
    garsia_remmel_product,
    gjw_product,
    q_rook_number,
    q_rook_number_brute,
    rb_polynomial,
    rb_polynomial_brute,
    sharp_q_rook,
    sharp_rb,
    t_board_q_rook,
)
from skewrook.verify import bjorner_ekedahl_violation

P = Permutation.from_text


def _criterion(num: int, desc: str, capsys, fn) -> None:
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"\nCRITERION {num}: FAIL - {desc}")
        raise
    with capsys.disabled():
        print(f"\nCRITERION {num}: PASS - {desc}")


def test_criterion_1(capsys):
    desc = (
        "hull placements equal the lower Bruhat interval exactly for the "
        "four-pattern avoiders, exhaustive n <= 6"
    )

    def run():
        total = 0
        for n in range(1, 7):
            ident = Permutation.identity(n)
            for p in all_permutations(n):
                equal = max_configs(right_hull(p)) == bruhat_interval(ident, p)
                assert equal == p.avoids_forbidden(), p.word
                total += 1
        assert total == sum(math.factorial(n) for n in range(1, 7))

    _criterion(1, desc, capsys, run)


def test_criterion_2(capsys):
    desc = (
        "rook-number route reproduces the brute-force Poincare polynomial "
        "of a fixed nine-letter interval"
    )

    def run():
        u, w = P("562314978"), P("687594123")
        got = poincare_via_rook(u, w)
        want = poincare_brute(u, w)
        assert got == want
        assert got.min_exp() == u.inversions()
        assert got.degree() == w.inversions()
        assert got.evaluate_at_one() == 3456

    _criterion(2, desc, capsys, run)


def test_criterion_3(capsys):
    desc = (
        "diamond-shaped middle intervals contain exactly 2^n elements "
        "(rook counts n <= 4, brute force n <= 2)"
    )

    def run():
        for n in range(1, 5):
            assert aztec_interval_size(n) == 2**n
        for n in (1, 2):
            w = max_coset_rep_A(2 * n, n).w
            assert len(bruhat_interval(w.flip_ud(), w)) == 2**n

    _criterion(3, desc, capsys, run)


def test_criterion_4(capsys):
    desc = (
        "type-A closed form equals the brute-force Poincare polynomial for "
        "all 1 <= k < n <= 8"
    )

    def run():
        assert theoremA_poincare(4, 2) == LaurentPoly(
            {0: 1, 1: 3, 2: 5, 3: 4, 4: 1}
        )
        for n in range(2, 9):
            ident = Permutation.identity(n)
            for k in range(1, n):
                w = max_coset_rep_A(n, k).w
                assert theoremA_poincare(n, k) == poincare_brute(ident, w), (n, k)

    _criterion(4, desc, capsys, run)


def test_criterion_5(capsys):
    desc = (
        "type-B closed form equals the symmetric-element brute force "
        "for n <= 4"
    )

    def run():
        assert theoremB_poincare(1) == LaurentPoly({0: 1, 1: 1})
        assert theoremB_poincare(2) == LaurentPoly({0: 1, 1: 2, 2: 2, 3: 1})
        for n in range(1, 5):
            assert theoremB_poincare(n) == poincare_B_brute(n), n

    _criterion(5, desc, capsys, run)


def test_criterion_6(capsys):
    desc = (
        "the double-Stirling and alternating interval counts agree for "
        "n <= 10, match the recurrence, and the recurrence matches brute "
        "force over every representative for n <= 7"
    )

    def run():
        for n in range(2, 11):
            for k in range(1, n):
                sym, alt, pb = theorem8_counts(n, k)
                assert sym == alt == pb, (n, k)
                assert sym == count_lower_interval_dp(max_coset_rep_A(n, k))
        assert theorem8_counts(4, 2) == (14, 14, 14)
        assert poly_bernoulli(2, -2) == 14
        for n in range(2, 8):
            ident = Permutation.identity(n)
            for k in range(1, n):
                for rep in coset_reps_A(n, k):
                    want = len(bruhat_interval(ident, rep.w))
                    assert count_lower_interval_dp(rep) == want, rep

    _criterion(6, desc, capsys, run)


def _aligned_ferrers_boards(max_side: int, align: str):
    for m in range(1, max_side + 1):
        for n in range(1, max_side + 1):
            for rows in itertools.product(range(1 << n), repeat=m):
                b = Board(rows, n)
                if b.is_ferrers(align):
                    yield b


def _brute_q_rook_poly(b: Board, n: int, x: int) -> LaurentPoly:
    total = LaurentPoly()
    for k in range(n + 1):
        total = total + q_rook_number_brute(b, n - k) * q_falling(x, k)
    return total


def test_criterion_7(capsys):
    desc = (
        "factored rook-polynomial products match brute-force enumeration "
        "over all aligned Ferrers boards within 4x4, the staircase matches "
        "the q-Stirling form for n <= 6, and the full square gives the "
        "q-factorial"
    )

    def run():
        for b in _aligned_ferrers_boards(4, "right"):
            n = b.width
            for x in range(5):
                brute = _brute_q_rook_poly(b, n, x).evaluate_at_one()
                assert gjw_product(b, n, x) == brute, (b.to_text(), x)
        for b in _aligned_ferrers_boards(4, "left"):
            n = b.width
            for x in range(5):
                brute = _brute_q_rook_poly(b, n, x)
                assert garsia_remmel_product(b, n, x) == brute, (b.to_text(), x)
        for n in range(1, 7):
            for k in range(n + 1):
                want = q_rook_number_brute(triangular(n), k)
                assert t_board_q_rook(n, k) == want, (n, k)
        for n in range(1, 7):
            assert q_rook_number_brute(ones(n, n), n) == q_factorial(n), n

    _criterion(7, desc, capsys, run)


# -- criterion 8 machinery: packed full-placement DP over block boards ----------

_LIMB = 32


def _pack(poly: LaurentPoly) -> int:
    value = 0
    for e, c in poly.items():
        assert e >= 0 and 0 < c < (1 << _LIMB)
        value += c << (_LIMB * e)
    return value


def _dp_step(states: dict[int, int], rowmask: int) -> dict[int, int]:
    nxt: dict[int, int] = {}
    for mask, acc in states.items():
        free = rowmask & ~mask
        while free:
            bit = free & -free
            free ^= bit
            inc = (mask >> bit.bit_length()).bit_count()
            key = mask | bit
            add = acc << (_LIMB * inc)
            if key in nxt:
                nxt[key] += add
            else:
                nxt[key] = add
    return nxt


def _top_table(rows: tuple[int, ...], n: int, m: int) -> dict[int, int]:
    """Packed q^inversions sums over the first n rows of the block board,
    keyed by the set of columns used."""
    high = ((1 << m) - 1) << n
    states = {0: 1}
    for i in range(n):
        states = _dp_step(states, rows[i] | high)
    return states


def _bottom_tables(rows: tuple[int, ...], n: int, m: int) -> dict[int, int]:
    """For each possible set of columns taken by the top block, the packed
    sum over completions through the bottom m rows."""
    low = (1 << n) - 1
    rowmasks = [low | (rows[i] << n) for i in range(m)]
    out: dict[int, int] = {}
    for combo in itertools.combinations(range(n + m), n):
        start = 0
        for c in combo:
            start |= 1 << c
        states = {start: 1}
        for rowmask in rowmasks:
            states = _dp_step(states, rowmask)
        total = sum(states.values())
        if total:
            out[start] = total
    return out


def test_criterion_8(capsys):
    desc = (
        "block-composition identities for plain and sign-symmetric "
        "placements match brute force over all square boards within 3x3"
    )

    def run():
        boards = {0: [Board((), 0)]}
        for s in (1, 2, 3):
            boards[s] = [
                Board(rows, s) for rows in itertools.product(range(1 << s), repeat=s)
            ]
        packed_rk = {
            b: [_pack(q_rook_number(b, k)) for k in range(s + 1)]
            for s, bs in boards.items()
            for b in bs
        }
        fact2 = [_pack(q_factorial(i) * q_factorial(i)) for i in range(4)]

        rng = random.Random(17)
        checked = subchecked = 0
        for n in range(4):
            for m in range(4):
                tops = {b: _top_table(b.rows, n, m) for b in boards[n]}
                bottoms = {a: _bottom_tables(a.rows, n, m) for a in boards[m]}
                spot = (
                    {(rng.randrange(512), rng.randrange(512)) for _ in range(200)}
                    if n == m == 3
                    else None
                )
                for bi, b in enumerate(boards[n]):
                    top = tops[b]
                    rot = packed_rk[b.rotate180()]
                    for ai, a in enumerate(boards[m]):
                        dp = 0
                        for mask, acc in top.items():
                            comp = bottoms[a].get(mask)
                            if comp:
                                dp += acc * comp
                        formula = 0
                        for i in range(min(n, m) + 1):
                            term = packed_rk[a][m - i] * rot[n - i] * fact2[i]
                            shift = _LIMB * i * i
                            assert term & ((1 << shift) - 1) == 0
                            formula += term >> shift
                        assert dp == formula, (n, m, b.rows, a.rows)
                        checked += 1
                        if n + m <= 4 or (spot and (bi, ai) in spot):
                            want = _pack(q_rook_number(block_sharp(b, a), n + m))
                            assert dp == want, (n, m, b.rows, a.rows)
                            subchecked += 1
        assert checked == (1 + 2 + 16 + 512) ** 2
        assert subchecked > 3000

        # hand-traced cases: 1 + q, and 1 + q t for the signed composition
        one = LaurentPoly({0: 1})
        assert sharp_q_rook(ones(1, 1), ones(1, 1)) == one + LaurentPoly({1: 1})
        assert str(rb_polynomial(ones(2, 2))) == "(1) + (q)*t"
        for s in (0, 1, 2, 3):
            for a in boards[s]:
                composed = block_sharp(a.rotate180(), a)
                assert sharp_rb(a) == rb_polynomial_brute(composed), a.rows
                assert rb_polynomial(composed) == rb_polynomial_brute(composed), a.rows

    _criterion(8, desc, capsys, run)


def test_criterion_9(capsys):
    desc = (
        "property sweep: order axioms and flip antiautomorphism (n <= 5), "
        "downward-closed placements (boards within 5x5), hull minimality "
        "(n <= 4), rank-coefficient inequalities, count symmetry"
    )

    def run():
        # partial-order axioms plus the flip antiautomorphism
        for n in range(1, 6):
            perms = list(all_permutations(n))
            index = {p: i for i, p in enumerate(perms)}
            cone = [0] * len(perms)
            for i, p in enumerate(perms):
                for j, r in enumerate(perms):
                    if bruhat_leq(p, r):
                        cone[i] |= 1 << j
            for i, p in enumerate(perms):
                assert cone[i] >> i & 1, ("reflexive", p.word)
                for j, r in enumerate(perms):
                    if not cone[i] >> j & 1:
                        continue
                    if i != j:
                        assert not cone[j] >> i & 1, ("antisymmetric", p.word)
                    assert (cone[j] | cone[i]) == cone[i], ("transitive", p.word)
                    assert bruhat_leq(r.flip_ud(), p.flip_ud()), ("flip", p.word)

        # full placements of a right-aligned skew board are downward closed
        for n in range(1, 6):
            for b in all_skew_ferrers_boards(n, n, "right"):
                configs = max_configs(b)
                for p in configs:
                    word = p.word
                    for i in range(n):
                        for j in range(i + 1, n):
                            if word[i] > word[j]:
                                swapped = list(word)
                                swapped[i], swapped[j] = swapped[j], swapped[i]
                                assert Permutation(tuple(swapped)) in configs, (
                                    b.to_text(),
                                    word,
                                )

        # the right hull is the smallest covering skew shape
        for n in range(1, 5):
            skews = all_skew_ferrers_boards(n, n, "right")
            for p in all_permutations(n):
                h = right_hull(p)
                cells = tuple(enumerate(p.word, 1))
                assert h.is_skew_ferrers("right")
                assert all(h.cell(i, j) for i, j in cells)
                for b in skews:
                    if all(b.cell(i, j) for i, j in cells):
                        assert all(b.cell(i, j) for i, j in h.one_cells()), (
                            p.word,
                            b.to_text(),
                        )

        # rank-coefficient inequality on every polynomial the other
        # criteria produce (recomputed here, not shared across tests)
        produced = [poincare_via_rook(P("562314978"), P("687594123"))]
        for n in range(2, 9):
            for k in range(1, n):
                produced.append(theoremA_poincare(n, k))
        for n in range(1, 5):
            produced.append(theoremB_poincare(n))
        for f in produced:
            assert bjorner_ekedahl_violation(f) is None, f

        # two-index symmetry of the interval-count numbers
        for n in range(9):
            for k in range(9):
                assert poly_bernoulli(n, -k) == poly_bernoulli(k, -n)

    _criterion(9, desc, capsys, run)

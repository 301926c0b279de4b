"""Bruhat intervals: hull characterisation, coset representatives, the
counting DP, and the closed forms for both group families."""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from skewrook.boards import block_sharp, left_hull, right_hull, triangular
from skewrook.intervals import (
    CosetRepA,
    PatternViolationError,
    SignedPermutation,
    _dp_rows,
    aztec_interval_size,
    coset_reps_A,
    count_lower_interval_dp,
    hull_interval_elements,
    max_coset_rep_A,
    max_coset_rep_B,
    poincare_B_brute,
    poincare_B_via_rook,
    poincare_via_rook,
    rank_B,
    reduce_coset_rep,
    symmetric_permutations,
    theorem8_counts,
    theoremA_poincare,
    theoremB_poincare,
)
from skewrook.permutations import (
    FORBIDDEN_PATTERNS,
    Permutation,
    all_permutations,
    bruhat_interval,
    bruhat_leq,
    poincare_brute,
)
from skewrook.qalgebra import ONE, ZERO, LaurentPoly, q_factorial, q_int, q_stirling, stirling2
from skewrook.rooks import _scans_anti_transpose, full_placement_q_poly
from skewrook.verify import bjorner_ekedahl_violation

P = Permutation.from_text
SRC = str(Path(__file__).resolve().parents[1] / "src")


def poly(coeffs: dict[int, int]) -> LaurentPoly:
    return LaurentPoly(coeffs)


# -- hull characterisation ------------------------------------------------------


def test_hull_characterisation_frozen():
    assert P("123").avoids_forbidden()
    assert P("35124").avoids_forbidden()
    assert P("4321").avoids_forbidden()
    for pat in FORBIDDEN_PATTERNS:
        assert not pat.avoids_forbidden()


def test_hull_interval_elements_frozen():
    got = hull_interval_elements(P("231"))
    assert got == {P("123"), P("132"), P("213"), P("231")}


def test_hull_interval_elements_match_bruhat_interval():
    for n in range(1, 5):
        for w in all_permutations(n):
            if not w.avoids_forbidden():
                continue
            assert hull_interval_elements(w) == bruhat_interval(
                Permutation.identity(n), w
            )


def test_hull_interval_elements_rejects_patterns():
    with pytest.raises(PatternViolationError) as exc:
        hull_interval_elements(P("4231"))
    assert exc.value.role == "pi"
    assert exc.value.perm == P("4231")
    assert exc.value.pattern == P("4231")
    assert exc.value.positions == (1, 2, 3, 4)
    assert "pi = 4231 contains the pattern 4231 at positions [1, 2, 3, 4]" in str(
        exc.value
    )


def test_pattern_error_is_a_value_error():
    assert issubclass(PatternViolationError, ValueError)


# -- interval Poincare polynomials via rook numbers ------------------------------


def test_poincare_via_rook_frozen():
    assert poincare_via_rook(P("123"), P("231")) == poly({0: 1, 1: 2, 2: 1})
    assert poincare_via_rook(P("1234"), P("3412")) == poly(
        {0: 1, 1: 3, 2: 5, 3: 4, 4: 1}
    )
    assert poincare_via_rook(P("231"), P("231")) == poly({2: 1})
    assert poincare_via_rook(P("312"), P("231")).is_zero  # incomparable pair


def test_poincare_via_rook_matches_brute_force():
    for n in range(1, 5):
        perms = list(all_permutations(n))
        for u in perms:
            if not u.flip_ud().avoids_forbidden():
                continue
            for w in perms:
                if not w.avoids_forbidden():
                    continue
                assert poincare_via_rook(u, w) == poincare_brute(u, w), (u, w)


# Blocks of the direct sums below: each avoids the four forbidden patterns,
# and so does any direct sum of them.
SUM_BLOCKS = ("1", "21", "321", "4321", "231", "312", "1324", "3412", "2413", "35124")


def test_poincare_via_rook_factors_over_direct_sums_up_to_the_width_cap():
    # [id, w_1 + ... + w_r] is the product of the posets [id, w_i], so its
    # Poincare polynomial is the product of theirs.  u stays the identity:
    # flip_ud of a direct sum is a skew sum, which contains 4231 as soon as
    # an inner block of u has a descent.
    blocks = {b: poincare_brute(Permutation.identity(len(b)), P(b)) for b in SUM_BLOCKS}
    rng = random.Random(21)
    for trial in range(40):
        size = 64 if trial % 4 == 0 else rng.randint(1, 64)
        word, want = (), ONE
        while len(word) < size:
            block = rng.choice([b for b in SUM_BLOCKS if len(word) + len(b) <= size])
            word += tuple(len(word) + int(c) for c in block)
            want = want * blocks[block]
        assert poincare_via_rook(Permutation.identity(size), Permutation(word)) == want, word


def _scrambled_avoiders(rng, count):
    """count seeded avoiders of 20-60 letters: the identity scrambled by n/2
    to 3n random adjacent swaps, with the words that contain a forbidden
    pattern dropped."""
    found = []
    while len(found) < count:
        n = rng.randint(20, 60)
        word = list(range(1, n + 1))
        for _ in range(rng.randint(n // 2, 3 * n)):
            i = rng.randrange(n - 1)
            word[i], word[i + 1] = word[i + 1], word[i]
        w = Permutation(tuple(word))
        if w.avoids_forbidden():
            found.append(w)
    return found


def _coatoms(word):
    """The pairs i < j with w(i) > w(j) and no i < k < j with
    w(i) > w(k) > w(j): the elements covered by w in Bruhat order."""
    count = 0
    for i, a in enumerate(word):
        below = 0  # the largest w(k) < w(i) seen so far right of i
        for b in word[i + 1:]:
            if below < b < a:
                count += 1
                below = b
    return count


def _broken_laws(w, p):
    """The laws that p, as the Poincare polynomial of [id, w] for a
    four-pattern avoider w, breaks; [] when it obeys them all."""
    word, n, inv = w.word, w.size, w.inversions()
    prefix_max = list(itertools.accumulate(word, max))
    palindromic = all(p.coefficient(e) == p.coefficient(inv - e) for e in range(inv + 1))
    laws = {
        "least term 1 and degree inv(w)": (
            p.min_exp() == 0 and p.coefficient(0) == 1 and p.degree() == inv
        ),
        "q term = simple reflections below w": (
            p.coefficient(1) == sum(prefix_max[i - 1] > i for i in range(1, n))
        ),
        "q^(inv - 1) term = coatoms": p.coefficient(inv - 1) == _coatoms(word),
        "palindromic exactly when w avoids 3412": (
            palindromic == (not w.contains_pattern(P("3412")))
        ),
        "Bjorner-Ekedahl inequality": bjorner_ekedahl_violation(p) is None,
    }
    return [law for law, holds in laws.items() if not holds]


def test_poincare_via_rook_obeys_exact_laws_past_brute_force():
    # For [id, w] with w avoiding the four patterns, at sizes no brute force
    # reaches: the least term is 1 and the degree is inv(w); the q term
    # counts the simple reflections below w; the q^(inv - 1) term counts the
    # coatoms; P is palindromic exactly when w also avoids 3412
    # (Carrell-Peterson, with Lakshmibai-Sandhya's pattern criterion); and
    # Bjorner-Ekedahl's inequality holds.  The laws are first held to the
    # brute-force polynomials of the 610 avoiders of up to 6 letters, then
    # to 200 words of 20-60 letters; 0.4 s together on a 2-core VM.  A
    # failure names the word and each law it breaks.
    for n in range(1, 7):
        for w in all_permutations(n):
            if w.avoids_forbidden():
                broken = _broken_laws(w, poincare_brute(Permutation.identity(n), w))
                assert not broken, f"w = {w.to_text()}: brute force breaks {broken}"
    palindromic = 0
    for w in _scrambled_avoiders(random.Random(0), 200):
        p = poincare_via_rook(Permutation.identity(w.size), w)
        broken = _broken_laws(w, p)
        assert not broken, f"w = {w.to_text()}: poincare_via_rook breaks {broken}"
        palindromic += not w.contains_pattern(P("3412"))
    assert 0 < palindromic < 200


def _two_sided_pairs(rng, count, sizes):
    """count seeded pairs (u, w) of n letters, n drawn from sizes, with w and
    flip_ud(u) avoiding the four patterns and u not the identity.

    w is the identity scrambled by n/2 to 3n random adjacent swaps.  u
    walks from the identity through 3n proposed random adjacent swaps and
    takes each one that keeps flip_ud(u) avoiding the patterns and, for
    every second pair, u below w; the other pairs are mostly incomparable.
    """
    found = []
    while len(found) < count:
        n = rng.choice(sizes)
        word = list(range(1, n + 1))
        for _ in range(rng.randint(n // 2, 3 * n)):
            i = rng.randrange(n - 1)
            word[i], word[i + 1] = word[i + 1], word[i]
        w = Permutation(tuple(word))
        if not w.avoids_forbidden():
            continue
        below = len(found) % 2 == 0
        u = Permutation.identity(n)
        for _ in range(3 * n):
            word = list(u.word)
            i = rng.randrange(n - 1)
            word[i], word[i + 1] = word[i + 1], word[i]
            v = Permutation(tuple(word))
            if v.flip_ud().avoids_forbidden() and (not below or bruhat_leq(v, w)):
                u = v
        if u.inversions():
            found.append((u, w))
    return found


def _transposed(p):
    """p t for each transposition t = (i j), i < j: the word of p with the
    letters at positions i and j swapped."""
    for i, j in itertools.combinations(range(p.size), 2):
        word = list(p.word)
        word[i], word[j] = word[j], word[i]
        yield Permutation(tuple(word))


def _broken_two_sided_laws(u, w, p):
    """The laws that p, as the Poincare polynomial of [u, w] for w and
    flip_ud(u) avoiding the four patterns, breaks; [] when it obeys them all."""
    comparable = bruhat_leq(u, w)
    if p.is_zero or not comparable:
        return ["zero exactly when u is not below w"] if p.is_zero == comparable else []
    lu, lw = u.inversions(), w.inversions()
    atoms = sum(v.inversions() == lu + 1 and bruhat_leq(v, w) for v in _transposed(u))
    coatoms = sum(v.inversions() == lw - 1 and bruhat_leq(u, v) for v in _transposed(w))
    laws = {
        "least term q^inv(u)": p.min_exp() == lu and p.coefficient(lu) == 1,
        "top term q^inv(w)": p.degree() == lw and p.coefficient(lw) == 1,
        "q^(inv(u) + 1) term = atoms": p.coefficient(lu + 1) == atoms,
        "q^(inv(w) - 1) term = coatoms": p.coefficient(lw - 1) == coatoms,
        "Eulerian, P(-1) = 0 unless u = w": (
            u == w or sum((-1) ** e * c for e, c in p.items()) == 0
        ),
    }
    return [law for law, holds in laws.items() if not holds]


def test_two_sided_poincare_via_rook_obeys_exact_laws_past_brute_force():
    # For [u, w] with w and flip_ud(u) avoiding the four patterns: P is 0
    # exactly when u is not below w.  Otherwise its least term is q^inv(u)
    # and its top term q^inv(w); its q^(inv(u) + 1) term counts the
    # transpositions t with inv(ut) = inv(u) + 1 and ut <= w (the atoms),
    # its q^(inv(w) - 1) term those with inv(wt) = inv(w) - 1 and u <= wt
    # (the coatoms); and P(-1) = 0 unless u = w, since Bruhat intervals are
    # Eulerian (Verma).  Bjorner-Ekedahl's inequality is a law of lower
    # intervals [id, w] only, and [2143, 4321] breaks it.  The laws are
    # first held to the brute-force polynomials of all 570 such pairs of up
    # to 4 letters and 200 seeded pairs of 5-6 letters, then to 100 pairs of
    # 20-40 letters, 53 of them comparable; about 0.6 s together on a 2-core
    # VM.  A failure names the pair and each law it breaks.
    assert bjorner_ekedahl_violation(poincare_brute(P("2143"), P("4321"))) == (1, 3)
    small = [
        (u, w)
        for n in range(1, 5)
        for u in all_permutations(n)
        if u.flip_ud().avoids_forbidden()
        for w in all_permutations(n)
        if w.avoids_forbidden()
    ]
    assert len(small) == 570
    for u, w in small + _two_sided_pairs(random.Random(0), 200, (5, 6)):
        broken = _broken_two_sided_laws(u, w, poincare_brute(u, w))
        assert not broken, f"[{u.to_text()}, {w.to_text()}]: brute force breaks {broken}"
    pairs = _two_sided_pairs(random.Random(1), 100, range(20, 41))
    for u, w in pairs:
        broken = _broken_two_sided_laws(u, w, poincare_via_rook(u, w))
        assert not broken, f"[{u.to_text()}, {w.to_text()}]: poincare_via_rook breaks {broken}"
    comparable = sum(bruhat_leq(u, w) for u, w in pairs)
    assert len(pairs) // 2 <= comparable < len(pairs)


def test_aztec_pairs_have_the_product_polynomial():
    # For w = max_coset_rep_A(2n, n), [flip_ud(w), w] has 2^n elements
    # (aztec_interval_size) from length inv(flip_ud(w)) = n(n - 1) up to
    # inv(w) = n^2, ranked as a Boolean lattice of rank n: its Poincare
    # polynomial is q^(n(n-1)) (1 + q)^n.  Held to poincare_via_rook for
    # n = 1-10, about 0.3 s on a 2-core VM, 0.23 s of it at n = 10, and to
    # poincare_brute for n <= 5, about 1 ms.
    for n in range(1, 11):
        w = max_coset_rep_A(2 * n, n).w
        want = LaurentPoly.monomial(n * (n - 1)) * poly({0: 1, 1: 1}) ** n
        assert poincare_via_rook(w.flip_ud(), w) == want, n
        if n <= 5:
            assert poincare_brute(w.flip_ud(), w) == want, n


def _inverse(word):
    out = [0] * len(word)
    for i, v in enumerate(word, start=1):
        out[v - 1] = i
    return tuple(out)


def _falls_after_top(word):
    """Whether the letters after the largest letter decrease."""
    return all(a > b for a, b in itertools.pairwise(word[word.index(len(word)) + 1:]))


def _gasharov_step(word):
    """Gasharov's factorization (J. Combin. Theory Ser. A 83, 1998): for a
    smooth w, one avoiding 3412 and 4231, with n at position d, if the
    letters after n decrease then P_w = [n - d + 1]_q P_(w minus n), and
    otherwise the same holds for the inverse of w, whose interval [id, w^-1]
    is that of w inverted, so P_(w^-1) = P_w.  Returns n - d + 1 and the
    word with n deleted, from w if its letters after n decrease, else from
    its inverse; None when neither does."""
    for x in (word, _inverse(word)):
        if _falls_after_top(x):
            d = x.index(len(x)) + 1
            return len(x) - d + 1, x[:d - 1] + x[d:]
    return None


def _smooth_words(rng, count, sizes):
    """count seeded smooth words of lengths drawn from sizes, each grown
    from (1,) by inserting the new largest letter into the word or into its
    inverse just before a decreasing run of its last letters, the longer of
    two drawn at random.  That keeps the word smooth: the new letter can
    only play the 4 of 3412 or 4231, and both need a rise after it."""
    words = []
    for _ in range(count):
        word = (1,)
        for n in range(2, rng.choice(sizes) + 1):
            if rng.random() < 0.5:
                word = _inverse(word)
            run = 1  # the letters after the new one: a decreasing run
            while run < len(word) and word[-run - 1] > word[-run]:
                run += 1
            d = len(word) - max(rng.randint(0, run), rng.randint(0, run))
            word = word[:d] + (n,) + word[d:]
        words.append(word)
    return words


def test_gasharov_factorization_of_smooth_poincare_polynomials():
    # The rule of _gasharov_step is held to poincare_brute on all 485 smooth
    # words of up to 6 letters, then to poincare_via_rook, peeled to a
    # product of q-integers, on 200 seeded smooth words of 20-64 letters and
    # 21-117 inversions; about 0.4 s together on a 2-core VM, 0.11 s of it
    # in poincare_via_rook.  A failure prints the word.
    smooth = {(): ONE}
    flips = 0
    for n in range(1, 7):
        for w in all_permutations(n):
            if w.contains_pattern(P("3412")) or w.contains_pattern(P("4231")):
                continue
            smooth[w.word] = p = poincare_brute(Permutation.identity(n), w)
            step = _gasharov_step(w.word)
            assert step is not None, f"w = {w.to_text()}: no letter to peel"
            m, rest = step
            assert p == q_int(m) * smooth[rest], f"w = {w.to_text()}"
            flips += not _falls_after_top(w.word)
    assert len(smooth) == 1 + 485 and flips > 0  # the empty word and the smooth ones
    for word in _smooth_words(random.Random(0), 200, range(20, 65)):
        want, rest = ONE, word
        while rest:
            step = _gasharov_step(rest)
            assert step is not None, f"w = {' '.join(map(str, word))}: no letter to peel"
            want, rest = want * q_int(step[0]), step[1]
        got = poincare_via_rook(Permutation.identity(len(word)), Permutation(word))
        assert got == want, f"w = {' '.join(map(str, word))}"


def test_poincare_via_rook_is_full_placement_of_the_hull_intersection():
    # The pair route builds no Board: it reads its row and column masks off
    # the words' row ends, and turns the words where full_placement_q_poly
    # would turn the board.  Held to full_placement_q_poly of the Board
    # intersection on seeded smooth w of 6-20 letters with u below w (swapped
    # descents), and on the same pairs the other way round, mostly
    # incomparable; both orientation picks, and boards whose row ends are
    # not monotone, are each taken often.  About 0.1 s on a 2-core VM.
    rng = random.Random(37)
    picks = {True: 0, False: 0}
    zero = bent = 0
    for word in _smooth_words(rng, 2000, range(6, 21)):
        below = list(word)
        for _ in range(rng.randint(1, len(word))):
            i = rng.randrange(len(word) - 1)
            if below[i] > below[i + 1]:
                below[i], below[i + 1] = below[i + 1], below[i]
        pair = Permutation(tuple(below)), Permutation(word)
        for u, w in (pair, pair[::-1]):
            if not (w.avoids_forbidden() and u.flip_ud().avoids_forbidden()):
                continue
            board = right_hull(w).intersect(left_hull(u))
            got = poincare_via_rook(u, w)
            assert got == full_placement_q_poly(board), (u.word, w.word)
            if got.is_zero:
                zero += 1
                continue
            picks[_scans_anti_transpose(board.rows)] += 1
            firsts = [row & -row for row in board.rows]
            lasts = [row.bit_length() for row in board.rows]
            bent += firsts != sorted(firsts) or lasts != sorted(lasts)
    assert min(picks.values()) >= 20 and bent >= 20 and zero >= 20, (picks, bent, zero)


def test_poincare_via_rook_validates_sides():
    with pytest.raises(ValueError):
        poincare_via_rook(P("12"), P("231"))
    with pytest.raises(PatternViolationError) as exc:
        poincare_via_rook(P("1234"), P("4231"))
    assert exc.value.role == "w"
    with pytest.raises(PatternViolationError) as exc:
        poincare_via_rook(P("1324"), P("4321"))
    assert exc.value.role == "flip_ud(u)"
    assert exc.value.perm == P("4231")  # the flipped permutation is reported


def test_forbidden_pattern_failure_is_real():
    # for each forbidden pattern there is a pair where the rook route,
    # taken without the guard, would disagree with the brute force count
    from skewrook.boards import max_configs

    for pat in FORBIDDEN_PATTERNS:
        n = pat.size
        interval = bruhat_interval(Permutation.identity(n), pat)
        placements = max_configs(right_hull(pat))
        assert interval < placements  # strictly more full placements


# -- coset representatives and the counting DP -----------------------------------


def test_coset_rep_validation():
    CosetRepA(3, 2, P("231"))
    CosetRepA(3, 3, P("123"))
    with pytest.raises(ValueError):
        CosetRepA(3, 1, P("231"))  # second run not increasing
    with pytest.raises(ValueError):
        CosetRepA(3, 0, P("123"))
    with pytest.raises(ValueError):
        CosetRepA(4, 2, P("231"))  # size mismatch


def test_max_coset_rep_frozen():
    assert max_coset_rep_A(5, 2).w == P("45123")
    assert max_coset_rep_A(2, 1).w == P("21")
    with pytest.raises(ValueError):
        max_coset_rep_A(3, 3)
    with pytest.raises(ValueError):
        max_coset_rep_A(3, 0)


def test_max_coset_rep_is_bruhat_maximal():
    for n in range(2, 6):
        for k in range(1, n):
            top = max_coset_rep_A(n, k).w
            for rep in coset_reps_A(n, k):
                assert bruhat_leq(rep.w, top)


def test_coset_reps_enumeration():
    reps = list(coset_reps_A(4, 2))
    assert len(reps) == math.comb(4, 2)
    firsts = [rep.w.word[:2] for rep in reps]
    assert firsts == sorted(firsts)
    assert reps[0].w == P("1234")
    assert reps[-1].w == P("3412")


def test_reduce_coset_rep():
    red = reduce_coset_rep(CosetRepA(5, 2, P("23145")))
    assert (red.n, red.k, red.w) == (3, 2, P("231"))
    assert reduce_coset_rep(red) == red  # idempotent
    untouched = CosetRepA(4, 2, P("2413"))
    assert reduce_coset_rep(untouched) == untouched


def test_reduce_preserves_interval_size():
    for n in range(2, 6):
        for k in range(1, n):
            for rep in coset_reps_A(n, k):
                red = reduce_coset_rep(rep)
                assert _brute_lower_count(red.w) == _brute_lower_count(rep.w)


def _brute_lower_count(w: Permutation) -> int:
    return len(bruhat_interval(Permutation.identity(w.size), w))


def test_dp_trace_frozen():
    table = list(_dp_rows(CosetRepA(3, 2, P("231"))))[::-1]
    assert table[2] == [1, 0, 0]
    assert table[1] == [2, 1, 0]
    assert table[0] == [6, 2, 0]
    assert count_lower_interval_dp(CosetRepA(3, 2, P("231"))) == 6 - 2


def test_dp_matches_brute_force_on_all_reps():
    for n in range(2, 6):
        for k in range(1, n):
            for rep in coset_reps_A(n, k):
                assert count_lower_interval_dp(rep) == _brute_lower_count(rep.w), rep


def test_dp_matches_brute_force_on_every_rep_of_size_8():
    """The counting recurrence against the brute-force interval on all 254
    coset representatives with n = 8 (about 1 s on a 2-core VM)."""
    reps = [rep for k in range(1, 8) for rep in coset_reps_A(8, k)]
    assert len(reps) == 254
    for rep in reps:
        assert count_lower_interval_dp(rep) == _brute_lower_count(rep.w), rep


def test_dp_first_run_rows_follow_stirling_identity():
    # on the rows of the first increasing run of the top representative the
    # table entries factor as (n-a-b+1)! S(n-a+1, n-a-b+1)
    for n in range(2, 8):
        for k in range(1, n):
            table = list(_dp_rows(max_coset_rep_A(n, k)))[::-1]
            for a in range(n - k + 1, n + 1):
                for b in range(k + 1):
                    m = n - a - b + 1
                    want = math.factorial(m) * stirling2(n - a + 1, m) if m >= 1 else 0
                    assert table[a - 1][b] == want, (n, k, a, b)


def test_dp_holds_one_row():
    # the whole table f(a, b) of max_coset_rep_A(600, 300) peaked near 46 MB
    code = (
        "import tracemalloc; from skewrook.intervals import count_lower_interval_dp, "
        "max_coset_rep_A; from skewrook.qalgebra import poly_bernoulli; "
        "tracemalloc.start(); c = count_lower_interval_dp(max_coset_rep_A(600, 300)); "
        "print(tracemalloc.get_traced_memory()[1], c == poly_bernoulli(300, -300))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    peak, same = r.stdout.split()
    assert same == "True"
    assert int(peak) < 5 * 2**20, f"peak {int(peak) / 2**20:.1f} MB"


# -- closed forms, symmetric group ------------------------------------------------


def test_theoremA_frozen():
    assert theoremA_poincare(2, 1) == poly({0: 1, 1: 1})
    assert theoremA_poincare(4, 2) == poly({0: 1, 1: 3, 2: 5, 3: 4, 4: 1})
    with pytest.raises(ValueError):
        theoremA_poincare(3, 0)
    with pytest.raises(ValueError):
        theoremA_poincare(3, 3)


def test_theoremA_is_ordinary_with_expected_shape():
    for n in range(2, 8):
        for k in range(1, n):
            f = theoremA_poincare(n, k)
            assert f.min_exp() == 0 and f.coefficient(0) == 1
            assert f.degree() == k * (n - k)
            assert f == theoremA_poincare(n, n - k)  # symmetry in k


def test_theoremA_matches_brute_force():
    for n in range(2, 6):
        for k in range(1, n):
            w = max_coset_rep_A(n, k).w
            assert theoremA_poincare(n, k) == poincare_brute(
                Permutation.identity(n), w
            )


def test_theoremA_matches_brute_force_at_9():
    """Closed form against the brute-force interval for n = 9 and every k
    (about 1 s on a 2-core VM)."""
    for k in range(1, 9):
        w = max_coset_rep_A(9, k).w
        assert theoremA_poincare(9, k) == poincare_brute(Permutation.identity(9), w), k


def test_theoremA_matches_the_rook_route_beyond_brute_force():
    """Closed form against the hull route for all 1 <= k < n <= 20, past
    the n <= 8 that the brute-force tests reach (about 1.3 s)."""
    for n in range(2, 21):
        for k in range(1, n):
            rook = poincare_via_rook(Permutation.identity(n), max_coset_rep_A(n, k).w)
            assert theoremA_poincare(n, k) == rook, (n, k)


@pytest.mark.parametrize("n", [24, 28])
def test_theoremA_matches_the_rook_route_on_thin_cosets(n):
    """k = n / 4: the right hull's rows take n - k distinct first one-cells
    but only k last ones, so the full placement scans the hull's columns
    from the left: 0.003-0.005 s at n = 24 and 0.01-0.02 s at n = 28 on a
    2-core VM.  Down the hull's own rows it took 0.45-0.77 s and 7.1 s."""
    rook = poincare_via_rook(Permutation.identity(n), max_coset_rep_A(n, n // 4).w)
    assert rook == theoremA_poincare(n, n // 4)


def test_theoremA_matches_the_paper_sum_by_products():
    """The Horner route against the paper's sum taken term by term with
    LaurentPoly products, i running over 0..k, for all 1 <= k < n <= 30."""
    for n in range(2, 31):
        for k in range(1, n):
            total = ZERO
            for i in range(k + 1):
                term = q_stirling(k + 1, i + 1).substitute_q_inverse()
                term = term * q_stirling(n - k + 1, i + 1).substitute_q_inverse()
                term = term * q_factorial(i) * q_factorial(i) * LaurentPoly.monomial(i)
                total = total + term
            assert theoremA_poincare(n, k) == LaurentPoly.monomial(k * (n - k)) * total, (n, k)


@pytest.mark.parametrize("n, k", [(60, 30), (61, 20)])
def test_theoremA_at_one_matches_the_counting_dp_far_out(n, k):
    value = theoremA_poincare(n, k).evaluate_at_one()
    assert value == count_lower_interval_dp(max_coset_rep_A(n, k))


def test_counting_dp_matches_the_rook_route_on_every_rep():
    """The counting recurrence against the hull route at q = 1, on all
    8,166 coset representatives with n <= 12 (about 3 s)."""
    reps = [rep for n in range(2, 13) for k in range(1, n) for rep in coset_reps_A(n, k)]
    assert len(reps) == 8166
    for rep in reps:
        rook = poincare_via_rook(Permutation.identity(rep.n), rep.w)
        assert count_lower_interval_dp(rep) == rook.evaluate_at_one(), rep


def test_theoremA_at_one_matches_counts():
    for n in range(2, 8):
        for k in range(1, n):
            value = theoremA_poincare(n, k).evaluate_at_one()
            sym, alt, pb = theorem8_counts(n, k)
            assert value == sym == alt == pb
            assert value == count_lower_interval_dp(max_coset_rep_A(n, k))


def test_theorem8_counts_frozen():
    assert theorem8_counts(2, 1) == (2, 2, 2)
    assert theorem8_counts(3, 2) == (4, 4, 4)
    assert theorem8_counts(4, 2) == (14, 14, 14)
    assert theorem8_counts(5, 2) == (46, 46, 46)
    with pytest.raises(ValueError):
        theorem8_counts(3, 3)


def test_aztec_interval_sizes():
    assert [aztec_interval_size(n) for n in range(1, 5)] == [2, 4, 8, 16]
    with pytest.raises(ValueError):
        aztec_interval_size(0)


def test_aztec_matches_two_sided_brute_force():
    for n in (1, 2):
        w = max_coset_rep_A(2 * n, n).w
        u = w.flip_ud()
        count = sum(
            1
            for v in all_permutations(2 * n)
            if bruhat_leq(u, v) and bruhat_leq(v, w)
        )
        assert count == 2**n


def test_max_rep_hull_is_a_flipped_block_composition():
    for n in range(2, 7):
        for k in range(1, n):
            w = max_coset_rep_A(n, k).w
            want = block_sharp(triangular(n - k).rotate180(), triangular(k)).flip_ud()
            assert right_hull(w) == want


# -- hyperoctahedral group --------------------------------------------------------


def test_signed_permutation_validation():
    SignedPermutation(P("3412"))
    SignedPermutation(P("2143"))
    with pytest.raises(ValueError):
        SignedPermutation(P("213"))  # odd size
    with pytest.raises(ValueError):
        SignedPermutation(P("2134"))  # not rotationally symmetric
    s = SignedPermutation(P("3412"))
    assert s.n == 2
    assert s.p.neg_statistic() == 2


def test_rank_B_frozen():
    assert rank_B(SignedPermutation(P("21"))) == 1
    assert rank_B(SignedPermutation(P("3412"))) == 3
    assert rank_B(SignedPermutation(P("1234"))) == 0
    assert rank_B(SignedPermutation(P("4321"))) == 4


def test_max_coset_rep_B_frozen():
    assert max_coset_rep_B(2).p == P("3412")
    assert max_coset_rep_B(3).p == P("456123")
    with pytest.raises(ValueError):
        max_coset_rep_B(0)


def test_symmetric_permutations_enumeration():
    for n in range(4):
        got = list(symmetric_permutations(n))
        assert len(got) == 2**n * math.factorial(n)
        assert len({s.p for s in got}) == len(got)
        for s in got:
            assert s.p.rotate180() == s.p


def test_theoremB_frozen():
    assert theoremB_poincare(1) == poly({0: 1, 1: 1})
    assert theoremB_poincare(2) == poly({0: 1, 1: 2, 2: 2, 3: 1})
    with pytest.raises(ValueError):
        theoremB_poincare(0)


def test_theoremB_matches_brute_force():
    for n in range(1, 4):
        assert theoremB_poincare(n) == poincare_B_brute(n)


def test_typeB_hull_route_matches_the_closed_form():
    """Closed form against the signed hull DP for n <= 11, past the n <= 4
    that the group-scan tests reach (about 0.6 s)."""
    for n in range(1, 12):
        assert poincare_B_via_rook(n) == theoremB_poincare(n), n


def test_theoremB_shape():
    for n in range(1, 6):
        f = theoremB_poincare(n)
        assert f.min_exp() == 0 and f.coefficient(0) == 1
        assert f.degree() == n * (n + 1) // 2
        assert f.coefficient(f.degree()) == 1


def test_rank_B_is_graded_like_the_brute_poincare():
    # spot check: ranks of all symmetric permutations pair off under the
    # complement v -> rotate180 of the reversed word as rank <-> max - rank
    for n in (1, 2, 3):
        w0 = rank_B(SignedPermutation(Permutation(tuple(reversed(range(1, 2 * n + 1))))))
        pool = list(symmetric_permutations(n))
        for s in random.Random(3).sample(pool, min(6, len(pool))):
            mirror = SignedPermutation(
                Permutation(tuple(2 * n + 1 - v for v in s.p.word))
            )
            assert rank_B(mirror) == w0 - rank_B(s)

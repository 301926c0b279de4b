"""Permutation statistics, Bruhat order and pattern containment against
hand values and definition-level re-computations."""

import contextlib
import functools
import itertools
import operator
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewrook import permutations
from skewrook.boards import max_configs, ones, right_hull
from skewrook.intervals import max_coset_rep_A, symmetric_permutations
from skewrook.permutations import (
    FORBIDDEN_PATTERNS,
    Permutation,
    _avoids_forbidden,
    _interval_words,
    all_permutations,
    bruhat_interval,
    bruhat_leq,
    eulerian_gf,
    poincare_brute,
)
from skewrook.qalgebra import BiPoly, LaurentPoly

P = Permutation.from_text
SRC = str(Path(__file__).resolve().parents[1] / "src")
Q = LaurentPoly.monomial(1)


def perms(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(range(1, n + 1))
    ).map(lambda w: Permutation(tuple(w)))


def test_constructor_rejects_non_bijections():
    for bad in [(1, 1), (2, 3), (0, 1), ()]:
        if bad == ():
            Permutation(bad)  # the empty permutation is fine
        else:
            with pytest.raises(ValueError):
                Permutation(bad)


def test_trusted_construction_matches_checked():
    # the enumerators and symmetries that skip the checks of __init__ build
    # the same objects that a checked construction of their words would
    made = [
        *all_permutations(4),
        *max_configs(ones(4, 4)),
        *max_configs(right_hull(P("35142"))),
        *bruhat_interval(P("1324"), P("4231")),
        *(p.flip_ud() for p in all_permutations(4)),
        *(p.rotate180() for p in all_permutations(4)),
        *(s.p for s in symmetric_permutations(3)),
    ]
    for p in made:
        checked = Permutation(p.word)
        assert type(p.word) is tuple
        assert p == checked and hash(p) == hash(checked), p.word


def test_text_forms():
    assert P("35124").word == (3, 5, 1, 2, 4)
    assert P("3 5 1 2 4") == P("35124")
    assert P("35124").to_text() == "35124"
    big = Permutation(tuple(range(1, 11)))
    assert big.to_text() == "1 2 3 4 5 6 7 8 9 10"
    assert Permutation.from_text(big.to_text()) == big
    with pytest.raises(ValueError):
        Permutation.from_text("")
    with pytest.raises(ValueError):
        Permutation.from_text("10")  # compact digits: 1 then 0
    with pytest.raises(ValueError):
        Permutation.from_text("3x1")


@pytest.mark.parametrize("text", ["\u0661\u0662", "1\u00b2", "\u0662 \u0661", "1 +2", "-1 2"])
def test_text_forms_take_ascii_digits_only(text):
    # int() and str.isdigit() accept other scripts' digits and superscripts
    with pytest.raises(ValueError, match="bad permutation text"):
        Permutation.from_text(text)


def test_inversions_frozen():
    assert Permutation.identity(5).inversions() == 0
    assert P("3412").inversions() == 4
    assert P("35124").inversions() == 5
    assert P("21").inversions() == 1


@given(perms(7))
def test_inversions_matches_pair_scan(p):
    w = p.word
    n = len(w)
    want = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
    assert p.inversions() == want


def test_rank_count_frozen():
    ident = Permutation.identity(6)
    for i in range(1, 7):
        assert ident.rank_count(i, 1) == i
    assert P("3412").rank_count(2, 3) == 2
    with pytest.raises(ValueError):
        P("3412").rank_count(0, 1)
    with pytest.raises(ValueError):
        P("3412").rank_count(1, 5)


@given(perms(6), st.integers(1, 6))
def test_rank_count_bottom_row(p, j):
    n = p.size
    if j <= n:
        assert p.rank_count(n, j) == n - j + 1


@given(perms(5), st.data())
def test_rank_count_matches_definition(p, data):
    i = data.draw(st.integers(1, p.size))
    j = data.draw(st.integers(1, p.size))
    want = sum(1 for a in range(1, i + 1) if p(a) >= j)
    assert p.rank_count(i, j) == want


def test_bruhat_leq_frozen():
    assert bruhat_leq(P("32154"), P("35124"))
    assert not bruhat_leq(P("4321"), P("4231"))
    assert bruhat_leq(P("4231"), P("4321"))
    with pytest.raises(ValueError):
        bruhat_leq(P("21"), P("321"))


@given(perms(5))
def test_identity_is_minimum(p):
    assert bruhat_leq(Permutation.identity(p.size), p)


@given(perms(5), st.data())
def test_flip_antiautomorphism(p, data):
    r = data.draw(st.permutations(range(1, p.size + 1)).map(lambda w: Permutation(tuple(w))))
    assert bruhat_leq(p, r) == bruhat_leq(r.flip_ud(), p.flip_ud())


def test_bruhat_leq_is_transposition_closure():
    # reachability from w by inversion-reducing transpositions, exhaustively
    for n in range(1, 5):
        perms_n = list(all_permutations(n))
        for w in perms_n:
            seen = {w}
            queue = [w]
            while queue:
                cur = queue.pop()
                word = cur.word
                for i in range(n):
                    for j in range(i + 1, n):
                        if word[i] > word[j]:
                            nxt = list(word)
                            nxt[i], nxt[j] = nxt[j], nxt[i]
                            cand = Permutation(tuple(nxt))
                            if cand not in seen:
                                seen.add(cand)
                                queue.append(cand)
            for u in perms_n:
                assert bruhat_leq(u, w) == (u in seen), (u.word, w.word)


def test_interval_frozen():
    ident3 = Permutation.identity(3)
    assert bruhat_interval(ident3, ident3) == {ident3}
    assert bruhat_interval(ident3, P("231")) == {
        P("123"),
        P("132"),
        P("213"),
        P("231"),
    }
    assert len(bruhat_interval(Permutation.identity(4), P("3412"))) == 14


@given(perms(5), st.data())
def test_interval_matches_unpruned_filter(u, data):
    w = data.draw(st.permutations(range(1, u.size + 1)).map(lambda x: Permutation(tuple(x))))
    want = {
        v
        for v in all_permutations(u.size)
        if bruhat_leq(u, v) and bruhat_leq(v, w)
    }
    assert bruhat_interval(u, w) == want


def rank_table(word):
    """The rank counts #{a <= i : word(a) >= j} for 0 <= i, j <= n, row
    after row in one tuple; row i is row i - 1 plus word(i)'s indicators."""
    row = [0] * (len(word) + 1)
    table = list(row)
    for v in word:
        row = [c + (v >= j) for j, c in enumerate(row)]
        table += row
    return tuple(table)


def table_leq(pt, rt):
    """Oracle for bruhat_leq on two full rank tables: entrywise at most."""
    return all(map(operator.le, pt, rt))


def sn_tables(n):
    """Every word of S_n, in itertools.permutations order, with its table."""
    return {v: rank_table(v) for v in itertools.permutations(range(1, n + 1))}


def filter_interval(u, w, tables):
    """Oracle for _interval_words: the plain filter of S_n, keeping the words
    whose rank tables lie between those of u and w, in the order of tables."""
    ut, wt = tables[u], tables[w]
    return [v for v, vt in tables.items() if table_leq(ut, vt) and table_leq(vt, wt)]


@functools.cache
def sn_order(n):
    """The full-table relation on every pair of S_n, keyed in the order of
    sn_tables(n)."""
    tables = sn_tables(n)
    return {(p, r): table_leq(pt, rt) for p, pt in tables.items() for r, rt in tables.items()}


def test_bruhat_leq_matches_full_rank_tables():
    # every pair of S_0 .. S_5
    for n in range(6):
        for (p, r), want in sn_order(n).items():
            assert bruhat_leq(Permutation(p), Permutation(r)) == want, (p, r)


def test_interval_words_match_plain_filter_exhaustive():
    # every pair of S_0 .. S_5: the same words in the same order; the filter
    # reads the relation tabled once per n instead of comparing tables again
    for n in range(6):
        leq = sn_order(n)
        words = list(itertools.permutations(range(1, n + 1)))
        for u in words:
            for w in words:
                want = [v for v in words if leq[u, v] and leq[v, w]]
                assert list(_interval_words(u, w)) == want, (u, w)


def test_interval_words_match_plain_filter_on_random_pairs():
    """150 seeded pairs with n = 6, 7, 8 (90, 45 and 15 of them), u the
    identity or random: 88 nonempty intervals, 59,079 words (about 3.5 s on
    a 2-core VM, nearly all of it the filter's scans)."""
    rng = random.Random(12)
    for n, count in ((6, 90), (7, 45), (8, 15)):
        tables = sn_tables(n)
        for t in range(count):
            w = tuple(rng.sample(range(1, n + 1), n))
            u = tuple(range(1, n + 1)) if t % 2 else tuple(rng.sample(range(1, n + 1), n))
            assert list(_interval_words(u, w)) == filter_interval(u, w, tables), (u, w)


@pytest.mark.parametrize("n", [14, 40])
def test_incomparable_pair_is_answered_before_the_search(n):
    # u = 1 .. n-2, n, n-1 is not below w = n-1 .. 1, n; a search that walked
    # every prefix down to the failing row took 11 s at n = 11, so the calls
    # run in a child that the timeout kills, and each reports its own time
    code = (
        "import time\n"
        "from skewrook.permutations import *\n"
        f"n = {n}\n"
        "u = Permutation(tuple(range(1, n - 1)) + (n, n - 1))\n"
        "w = Permutation(tuple(range(n - 1, 0, -1)) + (n,))\n"
        "for f in (bruhat_interval, poincare_brute, eulerian_gf):\n"
        "    t = time.perf_counter()\n"
        "    empty = not f(u, w)\n"
        "    print(f.__name__, empty, time.perf_counter() - t)\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert r.returncode == 0, r.stderr
    rows = [line.split() for line in r.stdout.splitlines()]
    assert [row[:2] for row in rows] == [
        ["bruhat_interval", "True"],
        ["poincare_brute", "True"],
        ["eulerian_gf", "True"],
    ]
    assert all(float(row[2]) < 1.0 for row in rows), rows


def test_interval_monotone_under_extension():
    ident = Permutation.identity(4)
    for u in all_permutations(4):
        for w in all_permutations(4):
            if bruhat_leq(u, w):
                assert bruhat_interval(ident, u) <= bruhat_interval(ident, w)


def test_poincare_brute_frozen():
    ident = Permutation.identity(4)
    assert poincare_brute(ident, ident) == LaurentPoly.constant(1)
    assert poincare_brute(Permutation.identity(2), P("21")) == 1 + Q
    assert poincare_brute(ident, P("3412")) == 1 + 3 * Q + 5 * Q ** 2 + 4 * Q ** 3 + Q ** 4
    # incomparable pair gives the zero polynomial
    assert poincare_brute(P("21435"), P("32145")).is_zero


@given(perms(5), st.data())
def test_poincare_counts_the_interval(u, data):
    w = data.draw(st.permutations(range(1, u.size + 1)).map(lambda x: Permutation(tuple(x))))
    poly = poincare_brute(u, w)
    assert poly.evaluate_at_one() == len(bruhat_interval(u, w))


def test_pattern_containment_frozen():
    assert P("4231").contains_pattern(P("4231"))
    assert not Permutation.identity(6).contains_pattern(P("4231"))
    assert P("35142").contains_pattern(P("231"))
    fig4 = P("687594123")
    for pat in FORBIDDEN_PATTERNS:
        assert not fig4.contains_pattern(pat)
    assert fig4.avoids_forbidden()
    assert not P("4231").avoids_forbidden()
    assert not P("351624").avoids_forbidden()


def standardize(vals):
    """The word order-isomorphic to vals."""
    order = sorted(range(len(vals)), key=vals.__getitem__)
    iso = [0] * len(vals)
    for rank, t in enumerate(order, 1):
        iso[t] = rank
    return tuple(iso)


def scan_pattern(word, pat):
    """Oracle for Permutation._find_pattern: try every position set in
    itertools.combinations order and return the first (1-indexed) hit."""
    for idxs in itertools.combinations(range(len(word)), len(pat)):
        if standardize([word[i] for i in idxs]) == pat:
            return tuple(i + 1 for i in idxs)
    return None


@given(perms(6), st.data())
def test_pattern_containment_matches_subsequence_scan(p, data):
    pat = data.draw(st.sampled_from([P("21"), P("231"), P("4231"), P("35142")]))
    want = scan_pattern(p.word, pat.word) is not None
    assert p.contains_pattern(pat) == want


def test_find_pattern_matches_scan_exhaustive():
    # every word of S_0 .. S_7 against all four patterns: the same first
    # occurrence, not just the same yes/no answer
    for n in range(8):
        for word in itertools.permutations(range(1, n + 1)):
            p = Permutation(word)
            for pat in FORBIDDEN_PATTERNS:
                assert p._find_pattern(pat) == scan_pattern(word, pat.word), (word, pat)


@st.composite
def planted(draw):
    """A word of size 8..12 with a forbidden pattern planted at random
    positions on random values; the other values are shuffled around it."""
    n = draw(st.integers(8, 12))
    pat = draw(st.sampled_from(FORBIDDEN_PATTERNS)).word
    k = len(pat)
    slots = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    values = sorted(draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)))
    rest = draw(st.permutations([v for v in range(1, n + 1) if v not in values]))
    word = list(rest)
    for slot, r in zip(slots, pat):
        word.insert(slot, values[r - 1])
    return Permutation(tuple(word)), Permutation(pat), tuple(s + 1 for s in slots)


@given(planted())
def test_find_pattern_matches_scan_on_planted_words(case):
    p, pat, slots = case
    assert standardize([p(i) for i in slots]) == pat.word
    hit = p._find_pattern(pat)
    assert hit is not None and hit <= slots
    assert hit == scan_pattern(p.word, pat.word)
    with search_only():
        searched = p.find_forbidden()
    assert searched is not None and p.find_forbidden() == searched


def test_find_pattern_edge_cases():
    empty = Permutation(())
    one = Permutation.identity(1)
    assert P("21")._find_pattern(P("4231")) is None  # pattern longer than the word
    assert empty._find_pattern(one) is None
    assert empty._find_pattern(empty) == ()
    assert P("4231")._find_pattern(empty) == ()
    assert one._find_pattern(one) == (1,)
    assert one._find_pattern(P("21")) is None
    assert empty.find_forbidden() is None and one.find_forbidden() is None
    for p in (empty, one, P("21"), P("4231")):
        for pat in (empty, one, P("21"), P("4231")):
            assert p._find_pattern(pat) == scan_pattern(p.word, pat.word)


def test_find_pattern_has_no_depth_limit():
    # a pattern far longer than the recursion limit, found and refuted
    big = Permutation.identity(1200)
    assert big._find_pattern(Permutation.identity(1100)) == tuple(range(1, 1101))
    assert big.contains_pattern(Permutation.identity(1100))
    assert big._find_pattern(Permutation(tuple(range(1100, 0, -1)))) is None


def test_find_forbidden_reports_positions():
    hit = P("4231").find_forbidden()
    assert hit is not None
    pattern, positions = hit
    assert pattern == P("4231") and positions == (1, 2, 3, 4)
    assert P("687594123").find_forbidden() is None


@given(perms(7))
def test_find_forbidden_witness_is_order_isomorphic(p):
    hit = p.find_forbidden()
    if hit is None:
        assert p.avoids_forbidden()
        return
    pattern, positions = hit
    assert list(positions) == sorted(positions)
    assert standardize([p(i) for i in positions]) == pattern.word


@contextlib.contextmanager
def search_only():
    """Stub the essential-set criterion to reject every word, so that
    find_forbidden runs its depth-first search alone: the criterion's
    oracle."""
    with mock.patch.object(permutations, "_avoids_forbidden", lambda word: False):
        yield


def searched_words(words):
    """Each word with the search's answer, (pattern, positions) or None: the
    first occurrence of the first forbidden pattern that occurs, as
    find_forbidden reports it once the criterion has rejected the word."""

    def search(p):
        for pat in FORBIDDEN_PATTERNS:
            hit = p._find_pattern(pat)
            if hit is not None:
                return pat, hit
        return None

    return [(w, search(Permutation(w))) for w in words]


def test_find_forbidden_raises_when_criterion_and_search_disagree(monkeypatch):
    # an avoider that the criterion wrongly rejects: the search finds no
    # occurrence, and that is an internal error, not an "avoids" answer
    monkeypatch.setattr(permutations, "_avoids_forbidden", lambda word: False)
    with pytest.raises(RuntimeError, match="no forbidden pattern occurs"):
        P("687594123").find_forbidden()
    with pytest.raises(RuntimeError):
        Permutation(()).find_forbidden()


def test_criterion_matches_search_exhaustive():
    # every word of S_0 .. S_8: 46,234 words, 14,716 of them avoiders
    avoiders = 0
    for n in range(9):
        for w, hit in searched_words(itertools.permutations(range(1, n + 1))):
            assert _avoids_forbidden(w) == (hit is None), w
            avoiders += hit is None
    assert avoiders == 14716


def seeded_long_words(count, seed):
    """count words of 10..30 letters: the odd ones uniform, the even ones
    short walks of adjacent swaps from the identity, since a uniform long
    word almost never avoids the four patterns."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(10, 30)
        w = list(range(1, n + 1))
        if t % 2:
            rng.shuffle(w)
        else:
            for _ in range(rng.randint(1, n)):
                i = rng.randrange(n - 1)
                w[i], w[i + 1] = w[i + 1], w[i]
        yield tuple(w)


def test_criterion_matches_search_on_seeded_long_words():
    avoiders = 0
    for w, hit in searched_words(seeded_long_words(4000, 16)):
        assert _avoids_forbidden(w) == (hit is None), w
        avoiders += hit is None
    assert avoiders > 1000  # the walks keep both answers well represented


def test_criterion_on_patterns_and_tiny_words():
    for pat in FORBIDDEN_PATTERNS:
        assert not _avoids_forbidden(pat.word)
        assert not pat.avoids_forbidden()
        assert pat.find_forbidden() == (pat, tuple(range(1, pat.size + 1)))
    for w in ((), (1,)):
        assert _avoids_forbidden(w)
        assert Permutation(w).avoids_forbidden() and Permutation(w).find_forbidden() is None


@pytest.mark.parametrize("n", [10, 25, 40, 60])
def test_criterion_on_coset_representatives(n):
    reps = [max_coset_rep_A(n, k).w.word for k in (1, n // 3, n // 2, n - 1)]
    for w, hit in searched_words(reps):
        assert hit is None and _avoids_forbidden(w), w


def test_find_forbidden_witness_matches_search():
    # every containing word of S_0 .. S_7 gets the search's own witness
    for n in range(8):
        for w, hit in searched_words(itertools.permutations(range(1, n + 1))):
            if hit is not None:
                assert Permutation(w).find_forbidden() == hit, w


def test_flip_and_rotate_frozen():
    assert Permutation.identity(4).flip_ud() == P("4321")
    assert P("56781234").flip_ud() == P("43218765")
    assert P("2143").rotate180() == P("2143")
    assert P("35124").rotate180() == P("24513")


@given(perms(7))
def test_flip_and_rotate_are_involutions(p):
    assert p.flip_ud().flip_ud() == p
    assert p.rotate180().rotate180() == p


@given(perms(7))
def test_flip_formula(p):
    n = p.size
    assert p.flip_ud().word == tuple(p(n - i) for i in range(n))
    assert p.rotate180().word == tuple(n + 1 - p(n - i) for i in range(n))


def test_descent_number_frozen():
    assert Permutation.identity(5).descent_number() == 0
    assert P("54321").descent_number() == 4
    assert P("3412").descent_number() == 1


def test_eulerian_gf_frozen():
    ident = Permutation.identity(3)
    assert eulerian_gf(ident, ident) == BiPoly({0: 1})
    ident2 = Permutation.identity(2)
    assert eulerian_gf(ident2, P("21")) == BiPoly({0: 1, 1: Q})
    # interval {123,132,213,231}: descents/lengths (0,0),(1,1),(1,1),(1,2)
    assert eulerian_gf(ident, P("231")) == BiPoly({0: 1, 1: 2 * Q + Q ** 2})


@given(perms(5))
def test_eulerian_gf_specializations(p):
    ident = Permutation.identity(p.size)
    gf = eulerian_gf(ident, p)
    total = LaurentPoly()
    for _, coeff in gf.items():
        total = total + coeff
    assert total == poincare_brute(ident, p)

"""Exact Laurent-polynomial arithmetic and the q-number zoo."""

import copy
import json
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from skewrook.qalgebra import (
    BiPoly,
    _add_dense,
    _dense,
    _digit_width,
    _from_dense,
    _mul_dense,
    _pack as _byte_pack,
    _q_stirling_step,
    _shift,
    _stirling2_row,
    _times_q_int,
    _unpack,
    ZERO,
    LaurentPoly,
    poly_bernoulli,
    q_factorial,
    q_falling,
    q_int,
    q_stirling,
    stirling2,
)

Q = LaurentPoly.monomial(1)
SRC = str(Path(__file__).resolve().parents[1] / "src")

laurent_polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-50, 50), max_size=6
).map(LaurentPoly)


@pytest.mark.parametrize("value", [
    ZERO,
    LaurentPoly({-3: 2, 0: -1, 4: 5}),
    BiPoly({}),
    BiPoly({0: LaurentPoly({-1: -7}), 2: -3, 5: LaurentPoly({0: 1, 9: 2})}),
], ids=["zero", "laurent", "bi-zero", "bi"])
def test_polynomials_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value
        assert twin.items() == value.items() and hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            twin._coeffs = {}


def test_constructor_drops_zero_coefficients():
    p = LaurentPoly({0: 1, 3: 0, -2: 5})
    assert p.items() == ((-2, 5), (0, 1))
    assert p.coefficient(3) == 0


def test_zero_polynomial():
    z = LaurentPoly()
    assert z.is_zero
    assert not z
    assert z == LaurentPoly({2: 0})
    with pytest.raises(ValueError):
        z.min_exp()
    with pytest.raises(ValueError):
        z.degree()


def test_repeated_exponents_cancel_in_both_constructors():
    assert LaurentPoly([(1, 2), (1, -2)]) == ZERO
    assert LaurentPoly([(1, 2), (1, -2), (1, 1)]) == Q
    f = BiPoly([(1, Q), (1, -Q)])
    assert f.items() == () and f.is_zero and not f


def test_int_on_the_left_and_hashes_of_constants():
    assert 3 - Q == LaurentPoly({0: 3, 1: -1})
    assert len({LaurentPoly({0: 5}), 5}) == 1
    assert hash(ZERO) == hash(0)


def test_monomial_and_constant():
    assert LaurentPoly.monomial(3, 2) == LaurentPoly({3: 2})
    assert LaurentPoly.constant(7) == LaurentPoly({0: 7})
    assert LaurentPoly.monomial(1, 0).is_zero


def _convolve(a, b):
    """The product of two coefficient maps, by the definition."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _assert_canonical(p, coeffs):
    """p holds exactly the nonzero coefficients of the map coeffs, and
    equals and hashes like the polynomial the checking constructor builds."""
    built = LaurentPoly(coeffs)
    assert p == built and hash(p) == hash(built)
    assert p.items() == tuple(sorted((e, c) for e, c in coeffs.items() if c))


def test_monomial_zero_stores_no_coefficient():
    for e in (-3, 0, 5):
        m = LaurentPoly.monomial(e, 0)
        assert m == ZERO and m.is_zero and m.items() == () and hash(m) == hash(ZERO)
        assert m.coefficient(e) == 0


def test_one_term_products_match_the_convolution():
    rng = random.Random(20261019)
    for _ in range(600):
        dense = {rng.randint(-9, 9): rng.choice([0, 1, -1, rng.randint(-10**6, 10**6), 3**50])
                 for _ in range(rng.randint(0, 8))}
        p = LaurentPoly(dense)
        s = rng.randint(-12, 12)
        c = rng.choice([1, -1, 2, -7, rng.randint(-10**9, 10**9) or 1, -(2**70)])
        m = LaurentPoly.monomial(s, c)
        _assert_canonical(m, {s: c})
        want = _convolve(dict(p.items()), {s: c})
        for got in (p * m, m * p):
            _assert_canonical(got, want)
        k = rng.choice([0, 1, -1, 3, rng.randint(-10**6, 10**6)])
        want = _convolve(dict(p.items()), {0: k})
        for got in (k * p, p * k):
            _assert_canonical(got, want)
        t = rng.randint(-5, 5)
        _assert_canonical(m * LaurentPoly.monomial(t, k), _convolve({s: c}, {t: k}))
    assert 3 * Q == Q * 3 == LaurentPoly({1: 3})
    assert -1 * LaurentPoly({-2: 4, 3: -1}) == LaurentPoly({-2: -4, 3: 1})


@given(laurent_polys, st.integers(-9, 9), st.integers(-9, 9), st.sampled_from([1, -1, -7, 3**50]))
@example(ZERO, -4, 3, 1)
@example(LaurentPoly({-5: -2, -1: 7, 3: -1}), -3, 5, -1)
def test_shift_is_the_product_by_a_monic_monomial(p, a, b, c):
    """_shift(p, s) is q^s p, canonical, on the zero polynomial, negative
    exponents and negative coefficients, and two shifts compose; a product
    by c q^s, monic or not, on either side, is still the convolution."""
    _assert_canonical(_shift(p, a), _convolve(dict(p.items()), {a: 1}))
    assert _shift(p, a) == p * LaurentPoly.monomial(a) == LaurentPoly.monomial(a) * p
    assert _shift(_shift(p, a), b) == _shift(p, a + b)
    m = LaurentPoly.monomial(a, c)
    for got in (p * m, m * p):
        _assert_canonical(got, _convolve(dict(p.items()), {a: c}))


def test_q_int_is_canonical():
    for m in range(-6, 7):
        want = {e: 1 for e in range(m)} if m >= 0 else {e: -1 for e in range(m, 0)}
        _assert_canonical(q_int(m), want)


def test_arithmetic_small():
    p = 1 + Q
    assert p * p == 1 + 2 * Q + Q ** 2
    assert p - p == LaurentPoly()
    assert (LaurentPoly.monomial(-1) + 1) * Q == 1 + Q
    assert LaurentPoly.monomial(1, 2) ** 3 == LaurentPoly.monomial(3, 8)
    with pytest.raises(ValueError):
        Q ** -1


@given(laurent_polys, laurent_polys, laurent_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


@given(laurent_polys)
def test_q_inverse_is_an_involution(p):
    assert p.substitute_q_inverse().substitute_q_inverse() == p


@given(laurent_polys, laurent_polys)
def test_q_inverse_is_multiplicative(a, b):
    assert (a * b).substitute_q_inverse() == (
        a.substitute_q_inverse() * b.substitute_q_inverse()
    )


@given(laurent_polys, st.integers(1, 4))
def test_stretch_matches_exponent_scaling(p, m):
    assert p.stretch(m) == LaurentPoly({m * e: c for e, c in p.items()})


@given(laurent_polys)
def test_evaluate_at_one_sums_coefficients(p):
    assert p.evaluate_at_one() == sum(c for _, c in p.items())


@given(laurent_polys)
def test_json_round_trip(p):
    encoded = json.dumps(p.to_json_dict())
    assert LaurentPoly.from_json_dict(json.loads(encoded)) == p


def test_json_schema_frozen_forms():
    assert LaurentPoly().to_json_dict() == {"min_exp": 0, "coeffs": ["0"]}
    p = 1 + 3 * Q + 5 * Q ** 2 + 4 * Q ** 3 + Q ** 4
    assert p.to_json_dict() == {"min_exp": 0, "coeffs": ["1", "3", "5", "4", "1"]}
    gap = LaurentPoly({-1: 2, 1: 1})
    assert gap.to_json_dict() == {"min_exp": -1, "coeffs": ["2", "0", "1"]}


@pytest.mark.parametrize(
    "obj",
    [
        {"coeffs": ["1"]},
        {"min_exp": 0, "coeffs": ["1"], "extra": 1},
        {"min_exp": "0", "coeffs": ["1"]},
        {"min_exp": 0, "coeffs": []},
        {"min_exp": 0, "coeffs": ["x"]},
        {"min_exp": 0, "coeffs": [1]},
        {"min_exp": 0, "coeffs": ["0", "1"]},
        {"min_exp": 0, "coeffs": ["1", "0"]},
        {"min_exp": 1, "coeffs": ["0"]},
        # only the canonical decimal strings to_json_dict writes
        {"min_exp": 0, "coeffs": ["\u0663"]},  # ARABIC-INDIC DIGIT THREE
        {"min_exp": 0, "coeffs": ["01"]},
        {"min_exp": 0, "coeffs": ["-0"]},
        {"min_exp": 0, "coeffs": ["1", "-0", "1"]},
    ],
)
def test_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        LaurentPoly.from_json_dict(obj)


def test_str_forms():
    assert str(LaurentPoly()) == "0"
    assert str(1 + 2 * Q + Q ** 3) == "1 + 2*q + q^3"
    assert str(LaurentPoly({-1: -1})) == "-q^-1"


def test_bipoly_basics():
    f = BiPoly({0: 1, 1: Q})
    assert f.coefficient(1) == Q
    assert f.coefficient(5).is_zero
    with pytest.raises(ValueError):
        BiPoly({-1: 1})


def test_q_int_values():
    assert q_int(0).is_zero
    assert q_int(1) == LaurentPoly.constant(1)
    assert q_int(3) == 1 + Q + Q ** 2
    # [-m] = -q^-m [m]
    assert q_int(-1) == LaurentPoly({-1: -1})
    assert q_int(-3) == -LaurentPoly.monomial(-3) * q_int(3)


@given(st.integers(-8, 8))
def test_q_int_at_one_is_the_integer(m):
    assert q_int(m).evaluate_at_one() == m


def test_q_factorial_values():
    assert q_factorial(0) == LaurentPoly.constant(1)
    assert q_factorial(2) == 1 + Q
    assert q_factorial(3) == 1 + 2 * Q + 2 * Q ** 2 + Q ** 3


@given(st.integers(0, 6))
def test_q_factorial_recurrence(i):
    assert q_factorial(i + 1) == q_int(i + 1) * q_factorial(i)


def test_q_factorial_any_access_order_and_threads():
    # the uncached fill, asked above and below its top row in shuffled
    # order: first from this thread alone, then from eight threads at once
    want = [LaurentPoly.constant(1)]
    for i in range(1, 41):
        want.append(want[-1] * q_int(i))
    wrong = []

    def work(seed):
        order = list(range(41))
        random.Random(seed).shuffle(order)
        wrong.extend(i for i in order if q_factorial.__wrapped__(i) != want[i])

    work(0)
    assert wrong == []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(s,)) for s in range(1, 9)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in workers)
    assert wrong == []


def test_q_factorial_far_below_the_recursion_limit():
    # a cold fill in a fresh interpreter whose stack holds 100 frames
    code = (
        "import math, sys; from skewrook.qalgebra import q_factorial; "
        "sys.setrecursionlimit(100); p = q_factorial(250); "
        "print(p.degree(), p.evaluate_at_one() == math.factorial(250))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == [str(250 * 249 // 2), "True"]


@given(st.integers(-5, 5), st.integers(0, 4))
def test_q_falling_is_the_product(x, k):
    acc = LaurentPoly.constant(1)
    for i in range(k):
        acc = acc * q_int(x - i)
    assert q_falling(x, k) == acc


def test_q_stirling_row_three():
    assert q_stirling(3, 1) == LaurentPoly.constant(1)
    assert q_stirling(3, 2) == 2 * Q + Q ** 2
    assert q_stirling(3, 3) == Q ** 3


def test_q_stirling_outside_range():
    assert q_stirling(0, 0) == LaurentPoly.constant(1)
    assert q_stirling(3, 0).is_zero
    assert q_stirling(2, 5).is_zero


@given(st.integers(0, 8), st.integers(0, 9))
def test_q_stirling_recurrence(n, k):
    lhs = q_stirling(n + 1, k)
    rhs = LaurentPoly.monomial(k - 1) * q_stirling(n, k - 1) + q_int(k) * q_stirling(
        n, k
    )
    assert lhs == rhs


@given(st.integers(0, 9), st.integers(0, 9))
def test_q_stirling_at_one_is_stirling(n, k):
    assert q_stirling(n, k).evaluate_at_one() == stirling2(n, k)


def test_stirling2_frozen_rows():
    rows = {
        0: [1],
        1: [0, 1],
        2: [0, 1, 1],
        3: [0, 1, 3, 1],
        4: [0, 1, 7, 6, 1],
        5: [0, 1, 15, 25, 10, 1],
    }
    for n, row in rows.items():
        assert [stirling2(n, k) for k in range(n + 1)] == row


def test_stirling_tables_any_access_order():
    # q_stirling's column table and stirling2's kept rows against a plain
    # top-down recursion, entries asked for in a shuffled order so that
    # columns are extended out of turn and rows are climbed to from below
    @cache
    def top_down(n, k):
        if not 1 <= k <= n:
            return (LaurentPoly.constant(1), 1) if n == k == 0 else (LaurentPoly({}), 0)
        (qa, a), (qb, b) = top_down(n - 1, k - 1), top_down(n - 1, k)
        return LaurentPoly.monomial(k - 1) * qa + q_int(k) * qb, a + k * b

    cells = [(n, k) for n in range(13) for k in range(-1, n + 2)]
    random.Random(3).shuffle(cells)
    for n, k in cells:
        assert (q_stirling(n, k), stirling2(n, k)) == top_down(n, k)


def test_stirling_recurrences_at_depth_600():
    # a row far deeper than the interpreter's recursion limit
    assert q_stirling(600, 2) == (1 + Q) ** 599 - 1
    assert stirling2(600, 2) == 2 ** 599 - 1
    assert q_stirling(600, 600) == Q ** (600 * 599 // 2)


def test_times_q_int_is_the_product_by_q_int():
    # dense lists with interior zeros and signed 100-bit coefficients
    rng = random.Random(27)
    for _ in range(200):
        coeffs = [
            rng.choice((0, rng.randrange(-(2**100), 2**100)))
            for _ in range(rng.randrange(0, 25))
        ]
        kept = list(coeffs)
        for j in range(1, 13):
            out = _times_q_int(coeffs, j)
            assert len(out) == len(coeffs) + j - 1
            assert _from_dense(0, out) == _from_dense(0, coeffs) * q_int(j)
        assert coeffs == kept


def test_add_dense_grows_the_target_at_either_end():
    # a negative offset: d starts below out
    out = [1, 2, 3]
    assert _add_dense(5, out, 3, [7]) == 3 and out == [7, 0, 1, 2, 3]
    # d longer than out, past both of its ends
    out = [1, 1]
    assert _add_dense(0, out, -1, [1, 1, 1, 1, 1]) == -1 and out == [1, 2, 2, 1, 1]
    # d past the end of out, with a gap
    out = [1]
    assert _add_dense(0, out, 2, [4, 5]) == 0 and out == [1, 0, 4, 5]


def test_add_dense_with_an_empty_operand():
    out = [1, 2]
    assert _add_dense(4, out, -9, []) == 4 and out == [1, 2]
    out, d = [], [3, 0, 4]
    assert _add_dense(0, out, -2, d) == -2 and out == d and out is not d
    out = []
    assert _add_dense(6, out, 0, []) == 6 and out == []


@given(laurent_polys, laurent_polys)
def test_add_dense_is_polynomial_addition(a, b):
    lo, out = _dense(a)
    lo = _add_dense(lo, out, *_dense(b))
    assert _from_dense(lo, out) == a + b


@given(st.integers(1, 6), laurent_polys, laurent_polys)
def test_q_stirling_step_on_any_laurent_pair(j, diag, up):
    # offsets apart from the triangle's, and terms that cancel
    want = LaurentPoly.monomial(j - 1) * diag + q_int(j) * up
    _assert_canonical(_q_stirling_step(j, diag, up), dict(want.items()))


def test_q_stirling_triangle_matches_the_product_recurrence():
    # the reference: the recurrence by LaurentPoly products, row by row
    prev = [LaurentPoly.constant(1), ZERO]
    for n in range(1, 41):
        row = [ZERO]
        for k in range(1, n + 1):
            row.append(LaurentPoly({k - 1: 1}) * prev[k - 1] + q_int(k) * prev[k])
        row.append(ZERO)
        assert [q_stirling(n, k) for k in range(n + 2)] == row
        prev = row


def test_q_stirling_deep_row_at_one_is_stirling():
    assert [q_stirling(79, k).evaluate_at_one() for k in range(81)] == [
        stirling2(79, k) for k in range(81)
    ]


def test_poly_bernoulli_frozen_array():
    # rows n = 0..4 of B_n^(-k), k = 0..4
    want = [
        [1, 1, 1, 1, 1],
        [1, 2, 4, 8, 16],
        [1, 4, 14, 46, 146],
        [1, 8, 46, 230, 1066],
        [1, 16, 146, 1066, 6902],
    ]
    got = [[poly_bernoulli(n, -k) for k in range(5)] for n in range(5)]
    assert got == want


@given(st.integers(0, 10), st.integers(0, 10))
def test_poly_bernoulli_symmetry(n, k):
    assert poly_bernoulli(n, -k) == poly_bernoulli(k, -n)


@given(st.integers(0, 8), st.integers(0, 8))
def test_poly_bernoulli_double_stirling_form(n, k):
    # independent route: sum_j (j!)^2 S(n+1,j+1) S(k+1,j+1)
    fact = [1]
    for i in range(1, n + k + 2):
        fact.append(fact[-1] * i)
    want = sum(
        fact[j] ** 2 * stirling2(n + 1, j + 1) * stirling2(k + 1, j + 1)
        for j in range(min(n, k) + 1)
    )
    assert poly_bernoulli(n, -k) == want


def test_poly_bernoulli_matches_the_stirling2_table():
    for n in range(21):
        for k in range(21):
            want = (-1) ** n * sum(
                (-1) ** i * (i + 1) ** k * math.factorial(i) * stirling2(n, i)
                for i in range(n + 1)
            )
            assert poly_bernoulli(n, -k) == want, (n, k)


def test_stirling2_row_any_access_order_and_threads():
    # the row helper climbs from the nearest row kept below: rows asked for
    # in ascending, descending, repeated and shuffled order from this
    # thread, then in shuffled order from eight threads at once
    want = [tuple(stirling2(n, k) for k in range(n + 1)) for n in range(25)]
    wrong = []

    def work(order):
        wrong.extend(n for n in order if _stirling2_row(n) != want[n])

    shuffled = list(range(25)) * 2
    random.Random(5).shuffle(shuffled)
    for order in (range(25), range(24, -1, -1), [7, 7, 3, 3, 12, 12, 0, 0], shuffled):
        work(order)
    assert wrong == []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        orders = [random.Random(s).sample(range(25), 25) for s in range(8)]
        workers = [threading.Thread(target=work, args=(o,)) for o in orders]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in workers)
    assert wrong == []


def test_row_memos_any_access_order_and_threads():
    # stirling2, poly_bernoulli and q_factorial read kept rows, climbing to
    # a missing one from the nearest kept row below: all three asked for in
    # shuffled order from eight threads at once, against plain recurrences
    size = 40
    s2 = [[1]]
    for n in range(1, size + 2):
        s2.append([0] + [k * s2[-1][k] + s2[-1][k - 1] for k in range(1, n)] + [1])
    fact = [LaurentPoly.constant(1)]
    for i in range(1, size):
        fact.append(fact[-1] * q_int(i))
    calls = [(stirling2.__wrapped__, (n, k), s2[n][k]) for n in range(size) for k in range(n + 1)]
    calls += [(poly_bernoulli, (n, -k), sum(
        math.factorial(j) ** 2 * s2[n + 1][j + 1] * s2[k + 1][j + 1] for j in range(min(n, k) + 1)))
        for n in range(size) for k in range(0, size, 7)]
    calls += [(q_factorial.__wrapped__, (i,), fact[i]) for i in range(size)]
    wrong = []

    def work(seed):
        order = random.Random(seed).sample(calls, len(calls))
        wrong.extend((fn.__name__, args) for fn, args, want in order if fn(*args) != want)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(s,)) for s in range(8)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in workers)
    assert wrong == []


def test_poly_bernoulli_holds_one_stirling_row():
    # the whole stirling2 triangle below row 600 peaked near 78 MB
    code = (
        "import tracemalloc; from skewrook.qalgebra import poly_bernoulli; "
        "tracemalloc.start(); b = poly_bernoulli(600, -1); "
        "print(tracemalloc.get_traced_memory()[1], b == poly_bernoulli(1, -600))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    peak, same = r.stdout.split()
    assert same == "True"
    assert int(peak) < 10 * 2**20, f"peak {int(peak) / 2**20:.1f} MB"


def test_poly_bernoulli_rejects_positive_upper_index():
    with pytest.raises(ValueError):
        poly_bernoulli(2, 1)


# -- Kronecker packing -----------------------------------------------------------


def _pack(digits, w):
    # the oracle for the library's byte-digit packing: w bytes are 8w bits
    return sum(d << (8 * w * e) for e, d in enumerate(digits))


def test_unpack_zero():
    assert _unpack(0, 1) == []
    assert _unpack(0, 64) == []


def test_unpack_width_one():
    # one-byte digits
    assert _unpack(0x0B000201, 1) == [1, 2, 0, 11]
    assert _unpack(1, 1) == [1]


def test_unpack_interior_zero_digits():
    digits = [5, 0, 0, 7, 0, 1]
    assert _unpack(_pack(digits, 3), 3) == digits
    assert _unpack(_pack(digits, 40), 40) == digits


@pytest.mark.parametrize("w", [1, 2, 5, 8, 13, 64, 100])
def test_unpack_top_digit_all_ones(w):
    top = (1 << 8 * w) - 1
    digits = [top, 0, 1, top]
    assert _unpack(_pack(digits, w), w) == digits
    assert _unpack(top, w) == [top]


@given(st.lists(st.integers(0, 2**64 - 1), max_size=30), st.integers(8, 12))
def test_pack_is_the_shift_sum(digits, w):
    # trailing zero digits included; at w = 8 a digit may fill its 8 bytes
    assert _byte_pack(digits, w) == _pack(digits, w)


def test_digit_width_is_the_byte_length_of_the_count_product():
    # 8w bits, w the fewest bytes that hold the product; a zero count gives 0
    assert _digit_width([]) == 8  # the empty product 1
    assert _digit_width([255]) == 8 and _digit_width([256]) == 16
    assert _digit_width([16, 16]) == 16 and _digit_width([15, 17]) == 8
    assert _digit_width(iter([3, 0, 7])) == 0
    assert _digit_width(range(1, 21)) == 64  # 20! < 2^62


def _dict_product(a, b):
    """The dense list of length len(a) + len(b) - 1 of the dict schoolbook
    product of two dense lists, [] when either is empty."""
    if not a or not b:
        return []
    p = _from_dense(0, a) * _from_dense(0, b)
    return [p.coefficient(e) for e in range(len(a) + len(b) - 1)]


def test_mul_dense_is_the_dict_product():
    # seeded lists of unequal lengths with interior and end zeros, and
    # coefficients up to 2^200; the second call takes the squaring path
    rng = random.Random(32)
    for _ in range(300):
        a, b = (
            [rng.choice((0, rng.getrandbits(rng.randrange(1, 201)))) for _ in range(rng.randrange(31))]
            for _ in range(2)
        )
        kept = list(a), list(b)
        assert _mul_dense(a, b) == _dict_product(a, b), (a, b)
        assert _mul_dense(a, a) == _dict_product(a, a), a
        assert (a, b) == kept


def test_mul_dense_empty_and_one_entry_lists():
    assert _mul_dense([], []) == [] and _mul_dense([], [1, 2]) == [] and _mul_dense([3], []) == []
    assert _mul_dense([3], [5]) == [15]
    assert _mul_dense([0], [7, 1]) == [0, 0]
    assert _mul_dense([2], [0, 0, 5]) == [0, 0, 10]
    assert _mul_dense([1 << 70], [1 << 65]) == [1 << 135]


@pytest.mark.parametrize("bits", [1, 7, 8, 9, 63, 64, 65, 200])
@pytest.mark.parametrize(("la", "lb"), [(1, 1), (1, 9), (8, 8), (9, 40)])
def test_mul_dense_worst_carry(bits, la, lb):
    # every entry 2^b - 1 (and 2^(b+3) - 1 in b): the middle coefficients
    # are min(la, lb) max a max b, the most the product width must hold
    top_a, top_b = (1 << bits) - 1, (1 << (bits + 3)) - 1
    for a, b in (([top_a] * la, [top_a] * lb), ([top_a] * la, [top_b] * lb)):
        want = [min(e + 1, la, lb, la + lb - 1 - e) * a[0] * b[0] for e in range(la + lb - 1)]
        assert _mul_dense(a, b) == want == _dict_product(a, b)
    a = [top_a] * la
    assert _mul_dense(a, a) == _dict_product(a, a)


# A polynomial from digits the library computed: a packed int read by
# _unpack, as the packed rook DPs return it, or a dense list.
def test_poly_from_digits_zero():
    assert _from_dense(0, _unpack(0, 1)) == ZERO and _from_dense(0, _unpack(0, 64)).items() == ()
    assert _from_dense(0, []) == ZERO and _from_dense(0, [0, 0]).items() == ()


@pytest.mark.parametrize("w", [3, 40])
def test_poly_from_digits_drops_interior_zero_digits(w):
    digits = [5, 0, 0, 7, 0, 1]
    want = {0: 5, 3: 7, 5: 1}
    _assert_canonical(_from_dense(0, _unpack(_pack(digits, w), w)), want)
    _assert_canonical(_from_dense(0, digits), want)
    _assert_canonical(_from_dense(0, [0, 0, 2, 0]), {2: 2})


@pytest.mark.parametrize("w", [1, 2, 5, 8, 13, 64, 100])
def test_poly_from_digits_top_digit_all_ones(w):
    top = (1 << 8 * w) - 1
    digits = [top, 0, 1, top]
    _assert_canonical(_from_dense(0, _unpack(_pack(digits, w), w)), {0: top, 2: 1, 3: top})
    _assert_canonical(_from_dense(0, _unpack(top, w)), {0: top})


def test_q_factorial_is_canonical():
    for i in range(8):
        want = {0: 1}
        for j in range(1, i + 1):
            want = _convolve(want, {e: 1 for e in range(j)})
        _assert_canonical(q_factorial.__wrapped__(i), want)


@given(st.lists(st.integers(0, 2**20 - 1), max_size=30), st.integers(3, 9))
def test_unpack_inverts_packing(digits, w):
    while digits and not digits[-1]:
        digits.pop()
    assert _unpack(_pack(digits, w), w) == digits

"""Exact Laurent-polynomial arithmetic and the q-number zoo."""

import json
import random
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewrook.qalgebra import (
    BiPoly,
    LaurentPoly,
    poly_bernoulli,
    q_factorial,
    q_falling,
    q_int,
    q_stirling,
    stirling2,
)

Q = LaurentPoly.monomial(1)

laurent_polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-50, 50), max_size=6
).map(LaurentPoly)


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


def test_monomial_and_constant():
    assert LaurentPoly.monomial(3, 2) == LaurentPoly({3: 2})
    assert LaurentPoly.constant(7) == LaurentPoly({0: 7})
    assert LaurentPoly.monomial(1, 0).is_zero


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
    # the column tables against a plain top-down recursion, entries asked
    # for in a shuffled order so that columns are extended out of turn
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


def test_poly_bernoulli_rejects_positive_upper_index():
    with pytest.raises(ValueError):
        poly_bernoulli(2, 1)

"""Exact arithmetic for q-counting.

Integer-coefficient Laurent polynomials in one variable q, the q-analogues
[m]_q and [m]!_q, q-Stirling numbers of the second kind, classical Stirling
numbers, and poly-Bernoulli numbers.  Everything is exact: coefficients are
plain Python ints and no floating point is ever involved.

All value types are immutable, so they are safe to share between threads.
The memoised families (q_factorial, q_stirling, stirling2) sit behind
functools caches; racing calls can at worst duplicate a little work, they
always return identical values.  q_stirling and stirling2 fill their tables
under a lock.
"""

from __future__ import annotations

import math
import re
from functools import cache
from threading import Lock
from typing import Iterable, Mapping, Union

__all__ = [
    "LaurentPoly",
    "BiPoly",
    "ZERO",
    "ONE",
    "Q",
    "q_int",
    "q_factorial",
    "q_falling",
    "q_stirling",
    "stirling2",
    "poly_bernoulli",
]

_DECIMAL_RE = re.compile(r"-?\d+")

CoeffSource = Union[Mapping[int, int], Iterable[tuple[int, int]]]


class LaurentPoly:
    """Laurent polynomial in q with integer coefficients, kept canonical.

    The internal map never stores a zero coefficient, so equality is plain
    map equality.  Construction accepts a mapping or an iterable of
    (exponent, coefficient) pairs; repeated exponents are summed.

    >>> p = LaurentPoly({0: 1, 1: 2})
    >>> p * p == LaurentPoly({0: 1, 1: 4, 2: 4})
    True
    >>> LaurentPoly({-1: 1}).substitute_q_inverse() == Q
    True
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: CoeffSource = ()):
        acc: dict[int, int] = {}
        pairs = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for e, c in pairs:
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"exponent must be int, got {e!r}")
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficient must be int, got {c!r}")
            if c:
                v = acc.get(e, 0) + c
                if v:
                    acc[e] = v
                elif e in acc:
                    del acc[e]
        object.__setattr__(self, "_coeffs", acc)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return LaurentPoly({0: other})
        return None

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self) -> tuple[tuple[int, int], ...]:
        """Sorted (exponent, coefficient) pairs."""
        return tuple(sorted(self._coeffs.items()))

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no minimal exponent")
        return min(self._coeffs)

    def degree(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degree")
        return max(self._coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._coeffs)
        for e, c in other._coeffs.items():
            v = acc.get(e, 0) + c
            if v:
                acc[e] = v
            elif e in acc:
                del acc[e]
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "_coeffs", acc)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "_coeffs", {e: -c for e, c in self._coeffs.items()})
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                v = acc.get(e, 0) + c1 * c2
                if v:
                    acc[e] = v
                elif e in acc:
                    del acc[e]
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "_coeffs", acc)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        if not self._coeffs:
            return hash(0)
        if set(self._coeffs) == {0}:
            return hash(self._coeffs[0])
        return hash(self.items())

    def __bool__(self):
        return bool(self._coeffs)

    # -- substitutions -----------------------------------------------------

    def substitute_q_inverse(self) -> "LaurentPoly":
        """The image under q -> 1/q (exponent negation)."""
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "_coeffs", {-e: c for e, c in self._coeffs.items()})
        return out

    def stretch(self, m: int) -> "LaurentPoly":
        """The image under q -> q^m for m >= 1 (exponent scaling)."""
        if not isinstance(m, int) or m < 1:
            raise ValueError("stretch factor must be a positive int")
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "_coeffs", {m * e: c for e, c in self._coeffs.items()})
        return out

    def evaluate_at_one(self) -> int:
        return sum(self._coeffs.values())

    # -- serialization and display ------------------------------------------

    def to_json_dict(self) -> dict:
        """Dense JSON form {"min_exp": e, "coeffs": ["c_e", ...]}.

        Coefficients are decimal strings from min_exp up to the degree; the
        zero polynomial is {"min_exp": 0, "coeffs": ["0"]}.
        """
        if not self._coeffs:
            return {"min_exp": 0, "coeffs": ["0"]}
        lo, hi = self.min_exp(), self.degree()
        return {
            "min_exp": lo,
            "coeffs": [str(self._coeffs.get(e, 0)) for e in range(lo, hi + 1)],
        }

    @classmethod
    def from_json_dict(cls, obj) -> "LaurentPoly":
        if not isinstance(obj, dict) or set(obj) != {"min_exp", "coeffs"}:
            raise ValueError("polynomial JSON must have exactly min_exp and coeffs")
        lo = obj["min_exp"]
        if not isinstance(lo, int) or isinstance(lo, bool):
            raise ValueError("min_exp must be an int")
        raw = obj["coeffs"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("coeffs must be a nonempty list")
        vals = []
        for s in raw:
            if not isinstance(s, str) or not _DECIMAL_RE.fullmatch(s):
                raise ValueError(f"coefficient {s!r} is not a decimal string")
            vals.append(int(s))
        if vals == [0]:
            if lo != 0:
                raise ValueError("the zero polynomial must carry min_exp 0")
            return cls()
        if vals[0] == 0 or vals[-1] == 0:
            raise ValueError("leading and trailing zero coefficients are forbidden")
        return cls({lo + i: c for i, c in enumerate(vals)})

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.items():
            if e == 0:
                term = str(c)
            else:
                var = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    term = var
                elif c == -1:
                    term = f"-{var}"
                else:
                    term = f"{c}*{var}"
            parts.append(term)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"LaurentPoly({dict(self.items())!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
Q = LaurentPoly({1: 1})


class BiPoly:
    """Polynomial in t whose coefficients are LaurentPoly values in q.

    Exponents of t are nonnegative.  Canonical: no zero coefficient is
    stored.  Used for the statistics that track a second parameter next to
    the q-weight; it is built, compared, iterated and printed, and carries
    no arithmetic of its own.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, "LaurentPoly | int"] | Iterable[tuple[int, "LaurentPoly | int"]] = ()):
        acc: dict[int, LaurentPoly] = {}
        pairs = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for e, p in pairs:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"t-exponent must be a nonnegative int, got {e!r}")
            if isinstance(p, int):
                p = LaurentPoly({0: p})
            if not isinstance(p, LaurentPoly):
                raise TypeError(f"coefficient must be LaurentPoly or int, got {p!r}")
            if p:
                v = acc.get(e, ZERO) + p
                if v:
                    acc[e] = v
                elif e in acc:
                    del acc[e]
        object.__setattr__(self, "_coeffs", acc)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self) -> tuple[tuple[int, LaurentPoly], ...]:
        return tuple(sorted(self._coeffs.items()))

    def coefficient(self, t_exp: int) -> LaurentPoly:
        return self._coeffs.get(t_exp, ZERO)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self.items())

    def __bool__(self):
        return bool(self._coeffs)

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for e, p in self.items():
            if e == 0:
                parts.append(f"({p})")
            elif e == 1:
                parts.append(f"({p})*t")
            else:
                parts.append(f"({p})*t^{e}")
        return " + ".join(parts)

    def __repr__(self):
        return f"BiPoly({dict(self.items())!r})"


# -- q-analogues -------------------------------------------------------------


def q_int(m: int) -> LaurentPoly:
    """The q-integer [m]_q = (1 - q^m)/(1 - q), valid for every integer m.

    [0] = 0, [m] = 1 + q + ... + q^(m-1) for m > 0, and for m < 0 the same
    rational expression gives -q^m - q^(m+1) - ... - q^(-1).
    """
    if m >= 0:
        return LaurentPoly({e: 1 for e in range(m)})
    return LaurentPoly({e: -1 for e in range(m, 0)})


@cache
def q_factorial(i: int) -> LaurentPoly:
    """[i]!_q = [1]_q [2]_q ... [i]_q."""
    if i < 0:
        raise ValueError("q_factorial needs a nonnegative argument")
    if i == 0:
        return ONE
    return q_factorial(i - 1) * q_int(i)


def q_falling(x: int, k: int) -> LaurentPoly:
    """The falling product [x]_q [x-1]_q ... [x-k+1]_q (k factors)."""
    if k < 0:
        raise ValueError("q_falling needs a nonnegative length")
    out = ONE
    for j in range(k):
        out = out * q_int(x - j)
    return out


def _triangle_entry(table: list[list], lock: Lock, step, zero, n: int, k: int):
    """Entry (n, k), 1 <= k <= n, of a Stirling-type triangle whose entry
    (m, j) is step(j, entry(m-1, j-1), entry(m-1, j)).

    table[j] holds the entries (j, j), (j+1, j), ... of column j filled so
    far, and table[0] is [entry(0, 0)]; any other entry outside
    1 <= j <= m is zero.  The columns are extended row by row from the
    bottom, in a loop rather than a recursion, so no input size exhausts the
    stack, and each entry is computed once.
    """
    with lock:
        while len(table) <= k:
            table.append([])
        for j in range(1, k + 1):
            left, col = table[j - 1], table[j]
            for m in range(j + len(col), n - k + j + 1):
                diag = left[m - j] if m - j < len(left) else zero
                col.append(step(j, diag, col[-1] if col else zero))
        return table[k][n - k]


# The filled columns of the two triangles below.  Each function keeps its
# functools cache as well, whose counters the benchmark reads.
_Q_STIRLING_TABLE: list[list[LaurentPoly]] = [[ONE]]
_Q_STIRLING_LOCK = Lock()
_STIRLING2_TABLE: list[list[int]] = [[1]]
_STIRLING2_LOCK = Lock()


@cache
def q_stirling(n: int, k: int) -> LaurentPoly:
    """q-Stirling number of the second kind S_{n,k}(q).

    Recurrence S_{n+1,k} = q^(k-1) S_{n,k-1} + [k]_q S_{n,k} with S_{0,0} = 1
    and S_{n,k} = 0 for every other (n, k) outside 1 <= k <= n.
    """
    if n < 0:
        raise ValueError("q_stirling needs a nonnegative row index")
    if not 1 <= k <= n:
        return ONE if n == k == 0 else ZERO
    return _triangle_entry(
        _Q_STIRLING_TABLE,
        _Q_STIRLING_LOCK,
        lambda j, diag, up: LaurentPoly({j - 1: 1}) * diag + q_int(j) * up,
        ZERO,
        n,
        k,
    )


@cache
def stirling2(n: int, k: int) -> int:
    """Classical Stirling number of the second kind (set partition count).

    Computed by its own recurrence S(n, k) = k S(n-1, k) + S(n-1, k-1),
    independently of q_stirling; the two are tied together by a test at
    q = 1.
    """
    if n < 0:
        raise ValueError("stirling2 needs a nonnegative row index")
    if not 1 <= k <= n:
        return int(n == k == 0)
    return _triangle_entry(
        _STIRLING2_TABLE, _STIRLING2_LOCK, lambda j, diag, up: diag + j * up, 0, n, k
    )


def poly_bernoulli(n: int, k: int) -> int:
    """Poly-Bernoulli number B_n^(k) for k <= 0.

    Evaluated through the alternating sum
    (-1)^n * sum_i (-1)^i (i+1)^(-k) i! S(n,i), which is exact for every
    n >= 0 and k <= 0 and satisfies the symmetry B_n^(-m) = B_m^(-n).
    """
    if n < 0:
        raise ValueError("poly_bernoulli needs a nonnegative lower index")
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError("poly_bernoulli needs an integer upper index")
    if k > 0:
        raise ValueError("positive upper index is not supported")
    r = -k
    total = sum((-1) ** i * (i + 1) ** r * math.factorial(i) * stirling2(n, i) for i in range(n + 1))
    return (-1) ** n * total


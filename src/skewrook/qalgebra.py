"""Exact arithmetic for q-counting.

Integer-coefficient Laurent polynomials in one variable q, the q-analogues
[m]_q and [m]!_q, q-Stirling numbers of the second kind, classical Stirling
numbers, and poly-Bernoulli numbers.  Everything is exact: coefficients are
plain Python ints and no floating point is ever involved.

A product with a one-term factor is an exponent shift and a coefficient
scale, not a double loop.  Values reach LaurentPoly unchecked only when the
library built them: monomials and q-integers once their int checks pass,
operator results, and the dense digit lists of the packed rook DPs,
q_factorial and the q-Stirling step.  Everything a caller passes in is
checked.

A product by [j]_q on a dense coefficient list is a window sum of width j,
taken as a difference of prefix sums in linear time (_times_q_int), not a
schoolbook product, and one dense list is added into another at an
exponent offset by _add_dense.  q_factorial's climb, every step of the
q-Stirling triangle and the Horner sum of intervals.theoremA_poincare run
on them, and each of that sum's terms, a product of two q-Stirling entries,
is one packed int product (_mul_dense); the triangle still stores
LaurentPoly entries.

What each memo keeps: q_factorial and the Stirling rows (read by stirling2
and poly_bernoulli alike) keep each row asked for (_kept_row); q_stirling
keeps the trapezoid of its triangle below the deepest entry asked for; and
the functools caches of q_factorial, q_stirling and stirling2, whose
counters the benchmark reads, keep each value returned.  All value types
are immutable, so they are safe to share between threads.  The caches are
keyed by argument type, so a bool or float argument is refused whatever
was cached before, and each memo is filled under its own lock.
"""

from __future__ import annotations

import math
import re
from collections import abc
from functools import lru_cache
from itertools import accumulate
from operator import add, sub
from threading import Lock

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

# exactly the strings str(int) writes: ASCII digits, no leading zero, no "-0"
_DECIMAL_RE = re.compile(r"0|-?[1-9][0-9]*")


class _CoeffMap:
    """An immutable map from exponents to nonzero coefficients: the common
    base of LaurentPoly and BiPoly.

    Construction accepts a mapping or an iterable of (exponent, coefficient)
    pairs.  Each pair passes the class's _entry check, which refuses a bad
    exponent before a bad coefficient and returns the coefficient to store;
    repeated exponents are summed onto the class's zero coefficient _zero
    and zero sums dropped, so the map never stores a zero coefficient and
    equality is plain map equality.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        acc = {}
        pairs = coeffs.items() if isinstance(coeffs, abc.Mapping) else coeffs
        for e, c in pairs:
            c = self._entry(e, c)
            if c:
                v = acc.get(e, self._zero) + c
                if v:
                    acc[e] = v
                elif e in acc:
                    del acc[e]
        object.__setattr__(self, "_coeffs", acc)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (self._coeffs,)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self) -> tuple:
        """Sorted (exponent, coefficient) pairs."""
        return tuple(sorted(self._coeffs.items()))

    def coefficient(self, exp: int):
        return self._coeffs.get(exp, self._zero)

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())!r})"


class LaurentPoly(_CoeffMap):
    """Laurent polynomial in q with integer coefficients, kept canonical.

    Every exponent and coefficient a caller passes in is checked.  Only
    values the library built skip those checks (_wrap).  A product with a
    one-term factor c q^s is an exponent shift by s with every coefficient
    scaled by c, which is canonical already since two nonzero ints have a
    nonzero product.

    >>> p = LaurentPoly({0: 1, 1: 2})
    >>> p * p == LaurentPoly({0: 1, 1: 4, 2: 4})
    True
    >>> LaurentPoly({-1: 1}).substitute_q_inverse() == Q
    True
    """

    __slots__ = ()
    _zero = 0

    @staticmethod
    def _entry(e, c) -> int:
        if not isinstance(e, int) or isinstance(e, bool):
            raise TypeError(f"exponent must be int, got {e!r}")
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError(f"coefficient must be int, got {c!r}")
        return c

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        if type(exp) is int and type(coeff) is int:
            return _wrap({exp: coeff} if coeff else {})
        return cls({exp: coeff})

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return LaurentPoly({0: other})
        return None

    # -- queries ----------------------------------------------------------

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
        if not isinstance(other, LaurentPoly):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        big, small = self._coeffs, other._coeffs
        if len(big) < len(small):
            big, small = small, big
        acc = dict(big)
        for e, c in small.items():
            v = acc.get(e, 0) + c
            if v:
                acc[e] = v
            elif e in acc:
                del acc[e]
        return _wrap(acc)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: -c for e, c in self._coeffs.items()})

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
        if not isinstance(other, LaurentPoly):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # c q^s times p: shift every exponent by s, scale by c
            ((s, c),) = b.items()
            if c == 1:
                return _wrap({e + s: v for e, v in a.items()})
            return _wrap({e + s: v * c for e, v in a.items()})
        acc: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                v = acc.get(e, 0) + c1 * c2
                if v:
                    acc[e] = v
                elif e in acc:
                    del acc[e]
        return _wrap(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if type(n) is not int or n < 0:
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
        if not isinstance(other, LaurentPoly):
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

    # -- substitutions -----------------------------------------------------

    def substitute_q_inverse(self) -> "LaurentPoly":
        """The image under q -> 1/q (exponent negation)."""
        return _wrap({-e: c for e, c in self._coeffs.items()})

    def stretch(self, m: int) -> "LaurentPoly":
        """The image under q -> q^m for m >= 1 (exponent scaling)."""
        if type(m) is not int or m < 1:
            raise ValueError("stretch factor must be a positive int")
        return _wrap({m * e: c for e, c in self._coeffs.items()})

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
        lo, coeffs = _dense(self)
        return {"min_exp": lo, "coeffs": list(map(str, coeffs))}

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


def _wrap(coeffs: dict[int, int]) -> LaurentPoly:
    """A LaurentPoly around a fresh dict, with no checks: the caller owns
    the dict, and it holds int exponents and nonzero int coefficients."""
    out = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(out, "_coeffs", coeffs)
    return out


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
Q = LaurentPoly({1: 1})


class BiPoly(_CoeffMap):
    """Polynomial in t whose coefficients are LaurentPoly values in q.

    Exponents of t are nonnegative, and an int coefficient is read as a
    constant LaurentPoly.  Used for the statistics that track a second
    parameter next to the q-weight; it is built, compared, iterated and
    printed, and carries no arithmetic of its own.
    """

    __slots__ = ()
    _zero = ZERO

    @staticmethod
    def _entry(e, p) -> LaurentPoly:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"t-exponent must be a nonnegative int, got {e!r}")
        if isinstance(p, int):
            p = LaurentPoly({0: p})
        if not isinstance(p, LaurentPoly):
            raise TypeError(f"coefficient must be LaurentPoly or int, got {p!r}")
        return p

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self.items())

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


# -- Kronecker packing ---------------------------------------------------------


def _pack(coeffs: list[int], w: int) -> int:
    """Kronecker substitution q -> 2^(8w): the int whose w-byte digit e is
    coeffs[e], written through one bytes object.

    The width rule: each coefficient must satisfy 0 <= c < 2^(8w) for
    _unpack to read it back, and then adding packed ints, or shifting them
    by multiples of 8w bits, adds or shifts the polynomials.  The product
    of the packed lists a and b of nonnegative coefficients packs their
    product when 8w >= bitlen(max a) + bitlen(max b) + bitlen(min(len a,
    len b)): each product coefficient is a sum of at most min(len a, len b)
    terms, each at most max a * max b.
    """
    return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in coeffs]), "little")


def _unpack(packed: int, w: int) -> list[int]:
    """The w-byte digits of a packed int up to its top nonzero one, least
    significant first, read as slices of one bytes object; 0 gives []."""
    size = -(-packed.bit_length() // (8 * w)) * w
    buf = packed.to_bytes(size, "little")
    return [int.from_bytes(buf[i:i + w], "little") for i in range(0, size, w)]


def _digit_width(counts: abc.Iterable[int]) -> int:
    """The digit width 8w, in bits, of a packed placement DP whose step i
    offers at most counts[i] choices: w is the byte length of the product
    of the counts, which bounds every coefficient, a count of placements,
    so each is below 2^(8w) as _pack's rule asks.  A count of 0 gives 0."""
    return (math.prod(counts).bit_length() + 7) & -8


def _mul_dense(a: list[int], b: list[int]) -> list[int]:
    """The dense coefficients of the product of the polynomials whose dense
    coefficients are a and b, all nonnegative, by one int product; the list
    is len(a) + len(b) - 1 long, and [] when either is empty.

    Both lists are packed at _pack's product width rounded up to w whole
    bytes.  When b is a, it is not packed again and the int is squared,
    which is cheaper.
    """
    if not a or not b:
        return []
    w = (max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length() + 7) >> 3
    packed = _pack(a, w)
    out = _unpack(packed * (packed if b is a else _pack(b, w)), w)
    return out + [0] * (len(a) + len(b) - 1 - len(out))


# -- q-analogues -------------------------------------------------------------


def q_int(m: int) -> LaurentPoly:
    """The q-integer [m]_q = (1 - q^m)/(1 - q), valid for every integer m.

    [0] = 0, [m] = 1 + q + ... + q^(m-1) for m > 0, and for m < 0 the same
    rational expression gives -q^m - q^(m+1) - ... - q^(-1).
    """
    if type(m) is not int:
        raise ValueError(f"q_int needs an int, got {m!r}")
    if m >= 0:
        return _wrap(dict.fromkeys(range(m), 1))
    return _wrap(dict.fromkeys(range(m, 0), -1))


def _times_q_int(coeffs: list[int], j: int) -> list[int]:
    """The dense coefficients of [j]_q times the polynomial whose dense
    coefficients are coeffs, for j >= 1; the list is j - 1 longer.

    Entry e is the window sum coeffs[e-j+1] + ... + coeffs[e], taken as a
    difference of prefix sums in linear time, so the cost does not grow
    with j.  coeffs itself is left as it is.
    """
    out = list(accumulate(coeffs + [0] * (j - 1)))
    out[j:] = map(sub, out[j:], out)
    return out


def _kept_row(rows: dict, n: int, step):
    """Row n of the recurrence row m = step(row m-1, m), kept in the dict
    rows of the rows asked for, which holds row 0; the caller holds its lock.

    A missing row is climbed to in a loop, in one rolling value, from the
    nearest kept row below it, and only row n is kept.  step must leave its
    argument as it is.
    """
    row = rows.get(n)
    if row is None:
        m = max(r for r in rows if r < n)
        row = rows[m]
        for j in range(m + 1, n + 1):
            row = step(row, j)
        rows[n] = row
    return row


# Dense coefficients of [m]!_q for each m asked for.
_Q_FACTORIALS: dict[int, list[int]] = {0: [1]}
_Q_FACTORIAL_LOCK = Lock()


@lru_cache(maxsize=None, typed=True)
def q_factorial(i: int) -> LaurentPoly:
    """[i]!_q = [1]_q [2]_q ... [i]_q.

    Climbed to from the nearest [m]!_q below it that was asked for, one
    factor [j]_q at a time, each a window sum of width j taken as a
    difference of prefix sums in linear time (_times_q_int).  The dense
    coefficients of every [i]!_q asked for are kept, and the lru_cache keeps
    the LaurentPoly returned as well; [600]!_q alone has 179701 big
    coefficients.
    """
    if type(i) is not int or i < 0:
        raise ValueError("q_factorial needs a nonnegative argument")
    with _Q_FACTORIAL_LOCK:
        coeffs = _kept_row(_Q_FACTORIALS, i, _times_q_int)
    return _from_dense(0, coeffs)


def q_falling(x: int, k: int) -> LaurentPoly:
    """The falling product [x]_q [x-1]_q ... [x-k+1]_q (k factors)."""
    if type(x) is not int or type(k) is not int:
        raise ValueError(f"q_falling needs ints, got {x!r} and {k!r}")
    if k < 0:
        raise ValueError("q_falling needs a nonnegative length")
    out = ONE
    for j in range(k):
        out = out * q_int(x - j)
    return out


# Entry j holds the entries (j, j), (j+1, j), ... of column j filled so far.
_Q_STIRLING_TABLE: list[list[LaurentPoly]] = [[ONE]]
_Q_STIRLING_LOCK = Lock()


def _check_triangle_index(name: str, n: int, k: int) -> None:
    """Refuse a row index n that is not a nonnegative int, or a column index
    k that is not an int, a bool included; name is the caller's."""
    if type(n) is not int or n < 0:
        raise ValueError(f"{name} needs a nonnegative row index")
    if type(k) is not int:
        raise ValueError(f"{name} needs an int column index")


@lru_cache(maxsize=None, typed=True)
def q_stirling(n: int, k: int) -> LaurentPoly:
    """q-Stirling number of the second kind S_{n,k}(q).

    Recurrence S_{n+1,k} = q^(k-1) S_{n,k-1} + [k]_q S_{n,k} with S_{0,0} = 1
    and S_{n,k} = 0 for every other (n, k) outside 1 <= k <= n.  Each step
    adds the two terms as dense coefficient lists, the second a window sum
    (_q_stirling_step), so an entry costs time linear in its length: row 100
    fills in 1.6-2.1 s on a 2-core VM (Python 3.11.7).  Entry (n, k)
    extends each column j <= k down to row n - k + j, and the whole
    trapezoid below the deepest entry asked for is kept, so memory grows
    with the depth.
    """
    _check_triangle_index("q_stirling", n, k)
    if not 1 <= k <= n:
        return ONE if n == k == 0 else ZERO
    with _Q_STIRLING_LOCK:
        table = _Q_STIRLING_TABLE
        while len(table) <= k:
            table.append([])
        for j in range(1, k + 1):
            left, col = table[j - 1], table[j]
            for m in range(j + len(col), n - k + j + 1):
                diag = left[m - j] if m - j < len(left) else ZERO
                col.append(_q_stirling_step(j, diag, col[-1] if col else ZERO))
        return table[k][n - k]


def _dense(p: LaurentPoly) -> tuple[int, list[int]]:
    """(lo, c) with p = sum_i c[i] q^(lo + i), c running from the least
    exponent of p to its degree; the zero polynomial gives (0, [])."""
    coeffs = p._coeffs
    if not coeffs:
        return 0, []
    lo = min(coeffs)
    return lo, [coeffs.get(e, 0) for e in range(lo, max(coeffs) + 1)]


def _from_dense(lo: int, coeffs: list[int]) -> LaurentPoly:
    """The LaurentPoly sum_i coeffs[i] q^(lo + i) of a dense list the
    library computed; zero entries are dropped, none is checked again."""
    return _wrap({e: c for e, c in enumerate(coeffs, lo) if c})


def _add_dense(lo: int, out: list[int], lo_d: int, d: list[int]) -> int:
    """Add the dense list d, whose entry 0 sits at exponent lo_d, into the
    dense list out, whose entry 0 sits at exponent lo, and return the
    exponent of out's entry 0 afterwards.

    out is changed in place and grows at either end to hold d: leading
    zeros when d starts below lo, trailing zeros when d ends past out.  An
    empty d leaves out as it is, and an empty out becomes a copy of d.
    """
    if not d:
        return lo
    if not out:
        out[:] = d
        return lo_d
    s = lo_d - lo
    if s < 0:
        out[:0] = [0] * -s
        lo, s = lo_d, 0
    out.extend([0] * (s + len(d) - len(out)))
    out[s:s + len(d)] = map(add, out[s:s + len(d)], d)
    return lo


def _q_stirling_step(j: int, diag: LaurentPoly, up: LaurentPoly) -> LaurentPoly:
    """q^(j-1) diag + [j]_q up, added as dense coefficient lists."""
    if not up:
        # an entry (j, j): a shift, with no run of leading zeros built
        return LaurentPoly.monomial(j - 1) * diag
    lo_d, d = _dense(diag)
    lo, out = _dense(up)
    out = _times_q_int(out, j)
    lo = _add_dense(lo, out, lo_d + j - 1, d)
    return _from_dense(lo, out)


@lru_cache(maxsize=None, typed=True)
def stirling2(n: int, k: int) -> int:
    """Classical Stirling number of the second kind (set partition count).

    Entry k of _stirling2_row(n), computed by its own recurrence,
    independently of q_stirling; the two are tied together by a test at
    q = 1.  The lru_cache keeps every int returned.
    """
    _check_triangle_index("stirling2", n, k)
    if not 1 <= k <= n:
        return int(n == k == 0)
    return _stirling2_row(n)[k]


# (S(m, 0), ..., S(m, m)) for each row m asked for.
_STIRLING2_ROWS: dict[int, tuple[int, ...]] = {0: (1,)}
_STIRLING2_LOCK = Lock()


def _stirling2_row(n: int) -> tuple[int, ...]:
    """Row n of the Stirling triangle, S(n, 0), ..., S(n, n).

    Climbed to by S(m, k) = k S(m-1, k) + S(m-1, k-1) from the nearest row
    below it that was asked for, one rolling row at a time, so a climb
    holds two rows; every row asked for is kept.  Callers such as the
    theorem8 table climb k = 1, 2, ... afresh for each n, and each of their
    rows is then built once.
    """
    with _STIRLING2_LOCK:
        return _kept_row(_STIRLING2_ROWS, n, lambda row, m: (
            0, *[k * row[k] + row[k - 1] for k in range(1, m)], 1))


def poly_bernoulli(n: int, k: int) -> int:
    """Poly-Bernoulli number B_n^(k) for k <= 0.

    Evaluated through the alternating sum
    (-1)^n * sum_i (-1)^i (i+1)^(-k) i! S(n,i), which is exact for every
    n >= 0 and k <= 0 and satisfies the symmetry B_n^(-m) = B_m^(-n).
    Row n of the Stirling numbers comes from _stirling2_row, which
    stirling2 reads as well, so a large n climbs one rolling row rather than
    filling the triangle above it, keeps row n only, and is built once.
    """
    if type(n) is not int:
        raise ValueError("poly_bernoulli needs an integer lower index")
    if n < 0:
        raise ValueError("poly_bernoulli needs a nonnegative lower index")
    if type(k) is not int:
        raise ValueError("poly_bernoulli needs an integer upper index")
    if k > 0:
        raise ValueError("positive upper index is not supported")
    r = -k
    row = _stirling2_row(n)
    total = sum((-1) ** i * (i + 1) ** r * math.factorial(i) * s for i, s in enumerate(row))
    return (-1) ** n * total


"""Exact integer kernels for ordered-block partition counting.

Everything here returns plain Python ints, so there is no overflow and no
rounding anywhere.  No computation in the package uses rational arithmetic:
every quotient goes through exact_div, which raises IntegralityError when the
division is not exact.  The closed form rlah needs none: it takes n!/k! as a
falling product, and lah is its r = 0 case.

A whole row of the triangle comes from one closed-form entry and the
neighbour ratio rlah(n, k+1, r) = rlah(n, k, r) * (n-k) / ((k+1)(k+2r)),
one big-int product and one exact division per entry (_rlah_walk), which
lah_bell_polynomial reads; lah and rlah keep the direct formula for single
entries.

The CLI's triangles read every row up to a bound, so _rows builds each from
the one before by the triangle recurrence
rlah(n+1, k, r) = rlah(n, k-1, r) + (n+k+2r) * rlah(n, k, r), with no
division.  The row totals have one route, the three-term recurrence of
_row_totals, O(n) big-int steps where summing the walk takes O(n^2):
lah_bell_number and r_lah_bell_number return its last value, and the
verifier compares that against the witness sums and the series; the tests
check both recurrences against the walk.

_check_nonnegative_int is the package's one rule for a count argument (an n,
k, r, rho, order, exponent or index): a bool or any other non-int raises
TypeError and a negative int raises ValueError, each naming the parameter.
An exact int takes one type test and one sign test.  binomial's k, which
may be negative, takes the type half of the rule alone (_check_int).

_reuse() is the package's one reuse scope.  While it is open, the one dict
_MEMO holds keeps the witness streams, each as the enumerator yielded it,
read by partitions._witnesses for the witness sums in bell and for the
routes lah_via_pi and rlah_via_lambda; the r-part lists of the paired
streams, one table per rho; the slot and side tables of the witness sums;
and the head and tail series of gf_expand in series.  Every key is a tuple
that starts with its kind.  A later call with the same inputs reads them
instead of building them again.
The scope keeps inputs only, never a constructor's, a route's or
gf_expand's result, so a value that the verifier compares is computed
afresh on each side.  Outside a scope _MEMO holds None and every call
builds what it needs and drops it when it returns.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import count
from operator import attrgetter
from typing import Iterable, Iterator

__all__ = [
    "IntegralityError",
    "exact_div",
    "factorial",
    "factorials_upto",
    "binomial",
    "multinomial",
    "lah",
    "rlah",
    "lah_bell_number",
    "r_lah_bell_number",
]


class IntegralityError(ArithmeticError):
    """A computation that must produce an integer left a remainder behind."""


def exact_div(a: int, b: int) -> int:
    """a // b, raising IntegralityError unless b divides a exactly.

    Both operands must be ints: a float, Fraction or Decimal operand leaves a
    remainder of its own type, which raises TypeError.
    """
    q, rem = divmod(a, b)
    if type(rem) is not int:
        raise TypeError(f"exact_div needs ints, got {type(a).__name__} and {type(b).__name__}")
    if rem:
        raise _indivisible(a, b)
    return q


def _indivisible(a: int, b: int) -> IntegralityError:
    """The error for an a that b does not divide.  An operand of 10,000 bits or
    more is named by its bit length: str() refuses an int past 4300 digits."""
    a_text, b_text = (
        str(v) if v.bit_length() < 10_000 else f"an int of {v.bit_length()} bits" for v in (a, b)
    )
    return IntegralityError(f"{a_text} is not divisible by {b_text}")


# The dict of the open _reuse() scope, or None outside one.  A context
# variable, so a scope never leaks into another thread.
_MEMO: ContextVar[dict | None] = ContextVar("lahbell_reuse_memo", default=None)


@contextmanager
def _reuse():
    """Keep the inputs that bell and series build until the scope closes.

    A nested scope starts empty and gives the outer one back when it closes,
    and the kept inputs are dropped when the scope closes, also on an error.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _check_int(name: str, value: int) -> None:
    """TypeError unless value is an int and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _check_nonnegative_int(**values: int) -> None:
    """TypeError unless each value is an int and not a bool; ValueError if negative."""
    for name, value in values.items():
        # an exact int skips the two isinstance tests; a bool is not one
        if type(value) is not int:
            _check_int(name, value)
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


class _Record:
    """Base of the package's frozen records, which set their __slots__ once in
    __init__ through object.__setattr__.  Equality, hash and repr read the
    field tuple (the slots, or fields= in the class statement), as a frozen
    dataclass's do; assignment and deletion raise AttributeError, so pickle
    and copy go through __reduce__, which calls the class on the fields."""

    __slots__ = ()

    def __init_subclass__(cls, fields: tuple[str, ...] | None = None) -> None:
        cls._fields = fields or cls.__slots__
        cls._values = attrgetter(*cls._fields)  # at least two names: a tuple

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = map("{}={!r}".format, self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)


def factorial(n: int) -> int:
    """n! for n >= 0."""
    _check_nonnegative_int(n=n)
    return math.factorial(n)


def factorials_upto(m: int) -> list[int]:
    """[0!, 1!, ..., m!], built by running products for callers that need many."""
    _check_nonnegative_int(m=m)
    table = [1] * (m + 1)
    for i in range(2, m + 1):
        table[i] = table[i - 1] * i
    return table


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0, defined as 0 whenever k < 0 or k > n.

    k must be an int and not a bool, but may be negative.
    """
    _check_nonnegative_int(n=n)
    _check_int("k", k)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(parts: Iterable[int]) -> int:
    """(sum of parts)! / product(part!), computed as a product of binomials."""
    total = 0
    result = 1
    for part in parts:
        _check_nonnegative_int(part=part)
        total += part
        result *= math.comb(total, part)
    return result


def lah(n: int, k: int) -> int:
    """Ways to split an n-set into k nonempty linearly ordered blocks.

    rlah at r = 0.  Conventions: lah(0, 0) = 1, lah(n, 0) = 0 for n >= 1,
    and lah(n, k) = 0 for k > n.
    """
    return rlah(n, k, 0)


def rlah(n: int, k: int, r: int) -> int:
    """Ordered-block splitting count with r distinguished extra elements.

    Counts partitions of an (n+r)-set into k+r nonempty linearly ordered
    blocks such that the r distinguished elements land in distinct blocks.
    Closed form (n!/k!) * C(n+2r-1, k+2r-1), n!/k! being the falling product
    n(n-1)...(k+1).  binomial, unlike math.comb, gives 0 for k = 0 at r = 0.
    """
    _check_nonnegative_int(n=n, k=k, r=r)
    if k > n:
        return 0
    if n == 0:
        return 1
    return math.perm(n, n - k) * binomial(n + 2 * r - 1, k + 2 * r - 1)


def _rlah_walk(n: int, r: int) -> Iterator[int]:
    """rlah(n, k, r) for k = 0..n, each entry from its left neighbour.

    The walk starts from one closed-form entry.  At r = 0 the ratio out of
    k = 0 divides by zero, and that entry is 0 for n >= 1, so the walk
    starts at k = 1 there.
    """
    start = 1 if r == 0 and n else 0
    if start:
        yield 0
    value = rlah(n, start, r)
    yield value
    for k in range(start, n):
        value = exact_div(value * (n - k), (k + 1) * (k + 2 * r))
        yield value


def lah_bell_number(n: int) -> int:
    """Total number of ordered-block partitions of an n-set: sum of lah(n, k)."""
    return r_lah_bell_number(n, 0)


def r_lah_bell_number(n: int, r: int) -> int:
    """Row total of the r-extended triangle: sum of rlah(n, k, r) over k,
    the last value of _row_totals(n, r)."""
    _check_nonnegative_int(n=n, r=r)
    for total in _row_totals(n, r):
        pass
    return total


def _rows(n_max: int, r: int) -> Iterator[list[int]]:
    """The rows [rlah(n, k, r) for k = 0..n] for n = 0..n_max, each a new list.

    Row n+1 comes from row n by rlah(n+1, k, r) = rlah(n, k-1, r)
    + (n+k+2r) * rlah(n, k, r), one small product and one add per entry,
    reading rlah(n, -1, r) and rlah(n, n+1, r) as 0.
    """
    _check_nonnegative_int(n_max=n_max, r=r)
    row = [1]
    yield row
    for n in range(n_max):
        row = [left + c * right for c, left, right in zip(count(n + 2 * r), [0, *row], [*row, 0])]
        yield row


def _row_totals(n_max: int, r: int) -> Iterator[int]:
    """r_lah_bell_number(n, r) for n = 0..n_max, from the three-term recurrence.

    a(n+1) = (2n+2r+1) * a(n) - n(n+2r-1) * a(n-1) with a(0) = 1; at n = 0
    the second term vanishes, which gives a(1) = 1 + 2r.  The recurrence
    follows from (1-t)^2 E' = (1 + 2r(1-t)) E for the row generating
    function E = exp(t/(1-t)) / (1-t)^(2r).
    """
    _check_nonnegative_int(n_max=n_max, r=r)
    previous, total = 0, 1
    yield total
    for n in range(n_max):
        previous, total = total, (2 * n + 2 * r + 1) * total - n * (n + 2 * r - 1) * previous
        yield total

"""Exact integer kernels for ordered-block partition counting.

Everything here returns plain Python ints, so there is no overflow and no
rounding anywhere.  No computation in the package uses rational arithmetic:
every quotient goes through exact_div, which raises IntegralityError when the
division is not exact.  The closed form rlah needs none: it takes n!/k! as a
falling product, and lah and lah_bell_number are its r = 0 cases.

A whole row of the triangle comes from one closed-form entry and the
neighbour ratio rlah(n, k+1, r) = rlah(n, k, r) * (n-k) / ((k+1)(k+2r)),
one big-int product and one exact division per entry (_rlah_walk).  The row
totals and the callers that read a whole row use that walk; lah and rlah
keep the direct formula for single entries.

_check_nonnegative_int is the package's one rule for a count argument (an n,
k, r, rho, order, exponent or index): a bool or any other non-int raises
TypeError and a negative int raises ValueError, each naming the parameter.

_reuse() is the package's one reuse scope.  While it is open, the witness
sums in bell keep their witness streams and slot tables, and gf_expand in
series its head and tail series, all in the one dict _MEMO holds; a later
call with the same inputs reads them instead of building them again.  The
scope keeps inputs only, never a constructor's or gf_expand's result, so a
value that the verifier compares is computed afresh on each side.  Outside
a scope _MEMO holds None and every call builds what it needs and drops it
when it returns.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
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
        raise IntegralityError(f"{a} is not divisible by {b}")
    return q


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


def _check_nonnegative_int(**values: int) -> None:
    """TypeError unless each value is an int and not a bool; ValueError if negative."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


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
    """C(n, k) for n >= 0, defined as 0 whenever k < 0 or k > n."""
    _check_nonnegative_int(n=n)
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
    """Row total of the r-extended triangle: sum of rlah(n, k, r) over k."""
    _check_nonnegative_int(n=n, r=r)
    return sum(_rlah_walk(n, r))

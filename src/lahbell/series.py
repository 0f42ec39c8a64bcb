"""Truncated formal power series over the integer polynomial ring.

Storage convention: a series keeps, for each n up to its order, the value
n! times the t^n coefficient.  Every series used here has integer (or
integer-polynomial) entries on that scaled lattice, so the whole tower of
exponential generating functions stays inside exact integer arithmetic:

  - reading off an exponential coefficient is a direct lookup,
  - the Cauchy product becomes a binomial convolution,
  - the derivative becomes an index shift, so exp(s) follows from
    E' = s'E one entry at a time, with no division,
  - dividing the k-th power of a constant-term-zero series by k! is an
    exact division (the quotient coefficients are multinomial-weighted
    sums of integer products), and the same quotient P_k = A^k/k! also
    follows from P_(k-1) by P_k' = A'P_(k-1), the partial Bell recurrence.

All values are immutable; operations return new series truncated to the
smaller operand order.

A grid of gf_expand calls, such as the one the verifier sweeps, can share
its factors: inside the package's reuse scope (exact_core._reuse, which
the verifier opens once per run) gf_expand keeps every head and tail it
builds, takes head k as one recurrence step from head k-1 and tail m as
one product from tail m-1 or m-2, and the kept series are dropped when the
scope closes.  It never keeps the coefficients it returns.  Outside a
scope every call builds its factors afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence, Union

from .bell import FACTORIALS, ONES, SequenceSpec, complete_bell
# series._reuse and series._MEMO name the package's reuse scope here too.
from .exact_core import _MEMO, _check_nonnegative_int, _reuse, factorial  # noqa: F401
from .poly import ONE, ZERO, PolyAccumulator, SparsePolynomial, as_poly

__all__ = [
    "TruncatedSeries",
    "DerivativeCheck",
    "zero",
    "one",
    "from_sequence",
    "exp",
    "gf_expand",
    "faa_di_bruno_check",
    "GF_FAMILIES",
]


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series in t truncated at `order`; coeffs[n] = n! * [t^n]."""

    order: int
    coeffs: tuple[SparsePolynomial, ...]

    def __post_init__(self) -> None:
        _check_nonnegative_int(order=self.order)
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} coefficients, got {len(self.coeffs)}"
            )

    def egf_coefficient(self, n: int) -> SparsePolynomial:
        """n! times the t^n coefficient: a lattice lookup."""
        if n < 0 or n > self.order:
            raise ValueError(f"coefficient {n} exceeds series order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(
            n, tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1))
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(
            n, tuple(_convolve(self.coeffs, other.coeffs, m) for m in range(n + 1))
        )

    def scale(self, value: Union[SparsePolynomial, int]) -> "TruncatedSeries":
        p = as_poly(value)
        return TruncatedSeries(self.order, tuple(c * p for c in self.coeffs))

    def pow(self, k: int) -> "TruncatedSeries":
        """k-th power by repeated squaring; pow(0) is the unit series.

        About 2 log2(k) products instead of k: the squares s, s^2, s^4, ...
        are multiplied into the result where k has a 1 bit.
        """
        _check_nonnegative_int(exponent=k)
        result = None
        square = self
        while k:
            if k & 1:
                result = square if result is None else result * square
            k >>= 1
            if k:
                square = square * square
        return one(self.order) if result is None else result

    def divide_exact(self, divisor: int) -> "TruncatedSeries":
        return TruncatedSeries(
            self.order, tuple(c.divide_exact(divisor) for c in self.coeffs)
        )

    def derivative(self) -> "TruncatedSeries":
        """Termwise d/dt; on the factorial lattice this is an index shift."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries(self.order - 1, self.coeffs[1:])


def _convolve(
    left: Sequence[SparsePolynomial], right: Sequence[SparsePolynomial], n: int
) -> SparsePolynomial:
    """sum_(i=0..n) C(n, i) * left[i] * right[n-i]: entry n of a lattice product."""
    acc = PolyAccumulator()
    for i in range(n + 1):
        u = left[i]
        v = right[n - i]
        if u.is_zero or v.is_zero:
            continue
        acc.add(u * v, comb(n, i))
    return acc.build()


def zero(order: int) -> TruncatedSeries:
    return TruncatedSeries(order, (ZERO,) * (order + 1))


def one(order: int) -> TruncatedSeries:
    return TruncatedSeries(order, (ONE,) + (ZERO,) * order)


def from_sequence(
    spec: SequenceSpec, kind: str, start: int, order: int
) -> TruncatedSeries:
    """Lay sequence values along powers of t, beginning at t^start.

    kind "ordinary" puts spec(m+1) on t^(start+m); kind "egf" puts
    spec(m+1)/(start+m)! there instead.  Either way the lattice entries stay
    in the integer polynomial ring.
    """
    if kind not in ("ordinary", "egf"):
        raise ValueError(f"kind must be 'ordinary' or 'egf', got {kind!r}")
    _check_nonnegative_int(start=start, order=order)
    if start > 1:
        raise ValueError(f"start must be 0 or 1, got {start}")
    coeffs = []
    for j in range(order + 1):
        m = j - start
        if m < 0:
            coeffs.append(ZERO)
            continue
        value = spec.at(m + 1)
        coeffs.append(value * factorial(j) if kind == "ordinary" else value)
    return TruncatedSeries(order, tuple(coeffs))


def exp(s: TruncatedSeries) -> TruncatedSeries:
    """Series exponential E = exp(s); s must have zero constant term.

    E is the solution of E' = s'E with E(0) = 1.  On the factorial lattice
    the derivative is an index shift and the product a binomial convolution,
    so the lattice entries obey e_0 = 1 and
      e_(n+1) = sum_(i=0..n) C(n, i) * s_(i+1) * e_(n-i),
    which needs no power of s and no division: O(order^2) coefficient
    products instead of O(order) series products.
    """
    if not s.coeffs[0].is_zero:
        raise ValueError("series exponential requires a zero constant term")
    shifted = s.coeffs[1:]
    e = [ONE]
    for n in range(s.order):
        e.append(_convolve(shifted, e, n))
    return TruncatedSeries(s.order, tuple(e))


def _head_step(base: TruncatedSeries, prev: TruncatedSeries) -> TruncatedSeries:
    """A^k/k! from prev = A^(k-1)/(k-1)!, where base A has zero constant term.

    The derivative of A^k/k! is A' A^(k-1)/(k-1)!, so on the factorial
    lattice the entries obey the partial Bell recurrence (Comtet, Advanced
    Combinatorics, 3.3) p_0 = 0 and
      p_(n+1) = sum_(i=0..n) C(n, i) * a_(i+1) * q_(n-i),
    which costs what one series product costs and needs no division by k!.
    """
    shifted = base.coeffs[1:]
    return TruncatedSeries(
        base.order,
        (ZERO,) + tuple(_convolve(shifted, prev.coeffs, n) for n in range(base.order)),
    )


GF_FAMILIES = {
    "lah-bell": (),
    "r-lah-bell": ("r",),
    "lah": ("k",),
    "r-lah": ("k", "r"),
    "r-lah-bell-poly": ("r", "x"),
    "incomplete-generic": ("k", "r", "a", "b"),
    "complete-generic": ("r", "x", "a", "b"),
    "incomplete-r-bell": ("k", "rho", "a", "b"),
    "complete-r-bell": ("rho", "a", "b"),
}


def gf_expand(
    family: str,
    order: int,
    *,
    k: int | None = None,
    r: int | None = None,
    rho: int | None = None,
    x: Union[SparsePolynomial, int, None] = None,
    a: SequenceSpec | None = None,
    b: SequenceSpec | None = None,
) -> list[SparsePolynomial]:
    """Expand one generating-function family; returns lattice coefficients 0..order.

    Families and their required keyword parameters:
      lah-bell            ()       exp(t/(1-t))
      r-lah-bell          (r)      exp(t/(1-t)) / (1-t)^2r
      lah                 (k)      (1/k!) (t/(1-t))^k
      r-lah               (k, r)   (1/k!) (t/(1-t))^k / (1-t)^2r
      r-lah-bell-poly     (r, x)   exp(x t/(1-t)) / (1-t)^2r
      incomplete-generic  (k, r, a, b)    (1/k!) A(t)^k B(t)^2r, ordinary A, B
      complete-generic    (r, x, a, b)    exp(x A(t)) B(t)^2r,   ordinary A, B
      incomplete-r-bell   (k, rho, a, b)  (1/k!) A(t)^k B(t)^rho, egf A, B
      complete-r-bell     (rho, a, b)     exp(A(t)) B(t)^rho,     egf A, B

    where A lays the a-sequence (ones if not given) from t^1 and B lays the
    b-sequence (ones if not given) from t^0.
    Missing or extra parameters, and a negative order, k, r or rho, raise
    ValueError; an order, k, r or rho that is not an int (or is a bool)
    raises TypeError.

    The head A^k/k! is a power by squaring divided by k!, and exp(x A) the
    series exponential; the tail B^m is a power of B and is left out when
    m = 0.  Inside a reuse scope (exact_core._reuse) the call keeps its head
    and tail until the scope closes, for later calls with the same sequence,
    lattice and order: head k then comes from a kept head k-1 by one partial
    Bell recurrence step (_head_step), and tail m from a kept tail m-1 or m-2
    by one product.  The returned coefficients are never kept, and they are
    the same either way.
    """
    if family not in GF_FAMILIES:
        raise ValueError(f"unknown generating-function family: {family!r}")
    required = GF_FAMILIES[family]
    provided = {
        name: value
        for name, value in (("k", k), ("r", r), ("rho", rho), ("x", x), ("a", a), ("b", b))
        if value is not None
    }
    if set(provided) != set(required):
        raise ValueError(
            f"family {family!r} takes parameters {sorted(required)}, got {sorted(provided)}"
        )

    counts = {name: value for name, value in provided.items() if name in ("k", "r", "rho")}
    _check_nonnegative_int(order=order, **counts)

    # Every family has one of two shapes, A^k/k! * B^m or exp(x A) * B^m: k
    # picks the head, r (m = 2r) or rho (m = rho) brings the tail, and the
    # families that take rho lay A and B on the egf lattice.
    kind = "ordinary" if rho is None else "egf"
    a = ONES if a is None else a
    memo = _MEMO.get()
    if memo is None:
        memo = {}  # outside a _reuse() scope nothing outlives this call
    if k is not None:
        s = _power_head(memo, a, kind, order, k)
    else:
        s = _exp_head(memo, a, kind, order, None if x is None else as_poly(x))
    m = 2 * r if r is not None else rho
    if m:
        s = s * _tail(memo, ONES if b is None else b, kind, order, m)
    return [s.egf_coefficient(n) for n in range(order + 1)]


def _power_head(memo: dict, a: SequenceSpec, kind: str, order: int, k: int) -> TruncatedSeries:
    """A^k/k!: one recurrence step from a kept A^(k-1)/(k-1)!, else a power."""
    heads = memo.setdefault(("head", a, kind, order), {})
    if k not in heads:
        base = from_sequence(a, kind, 1, order)
        if k - 1 in heads:
            heads[k] = _head_step(base, heads[k - 1])
        else:
            heads[k] = base.pow(k).divide_exact(factorial(k))
    return heads[k]


def _exp_head(
    memo: dict, a: SequenceSpec, kind: str, order: int, x: SparsePolynomial | None
) -> TruncatedSeries:
    """exp(x A), or exp(A) when x is None."""
    key = ("exp", a, kind, order, x)
    if key not in memo:
        s = from_sequence(a, kind, 1, order)
        memo[key] = exp(s if x is None else s.scale(x))
    return memo[key]


def _tail(memo: dict, b: SequenceSpec, kind: str, order: int, m: int) -> TruncatedSeries:
    """B^m for m >= 1: one product from kept B^(m-1) or B^(m-2), else a power."""
    tails = memo.setdefault(("tail", b, kind, order), {})
    if 1 not in tails:
        tails[1] = from_sequence(b, kind, 0, order)
    if m not in tails:
        for j in (m - 1, m - 2):
            if j in tails and m - j in tails:
                tails[m] = tails[j] * tails[m - j]
                break
        else:
            tails[m] = tails[1].pow(m)
    return tails[m]


@dataclass(frozen=True)
class DerivativeCheck:
    """Report comparing the two routes to an m-th derivative at 0."""

    m: int
    series_value: int
    partition_value: int

    @property
    def passed(self) -> bool:
        return self.series_value == self.partition_value

    def __bool__(self) -> bool:
        return self.passed


def faa_di_bruno_check(m: int, order: int | None = None) -> DerivativeCheck:
    """Check the m-th derivative of exp(t/(1-t)) at 0 two independent ways.

    Route one differentiates the series exponential m times and reads the
    constant term.  Route two evaluates the complete Bell sum at factorial
    arguments, which is what the chain rule for exp(f) prescribes when every
    derivative of f at 0 is j!.
    """
    order = m if order is None else order
    _check_nonnegative_int(m=m, order=order)
    if m < 1:
        raise ValueError("m must be at least 1")
    if order < m:
        raise ValueError(f"order {order} is too small for m = {m}")
    s = exp(from_sequence(ONES, "ordinary", 1, order))
    for _ in range(m):
        s = s.derivative()
    series_value = s.coeffs[0].as_int()
    partition_value = complete_bell(m, FACTORIALS).as_int()
    return DerivativeCheck(m, series_value, partition_value)

"""Partition-sum constructors for the Bell polynomial families.

Every constructor consumes SequenceSpec inputs, so the numeric and symbolic
paths share one implementation: pass a symbolic spec to get a polynomial in
the indexed variables, or ones/factorials/an explicit list to get a constant
polynomial carrying the corresponding number.

Two sum shapes appear throughout.  The plain shape runs over block-size
multiplicity vectors (j_i) with sum(i*j_i) = n; the extended shape runs over
paired vectors from enumerate_lambda, splitting weight between ordinary
blocks and a fixed number of distinguished ones.  Every term coefficient is
an integer quotient of factorials, taken with exact_div, so a term that is
ever not whole raises IntegralityError.

The six witness-sum constructors share one term loop, _witness_sum.  It
reads a plain witness as a paired one with an empty r-part, so every
constructor differs only in where its witnesses come from and in the
coefficient rule: with or without the (i!)^v block weights.  Within one
call the loop keeps a factorial table and a table of (i, v) -> (spec value
at i)^v with its coefficient divisor, so a factor that recurs across
witnesses is computed once; nothing outlives the call.
complete_bell and complete_lah_bell take their witnesses from
_exponent_vectors, which enumerates all weight-n vectors directly rather
than through enumerate_pi, so checking them against the sum of the
incomplete polynomials over k stays a comparison of two enumerations.
complete_r_lah_bell_expansion has no term loop of its own: it weights
complete_lah_bell(k, xs) by n!/k! and by a composition sum over ys, which
it reads off one truncated power of the ys series, so comparing it with
complete_r_lah_bell, which sums over paired witnesses, still sets two
different sums against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from .exact_core import _check_nonnegative_int, _rlah_walk, exact_div, factorial, factorials_upto
from .partitions import enumerate_lambda, enumerate_pi
from .poly import (
    ONE,
    ZERO,
    PolyAccumulator,
    SparsePolynomial,
    Variable,
    as_poly,
    const,
    indexed_var,
    product,
)

__all__ = [
    "SequenceSpec",
    "ONES",
    "FACTORIALS",
    "incomplete_bell",
    "complete_bell",
    "incomplete_r_bell",
    "complete_r_bell",
    "incomplete_lah_bell",
    "complete_lah_bell",
    "incomplete_r_lah_bell",
    "complete_r_lah_bell",
    "lah_bell_polynomial",
    "complete_r_lah_bell_expansion",
    "moments_from_cumulants",
]

_SPEC_KINDS = ("ones", "factorials", "explicit", "symbolic", "uniform")


@dataclass(frozen=True)
class SequenceSpec:
    """Rule producing the i-th input value (i >= 1) for a polynomial family."""

    kind: str
    values: tuple[int, ...] = ()
    family: str = ""
    fill: SparsePolynomial | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SPEC_KINDS:
            raise ValueError(f"unknown sequence kind: {self.kind!r}")

    @staticmethod
    def ones() -> "SequenceSpec":
        return SequenceSpec("ones")

    @staticmethod
    def factorials() -> "SequenceSpec":
        return SequenceSpec("factorials")

    @staticmethod
    def explicit(values: Sequence[int]) -> "SequenceSpec":
        values = tuple(values)
        for value in values:
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"sequence values must be int, got {type(value).__name__}")
        return SequenceSpec("explicit", values=values)

    @staticmethod
    def symbolic(family: str) -> "SequenceSpec":
        Variable(family, 1)  # validates the family name
        return SequenceSpec("symbolic", family=family)

    @staticmethod
    def uniform(value: Union[SparsePolynomial, int]) -> "SequenceSpec":
        return SequenceSpec("uniform", fill=as_poly(value))

    def at(self, i: int) -> SparsePolynomial:
        """The i-th value as a polynomial (constant for numeric kinds)."""
        if i < 1:
            raise ValueError(f"sequence index starts at 1, got {i}")
        if self.kind == "ones":
            return ONE
        if self.kind == "factorials":
            return const(factorial(i))
        if self.kind == "explicit":
            if i > len(self.values):
                raise ValueError(
                    f"explicit sequence too short: need index {i}, have {len(self.values)}"
                )
            return const(self.values[i - 1])
        if self.kind == "symbolic":
            return indexed_var(self.family, i)
        assert self.fill is not None
        return self.fill


ONES = SequenceSpec.ones()
FACTORIALS = SequenceSpec.factorials()


def _exponent_vectors(n: int) -> Iterator[tuple[int, ...]]:
    """Dense vectors (j_1, ..., j_n) with sum(i * j_i) = n, largest-first.

    A vector is complete once its weight is used up, so the recursion stops
    there rather than walking the remaining slots at zero.
    """
    if n == 0:
        yield ()
        return
    buf = [0] * n

    def rec(i: int, weight: int) -> Iterator[tuple[int, ...]]:
        # weight > 0; the slots after i are zero in buf
        for v in range(weight // i, -1, -1):
            rest = weight - v * i
            buf[i - 1] = v
            if not rest:
                yield tuple(buf)
            elif rest > i:  # the later slots i+1..n cannot hold less than i+1
                yield from rec(i + 1, rest)
        buf[i - 1] = 0

    yield from rec(1, n)


class _Factors(dict):
    """(i, v) -> (spec.at(i + shift) ** v, v! or v! * (i!)^v), filled on first use.

    One table lives for one constructor call; shift is 0 for the k-part and
    for plain witnesses, and 1 for the r-part, whose slot i carries b_{i+1}.
    """

    def __init__(
        self, spec: SequenceSpec, shift: int, facts: list[int], block_weights: bool
    ) -> None:
        super().__init__()
        self._spec = spec
        self._shift = shift
        self._facts = facts
        self._block_weights = block_weights

    def __missing__(self, key: tuple[int, int]) -> tuple[SparsePolynomial, int]:
        i, v = key
        weight = self._facts[v]
        if self._block_weights:
            weight *= self._facts[i] ** v
        entry = self[key] = (self._spec.at(i + self._shift) ** v, weight)
        return entry


def _witness_sum(
    n: int,
    rho: int,
    witnesses: Iterable[tuple[Sequence[int], Sequence[int]]],
    a: SequenceSpec,
    b: SequenceSpec,
    block_weights: bool,
) -> SparsePolynomial:
    """Sum over paired witnesses (k_part, r_part) of coefficient times monomial.

    The monomial is prod a_i^k_i * prod b_{i+1}^r_i.  The coefficient is
    n! * rho! over the product of k_i! and r_i!, each times (i!)^v when
    block_weights is set.  It is an integer: the slots i >= 1 of both parts
    form a block type m_i = k_i + r_i of an n-set, so prod (i!)^m_i * m_i!
    divides n!, k_i! divides m_i!, and prod r_i! divides rho!.
    """
    _check_nonnegative_int(n=n, rho=rho)
    facts = factorials_upto(max(n, rho))
    a_factors = _Factors(a, 0, facts, block_weights)
    b_factors = _Factors(b, 1, facts, block_weights)
    acc = PolyAccumulator()
    num = facts[n] * facts[rho]
    for k_part, r_part in witnesses:
        powers = []
        den = 1
        for i, v in enumerate(k_part, 1):
            if v:
                power, weight = a_factors[i, v]
                powers.append(power)
                den *= weight
        for i, v in enumerate(r_part):
            if v:
                power, weight = b_factors[i, v]
                powers.append(power)
                den *= weight
        acc.add(product(powers), exact_div(num, den))
    return acc.build()


def incomplete_bell(n: int, k: int, xs: SequenceSpec) -> SparsePolynomial:
    """Partial Bell polynomial: sum over (n, k) block-size witnesses of
    n!/(prod j_i! * prod (i!)^j_i) times prod xs(i)^j_i.

    Zero for k > n; the empty witness makes (0, 0) give 1.
    """
    witnesses = ((j, ()) for j in enumerate_pi(n, k))
    return _witness_sum(n, 0, witnesses, xs, xs, block_weights=True)


def complete_bell(n: int, xs: SequenceSpec) -> SparsePolynomial:
    """Complete Bell polynomial: the same sum over all weights-n vectors.

    Enumerates sum(i * j_i) = n directly rather than grading by block count,
    so the decomposition into incomplete_bell values is a genuine cross-check.
    """
    witnesses = ((j, ()) for j in _exponent_vectors(n))
    return _witness_sum(n, 0, witnesses, xs, xs, block_weights=True)


def incomplete_r_bell(
    n: int, k: int, rho: int, a: SequenceSpec, b: SequenceSpec
) -> SparsePolynomial:
    """Extended partial Bell polynomial with rho distinguished blocks.

    Sums, over the (n, k, rho) witnesses, the product of
    n!/prod(k_i!) * prod (a_i/i!)^k_i   and
    rho!/prod(r_i!) * prod (b_{i+1}/i!)^r_i.
    Each term's coefficient n! * rho! / prod(k_i! * r_i! * (i!)^(k_i + r_i))
    is an integer, because k_i + r_i is the count of size-i blocks in a set
    partition of n elements (see _witness_sum).
    """
    return _witness_sum(n, rho, enumerate_lambda(n, k, rho), a, b, block_weights=True)


def complete_r_bell(n: int, rho: int, a: SequenceSpec, b: SequenceSpec) -> SparsePolynomial:
    """Sum of incomplete_r_bell(n, k, rho, a, b) over k = 0..n."""
    _check_nonnegative_int(n=n, rho=rho)
    total = PolyAccumulator()
    for k in range(n + 1):
        total.add(incomplete_r_bell(n, k, rho, a, b))
    return total.build()


def incomplete_lah_bell(n: int, k: int, xs: SequenceSpec) -> SparsePolynomial:
    """Ordered-block partial Bell polynomial.

    Same witness set as incomplete_bell but with coefficient n!/prod(j_i!):
    the i! block weights of the ordered-block model cancel the 1/i! of the
    plain model, leaving an all-integer multinomial.
    """
    witnesses = ((j, ()) for j in enumerate_pi(n, k))
    return _witness_sum(n, 0, witnesses, xs, xs, block_weights=False)


def complete_lah_bell(n: int, xs: SequenceSpec) -> SparsePolynomial:
    """Sum of the ordered-block shape over all weight-n vectors."""
    witnesses = ((j, ()) for j in _exponent_vectors(n))
    return _witness_sum(n, 0, witnesses, xs, xs, block_weights=False)


def incomplete_r_lah_bell(
    n: int, k: int, r: int, a: SequenceSpec, b: SequenceSpec
) -> SparsePolynomial:
    """Ordered-block extended partial polynomial over (n, k, 2r) witnesses.

    Term coefficient n!/prod(k_i!) * (2r)!/prod(r_i!) on
    prod a_i^k_i * prod b_{i+1}^r_i; all-integer throughout.
    """
    _check_nonnegative_int(r=r)
    return _witness_sum(n, 2 * r, enumerate_lambda(n, k, 2 * r), a, b, block_weights=False)


def complete_r_lah_bell(
    n: int,
    r: int,
    x: Union[SparsePolynomial, int],
    a: SequenceSpec,
    b: SequenceSpec,
) -> SparsePolynomial:
    """Sum over k of x^k times incomplete_r_lah_bell(n, k, r, a, b)."""
    _check_nonnegative_int(n=n, r=r)
    xp = as_poly(x)
    total = PolyAccumulator()
    xpow = ONE
    for k in range(n + 1):
        total.add(xpow * incomplete_r_lah_bell(n, k, r, a, b))
        xpow = xpow * xp
    return total.build()


def lah_bell_polynomial(n: int, r: int, x: Union[SparsePolynomial, int]) -> SparsePolynomial:
    """Row polynomial of the r-extended triangle: sum of rlah(n, k, r) * x^k.

    Computed from the closed-form numbers, walked along the row, independently
    of the witness sums, so it can serve as an oracle for them.
    """
    _check_nonnegative_int(n=n, r=r)
    xp = as_poly(x)
    total = PolyAccumulator()
    xpow = ONE
    for entry in _rlah_walk(n, r):
        total.add(xpow, entry)
        xpow = xpow * xp
    return total.build()


def complete_r_lah_bell_expansion(
    n: int, r: int, xs: SequenceSpec, ys: SequenceSpec
) -> SparsePolynomial:
    """Direct double-sum expansion of the complete ordered-block polynomial.

    n! times the sum over k = 0..n of, for every multiplicity vector m with
    sum(i * m_i) = k, the term prod xs(i)^m_i / prod(m_i!), times, for every
    ordered 2r-tuple (l_1, ..., l_2r) summing to n - k, the factor
    prod ys(l_j + 1).  Agrees with complete_r_lah_bell at x = 1.  As
    n!/prod(m_i!) = (n!/k!) * k!/prod(m_i!), the sum over m is n!/k! times
    complete_lah_bell(k, xs).  The sum over tuples is the t^(n-k) coefficient
    of (sum_l ys(l+1) t^l)^(2r), one truncated series power for every k.
    """
    _check_nonnegative_int(n=n, r=r)
    # ys(1..n+1), top index first, so a too-short explicit ys fails at n + 1
    ybase = [ys.at(l + 1) for l in range(n, -1, -1)][::-1] if r else []
    ysums = [ONE] + [ZERO] * n
    for _ in range(2 * r):
        power = [PolyAccumulator() for _ in range(n + 1)]
        for i, y in enumerate(ysums):
            if not y.is_zero:
                for l in range(n + 1 - i):
                    power[i + l].add(y * ybase[l])
        ysums = [p.build() for p in power]
    acc = PolyAccumulator()
    facts = factorials_upto(n)
    for k in range(n + 1):
        ypart = ysums[n - k]
        if not ypart.is_zero:
            acc.add(complete_lah_bell(k, xs) * ypart, exact_div(facts[n], facts[k]))
    return acc.build()


def moments_from_cumulants(kappas: Sequence[int], n: int) -> int:
    """n-th raw moment from the first n cumulants via the complete Bell sum."""
    _check_nonnegative_int(n=n)
    if len(kappas) < n:
        raise ValueError(f"need at least {n} cumulants, got {len(kappas)}")
    return complete_bell(n, SequenceSpec.explicit(tuple(kappas))).as_int()

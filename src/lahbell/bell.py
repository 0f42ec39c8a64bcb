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
coefficient rule: with or without the (i!)^v block weights.  The loop reads
its witnesses as runs (k_part, r_parts) of witnesses that share a k-part,
and keeps, per side, a table of slot terms (i, v) -> (monomial pairs, int
factor, fill count, coefficient divisor), each read from the spec on first
use.  It works out the terms of each k-part once per run and of each r-part
once per call, builds no polynomial per witness, sums int coefficients in a
dict keyed by the joined monomial pairs and the two fill counts, then
raises each uniform fill once per distinct count and builds one polynomial
at the end.

Outside a reuse scope (exact_core._reuse) the witness runs are read lazily
and the slot tables are built for the call and dropped when it returns.
Inside one, which the verifier opens once per run, the first call keeps
its witness stream under (enumerator, n, k, rho) and its slot tables under
(spec, shift, block weights), and later calls read them.  Only these inputs
are kept, never a constructor's result.
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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

from .exact_core import (
    _MEMO, _check_nonnegative_int, _rlah_walk, exact_div, factorial, factorials_upto,
)
from .partitions import enumerate_lambda, enumerate_pi
from .poly import (
    ONE,
    ZERO,
    Monomial,
    PolyAccumulator,
    SparsePolynomial,
    Variable,
    _merge,
    as_poly,
    const,
    indexed_var,
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
        if self.kind == "symbolic":
            Variable(self.family, 1)  # validates the family name

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


@functools.cache
def _first_code(family: str) -> int:
    """The code of the family's variable 1; variable i has this code plus i - 1."""
    return Variable(family, 1).code


class _Factors(dict):
    """(i, v) -> the term of slot i at multiplicity v, filled on first use.

    An entry is (pairs, factor, count, weight): the slot contributes the
    code-sorted monomial pairs, times the int factor, times the spec's fill
    raised to count, over weight = v! or v! * (i!)^v.  A symbolic spec gives
    the one pair (code of its i-th variable, v); ones, factorials and
    explicit values give the int value**v; a uniform spec gives count v.
    The first use of a slot still reads spec.at(i + shift), so a too-short
    explicit sequence fails at the first index the sum needs, and a slot
    that fails is not kept.

    shift is 0 for the k-part and for plain witnesses, and 1 for the
    r-part, whose slot i carries b_{i+1}.  An entry depends on nothing but
    the spec, shift, block weights and its key, so one table serves calls of
    any n: a table lives for one constructor call, or for a whole reuse
    scope.
    """

    def __init__(self, spec: SequenceSpec, shift: int, block_weights: bool) -> None:
        super().__init__()
        self._spec = spec
        self._shift = shift
        self._block_weights = block_weights
        # slot i of a symbolic spec is the variable with code code0 + i
        self._code0 = _first_code(spec.family) - 1 + shift if spec.kind == "symbolic" else 0
        self._fill_powers: dict[int, SparsePolynomial] = {}

    def __missing__(self, key: tuple[int, int]) -> tuple[tuple, int, int, int]:
        i, v = key
        spec = self._spec
        value = spec.at(i + self._shift)
        weight = math.factorial(v)
        if self._block_weights:
            weight *= math.factorial(i) ** v
        if spec.kind == "symbolic":
            entry = (((self._code0 + i, v),), 1, 0, weight)
        elif spec.kind == "uniform":
            entry = ((), 1, v, weight)
        else:
            entry = ((), value.as_int() ** v, 0, weight)
        self[key] = entry
        return entry

    def fill_power(self, count: int) -> SparsePolynomial:
        """The uniform fill raised to count, computed once per distinct count."""
        power = self._fill_powers.get(count)
        if power is None:
            assert self._spec.fill is not None
            power = self._fill_powers[count] = self._spec.fill ** count
        return power

    def side(self, part: Sequence[int], first: int) -> tuple[tuple, int, int, int]:
        """(pairs, factor, count, weight) of a whole part whose slot index starts at first."""
        pairs: tuple = ()
        factor, count, weight = 1, 0, 1
        for i, v in enumerate(part, first):
            if v:
                p, f, c, w = self[i, v]
                pairs += p
                factor *= f
                count += c
                weight *= w
        return pairs, factor, count, weight


_Run = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]

# The r-parts of a plain witness: one, empty.
_NO_R: tuple[tuple[int, ...], ...] = ((),)


def _runs(witnesses: Iterable, paired: bool) -> Iterator[_Run]:
    """(k_part, r_parts) for each run of consecutive witnesses with one k-part.

    A plain witness is its own run, with one empty r-part.
    """
    if not paired:
        for j in witnesses:
            yield j, _NO_R
        return
    k_run, r_run = None, []
    for k_part, r_part in witnesses:
        if k_part != k_run:
            if r_run:
                yield k_run, tuple(r_run)
            k_run, r_run = k_part, []
        r_run.append(r_part)
    if r_run:
        yield k_run, tuple(r_run)


def _witness_runs(
    kept: dict | None, enumerator: Callable, args: tuple[int, ...]
) -> Iterator[_Run]:
    """The runs of enumerator(*args): read lazily outside a reuse scope, and
    read once per scope and kept in the scope's dict inside one.

    A kept stream is two tuples, its k-parts and the r_parts of each run,
    and equal k-parts and equal r_parts tuples are shared by all the streams
    kept in the scope, so a kept stream holds few objects of its own.  In a
    scope the arguments are checked before the lookup, as the enumerator
    checks them, because a bool hashes like the int it equals and would
    find that int's stream.
    """
    paired = len(args) == 3
    if kept is None:
        return _runs(enumerator(*args), paired)
    _check_nonnegative_int(**dict(zip(("n", "k", "rho"), args)))
    key = ("witnesses", enumerator, *args)
    stream = kept.get(key)
    if stream is None:
        # k-parts are tuples of ints and r_parts non-empty tuples of tuples,
        # so the two kinds never compare equal in the one dict
        shared = kept.setdefault("parts", {})
        k_parts, r_runs = [], []
        for k_part, r_parts in _runs(enumerator(*args), paired):
            k_parts.append(shared.setdefault(k_part, k_part))
            r_runs.append(shared.setdefault(r_parts, r_parts))
        stream = kept[key] = (tuple(k_parts), tuple(r_runs))
    return zip(*stream)


def _slots(memo: dict, spec: SequenceSpec, shift: int, block_weights: bool) -> _Factors:
    key = ("slots", spec, shift, block_weights)
    table = memo.get(key)
    if table is None:
        table = memo[key] = _Factors(spec, shift, block_weights)
    return table


def _witness_sum(
    a: SequenceSpec, b: SequenceSpec, block_weights: bool, enumerator: Callable, *args: int
) -> SparsePolynomial:
    """Sum over the witnesses of enumerator(*args) of coefficient times monomial.

    args is (n,), (n, k) or (n, k, rho).  An enumerator of (n, k, rho) yields
    paired witnesses (k_part, r_part); the others yield plain vectors, read
    with an empty r-part and rho = 0.  The monomial is
    prod a_i^k_i * prod b_{i+1}^r_i.  The coefficient is n! * rho! over the
    product of k_i! and r_i!, each times (i!)^v when block_weights is set.
    It is an integer: the slots i >= 1 of both parts form a block type
    m_i = k_i + r_i of an n-set, so prod (i!)^m_i * m_i! divides n!, k_i!
    divides m_i!, and prod r_i! divides rho!.

    No polynomial is built per witness.  Each witness joins the slot terms
    of its k-part, worked out once per run, and of its r-part, worked out
    once per call, into one monomial key, and adds an int coefficient under
    (pairs, a fill count, b fill count).  At the end the keys are grouped by
    their fill counts, each fill is raised once per distinct count, and the
    groups are summed.
    """
    n = args[0]
    rho = args[2] if len(args) == 3 else 0
    _check_nonnegative_int(n=n, rho=rho)
    kept = _MEMO.get()
    runs = _witness_runs(kept, enumerator, args)
    memo = {} if kept is None else kept  # outside a scope nothing outlives the call
    a_factors = _slots(memo, a, 0, block_weights)
    b_factors = _slots(memo, b, 1, block_weights)
    num = math.factorial(n) * math.factorial(rho)
    r_sides: dict[tuple[int, ...], tuple[tuple, int, int, int]] = {}
    terms: dict[tuple[tuple, int, int], int] = {}
    for k_part, r_parts in runs:
        k_pairs, k_factor, a_count, k_weight = a_factors.side(k_part, 1)
        for r_part in r_parts:
            r_side = r_sides.get(r_part)
            if r_side is None:
                r_side = r_sides[r_part] = b_factors.side(r_part, 0)
            r_pairs, r_factor, b_count, r_weight = r_side
            key = (_merge(k_pairs, r_pairs), a_count, b_count)
            coeff = exact_div(num, k_weight * r_weight) * k_factor * r_factor
            terms[key] = terms.get(key, 0) + coeff
    by_counts: dict[tuple[int, int], dict[Monomial, int]] = {}
    for (pairs, a_count, b_count), coeff in terms.items():
        if coeff:
            by_counts.setdefault((a_count, b_count), {})[Monomial._raw(pairs)] = coeff
    plain = SparsePolynomial._raw(by_counts.pop((0, 0), {}))
    if not by_counts:
        return plain
    acc = PolyAccumulator()
    acc.add(plain)
    for (a_count, b_count), data in by_counts.items():
        part = SparsePolynomial._raw(data)
        if a_count:
            part = part * a_factors.fill_power(a_count)
        if b_count:
            part = part * b_factors.fill_power(b_count)
        acc.add(part)
    return acc.build()


def incomplete_bell(n: int, k: int, xs: SequenceSpec) -> SparsePolynomial:
    """Partial Bell polynomial: sum over (n, k) block-size witnesses of
    n!/(prod j_i! * prod (i!)^j_i) times prod xs(i)^j_i.

    Zero for k > n; the empty witness makes (0, 0) give 1.
    """
    return _witness_sum(xs, xs, True, enumerate_pi, n, k)


def complete_bell(n: int, xs: SequenceSpec) -> SparsePolynomial:
    """Complete Bell polynomial: the same sum over all weights-n vectors.

    Enumerates sum(i * j_i) = n directly rather than grading by block count,
    so the decomposition into incomplete_bell values is a genuine cross-check.
    """
    return _witness_sum(xs, xs, True, _exponent_vectors, n)


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
    return _witness_sum(a, b, True, enumerate_lambda, n, k, rho)


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
    return _witness_sum(xs, xs, False, enumerate_pi, n, k)


def complete_lah_bell(n: int, xs: SequenceSpec) -> SparsePolynomial:
    """Sum of the ordered-block shape over all weight-n vectors."""
    return _witness_sum(xs, xs, False, _exponent_vectors, n)


def incomplete_r_lah_bell(
    n: int, k: int, r: int, a: SequenceSpec, b: SequenceSpec
) -> SparsePolynomial:
    """Ordered-block extended partial polynomial over (n, k, 2r) witnesses.

    Term coefficient n!/prod(k_i!) * (2r)!/prod(r_i!) on
    prod a_i^k_i * prod b_{i+1}^r_i; all-integer throughout.
    """
    _check_nonnegative_int(r=r)
    return _witness_sum(a, b, False, enumerate_lambda, n, k, 2 * r)


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

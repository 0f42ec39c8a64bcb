"""Partition-sum constructors for the Bell polynomial families.

Every constructor consumes SequenceSpec inputs, so the numeric and symbolic
paths share one implementation: pass a symbolic spec to get a polynomial in
the indexed variables, or ones/factorials/an explicit list to get a constant
polynomial carrying the corresponding number.

Two sum shapes appear throughout.  The plain shape runs over block-size
multiplicity vectors (j_i) with sum(i*j_i) = n; the extended shape runs over
paired vectors from enumerate_lambda, splitting weight between ordinary
blocks and a fixed number of distinguished ones.  Every term coefficient is
an integer quotient of factorials, taken exactly, as exact_div takes it, so
a term that is ever not whole raises IntegralityError.

The six witness-sum constructors share one term loop, _witness_sum.  It
reads a plain witness as a paired one with an empty r-part, so every
constructor differs only in where its witnesses come from and in the
coefficient rule: with or without the (i!)^v block weights.  The loop reads
its witnesses as the enumerator yields them, through partitions._witnesses,
the reader it shares with the routes lah_via_pi and rlah_via_lambda, and
works out a k-part's side again only when the k-part is not the object the
previous witness had.  It keeps, per side, a table of slot terms
(i, v) -> (monomial pairs, int factor, coefficient divisor), each read from
the spec on first use, and next to it a poly._FirstUse table of whole-part
sides, part -> the same three fields for the part.  It builds no
polynomial per witness: it joins the two sides' pairs by one tuple
concatenation when the k side's codes sort first, as they do for every
input a command or suite passes, and by one poly._merge otherwise (two
specs of one symbolic family, or sides whose families sort the other way
round).  It takes the coefficient by one divmod and sums int coefficients
in a dict keyed by the joined pairs, which is the result as it stands.
Every witness has k plain blocks and rho marked ones, so a uniform side
is summed as ONES and its fill enters once, as one power of the sum.

Outside a reuse scope (exact_core._reuse) the witnesses are read lazily,
the side of each k-part is worked out once per k-part and that of each
r-part once per call, and the tables are built for the call and dropped
when it returns.  Inside one, which the verifier opens once per run, the
first call keeps its witness stream under (enumerator, n, k, rho) and its
tables under (spec, shift, block weights), and later calls read them, so
each side is worked out once per scope.  Only these inputs are kept, never a
constructor's result.
complete_r_lah_bell multiplies x^k times each partial polynomial into its
total term by term, so it builds no product polynomial per k.
complete_bell and complete_lah_bell take their witnesses from
_exponent_vectors, which enumerates all weight-n vectors directly rather
than through enumerate_pi, so checking them against the sum of the
incomplete polynomials over k stays a comparison of two enumerations.  Over
a uniform spec they sum the partial polynomials, as a weight-n vector fixes
no block count to raise the fill to.
complete_r_lah_bell_expansion has no term loop of its own: it weights
complete_lah_bell(k, xs) by n!/k! and by a composition sum over ys, which
it reads off one truncated power of the ys series, so comparing it with
complete_r_lah_bell, which sums over paired witnesses, still sets two
different sums against each other.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable, Iterator, Sequence, Union

from .exact_core import (
    _MEMO,
    _Record,
    _check_int,
    _check_nonnegative_int,
    _indivisible,
    _rlah_walk,
    factorial,
)
from .partitions import _witnesses, enumerate_lambda, enumerate_pi
from .poly import (
    _INDEXED_FAMILIES,
    ONE,
    ZERO,
    PolyAccumulator,
    SparsePolynomial,
    Variable,
    _FirstUse,
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


class SequenceSpec(_Record):
    """Rule producing the i-th input value (i >= 1) for a polynomial family.

    A spec checks its fields when made: int values, kept as a tuple, a fill
    made a polynomial, an indexed family, and no field its kind does not read."""

    __slots__ = ("kind", "values", "family", "fill")

    def __init__(
        self, kind: str, values: Sequence[int] = (), family: str = "",
        fill: SparsePolynomial | int | None = None,
    ) -> None:
        if kind not in _SPEC_KINDS:
            raise ValueError(f"unknown sequence kind: {kind!r}")
        values = tuple(values)
        for value in values:
            _check_int("sequence value", value)
        for name, reader, given in (
            ("values", "explicit", values != ()),
            ("family", "symbolic", family != ""),
            ("fill", "uniform", fill is not None),
        ):
            if given and kind != reader:
                raise ValueError(f"kind {kind!r} takes no {name}")
        if kind == "symbolic" and family not in _INDEXED_FAMILIES:
            raise ValueError(f"unknown symbolic family: {family!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "fill", as_poly(fill) if kind == "uniform" else fill)

    def __hash__(self) -> int:
        # written out: a verify run hashes specs ~9,000 times, and this beats attrgetter
        return hash((self.kind, self.values, self.family, self.fill))

    @staticmethod
    def ones() -> "SequenceSpec":
        return SequenceSpec("ones")

    @staticmethod
    def factorials() -> "SequenceSpec":
        return SequenceSpec("factorials")

    @staticmethod
    def explicit(values: Sequence[int]) -> "SequenceSpec":
        return SequenceSpec("explicit", values=values)

    @staticmethod
    def symbolic(family: str) -> "SequenceSpec":
        return SequenceSpec("symbolic", family=family)

    @staticmethod
    def uniform(value: Union[SparsePolynomial, int]) -> "SequenceSpec":
        return SequenceSpec("uniform", fill=value)

    def at(self, i: int) -> SparsePolynomial:
        """The i-th value as a polynomial (constant for numeric kinds).

        i is a count from 1: an int and not a bool, else TypeError, and at
        least 1, else ValueError, whatever the kind."""
        if type(i) is not int:
            _check_int("sequence index", i)
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
        return self.fill


ONES = SequenceSpec.ones()
FACTORIALS = SequenceSpec.factorials()


def _exponent_vectors(n: int) -> Iterator[tuple[int, ...]]:
    """Dense vectors (j_1, ..., j_n) with sum(i * j_i) = n, largest-first.

    One loop walks the slots as an explicit stack, with no generator frame
    per slot: slot i holds its value in buf[i - 1] and the weight left on
    entering it in left[i], and each step either enters the next slot at
    its largest value or lowers the deepest slot still above zero.  A vector
    is complete once its weight is used up, and a slot is entered only when
    the weight it gets needs two units or more on the slots from there on,
    so no later slot is walked at zero.
    """
    if n == 0:
        yield ()
        return
    buf = [0] * n
    left = [0] * (n + 1)
    i, w = 1, n  # the deepest slot set, and the weight left on entering it
    left[1] = buf[0] = n
    while True:
        rest = w - buf[i - 1] * i
        if not rest:
            yield tuple(buf)
        elif rest > 2 * i + 1:
            i += 1
            left[i] = w = rest
            buf[i - 1] = rest // i
            continue
        elif rest > i:
            # the later slots i+1..n cannot hold less than i+1, and two units
            # on them weigh at least 2i+2, so one unit on slot rest is the
            # only way to finish
            buf[rest - 1] = 1
            yield tuple(buf)
            buf[rest - 1] = 0
        while not buf[i - 1]:
            i -= 1
            if not i:
                return
        buf[i - 1] -= 1
        w = left[i]


def _first_code(family: str) -> int:
    """The code of the family's variable 1; variable i has this code plus i - 1."""
    return Variable(family, 1).code


class _Factors(dict):
    """(i, v) -> the term of slot i at multiplicity v, filled on first use.

    An entry is (pairs, factor, weight): the slot contributes the code-sorted
    monomial pairs, times the int factor, over weight = v! or v! * (i!)^v.
    A symbolic spec gives the one pair (code of its i-th variable, v); ones,
    factorials and explicit values give no pairs and the int value**v.  A
    uniform spec has no table: _witness_sum reads ONES in its place.  The
    first use of a slot still reads spec.at(i + shift), so a too-short
    explicit sequence fails at the first index the sum needs, and a slot
    that fails is not kept.

    shift is 0 for the k-part and for plain witnesses, whose slots start at
    i = 1, and 1 for the r-part, whose slots start at i = 0 and whose slot i
    carries b_{i+1}.  An entry depends on nothing but the spec, shift, block
    weights and its key, so one table serves calls of any n: a table lives
    for one constructor call, or for a whole reuse scope.  The same holds
    for side(), the three fields of a whole part, so _tables keeps a
    poly._FirstUse table of sides next to each slot table: in a scope it
    keeps every side, and outside one the witness sum keeps only r-part
    sides there.
    """

    def __init__(self, spec: SequenceSpec, shift: int, block_weights: bool) -> None:
        super().__init__()
        self._spec = spec
        self._shift = shift
        self._first = 1 - shift
        self._block_weights = block_weights
        # slot i of a symbolic spec is the variable with code code0 + i
        self._code0 = _first_code(spec.family) - 1 + shift if spec.kind == "symbolic" else 0
        # the lowest code in this table's pairs, None when they have none
        self.lead = _first_code(spec.family) if spec.kind == "symbolic" else None

    def __missing__(self, key: tuple[int, int]) -> tuple[tuple, int, int]:
        i, v = key
        spec = self._spec
        value = spec.at(i + self._shift)
        weight = math.factorial(v)
        if self._block_weights:
            weight *= math.factorial(i) ** v
        if spec.kind == "symbolic":
            entry = (((self._code0 + i, v),), 1, weight)
        else:
            entry = ((), value.as_int() ** v, weight)
        self[key] = entry
        return entry

    def side(self, part: Sequence[int]) -> tuple[tuple, int, int]:
        """(pairs, factor, weight) of a whole part, its slots read from this table."""
        pairs: tuple = ()
        factor = weight = 1
        for i, v in enumerate(part, self._first):
            if v:
                p, f, w = self[i, v]
                pairs += p
                factor *= f
                weight *= w
        return pairs, factor, weight


def _tables(
    memo: dict, spec: SequenceSpec, shift: int, block_weights: bool
) -> tuple[_Factors, _FirstUse]:
    """The slot table of one side and its table of whole-part sides."""
    key = ("slots", spec, shift, block_weights)
    tables = memo.get(key)
    if tables is None:
        slots = _Factors(spec, shift, block_weights)
        tables = memo[key] = (slots, _FirstUse(slots.side))
    return tables


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

    No polynomial is built per witness.  Each witness joins the sides of
    its k-part and of its r-part into one monomial key, and adds an int
    coefficient under it.  A k-part's side is looked up again only when the
    k-part is not the previous witness's object: an enumerator yields one
    object for all of a k-part's witnesses.  Inside a reuse scope every side
    comes from the scope's side tables, so it is worked out once per scope;
    outside one the side of a k-part is worked out once per k-part, and
    that of an r-part once per call.  How the pairs join is fixed once per
    call, so that a joined key stays code-sorted: a numeric side has no
    pairs.  When the k side's lowest code sorts below the r side's, or
    either side has no pairs, the join is one concatenation; otherwise it
    is one _merge.  The pairs-keyed dict is the polynomial.

    Every witness has k plain blocks and rho marked ones, so a uniform side
    contributes its fill to the power k, or rho, to every term.  A call with
    one sums with ONES on that side and multiplies the sum by that power;
    the enumerator must then fix k, which _exponent_vectors does not.
    """
    n, k, rho = (*args, 0, 0)[:3]
    _check_nonnegative_int(n=n, rho=rho, k=k)
    if a.kind == "uniform" or b.kind == "uniform":
        total = _witness_sum(
            ONES if a.kind == "uniform" else a, ONES if b.kind == "uniform" else b,
            block_weights, enumerator, *args,
        )
        for spec, count in ((a, k), (b, rho)):
            if spec.kind == "uniform" and count:
                total = total * spec.fill**count
        return total
    kept = _MEMO.get()
    paired = len(args) == 3
    witnesses = _witnesses(kept, enumerator, args)
    if not paired:
        witnesses = zip(witnesses, repeat(()))
    memo = {} if kept is None else kept  # outside a scope nothing outlives the call
    k_slots, k_sides = _tables(memo, a, 0, block_weights)
    r_slots, r_sides = _tables(memo, b, 1, block_weights)
    # outside a scope a plain witness meets each k-part once, so a table of
    # k sides would cost more than it saves
    k_side = k_slots.side if kept is None else k_sides.__getitem__
    lead_a, lead_b = k_slots.lead, r_slots.lead
    merge = paired and lead_a is not None and lead_b is not None and lead_a >= lead_b
    num = math.factorial(n) * math.factorial(rho)
    terms: dict[tuple, int] = {}
    k_last = None
    for k_part, r_part in witnesses:
        if k_part is not k_last:
            k_last = k_part
            k_pairs, k_factor, k_weight = k_side(k_part)
        r_pairs, r_factor, r_weight = r_sides[r_part]
        key = _merge(k_pairs, r_pairs) if merge else k_pairs + r_pairs
        coeff, rem = divmod(num, k_weight * r_weight)
        if rem:
            raise _indivisible(num, k_weight * r_weight)
        coeff *= k_factor * r_factor
        terms[key] = terms.get(key, 0) + coeff
    if not all(terms.values()):
        terms = {pairs: coeff for pairs, coeff in terms.items() if coeff}
    return SparsePolynomial._raw(terms)


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
    A weight-n vector fixes no block count, so over a uniform spec this is
    the sum of the partial polynomials instead.
    """
    if xs.kind == "uniform":
        return complete_r_bell(n, 0, xs, xs)
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
    """Sum of the ordered-block shape over all weight-n vectors, or over a
    uniform spec, which fixes no block count, the sum of the partial ones."""
    if xs.kind == "uniform":
        return complete_r_lah_bell(n, 0, 1, xs, xs)
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
    """Sum over k of x^k times incomplete_r_lah_bell(n, k, r, a, b).

    Each term is multiplied into the total term by term, against the
    running power x^k, so no product polynomial is built for any k.  At a
    constant x every power is one constant term.  The power stops at x^n,
    so the call takes n products in all.
    """
    _check_nonnegative_int(n=n, r=r)
    xp = as_poly(x)
    total = PolyAccumulator()
    xpow = ONE
    for k in range(n + 1):
        if k:
            xpow = xpow * xp
        total._add_product(incomplete_r_lah_bell(n, k, r, a, b), xpow, 1)
    return total.build()


def lah_bell_polynomial(n: int, r: int, x: Union[SparsePolynomial, int]) -> SparsePolynomial:
    """Row polynomial of the r-extended triangle: sum of rlah(n, k, r) * x^k.

    Computed from the closed-form numbers, walked along the row, independently
    of the witness sums, so it can serve as an oracle for them.  An int x
    (not a bool) is evaluated by Horner's rule in ints, any other x by n products.
    """
    _check_nonnegative_int(n=n, r=r)
    if isinstance(x, int) and not isinstance(x, bool):
        value = 0
        for entry in reversed(list(_rlah_walk(n, r))):
            value = value * x + entry
        return const(value)
    xp = as_poly(x)
    total = PolyAccumulator()
    xpow = ONE
    for k, entry in enumerate(_rlah_walk(n, r)):
        if k:
            xpow = xpow * xp
        total.add(xpow, entry)
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
                    power[i + l]._add_product(y, ybase[l], 1)
        ysums = [p.build() for p in power]
    acc = PolyAccumulator()
    for k in range(n + 1):
        ypart = ysums[n - k]
        if not ypart.is_zero:
            acc._add_product(complete_lah_bell(k, xs), ypart, math.perm(n, n - k))
    return acc.build()


def moments_from_cumulants(kappas: Sequence[int], n: int) -> int:
    """n-th raw moment from the first n cumulants via the complete Bell sum."""
    _check_nonnegative_int(n=n)
    if len(kappas) < n:
        raise ValueError(f"need at least {n} cumulants, got {len(kappas)}")
    return complete_bell(n, SequenceSpec.explicit(kappas)).as_int()

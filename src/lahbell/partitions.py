"""Streaming enumeration of the constraint sets behind the partition sums.

A pi witness for (n, k) is a multiplicity vector (j_1, ..., j_{n-k+1}) with
sum(j_i) = k and sum(i * j_i) = n: j_i counts the blocks of size i in a
partition of an n-set into k nonempty blocks.  enumerate_pi yields it as
that dense tuple.

A lambda witness for (n, k, rho) is a pair of multiplicity vectors
(k_1, k_2, ...) and (r_0, r_1, ...) with sum(k_i) = k, sum(r_i) = rho and
sum over i >= 1 of i * (k_i + r_i) = n.  The r-side starts at index 0, a
weightless slot that absorbs distinguished blocks carrying no extra element.
enumerate_lambda yields it as a (k_part, r_part) pair of tuples, each empty
or ending in a nonzero entry, so equal witnesses are equal tuples.

Both enumerators are generators yielding witnesses in descending
lexicographic order on the dense tuple read from the lowest index upward
(k-part first, then r-part), so streams are reproducible and suitable for
golden tests.

One private generator, _paired_parts, produces both streams:
enumerate_lambda passes its pairs through, and enumerate_pi takes the
rho = 0 stream, whose r-parts are empty, and pads each k-part to length
n - k + 1.  Its k-parts come from _slot_walk, a single loop over an
explicit stack of slots, in the manner of the loop-based partition
generators of TAOCP Vol. 4A, 7.2.1.4: the current values, and the units
and weight left on entering each slot, sit in plain lists that each step
changes in place, so a witness passes through no chain of nested frames.
The walk fills slots from the lowest index upward and stops as soon as no
units are left: every later slot is then forced to zero, so the witness is
complete and its tuples are slices that end in a nonzero entry.  No slot
index exceeds n - k + 1, because the other k - 1 blocks weigh at least 1
each, and the feasibility bounds use that cap: they give each slot the
range of values it may take, and the last unit goes straight onto each
slot it can finish on.  The bounds change only which slots are visited,
never which witnesses come out or in what order.

An r-part is walked by the same loop from its weightless slot 0.  Every
r-slot index is at most the weight that the k-part leaves, and that weight
is at most n - k, below the cap, so the r-parts of a weight depend only on
rho and the weight (_r_parts).  They are listed once per weight, and every
k-part that leaves that weight is paired with the one list: once per call
outside a reuse scope, and once per scope inside one, where the scope's
dict keeps a table of them per rho.

Every witness-sum route reads its stream through _witnesses, as the
enumerator yields it.  Outside a reuse scope (exact_core._reuse) that is a
fresh enumeration, read lazily; inside one, the first reader keeps the
stream in the scope's dict under (enumerator, n, k, rho), a paired stream
as its two columns, and later readers read the kept one, so the
constructors in bell and the routes lah_via_pi and rlah_via_lambda share
one enumeration per stream and scope.  Each route passes the enumerator it
looks up by name in its own module at call time, so a wrapper put on that
name still sees every enumeration.  A paired stream yields one k-part
object for all of that k-part's witnesses, so a reader works out what a
k-part gives only when the k-part is not the previous witness's object;
a copy that is equal but not the same object only costs it a recompute.
rlah_via_lambda works out each r-part's weight (2r)!/prod(r_i!) once per
call.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .exact_core import _MEMO, _check_nonnegative_int, exact_div, factorials_upto

__all__ = [
    "enumerate_pi",
    "enumerate_lambda",
    "lah_via_pi",
    "rlah_via_lambda",
]


_Parts = tuple[tuple[int, ...], tuple[int, ...]]


def _slot_walk(
    first: int, units: int, weight: int, cap: int, spare: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each way to put `units` on the slots first..cap, slot i weighing i,
    as (part, left): the trimmed values of slots first..last and the weight
    they leave, in descending lexicographic order on the part.

    A part is kept when the weight it leaves fits on `spare` more units of
    at most cap each.  The walk keeps the slots on a stack: slot i holds its
    value in vals[i] and, in units_in[i], weight_in[i] and lows[i], the units
    and weight left on entering it and the lowest value the bounds let it
    take.  Each step enters the next slot at its highest admissible value,
    or lowers the deepest slot that is still above its lowest.  The last
    unit is not walked: the slots it can finish on are read off the bounds.
    """
    vals = [0] * (cap + 1)
    units_in = [0] * (cap + 1)
    weight_in = [0] * (cap + 1)
    lows = [0] * (cap + 1)
    i, u, w = first - 1, units, weight  # the deepest slot set, and what it leaves
    while True:
        j = i + 1
        if u == 1:
            # slot s finishes the part when it is at most cap and leaves no
            # more than the spare units can take; later slots sort lower
            lo = w - spare * cap
            if lo < j:
                lo = j
            hi = w if w < cap else cap
            if lo <= hi:
                head = tuple(vals[first:j])
                for s in range(lo, hi + 1):
                    yield head + (0,) * (s - j) + (1,), w - s
        elif u:
            if j < cap:
                hi = u if not j or w // j >= u else w // j
                # what is left must fit on the later slots and the spare units
                top = ((u + spare) * cap - w) // (cap - j)
                if top < hi:
                    hi = top
                # and each unit left after slot j weighs at least j + 1
                lo = u * (j + 1) - w
                if lo < 0:
                    lo = 0
            else:
                # no slot follows, so the last one takes every unit left
                lo = u
                hi = u if w // j >= u and w <= (u + spare) * cap else -1
            if lo <= hi:
                i = j
                units_in[i], weight_in[i], lows[i] = u, w, lo
                vals[i] = hi
                u -= hi
                w -= hi * i
                continue
        else:
            yield tuple(vals[first:j]), w
        while i >= first and vals[i] == lows[i]:
            i -= 1
        if i < first:
            return
        v = vals[i] = vals[i] - 1
        u = units_in[i] - v
        w = weight_in[i] - v * i


def _r_parts(rho: int, weight: int) -> list[tuple[int, ...]]:
    """The trimmed r-parts over rho >= 1 units that weigh `weight`, in stream order.

    No r-slot index exceeds the weight, so the cap weight + 1 never binds
    and the list depends on rho and the weight alone.
    """
    return [part for part, _ in _slot_walk(0, rho, weight, weight + 1, 0)]


def _paired_parts(n: int, k: int, rho: int) -> Iterator[_Parts]:
    """Trimmed (k_part, r_part) tuples for (n, k, rho), in stream order.

    The k-parts come from one slot-stack walk over the k-slots 1..n - k + 1.
    Every r-slot index is at most the weight a k-part leaves, at most n - k
    and so below the cap, so the r-parts of that weight depend on rho and
    the weight alone.  Each such list is made once per call outside a reuse
    scope, and once per scope inside one, where it is kept in rho's table.
    """
    _check_nonnegative_int(n=n, k=k, rho=rho)
    if k > n:
        return
    if rho:
        # the key is taken after the check: True hashes like 1
        kept = _MEMO.get()
        r_table = {} if kept is None else kept.setdefault(("r-parts", rho), {})
    for k_part, left in _slot_walk(1, k, n, n - k + 1, rho):
        if rho:
            parts = r_table.get(left)
            if parts is None:
                parts = r_table[left] = _r_parts(rho, left)
            for r_part in parts:
                yield k_part, r_part
        elif not left:
            yield k_part, ()


def enumerate_pi(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield every pi witness (j_1..j_{n-k+1}) for (n, k), largest-first.

    The stream is empty when k > n, and holds the single all-zero witness
    when n = k = 0.
    """
    length = n - k + 1
    for k_part, _ in _paired_parts(n, k, 0):
        yield k_part + (0,) * (length - len(k_part))


def enumerate_lambda(n: int, k: int, rho: int) -> Iterator[_Parts]:
    """Yield every (k_part, r_part) witness for (n, k, rho), largest-first.

    Empty when k > n.  For rho = 0 every r-part is empty; for
    n = k = 0 the stream holds the single witness with r_0 = rho.
    """
    yield from _paired_parts(n, k, rho)


def _witnesses(kept: dict | None, enumerator: Callable, args: tuple[int, ...]) -> Iterable:
    """The witnesses of enumerator(*args), in stream order: read lazily
    outside a reuse scope, and read once per scope and kept in the scope's
    dict inside one.

    A kept paired stream is two columns, its k-parts and its r-parts, and
    each column holds the objects the enumerator yielded, so a k-part is
    still one object for all of its r-parts.  The caller checks the
    arguments before the lookup, because a bool hashes like the int it
    equals and would find that int's stream.
    """
    if kept is None:
        return enumerator(*args)
    paired = len(args) == 3
    key = ("witnesses", enumerator, *args)
    stream = kept.get(key)
    if stream is None:
        stream = enumerator(*args)
        stream = kept[key] = tuple(zip(*stream)) if paired else tuple(stream)
    return zip(*stream) if paired else stream


def _multinomial(top: int, part: tuple[int, ...], facts: list[int]) -> int:
    """top over the product of the part's factorials, facts listing them."""
    denom = 1
    for v in part:
        if v > 1:
            denom *= facts[v]
    return exact_div(top, denom)


def lah_via_pi(n: int, k: int) -> int:
    """Partition-sum route to lah(n, k): sum over witnesses of n!/prod(j_i!)."""
    _check_nonnegative_int(n=n, k=k)
    facts = factorials_upto(n)
    nf = facts[n]
    return sum(_multinomial(nf, j, facts) for j in _witnesses(_MEMO.get(), enumerate_pi, (n, k)))


def rlah_via_lambda(n: int, k: int, r: int) -> int:
    """Constraint-sum route to rlah(n, k, r).

    Sums n!/prod(k_i!) * (2r)!/prod(r_i!) over the (n, k, 2r) witnesses.
    A k-part's multinomial is worked out again only when the k-part is not
    the object the previous witness had, and an r-part's, its weight, once
    per call.
    """
    _check_nonnegative_int(n=n, k=k, r=r)
    facts = factorials_upto(max(n, 2 * r))
    nf, rf = facts[n], facts[2 * r]
    r_weights: dict[tuple[int, ...], int] = {}
    total = 0
    k_last = None
    for k_part, r_part in _witnesses(_MEMO.get(), enumerate_lambda, (n, k, 2 * r)):
        if k_part is not k_last:
            k_last, k_weight = k_part, _multinomial(nf, k_part, facts)
        r_weight = r_weights.get(r_part)
        if r_weight is None:
            r_weight = r_weights[r_part] = _multinomial(rf, r_part, facts)
        total += k_weight * r_weight
    return total

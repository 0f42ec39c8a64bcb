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
n - k + 1.  The generator fills slots from the lowest index upward and stops
as soon as no units are left: every later slot is then forced to zero, so
the witness is complete and its tuples are slices that end in a nonzero
entry.  No slot index exceeds n - k + 1, because the other k - 1 blocks
weigh at least 1 each, and the feasibility bounds use that cap.  Pruning
changes only how deep the recursion goes, never which witnesses come out or
in what order.  The r-parts that complete a k-part depend only on the weight
it leaves, so they are listed once per weight within one call and paired
with each such k-part.
"""

from __future__ import annotations

from typing import Iterator

from .exact_core import _check_nonnegative_int, exact_div, factorials_upto

__all__ = [
    "enumerate_pi",
    "enumerate_lambda",
    "lah_via_pi",
    "rlah_via_lambda",
]


_Parts = tuple[tuple[int, ...], tuple[int, ...]]


def _paired_parts(n: int, k: int, rho: int) -> Iterator[_Parts]:
    """Trimmed (k_part, r_part) tuples for (n, k, rho), in stream order."""
    _check_nonnegative_int(n=n, k=k, rho=rho)
    if k > n:
        return
    cap = n - k + 1
    kbuf = [0] * cap
    rbuf = [0] * cap

    def rec_r(i: int, units: int, weight: int) -> Iterator[tuple[int, ...]]:
        # units > 0; the r-slots after i are zero in rbuf
        hi = units if i == 0 else min(units, weight // i)
        for v in range(hi, -1, -1):
            rest_units = units - v
            rest_weight = weight - v * i
            if rest_weight > rest_units * cap or rest_weight < rest_units * (i + 1):
                continue
            rbuf[i] = v
            if rest_units:
                yield from rec_r(i + 1, rest_units, rest_weight)
            else:
                yield tuple(rbuf[: i + 1])
        rbuf[i] = 0

    # weight -> its r-parts in stream order; every k-part that leaves the
    # same weight takes the same list, so each is enumerated once per call
    r_parts: dict[int, list[tuple[int, ...]]] = {}

    def r_side(k_part: tuple[int, ...], weight: int) -> Iterator[_Parts]:
        parts = r_parts.get(weight)
        if parts is None:
            if rho:
                parts = list(rec_r(0, rho, weight))
            else:
                parts = [()] if weight == 0 else []
            r_parts[weight] = parts
        for r_part in parts:
            yield k_part, r_part

    def rec_k(i: int, units: int, weight: int) -> Iterator[_Parts]:
        # units > 0; the k-slots after i are zero in kbuf
        for v in range(min(units, weight // i), -1, -1):
            rest_units = units - v
            rest_weight = weight - v * i
            if rest_weight > (rest_units + rho) * cap or rest_weight < rest_units * (i + 1):
                continue
            kbuf[i - 1] = v
            if not rest_units:
                yield from r_side(tuple(kbuf[:i]), rest_weight)
            elif i < cap:
                yield from rec_k(i + 1, rest_units, rest_weight)
        kbuf[i - 1] = 0

    if k:
        yield from rec_k(1, k, n)
    else:
        yield from r_side((), n)


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


def lah_via_pi(n: int, k: int) -> int:
    """Partition-sum route to lah(n, k): sum over witnesses of n!/prod(j_i!)."""
    _check_nonnegative_int(n=n, k=k)
    total = 0
    facts = factorials_upto(n)
    nf = facts[n]
    for j in enumerate_pi(n, k):
        denom = 1
        for ji in j:
            if ji > 1:
                denom *= facts[ji]
        total += exact_div(nf, denom)
    return total


def rlah_via_lambda(n: int, k: int, r: int) -> int:
    """Constraint-sum route to rlah(n, k, r).

    Sums n!/prod(k_i!) * (2r)!/prod(r_i!) over the (n, k, 2r) witnesses.
    """
    _check_nonnegative_int(n=n, k=k, r=r)
    total = 0
    facts = factorials_upto(max(n, 2 * r))
    nf = facts[n]
    rf = facts[2 * r]
    for k_part, r_part in enumerate_lambda(n, k, 2 * r):
        dk = 1
        for v in k_part:
            if v > 1:
                dk *= facts[v]
        dr = 1
        for v in r_part:
            if v > 1:
                dr *= facts[v]
        total += exact_div(nf, dk) * exact_div(rf, dr)
    return total

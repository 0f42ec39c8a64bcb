"""Streaming enumeration of the constraint sets behind the partition sums.

A PiWitness for (n, k) is a multiplicity vector (j_1, ..., j_{n-k+1}) with
sum(j_i) = k and sum(i * j_i) = n: j_i counts the blocks of size i in a
partition of an n-set into k nonempty blocks.

A LambdaWitness for (n, k, rho) is a pair of multiplicity vectors
(k_1, k_2, ...) and (r_0, r_1, ...) with sum(k_i) = k, sum(r_i) = rho and
sum over i >= 1 of i * (k_i + r_i) = n.  The r-side starts at index 0, a
weightless slot that absorbs distinguished blocks carrying no extra element.

Both enumerators are generators yielding witnesses in descending
lexicographic order on the dense tuple read from the lowest index upward
(k-part first, then r-part), so streams are reproducible and suitable for
golden tests.

One private generator, _paired_parts, produces both streams as trimmed
(k_part, r_part) tuples: enumerate_lambda wraps them as LambdaWitness, and
enumerate_pi takes the rho = 0 stream, whose r-parts are empty, and pads
each k-part to length n - k + 1.  The generator fills slots from the lowest
index upward and stops as soon as no units are left: every later slot is
then forced to zero, so the witness is complete.  No slot index exceeds
n - k + 1, because the other k - 1 blocks weigh at least 1 each, and the
feasibility bounds use that cap.  Pruning changes only how deep the
recursion goes, never which witnesses come out or in what order.  The
r-parts that complete a k-part depend only on the weight it leaves, so they
are listed once per weight within one call and paired with each such
k-part.  The tuples are slices that already end in a nonzero entry, so
enumerate_lambda skips the trimming that the public LambdaWitness
constructor does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .exact_core import _check_nonnegative_int, exact_div, factorials_upto

__all__ = [
    "PiWitness",
    "LambdaWitness",
    "enumerate_pi",
    "enumerate_lambda",
    "lah_via_pi",
    "rlah_via_lambda",
]


def _trimmed(values: list[int]) -> tuple[int, ...]:
    end = len(values)
    while end > 0 and values[end - 1] == 0:
        end -= 1
    return tuple(values[:end])


@dataclass(frozen=True)
class PiWitness:
    """Block-size multiplicities (j_1, ..., j_{n-k+1}); j_i blocks of size i."""

    j: tuple[int, ...]


@dataclass(frozen=True)
class LambdaWitness:
    """Paired multiplicities: k_part at indices 1.., r_part at indices 0..

    Trailing zeros are trimmed on construction so equal witnesses compare
    and hash identically regardless of how densely they were built.
    """

    k_part: tuple[int, ...]
    r_part: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_part", _trimmed(list(self.k_part)))
        object.__setattr__(self, "r_part", _trimmed(list(self.r_part)))

    @classmethod
    def _trusted(cls, k_part: tuple[int, ...], r_part: tuple[int, ...]) -> "LambdaWitness":
        """Wrap parts that are already trimmed, skipping __post_init__."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "k_part", k_part)
        object.__setattr__(obj, "r_part", r_part)
        return obj


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


def enumerate_pi(n: int, k: int) -> Iterator[PiWitness]:
    """Yield every PiWitness for (n, k), largest-first lexicographically.

    The stream is empty when k > n, and holds the single all-zero witness
    when n = k = 0.
    """
    length = n - k + 1
    for k_part, _ in _paired_parts(n, k, 0):
        yield PiWitness(k_part + (0,) * (length - len(k_part)))


def enumerate_lambda(n: int, k: int, rho: int) -> Iterator[LambdaWitness]:
    """Yield every LambdaWitness for (n, k, rho), largest-first as documented.

    Empty when k > n.  For rho = 0 the r-part is forced to all zeros; for
    n = k = 0 the stream holds the single witness with r_0 = rho.
    """
    make = LambdaWitness._trusted
    for k_part, r_part in _paired_parts(n, k, rho):
        yield make(k_part, r_part)


def lah_via_pi(n: int, k: int) -> int:
    """Partition-sum route to lah(n, k): sum over witnesses of n!/prod(j_i!)."""
    _check_nonnegative_int(n=n, k=k)
    total = 0
    facts = factorials_upto(n)
    nf = facts[n]
    for w in enumerate_pi(n, k):
        denom = 1
        for ji in w.j:
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
    for w in enumerate_lambda(n, k, 2 * r):
        dk = 1
        for v in w.k_part:
            if v > 1:
                dk *= facts[v]
        dr = 1
        for v in w.r_part:
            if v > 1:
                dr *= facts[v]
        total += exact_div(nf, dk) * exact_div(rf, dr)
    return total

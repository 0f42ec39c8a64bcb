"""A definitional oracle: the partitions themselves, enumerated and weighed.

Every route in the package starts from a formula or a generating function.
This module starts from the objects of arXiv 2101.01348 instead.  It lists
the partitions of a finite set by brute force, with itertools only and
nothing from lahbell.partitions or lahbell.bell, weighs each one, and sums
the weights by the number k of blocks without a distinguished element.

Ordered blocks (the r-Lah families, ordinary weights): the set has n plain
and r distinguished elements, each block is linearly ordered, and no two
distinguished elements share a block.
- A block of i plain elements weighs a_i.
- The block of a distinguished element weighs b_(i+1) * b_(j+1), where i
  and j are the numbers of elements before and after it in the block's
  order.
The sum over k plain blocks is incomplete_r_lah_bell(n, k, r, a, b), and
the count is rlah(n, k, r); the count over every k is r_lah_bell_number.

Unordered blocks (the r-Bell families, exponential weights): the set has n
plain and rho distinguished elements, and no two distinguished elements
share a block.
- A block of i plain elements weighs a_i.
- A block of i elements, one of them distinguished, weighs b_i.
The sum over k plain blocks is incomplete_r_bell(n, k, rho, a, b), and the
sum over every k is complete_r_bell(n, rho, a, b).
"""

from itertools import combinations, permutations, product

import pytest

from lahbell.bell import (
    SequenceSpec,
    complete_bell,
    complete_lah_bell,
    complete_r_bell,
    incomplete_r_bell,
    incomplete_r_lah_bell,
)
from lahbell.exact_core import r_lah_bell_number, rlah
from lahbell.poly import const, var

A, B = SequenceSpec.symbolic("a"), SequenceSpec.symbolic("b")
FILL = var("x1") + 1


def _set_partitions(items):
    """Every partition of the tuple items into nonempty blocks: the first
    item's block, with each subset of the rest, then a partition of what is
    left."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for size in range(len(rest) + 1):
        for others in combinations(rest, size):
            left = tuple(item for item in rest if item not in others)
            for partition in _set_partitions(left):
                yield ((first, *others), *partition)


def _marked_partitions(n, marked):
    """The partitions of {0, ..., n + marked - 1} whose distinguished elements,
    0 to marked - 1, lie in distinct blocks."""
    for partition in _set_partitions(tuple(range(n + marked))):
        if all(sum(item < marked for item in block) <= 1 for block in partition):
            yield partition


def _ordered_sums(n, r, plain_weight):
    """k -> (count, weight sum) over the ordered-block partitions with k plain blocks."""
    sums = {}
    for partition in _marked_partitions(n, r):
        for blocks in product(*(permutations(block) for block in partition)):
            k, weight = 0, const(1)
            for block in blocks:
                marks = [place for place, item in enumerate(block) if item < r]
                if marks:
                    (place,) = marks
                    weight *= var(f"b{place + 1}") * var(f"b{len(block) - place}")
                else:
                    k += 1
                    weight *= plain_weight(len(block))
            count, total = sums.get(k, (0, const(0)))
            sums[k] = (count + 1, total + weight)
    return sums


def _unordered_sums(n, rho, plain_weight):
    """k -> weight sum over the set partitions with k plain blocks."""
    sums = {}
    for partition in _marked_partitions(n, rho):
        k, weight = 0, const(1)
        for block in partition:
            if any(item < rho for item in block):
                weight *= var(f"b{len(block)}")
            else:
                k += 1
                weight *= plain_weight(len(block))
        sums[k] = sums.get(k, const(0)) + weight
    return sums


# (plain weight, the spec that gives it): symbolic a, and one fill for
# every block, which a witness sum takes as one power of the fill.
PLAIN = [
    pytest.param(lambda i: var(f"a{i}"), A, id="symbolic"),
    pytest.param(lambda i: FILL, SequenceSpec.uniform(FILL), id="uniform"),
]


@pytest.mark.parametrize("plain_weight, a", PLAIN)
def test_ordered_block_partitions_give_the_r_lah_families(plain_weight, a):
    for r in range(3):
        for n in range(7 - r):
            sums = _ordered_sums(n, r, plain_weight)
            for k in range(n + 1):
                count, total = sums.get(k, (0, const(0)))
                assert count == rlah(n, k, r), (n, k, r)
                assert incomplete_r_lah_bell(n, k, r, a, B) == total, (n, k, r)
            assert sum(count for count, _ in sums.values()) == r_lah_bell_number(n, r), (n, r)
            if r == 0:
                whole = sum((total for _, total in sums.values()), const(0))
                assert complete_lah_bell(n, a) == whole, n


@pytest.mark.parametrize("plain_weight, a", PLAIN)
def test_set_partitions_give_the_r_bell_families(plain_weight, a):
    for rho in range(5):
        for n in range(8 - rho):
            sums = _unordered_sums(n, rho, plain_weight)
            for k in range(n + 1):
                assert incomplete_r_bell(n, k, rho, a, B) == sums.get(k, const(0)), (n, k, rho)
            whole = sum(sums.values(), const(0))
            assert complete_r_bell(n, rho, a, B) == whole, (n, rho)
            if rho == 0:
                assert complete_bell(n, a) == whole, n


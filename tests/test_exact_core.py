"""Kernel tests against brute-force counting oracles.

The oracles below enumerate set partitions directly and weight each block
by the number of ways to arrange it in a line.  They share no code with
the closed forms under test.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lahbell.exact_core import (
    IntegralityError,
    _rlah_walk,
    _row_totals,
    _rows,
    binomial,
    exact_div,
    factorial,
    factorials_upto,
    lah,
    lah_bell_number,
    multinomial,
    r_lah_bell_number,
    rlah,
)


def _set_partitions(items):
    """All partitions of items into nonempty blocks, as lists of lists."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1 :]
        yield part + [[head]]


def brute_lah(n, k):
    # partitions of an n-set into k blocks, each block linearly ordered
    total = 0
    for part in _set_partitions(list(range(n))):
        if len(part) == k:
            weight = 1
            for block in part:
                weight *= factorial(len(block))
            total += weight
    return total


def brute_rlah(n, k, r):
    # same on an (n+r)-set into k+r ordered blocks, with the r marked
    # elements required to land in r distinct blocks
    marked = list(range(n, n + r))
    total = 0
    for part in _set_partitions(list(range(n + r))):
        if len(part) != k + r:
            continue
        if any(sum(1 for m in marked if m in block) > 1 for block in part):
            continue
        weight = 1
        for block in part:
            weight *= factorial(len(block))
        total += weight
    return total


def test_factorial_matches_running_product():
    product = 1
    for n in range(13):
        assert factorial(n) == product
        product *= n + 1


def test_factorial_table_matches_factorial():
    assert factorials_upto(0) == [1]
    assert factorials_upto(12) == [factorial(n) for n in range(13)]
    with pytest.raises(ValueError):
        factorials_upto(-1)


def test_binomial_matches_pascal_triangle():
    row = [1]
    for n in range(15):
        for k in range(n + 1):
            assert binomial(n, k) == row[k]
        row = [1] + [row[i] + row[i + 1] for i in range(n)] + [1]


def test_binomial_outside_range_is_zero():
    assert binomial(5, 6) == 0
    assert binomial(5, -1) == 0
    assert binomial(0, 0) == 1


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_multinomial_matches_factorial_quotient():
    for parts in [(), (0,), (3,), (1, 2), (2, 2, 1), (3, 1, 4), (0, 5, 0)]:
        denom = 1
        for p in parts:
            denom *= factorial(p)
        assert multinomial(parts) == factorial(sum(parts)) // denom
    assert multinomial((2, 3)) == 10


def test_exact_div():
    assert exact_div(12, 4) == 3
    assert exact_div(0, 7) == 0
    with pytest.raises(IntegralityError):
        exact_div(7, 2)


@pytest.mark.parametrize(
    "a, b, message",
    [
        (10**5000 + 1, 2, "^an int of 16610 bits is not divisible by 2$"),
        (7, 10**5000, "^7 is not divisible by an int of 16610 bits$"),
        (-7, 2, "^-7 is not divisible by 2$"),
    ],
    ids=["huge-dividend", "huge-divisor", "small"],
)
def test_an_inexact_division_names_a_huge_operand_by_its_bit_length(a, b, message):
    """str() refuses an int of more than 4300 digits, so the message must not
    turn one into text: the refusal is an IntegralityError, not a ValueError."""
    with pytest.raises(IntegralityError, match=message):
        exact_div(a, b)


@pytest.mark.parametrize("a, b", [(3, 1.5), (3.0, 1), (0, 2.0), (6, Fraction(3))])
def test_exact_div_refuses_values_that_are_not_ints(a, b):
    with pytest.raises(TypeError):
        exact_div(a, b)


def test_lah_matches_ordered_block_oracle():
    for n in range(7):
        for k in range(n + 2):
            assert lah(n, k) == brute_lah(n, k), (n, k)


def test_lah_small_triangle():
    rows = [
        [1],
        [0, 1],
        [0, 2, 1],
        [0, 6, 6, 1],
        [0, 24, 36, 12, 1],
        [0, 120, 240, 120, 20, 1],
    ]
    for n, row in enumerate(rows):
        assert [lah(n, k) for k in range(n + 1)] == row


def test_lah_edges():
    assert lah(0, 0) == 1
    assert lah(4, 0) == 0
    assert lah(3, 5) == 0
    with pytest.raises(ValueError):
        lah(-1, 0)
    with pytest.raises(ValueError):
        lah(3, -2)


def test_rlah_matches_marked_block_oracle():
    for n in range(5):
        for r in range(3):
            for k in range(n + 2):
                assert rlah(n, k, r) == brute_rlah(n, k, r), (n, k, r)


def test_rlah_reduces_to_lah_at_r_zero():
    for n in range(10):
        for k in range(n + 1):
            assert rlah(n, k, 0) == lah(n, k)


def test_rlah_rejects_negative_arguments():
    with pytest.raises(ValueError):
        rlah(2, 1, -1)


def test_lah_bell_number_is_row_total():
    for n in range(15):
        assert lah_bell_number(n) == sum(lah(n, k) for k in range(n + 1))


def test_lah_bell_sequence():
    values = [lah_bell_number(n) for n in range(8)]
    assert values == [1, 1, 3, 13, 73, 501, 4051, 37633]


def test_r_lah_bell_number_is_row_total():
    for n in range(12):
        for r in range(4):
            assert r_lah_bell_number(n, r) == sum(rlah(n, k, r) for k in range(n + 1))
    assert r_lah_bell_number(2, 1) == 13


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=40))
def test_lah_row_recurrence(n, k):
    assert lah(n + 1, k) == lah(n, k - 1) + (n + k) * lah(n, k)


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=4),
)
def test_rlah_row_recurrence(n, k, r):
    assert rlah(n + 1, k, r) == rlah(n, k - 1, r) + (n + k + 2 * r) * rlah(n, k, r)


def _three_term_rows(r, n_max):
    """Row totals from a(n+1) = (2n+2r+1) a(n) - n(n+2r-1) a(n-1).

    The recurrence follows from (1-t)^2 E' = (1 + 2r(1-t)) E for the row
    generating function E = exp(t/(1-t)) / (1-t)^(2r); it shares nothing
    with the closed form or its row walk.  a(0) = 1 and a(1) = 1 + 2r.
    """
    rows = [1, 1 + 2 * r]
    for n in range(1, n_max):
        rows.append((2 * n + 2 * r + 1) * rows[n] - n * (n + 2 * r - 1) * rows[n - 1])
    return rows


@pytest.mark.parametrize("r", range(4))
def test_row_totals_follow_the_three_term_recurrence(r):
    want = _three_term_rows(r, 2000)
    if r == 0:
        assert want[:8] == [1, 1, 3, 13, 73, 501, 4051, 37633]  # OEIS A000262
    for n in [*range(301), 500, 1000, 1500, 2000]:
        assert r_lah_bell_number(n, r) == want[n], (n, r)


def test_walked_rows_equal_the_closed_form():
    for r in range(5):
        for n in range(80):
            assert list(_rlah_walk(n, r)) == [rlah(n, k, r) for k in range(n + 1)], (n, r)


@pytest.mark.parametrize("r", range(5))
def test_recurrence_totals_equal_the_walked_totals(r):
    for n_max in (0, 1, 2, 300):
        want = [sum(_rlah_walk(n, r)) for n in range(n_max + 1)]
        assert list(_row_totals(n_max, r)) == want, (n_max, r)
    # past n = 300 too, a row total against its walked row, one n at a time
    for n in (500, 1000, 1500, 2000):
        assert r_lah_bell_number(n, r) == sum(_rlah_walk(n, r)), (n, r)


@pytest.mark.parametrize("r", range(5))
def test_recurrence_rows_equal_the_walked_rows(r):
    for n_max in (0, 1, 2, 80):
        assert list(_rows(n_max, r)) == [list(_rlah_walk(n, r)) for n in range(n_max + 1)]


@pytest.mark.parametrize("table", [_rows, _row_totals])
@pytest.mark.parametrize(
    "args,error",
    [((-1, 0), ValueError), ((3, -1), ValueError), ((True, 0), TypeError), ((3, False), TypeError)],
)
def test_recurrence_tables_refuse_bad_arguments(table, args, error):
    with pytest.raises(error):
        list(table(*args))

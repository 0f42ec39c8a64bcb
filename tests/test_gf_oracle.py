"""An outside oracle for the integer families: sympy's ring series over QQ.

Each exponential generating function is written here from the definitions
of arXiv 2101.01348, not read from lahbell.series:
- the r-Lah numbers, sum_n L(n, k)_r t^n/n! = (t/(1-t))^k / k! * (1-t)^(-2r);
- the r-Lah-Bell numbers, sum_n B_{n,r} t^n/n! = exp(t/(1-t)) * (1-t)^(-2r);
- the r-Lah-Bell polynomials, sum_n B_{n,r}(x) t^n/n! = exp(x t/(1-t)) * (1-t)^(-2r).

At r = 0 they are the Lah numbers, the Lah-Bell numbers and the Lah-Bell
polynomials.  n! times the coefficient of t^n is checked against gf_expand,
against the library's closed forms and row walks, and against the
recurrences (exact_core._rows and _row_totals) that `table` and `value`
print.
"""

import math

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.ring_series import rs_exp, rs_mul, rs_pow, rs_series_inversion
from sympy.polys.rings import ring

from lahbell.bell import lah_bell_polynomial
from lahbell.exact_core import (
    _row_totals, _rows, lah, lah_bell_number, r_lah_bell_number, rlah,
)
from lahbell.series import gf_expand

N = 30
RS = range(3)
XS = (-2, 3)

_, T = ring("t", sympy.QQ)
PRECISION = N + 1
INVERSE = rs_series_inversion(1 - T, T, PRECISION)  # 1/(1-t)
U = rs_mul(T, INVERSE, T, PRECISION)  # t/(1-t)


def _values(series):
    """n! [t^n] of series for n <= N, each of which must be an integer."""
    values = []
    for n in range(N + 1):
        value = series.coeff(T**n) * math.factorial(n)
        assert value.denominator == 1, (n, value)
        values.append(int(value.numerator))
    return values


def _with_tail(head, r):
    """head * (1-t)^(-2r), as n! [t^n] for n <= N."""
    return _values(rs_mul(head, rs_pow(INVERSE, 2 * r, T, PRECISION), T, PRECISION))


def _ints(polynomials):
    return [p.as_int() for p in polynomials]


@pytest.mark.parametrize("r", RS)
def test_row_totals_match_the_outside_expansion(r):
    want = _with_tail(rs_exp(U, T, PRECISION), r)
    assert _ints(gf_expand("r-lah-bell", N, r=r)) == want
    assert [r_lah_bell_number(n, r) for n in range(N + 1)] == want
    assert list(_row_totals(N, r)) == want
    if r == 0:
        assert _ints(gf_expand("lah-bell", N)) == want
        assert [lah_bell_number(n) for n in range(N + 1)] == want


@pytest.mark.parametrize("r", RS)
def test_triangle_matches_the_outside_expansion(r):
    # column k of the triangle, as n! [t^n] for n <= N
    columns = [
        _with_tail(rs_pow(U, k, T, PRECISION) * sympy.QQ(1, math.factorial(k)), r)
        for k in range(N + 1)
    ]
    for k, want in enumerate(columns):
        assert _ints(gf_expand("r-lah", N, k=k, r=r)) == want, k
        assert [rlah(n, k, r) for n in range(N + 1)] == want, k
        if r == 0:
            assert _ints(gf_expand("lah", N, k=k)) == want, k
            assert [lah(n, k) for n in range(N + 1)] == want, k
    rows = [[column[n] for column in columns[: n + 1]] for n in range(N + 1)]
    assert list(_rows(N, r)) == rows


@pytest.mark.parametrize("x", XS)
@pytest.mark.parametrize("r", RS)
def test_row_polynomials_at_an_int_match_the_outside_expansion(r, x):
    want = _with_tail(rs_exp(x * U, T, PRECISION), r)
    assert _ints(gf_expand("r-lah-bell-poly", N, r=r, x=x)) == want
    assert [lah_bell_polynomial(n, r, x).as_int() for n in range(N + 1)] == want
    assert [sum(c * x**k for k, c in enumerate(row)) for row in _rows(N, r)] == want

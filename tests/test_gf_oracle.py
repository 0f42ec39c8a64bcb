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

The generic families take symbolic sequences a and b, with ordinary weights:
A(t) = sum_m a_(m+1) t^(m+1) and B(t) = sum_m b_(m+1) t^m, and
- the incomplete r-Lah-Bell polynomials, n! [t^n] of (1/k!) A(t)^k B(t)^(2r);
- the complete r-Lah-Bell polynomials, n! [t^n] of exp(x A(t)) B(t)^(2r).
These are checked against gf_expand and against the witness sums
incomplete_r_lah_bell and complete_r_lah_bell.

The egf families take the same symbolic sequences with exponential weights:
A(t) = sum_m a_m t^m/m! from m = 1 and B(t) = sum_m b_(m+1) t^m/m! from m = 0,
and
- the incomplete r-Bell polynomials, n! [t^n] of (1/k!) A(t)^k B(t)^rho;
- the complete r-Bell polynomials, n! [t^n] of exp(A(t)) B(t)^rho.
These are checked against gf_expand and against the witness sums
incomplete_r_bell and complete_r_bell.

All four generic families are checked once more over explicit integer
sequences with mixed signs, with the same weights, to a larger order.
"""

import math

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.ring_series import rs_exp, rs_mul, rs_pow, rs_series_inversion
from sympy.polys.rings import ring

from lahbell.bell import (
    SequenceSpec, complete_r_bell, complete_r_lah_bell, incomplete_r_bell, incomplete_r_lah_bell,
    lah_bell_polynomial,
)
from lahbell.exact_core import (
    _row_totals, _rows, lah, lah_bell_number, r_lah_bell_number, rlah,
)
from lahbell.poly import SCALAR_X, var
from lahbell.series import gf_expand

N = 30
RS = range(3)
XS = (-2, 3)

_, T = ring("t", sympy.QQ)
PRECISION = N + 1
INVERSE = rs_series_inversion(1 - T, T, PRECISION)  # 1/(1-t)
U = rs_mul(T, INVERSE, T, PRECISION)  # t/(1-t)


def _values(series, top=N):
    """n! [t^n] of series for n <= top, each of which must be an integer."""
    values = []
    for n in range(top + 1):
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


# The generic families over symbolic a and b, to a smaller order: every
# coefficient is a polynomial in x, a1..a(G+1) and b1..b(G+1).
G = 6
_NAMES = ["t", "x", *(f"{s}{i}" for s in "ab" for i in range(1, G + 2))]
_RING, GT, GX, *_AB = ring(_NAMES, sympy.QQ)
GA = sum(a * GT ** (m + 1) for m, a in enumerate(_AB[:G]))  # A(t), from t^1
GB = sum(b * GT**m for m, b in enumerate(_AB[G + 1 : 2 * G + 2]))  # B(t), from t^0
SYMBOLIC_A, SYMBOLIC_B = SequenceSpec.symbolic("a"), SequenceSpec.symbolic("b")
X = var(SCALAR_X)


def _generic_values(head, r):
    """head * B(t)^(2r) as n! [t^n] for n <= G, each a dict from the exponents
    of x, a1.., b1.. to an integer coefficient."""
    series = rs_mul(head, rs_pow(GB, 2 * r, GT, G + 1), GT, G + 1) if r else head
    values = [{} for _ in range(G + 1)]
    for (n, *rest), coeff in series.terms():
        value = coeff * math.factorial(n)
        assert value.denominator == 1, (n, rest, value)
        values[n][tuple(rest)] = int(value.numerator)
    return values


def _exponents(polynomial):
    """The same dict for a lahbell polynomial."""
    position = {name: i for i, name in enumerate(_NAMES[1:])}
    values = {}
    for mono, coeff in polynomial.terms():
        exps = [0] * len(position)
        for v, e in mono.pairs:
            exps[position[v.name]] = e
        values[tuple(exps)] = coeff
    return values


@pytest.mark.parametrize("r", RS)
def test_incomplete_generic_polynomials_match_the_outside_expansion(r):
    for k in range(G + 1):
        head = rs_pow(GA, k, GT, G + 1) * sympy.QQ(1, math.factorial(k))
        want = _generic_values(head, r)
        got = gf_expand("incomplete-generic", G, k=k, r=r, a=SYMBOLIC_A, b=SYMBOLIC_B)
        assert [_exponents(p) for p in got] == want, k
        for n in range(G + 1):
            witnessed = incomplete_r_lah_bell(n, k, r, SYMBOLIC_A, SYMBOLIC_B)
            assert _exponents(witnessed) == want[n], (n, k)


@pytest.mark.parametrize("r", RS)
def test_complete_generic_polynomials_match_the_outside_expansion(r):
    want = _generic_values(rs_exp(GX * GA, GT, G + 1), r)
    got = gf_expand("complete-generic", G, r=r, x=X, a=SYMBOLIC_A, b=SYMBOLIC_B)
    assert [_exponents(p) for p in got] == want
    for n in range(G + 1):
        assert _exponents(complete_r_lah_bell(n, r, X, SYMBOLIC_A, SYMBOLIC_B)) == want[n], n


# The egf families: A(t) and B(t) with each t^m over m!, and rho up to 4.
EGF_A = sum(a * GT**m * sympy.QQ(1, math.factorial(m)) for m, a in enumerate(_AB[:G], 1))
EGF_B = sum(b * GT**m * sympy.QQ(1, math.factorial(m)) for m, b in enumerate(_AB[G + 1 :]))
RHOS = range(5)


@pytest.mark.parametrize("rho", RHOS)
def test_incomplete_egf_polynomials_match_the_outside_expansion(rho):
    tail = rs_pow(EGF_B, rho, GT, G + 1)
    for k in range(G + 1):
        head = rs_pow(EGF_A, k, GT, G + 1) * sympy.QQ(1, math.factorial(k))
        want = _generic_values(rs_mul(head, tail, GT, G + 1), 0)
        got = gf_expand("incomplete-r-bell", G, k=k, rho=rho, a=SYMBOLIC_A, b=SYMBOLIC_B)
        assert [_exponents(p) for p in got] == want, k
        for n in range(G + 1):
            witnessed = incomplete_r_bell(n, k, rho, SYMBOLIC_A, SYMBOLIC_B)
            assert _exponents(witnessed) == want[n], (n, k)


@pytest.mark.parametrize("rho", RHOS)
def test_complete_egf_polynomials_match_the_outside_expansion(rho):
    head = rs_exp(EGF_A, GT, G + 1)
    want = _generic_values(rs_mul(head, rs_pow(EGF_B, rho, GT, G + 1), GT, G + 1), 0)
    got = gf_expand("complete-r-bell", G, rho=rho, a=SYMBOLIC_A, b=SYMBOLIC_B)
    assert [_exponents(p) for p in got] == want
    for n in range(G + 1):
        assert _exponents(complete_r_bell(n, rho, SYMBOLIC_A, SYMBOLIC_B)) == want[n], n


# Explicit integer sequences with mixed signs, to order E: a_1..a_E and
# b_1..b_(E+1), with the same ordinary and exponential weights as above.
E = 8
EXPLICIT_A = (2, -1, 0, 3, -2, 1, 4, -3)
EXPLICIT_B = (1, -2, 3, 0, -1, 2, -4, 1, 5)
EXPLICIT_X = -2
SEQ_A, SEQ_B = SequenceSpec.explicit(EXPLICIT_A), SequenceSpec.explicit(EXPLICIT_B)


def _laid(values, first, weigh):
    """sum of values[m - first] t^m / weigh(m) for m = first.., in t alone."""
    return sum(v * T**m * sympy.QQ(1, weigh(m)) for m, v in enumerate(values, first))


def _explicit_values(head, base, m):
    """head * base^m as n! [t^n] for n <= E."""
    return _values(rs_mul(head, rs_pow(base, m, T, E + 1), T, E + 1), E)


def _explicit_heads(a_series, x=1):
    """k -> A^k/k! for k <= E, and exp(x A)."""
    powers = {
        k: rs_pow(a_series, k, T, E + 1) * sympy.QQ(1, math.factorial(k)) for k in range(E + 1)
    }
    return powers, rs_exp(x * a_series, T, E + 1)


def _witnessed(build):
    return [build(n).as_int() for n in range(E + 1)]


@pytest.mark.parametrize("r", RS)
def test_explicit_ordinary_families_match_the_outside_expansion(r):
    base = _laid(EXPLICIT_B, 0, lambda m: 1)
    powers, exp_head = _explicit_heads(_laid(EXPLICIT_A, 1, lambda m: 1), EXPLICIT_X)
    for k, head in powers.items():
        want = _explicit_values(head, base, 2 * r)
        assert _ints(gf_expand("incomplete-generic", E, k=k, r=r, a=SEQ_A, b=SEQ_B)) == want, k
        assert _witnessed(lambda n: incomplete_r_lah_bell(n, k, r, SEQ_A, SEQ_B)) == want, k
    want = _explicit_values(exp_head, base, 2 * r)
    got = gf_expand("complete-generic", E, r=r, x=EXPLICIT_X, a=SEQ_A, b=SEQ_B)
    assert _ints(got) == want
    assert _witnessed(lambda n: complete_r_lah_bell(n, r, EXPLICIT_X, SEQ_A, SEQ_B)) == want


@pytest.mark.parametrize("rho", RHOS)
def test_explicit_egf_families_match_the_outside_expansion(rho):
    base = _laid(EXPLICIT_B, 0, math.factorial)
    powers, exp_head = _explicit_heads(_laid(EXPLICIT_A, 1, math.factorial))
    for k, head in powers.items():
        want = _explicit_values(head, base, rho)
        assert _ints(gf_expand("incomplete-r-bell", E, k=k, rho=rho, a=SEQ_A, b=SEQ_B)) == want, k
        assert _witnessed(lambda n: incomplete_r_bell(n, k, rho, SEQ_A, SEQ_B)) == want, k
    want = _explicit_values(exp_head, base, rho)
    assert _ints(gf_expand("complete-r-bell", E, rho=rho, a=SEQ_A, b=SEQ_B)) == want
    assert _witnessed(lambda n: complete_r_bell(n, rho, SEQ_A, SEQ_B)) == want

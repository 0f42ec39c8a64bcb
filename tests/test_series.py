"""Truncated series tests.

The multiplication oracle recomputes products over Fraction-valued true
coefficients and rescales, so any bookkeeping slip in the factorial
normalization shows up immediately.
"""

import contextlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lahbell.bell import FACTORIALS, ONES, SequenceSpec, complete_bell, incomplete_r_bell
from lahbell.exact_core import (
    _MEMO,
    IntegralityError,
    _reuse,
    factorial,
    lah,
    lah_bell_number,
    rlah,
)
from lahbell import series
from lahbell.poly import ONE, ZERO, const, var
from lahbell.series import (
    GF_FAMILIES,
    TruncatedSeries,
    _head_step,
    exp,
    faa_di_bruno_check,
    from_sequence,
    gf_expand,
    one,
    zero,
)


def _ints(seq, order):
    series = TruncatedSeries(order, tuple(const(v) for v in seq))
    assert len(seq) == order + 1
    return series


def _true(series):
    """The Fraction-valued true coefficients [t^n] of an int-entry series."""
    return [Fraction(c.as_int(), factorial(n)) for n, c in enumerate(series.coeffs)]


def _cauchy(u, v):
    """Cauchy product of two true-coefficient lists, to the shorter length."""
    return [sum(u[i] * v[m - i] for i in range(m + 1)) for m in range(min(len(u), len(v)))]


def _from_true(true):
    """The int series with these true coefficients, each rescaled by n!."""
    out = []
    for m, w in enumerate(true):
        scaled = w * factorial(m)
        assert scaled.denominator == 1
        out.append(int(scaled))
    return _ints(out, len(out) - 1)


def oracle_product(u, v):
    return _from_true(_cauchy(_true(u), _true(v)))


def test_constructor_validates():
    with pytest.raises(ValueError):
        TruncatedSeries(2, (const(1), const(0)))
    with pytest.raises(ValueError):
        TruncatedSeries(-1, ())


def test_from_sequence_lattice_layout():
    core = from_sequence(ONES, "ordinary", 1, 5)
    assert [c.as_int() for c in core.coeffs] == [0, 1, 2, 6, 24, 120]
    geo = from_sequence(ONES, "ordinary", 0, 4)
    assert [c.as_int() for c in geo.coeffs] == [1, 1, 2, 6, 24]
    egf = from_sequence(ONES, "egf", 1, 4)
    assert [c.as_int() for c in egf.coeffs] == [0, 1, 1, 1, 1]
    facts = from_sequence(FACTORIALS, "egf", 1, 3)
    assert [c.as_int() for c in facts.coeffs] == [0, 1, 2, 6]


def test_product_matches_fraction_oracle():
    rng = random.Random(0)
    for _ in range(25):
        order = rng.randint(0, 6)
        u = _ints([rng.randint(-9, 9) for _ in range(order + 1)], order)
        v = _ints([rng.randint(-9, 9) for _ in range(order + 1)], order)
        assert u * v == oracle_product(u, v)


def test_product_known_case():
    # (1/(1-t))^2 has true coefficients n+1
    geo = from_sequence(ONES, "ordinary", 0, 5)
    sq = geo * geo
    assert [sq.egf_coefficient(n).as_int() // factorial(n) for n in range(6)] == [
        1, 2, 3, 4, 5, 6,
    ]


def test_add_scale_pow():
    u = _ints([1, 2, 3], 2)
    v = _ints([0, 1, 1], 2)
    assert (u + v).coeffs == _ints([1, 3, 4], 2).coeffs
    assert u.scale(3) == _ints([3, 6, 9], 2)
    assert v.pow(0) == one(2)
    assert v.pow(2) == v * v
    assert zero(3).coeffs == (const(0),) * 4


def test_add_refuses_a_non_series():
    u = _ints([1, 2, 3], 2)
    for other in (1, const(1)):
        with pytest.raises(TypeError):
            u + other
        with pytest.raises(TypeError):
            other + u


def test_exp_of_core_series_gives_row_totals():
    core = from_sequence(ONES, "ordinary", 1, 8)
    es = exp(core)
    for n in range(9):
        assert es.egf_coefficient(n).as_int() == lah_bell_number(n)


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        exp(one(3))


def test_exp_is_multiplicative():
    rng = random.Random(1)
    for _ in range(10):
        order = rng.randint(1, 6)
        s = _ints([0] + [rng.randint(-4, 4) for _ in range(order)], order)
        u = _ints([0] + [rng.randint(-4, 4) for _ in range(order)], order)
        assert exp(s + u) == exp(s) * exp(u)


def reference_exp(s):
    """sum_k s^k / k!: repeated products, each power divided by k! exactly."""
    result = one(s.order)
    power = one(s.order)
    kfact = 1
    for k in range(1, s.order + 1):
        power = power * s
        kfact *= k
        result = result + power.divide_exact(kfact)
    return result


_SPECS = {
    "ones": ONES,
    "factorials": FACTORIALS,
    "explicit": SequenceSpec.explicit([3, -1, 4, 1, 5, 9, 2, 6, 5, 3, 5]),
    "symbolic": SequenceSpec.symbolic("a"),
}


@pytest.mark.parametrize("kind", ["ordinary", "egf"])
@pytest.mark.parametrize("spec", sorted(_SPECS))
def test_exp_matches_its_power_sum_definition(kind, spec):
    for order in range(11):
        s = from_sequence(_SPECS[spec], kind, 1, order)
        for series in (s, s.scale(3), s.scale(var("x"))):
            assert exp(series).coeffs == reference_exp(series).coeffs, (order, series)


@pytest.mark.parametrize("kind", ["ordinary", "egf"])
@pytest.mark.parametrize("spec", sorted(_SPECS))
def test_pow_matches_the_repeated_product(kind, spec):
    for order in range(11):
        for start in (0, 1):
            s = from_sequence(_SPECS[spec], kind, start, order)
            # s^k as k products from the unit series, one more per exponent
            want = one(order)
            for k in range(13):
                assert s.pow(k).coeffs == want.coeffs, (order, start, k)
                want = want * s


@pytest.mark.parametrize("kind", ["ordinary", "egf"])
@pytest.mark.parametrize("spec", ["ones", "explicit", "symbolic"])
def test_head_step_matches_the_divided_power(kind, spec):
    for order in range(11):
        base = from_sequence(_SPECS[spec], kind, 1, order)
        head = one(order)
        for k in range(1, 13):
            head = _head_step(base, head)
            want = base.pow(k).divide_exact(factorial(k))
            assert head.coeffs == want.coeffs, (order, k)


# Int entries as the int kernel meets them: zeros, negatives and ~300-digit
# values, in series of order 0 up to 6.
_HUGE = 10**300
_entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-_HUGE, _HUGE))
_int_lists = st.lists(_entries, min_size=1, max_size=7)


@contextlib.contextmanager
def _refusing(*names):
    """series.<name> raises for each name while the block runs."""

    def refuse(*args):
        raise AssertionError("this operation was to take the other path")

    with pytest.MonkeyPatch.context() as patch:
        for name in names:
            patch.setattr(series, name, refuse)
        yield


@settings(max_examples=100, deadline=None)
@given(_int_lists, _int_lists)
def test_int_product_matches_the_fraction_oracle(raw_u, raw_v):
    u, v = _ints(raw_u, len(raw_u) - 1), _ints(raw_v, len(raw_v) - 1)
    with _refusing("_convolve"):
        got = u * v
    assert got == oracle_product(u, v)


@settings(max_examples=100, deadline=None)
@given(_int_lists, st.integers(min_value=0, max_value=5))
def test_int_pow_matches_the_fraction_oracle(raw, k):
    s = _ints(raw, len(raw) - 1)
    true = [Fraction(1)] + [Fraction(0)] * s.order
    for _ in range(k):
        true = _cauchy(true, _true(s))
    with _refusing("_convolve"):
        got = s.pow(k)
    assert got == _from_true(true)


@settings(max_examples=100, deadline=None)
@given(_int_lists)
def test_int_exp_matches_the_fraction_oracle(raw):
    s = _ints([0] + raw[1:], len(raw) - 1)
    # sum_(k<=order) s^k / k! on true coefficients; s^k vanishes below t^k
    total = [Fraction(0)] * (s.order + 1)
    power = [Fraction(1)] + [Fraction(0)] * s.order
    for k in range(s.order + 1):
        total = [t + p / factorial(k) for t, p in zip(total, power)]
        power = _cauchy(power, _true(s))
    with _refusing("_convolve"):
        got = exp(s)
    assert got == _from_true(total)


@settings(max_examples=100, deadline=None)
@given(_int_lists, _int_lists)
def test_int_head_step_matches_the_fraction_oracle(raw_a, raw_q):
    order = min(len(raw_a), len(raw_q)) - 1
    base = _ints([0] + raw_a[1 : order + 1], order)
    prev = _ints(raw_q[: order + 1], order)
    # P' = A' Q with P(0) = 0: differentiate A, multiply, integrate
    true_a = _true(base)
    slope = [(j + 1) * true_a[j + 1] for j in range(base.order)]
    true = [Fraction(0)] + [c / (m + 1) for m, c in enumerate(_cauchy(slope, _true(prev)))]
    with _refusing("_convolve"):
        got = _head_step(base, prev)
    assert got == _from_true(true)


# Each operation written out over the polynomial convolution, entry by entry:
# what the polynomial path gives.


def _poly_product(u, v):
    n = min(u.order, v.order)
    return tuple(series._convolve(u.coeffs, v.coeffs, m) for m in range(n + 1))


def _poly_exp(s):
    e = [ONE]
    for n in range(s.order):
        e.append(series._convolve(s.coeffs[1:], e, n))
    return tuple(e)


def _poly_head_step(base, prev):
    return (ZERO,) + tuple(
        series._convolve(base.coeffs[1:], prev.coeffs, n) for n in range(base.order)
    )


def test_one_symbolic_entry_selects_the_polynomial_path():
    x = var("x")
    constant = from_sequence(_SPECS["explicit"], "ordinary", 0, 6)
    symbolic = from_sequence(_SPECS["symbolic"], "ordinary", 1, 6)
    core = from_sequence(ONES, "ordinary", 1, 6)
    scaled = core.scale(x)
    # constants throughout but for the last entry
    last = TruncatedSeries(6, (ZERO, const(2), ZERO, const(-3), const(5), ZERO, x + 1))
    with _refusing("_int_lattice", "_int_exp"):
        for u, v in [(constant, symbolic), (symbolic, constant), (scaled, core),
                     (core, scaled), (last, constant), (constant, last)]:
            assert (u * v).coeffs == _poly_product(u, v)
        for s in (scaled, last, symbolic):
            assert exp(s).coeffs == _poly_exp(s)
            assert _head_step(s, one(6)).coeffs == _poly_head_step(s, one(6))
            assert _head_step(core, s).coeffs == _poly_head_step(core, s)
            square = TruncatedSeries(6, _poly_product(s, s))
            assert s.pow(3).coeffs == _poly_product(s, square)
    assert str(exp(scaled).coeffs[2]) == "x^2 + 2*x"


def test_the_zero_polynomial_counts_as_the_constant_zero():
    x = var("x")
    s = TruncatedSeries(3, (ZERO, x - x, const(2), ZERO))
    u = TruncatedSeries(3, (const(1), const(3), const(-1), const(4)))
    with _refusing("_convolve"):
        assert (s * u).coeffs == (ZERO, ZERO, const(2), const(18))
        assert exp(s).coeffs == (ONE, ZERO, const(2), ZERO)
        assert _head_step(s, u).coeffs == (ZERO, ZERO, const(2), const(12))


def test_derivative_shifts_lattice():
    core = from_sequence(ONES, "ordinary", 1, 7)
    es = exp(core)
    # chain rule: the derivative of exp(core) is exp(core) times core'
    assert es.derivative() == es.truncate(6) * core.derivative()
    with pytest.raises(ValueError):
        zero(0).derivative()


def test_truncate_cannot_extend():
    u = _ints([1, 2, 3], 2)
    assert u.truncate(1) == _ints([1, 2], 1)
    with pytest.raises(ValueError):
        u.truncate(3)


def test_egf_coefficient_bounds():
    u = _ints([1, 2], 1)
    assert u.egf_coefficient(1) == 2
    with pytest.raises(ValueError):
        u.egf_coefficient(2)


def test_divide_exact():
    u = _ints([2, 4, 6], 2)
    assert u.divide_exact(2) == _ints([1, 2, 3], 2)
    with pytest.raises(IntegralityError):
        _ints([1, 2], 1).divide_exact(2)
    for u in (_ints([3], 0), zero(2)):
        for bad in (True, 2.0):
            with pytest.raises(TypeError):
                u.divide_exact(bad)
        with pytest.raises(ZeroDivisionError):
            u.divide_exact(0)


def test_gf_expand_triangle_columns():
    assert [c.as_int() for c in gf_expand("lah", 4, k=2)] == [0, 0, 1, 6, 36]
    assert [c.as_int() for c in gf_expand("lah", 4, k=0)] == [1, 0, 0, 0, 0]
    assert [c.as_int() for c in gf_expand("r-lah", 3, k=1, r=1)] == [0, 1, 6, 36]
    for n in range(7):
        for k in range(n + 1):
            assert gf_expand("lah", 6, k=k)[n].as_int() == lah(n, k)
            assert gf_expand("r-lah", 6, k=k, r=2)[n].as_int() == rlah(n, k, 2)


def test_gf_expand_row_totals():
    assert [c.as_int() for c in gf_expand("lah-bell", 5)] == [1, 1, 3, 13, 73, 501]
    assert [c.as_int() for c in gf_expand("r-lah-bell", 2, r=1)] == [1, 3, 13]


def test_gf_expand_polynomial_families():
    x = var("x")
    rowp = gf_expand("r-lah-bell-poly", 2, r=1, x=x)
    assert str(rowp[2]) == "x^2 + 6*x + 6"
    A = SequenceSpec.symbolic("a")
    B = SequenceSpec.symbolic("b")
    got = gf_expand("incomplete-generic", 2, k=1, r=1, a=A, b=B)
    assert str(got[1]) == "a1*b1^2"
    egf = gf_expand("incomplete-r-bell", 4, k=1, rho=2, a=ONES, b=ONES)
    assert egf[2].as_int() == 5
    for n in range(5):
        assert egf[n] == incomplete_r_bell(n, 1, 2, ONES, ONES)


def test_gf_expand_validates_parameters():
    with pytest.raises(ValueError):
        gf_expand("lah", 4)
    with pytest.raises(ValueError):
        gf_expand("lah-bell", 4, k=1)
    with pytest.raises(ValueError):
        gf_expand("nope", 4)
    with pytest.raises(ValueError):
        gf_expand("lah", -1, k=0)


_BAD_INTEGERS = [
    ("lah", {"k": 2.0}, TypeError, "k"),
    ("lah", {"k": True}, TypeError, "k"),
    ("lah", {"k": "2"}, TypeError, "k"),
    ("lah", {"k": -1}, ValueError, "k"),
    ("r-lah", {"k": 1, "r": 1.0}, TypeError, "r"),
    ("r-lah", {"k": True, "r": 1}, TypeError, "k"),
    ("r-lah", {"k": 1, "r": True}, TypeError, "r"),
    ("r-lah", {"k": 1, "r": -1}, ValueError, "r"),
    ("complete-r-bell", {"rho": True, "a": ONES, "b": ONES}, TypeError, "rho"),
    ("complete-r-bell", {"rho": 2.0, "a": ONES, "b": ONES}, TypeError, "rho"),
    ("complete-r-bell", {"rho": -1, "a": ONES, "b": ONES}, ValueError, "rho"),
]


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
def test_gf_expand_refuses_bad_integer_parameters(scoped):
    with _reuse() if scoped else contextlib.nullcontext():
        # In a scope these calls keep the series that 1.0, 2.0 and True
        # compare equal to; a bad value must still be refused, not looked up.
        for k in (1, 2):
            gf_expand("lah", 3, k=k)
            gf_expand("r-lah", 3, k=k, r=1)
            gf_expand("complete-r-bell", 3, rho=k, a=ONES, b=ONES)
        for family, params, error, name in _BAD_INTEGERS:
            with pytest.raises(error, match=f"^{name} must be"):
                gf_expand(family, 3, **params)
        with pytest.raises(TypeError, match="^order must be"):
            gf_expand("lah", 3.0, k=1)
        with pytest.raises(TypeError, match="^order must be"):
            gf_expand("lah", True, k=1)


def test_series_integer_arguments_refuse_bools_and_floats():
    """Orders and exponents are checked as gf_expand checks its own: a bool
    or a float is not taken for the int it compares equal to."""
    s = from_sequence(ONES, "ordinary", 1, 3)
    cases = [
        (lambda: s.pow(True), TypeError, "^exponent must be an int, got bool"),
        (lambda: s.pow(2.0), TypeError, "^exponent must be an int, got float"),
        (lambda: s.pow(-1), ValueError, "^exponent must be nonnegative, got -1"),
        (lambda: from_sequence(ONES, "ordinary", 1, True), TypeError, "^order must be an int, got bool"),
        (lambda: from_sequence(ONES, "ordinary", 1, 2.0), TypeError, "^order must be an int, got float"),
        (lambda: TruncatedSeries(True, (const(1), const(1))), TypeError, "^order must be an int, got bool"),
        (lambda: TruncatedSeries(-1, ()), ValueError, "^order must be nonnegative, got -1"),
        (lambda: from_sequence(ONES, "ordinary", True, 3), TypeError, "^start must be an int, got bool"),
        (lambda: from_sequence(ONES, "ordinary", 1.0, 3), TypeError, "^start must be an int, got float"),
        (lambda: faa_di_bruno_check(True), TypeError, "^m must be an int, got bool"),
        (lambda: TruncatedSeries(1, (1, 2)), TypeError, "^coefficients must be polynomials, got int"),
    ]
    for call, error, message in cases:
        with pytest.raises(error, match=message):
            call()
    assert s.pow(2) == s * s
    listed = TruncatedSeries(1, [const(1), const(2)])
    assert listed.coeffs == (const(1), const(2)) and hash(listed) == hash(_ints([1, 2], 1))


# The series-oracle grid at n_max 8, r_max 2.
_SWEEPS = {"k": range(9), "r": range(3), "rho": range(5)}


def _grid(a, b, x):
    """(family, parameters) at every grid point of every family, k slowest."""
    for family, names in GF_FAMILIES.items():
        swept = [name for name in names if name in _SWEEPS]
        given = {"x": x, "a": a, "b": b}
        fixed = {name: given[name] for name in names if name in given}
        for values in itertools.product(*(_SWEEPS[name] for name in swept)):
            yield family, {**dict(zip(swept, values)), **fixed}


@pytest.mark.parametrize(
    "a,b",
    [("ones", "ones"), ("factorials", "factorials"), ("explicit", "explicit"),
     ("symbolic", "symbolic"), ("symbolic", "explicit")],
)
@pytest.mark.parametrize("x", [3, var("x")], ids=["int", "symbol"])
def test_reuse_scope_gives_the_unscoped_coefficients(a, b, x):
    points = list(_grid(_SPECS[a], _SPECS[b], x))
    want = [gf_expand(family, 8, **params) for family, params in points]
    # In grid order each head and tail after the first comes from a kept
    # one; in reverse order head k finds no kept head k-1 and is a power.
    for step in (1, -1):
        with _reuse():
            got = [gf_expand(family, 8, **params) for family, params in points[::step]]
        assert got[::step] == want


def test_reuse_scope_keeps_nothing_after_it_closes():
    assert _MEMO.get() is None
    gf_expand("r-lah", 4, k=1, r=1)
    assert _MEMO.get() is None
    with _reuse():
        gf_expand("r-lah", 4, k=1, r=1)
        outer = _MEMO.get()
        kept = dict(outer)
        assert kept
        with _reuse():
            assert _MEMO.get() == {}
            gf_expand("r-lah", 4, k=2, r=2)
        assert _MEMO.get() is outer
        assert outer == kept
    assert _MEMO.get() is None
    with pytest.raises(RuntimeError):
        with _reuse():
            gf_expand("r-lah", 4, k=1, r=1)
            raise RuntimeError("raised inside the scope")
    assert _MEMO.get() is None


def test_faa_di_bruno_checks():
    for m in range(1, 7):
        chk = faa_di_bruno_check(m)
        assert chk.passed and bool(chk)
        assert chk.series_value == lah_bell_number(m)
        assert chk.partition_value == complete_bell(m, FACTORIALS).as_int()
    with pytest.raises(ValueError):
        faa_di_bruno_check(0)


@given(st.integers(min_value=0, max_value=5), st.lists(st.integers(-5, 5), min_size=1, max_size=6))
def test_truncation_commutes_with_product(cut, raw):
    order = len(raw) - 1
    cut = min(cut, order)
    u = _ints(raw, order)
    v = from_sequence(ONES, "ordinary", 0, order)
    assert (u * v).truncate(cut) == u.truncate(cut) * v.truncate(cut)

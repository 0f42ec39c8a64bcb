"""Sparse polynomial arithmetic, canonical text form, and JSON round-trips."""

import pytest
from hypothesis import example, given, strategies as st

from lahbell.bell import ONES, SequenceSpec
from lahbell.exact_core import IntegralityError
from lahbell.poly import (
    SCALAR_X,
    ZERO,
    Monomial,
    SparsePolynomial,
    Variable,
    const,
    indexed_var,
    product,
    term,
    var,
)


def test_variable_names_and_validation():
    assert Variable("x", 3).name == "x3"
    assert SCALAR_X.name == "x"
    assert Variable.from_name("b12") == Variable("b", 12)
    assert Variable.from_name("x") == SCALAR_X
    with pytest.raises(ValueError):
        Variable("q", 1)
    with pytest.raises(ValueError):
        Variable("x", 0)
    with pytest.raises(ValueError):
        Variable.from_name("x01")


def test_variable_index_must_be_an_int():
    """A bool index is not read as 1: Variable("x", True) would take x1's
    code, and every x1 made afterwards would render as xTrue."""
    for index, kind in ((True, "bool"), (1.5, "float")):
        with pytest.raises(TypeError, match=f"^index must be an int, got {kind}"):
            Variable("x", index)
        with pytest.raises(TypeError, match=f"^index must be an int, got {kind}"):
            indexed_var("x", index)


def test_monomial_canonical_form():
    m = Monomial(((Variable("x", 2), 1), (Variable("x", 1), 2), (Variable("x", 3), 0)))
    assert str(m) == "x1^2*x2"
    assert m.degree == 3
    assert m.pairs == ((Variable("x", 1), 2), (Variable("x", 2), 1))
    assert Monomial().is_unit


def test_text_ordering_is_graded_then_lexicographic():
    p = var("x3") + 3 * var("x1") * var("x2") + var("x1") ** 3
    assert str(p) == "x1^3 + 3*x1*x2 + x3"
    q = 3 * var("x2") ** 2 + 4 * var("x1") * var("x3")
    assert str(q) == "4*x1*x3 + 3*x2^2"
    assert str(var("x1") + var("y1")) == "x1 + y1"
    assert str(var("a2") * var("b1")) == "a2*b1"


def test_text_signs_and_constants():
    assert str(term(1, x1=1) - term(2, x2=1)) == "x1 - 2*x2"
    assert str(-var("x1")) == "-x1"
    assert str(const(0)) == "0"
    assert str(const(-7)) == "-7"
    assert str((var("x1") + 1) ** 2) == "x1^2 + 2*x1 + 1"


def test_scalar_variable_renders_bare():
    x = var(SCALAR_X)
    assert str(x ** 2 + 6 * x + 6) == "x^2 + 6*x + 6"


def test_term_builder():
    assert term(3, a1=2, b2=1) == 3 * var("a1") ** 2 * var("b2")
    assert term(5) == const(5)


def test_zero_and_constant_behaviour():
    zero = var("x1") - var("x1")
    assert zero.is_zero
    assert zero == 0
    assert const(4) == 4
    assert const(4).as_int() == 4
    assert zero.as_int() == 0
    with pytest.raises(ValueError):
        var("x1").as_int()


def test_arithmetic_with_ints():
    p = var("x1")
    assert 1 + p == p + 1
    assert 1 - p == -(p - 1)
    assert 3 * p == p * 3
    assert p ** 0 == 1


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        var("x1") ** -1


def test_divide_exact():
    p = 4 * var("x1") + 6
    assert p.divide_exact(2) == 2 * var("x1") + 3
    with pytest.raises(IntegralityError):
        (3 * var("x1")).divide_exact(2)
    with pytest.raises(TypeError):
        const(3).divide_exact(1.5)


def test_exponents_that_are_not_ints_are_refused():
    with pytest.raises(TypeError):
        term(1, x1=1.5)
    with pytest.raises(TypeError):
        Monomial({Variable("x", 1): 0.5})
    with pytest.raises(TypeError, match="^exponent must be an int, got bool"):
        Monomial({Variable("x", 1): True})


def test_a_bool_equals_no_polynomial():
    """A bool is refused as a coefficient, so comparing with one is plain False."""
    assert (const(1) == True) is False
    assert const(1) != True
    assert (const(0) == False) is False
    assert const(1) == 1


def test_substitute_and_evaluate():
    p = var("x1") ** 2 + var("x2")
    assert p.substitute(Variable("x", 2), const(5)) == var("x1") ** 2 + 5
    swapped = p.substitute_all({Variable("x", 1): 2 * var("x1"), Variable("x", 2): var("x2")})
    assert swapped == 4 * var("x1") ** 2 + var("x2")
    assert p.evaluate({Variable("x", 1): 3, Variable("x", 2): 1}) == 10
    with pytest.raises(ValueError, match="x2"):
        p.evaluate({Variable("x", 1): 3})


def test_substitute_all_is_simultaneous():
    p = var("x1") * var("x2")
    swapped = p.substitute_all(
        {Variable("x", 1): var("x2"), Variable("x", 2): var("x1")}
    )
    assert swapped == p


def test_coefficient_lookup_and_terms():
    p = 2 * var("x1") * var("x2") - var("x2") ** 2
    pairs = list(p.terms())
    assert [c for _, c in pairs] == [2, -1]
    mono = pairs[0][0]
    assert dict(pairs)[mono] == 2
    assert Monomial() not in dict(pairs)
    assert p.variables() == [Variable("x", 1), Variable("x", 2)]


def test_json_round_trip():
    p = 5 * var("x1") - 3 + var("b2") ** 2
    obj = p.to_json_obj()
    assert obj["terms"][0]["coeff"] == "1"
    assert SparsePolynomial.from_json_obj(obj) == p
    assert SparsePolynomial.from_json_obj(const(0).to_json_obj()) == 0


_vars = st.sampled_from([var("x1"), var("x2"), var("y1")])
_monos = st.lists(_vars, min_size=0, max_size=3).map(
    lambda vs: 1 if not vs else __import__("functools").reduce(lambda a, b: a * b, vs)
)
_polys = st.lists(
    st.tuples(st.integers(min_value=-5, max_value=5), _monos), min_size=0, max_size=4
).map(lambda pairs: sum((c * m for c, m in pairs), const(0)))


@given(_polys, _polys, _polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + const(0) == p
    assert p * const(1) == p
    assert p - p == 0


@given(_polys, st.integers(min_value=0, max_value=4))
def test_pow_matches_repeated_product(p, k):
    expected = const(1)
    for _ in range(k):
        expected = expected * p
    assert p ** k == expected


def test_polynomial_hash_matches_equality():
    assert hash(const(3)) == hash(3)
    assert hash(const(-1)) == hash(-1)
    assert hash(ZERO) == hash(0)
    assert hash(var("x1") - var("x1")) == hash(0)
    assert hash((var("x1") + 1) ** 2) == hash(var("x1") ** 2 + 2 * var("x1") + 1)
    table = {const(3): "three", var("a2") * var("b1"): "a2*b1"}
    assert table[3] == "three"
    assert table[term(1, b1=1, a2=1)] == "a2*b1"


def test_sequence_specs_are_hashable():
    assert hash(SequenceSpec.uniform(2)) == hash(SequenceSpec.uniform(const(2)))
    assert len({SequenceSpec.uniform(var("x1")), SequenceSpec.uniform(var("x1")), ONES}) == 2


def test_variable_polynomials_are_shared():
    assert var("x1") is var(Variable("x", 1))
    assert indexed_var("a", 3) is var("a3")
    assert indexed_var("scalar", 1) is var(SCALAR_X)
    p = var("y2")
    assert str(p * 3 + p ** 2) == "y2^2 + 3*y2"
    assert str(p) == "y2"
    with pytest.raises(ValueError):
        indexed_var("a", 0)
    with pytest.raises(ValueError):
        indexed_var("x", 2**40 + 1)
    with pytest.raises(TypeError):
        var(3)


def test_variable_index_must_fit_the_code():
    assert Variable("y", 2**40 - 1).code < Variable("scalar").code
    with pytest.raises(ValueError):
        Variable("x", 2**40)


# -- the int-coded monomial against plain-dict references ---------------------

_variables = st.one_of(
    st.builds(
        Variable,
        st.sampled_from(["x", "a", "b", "y"]),
        st.one_of(st.integers(min_value=1, max_value=6), st.just(2**40 - 1)),
    ),
    st.just(SCALAR_X),
)
_exponent_maps = st.dictionaries(_variables, st.integers(min_value=0, max_value=4), max_size=5)
_monomials = _exponent_maps.map(Monomial)


_RANKS = {"x": 0, "a": 1, "b": 2, "y": 3, "scalar": 4}


def _variable_key(v):
    """Family first, then index: the documented variable order."""
    return (_RANKS[v.family], v.index)


def _reference_pairs(exponents):
    """Canonical pairs of a Variable -> exponent dict, built without Monomial."""
    pairs = ((v, e) for v, e in exponents.items() if e)
    return tuple(sorted(pairs, key=lambda p: _variable_key(p[0])))


@given(_monomials, _monomials)
def test_monomial_product_matches_dict_merge(m1, m2):
    merged = dict(m1.pairs)
    for v, e in m2.pairs:
        merged[v] = merged.get(v, 0) + e
    product = m1 * m2
    assert product.pairs == _reference_pairs(merged)
    assert product == Monomial(merged)
    assert hash(product) == hash(Monomial(merged))
    assert product == m2 * m1


@given(_monomials, _monomials, _monomials)
def test_monomial_product_is_associative_with_unit(m1, m2, m3):
    assert (m1 * m2) * m3 == m1 * (m2 * m3)
    assert m1 * Monomial() == m1 == Monomial() * m1


@given(_monomials, st.integers(min_value=0, max_value=5))
def test_monomial_power_matches_repeated_product(m, k):
    expected = Monomial()
    for _ in range(k):
        expected = expected * m
    assert m ** k == expected
    assert (m ** k).pairs == tuple((v, e * k) for v, e in m.pairs if k)


_exponent_lists = st.lists(
    st.tuples(_variables, st.integers(min_value=0, max_value=4)),
    max_size=6,
    unique_by=lambda p: p[0],
)


@given(_exponent_lists, st.randoms())
def test_pairs_follow_variable_order_for_any_input_order(items, rnd):
    shuffled = list(items)
    rnd.shuffle(shuffled)
    m = Monomial(shuffled)
    assert m.pairs == _reference_pairs(dict(items))


@given(st.lists(_monomials, max_size=8))
def test_sort_key_matches_variable_sort_keys(monos):
    def graded_lex(m):
        return (-m.degree, tuple((*_variable_key(v), -e) for v, e in m.pairs))

    assert sorted(monos, key=Monomial.sort_key) == sorted(monos, key=graded_lex)


@given(_variables, st.integers(min_value=1, max_value=2**70))
@example(Variable("y", 2**40 - 1), 1)
@example(SCALAR_X, 2)
def test_a_code_decodes_to_its_own_variable(v, e):
    assert Variable.from_name(str(Monomial({v: 1}))) == v
    assert Monomial({v: e}).pairs == ((v, e),)
    assert var(v).variables() == [v]


_coded_polys = st.lists(
    st.tuples(_monomials, st.integers(min_value=-10**20, max_value=10**20)), max_size=5
).map(SparsePolynomial)


@given(_coded_polys)
def test_json_round_trip_property(p):
    assert SparsePolynomial.from_json_obj(p.to_json_obj()) == p


@given(_coded_polys, _coded_polys)
def test_equal_polynomials_hash_equal(p, q):
    assert p * q == q * p
    assert hash(p * q) == hash(q * p)
    assert hash(p + q - q) == hash(p)


_single_terms = st.tuples(_monomials, st.integers(min_value=-5, max_value=5)).map(
    lambda t: SparsePolynomial([t])
)


@given(st.lists(st.one_of(_single_terms, _coded_polys), max_size=5))
def test_product_matches_left_to_right_chain(factors):
    chain = const(1)
    for f in factors:
        chain = chain * f
    assert product(factors) == chain
    assert product(iter(factors)) == chain


def test_product_of_nothing_is_one():
    assert product([]) == 1
    assert product([const(0), var("x1")]).is_zero

"""Sparse polynomial arithmetic, canonical text form, and JSON round-trips."""

import pickle
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from lahbell import poly
from lahbell.bell import ONES, SequenceSpec
from lahbell.exact_core import IntegralityError
from lahbell.poly import (
    SCALAR_X,
    ZERO,
    Monomial,
    PolyAccumulator,
    SparsePolynomial,
    Variable,
    _PreparedMap,
    const,
    indexed_var,
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
    for bad in (1.5, True, 2.0):
        for q in (const(3), ZERO):
            with pytest.raises(TypeError):
                q.divide_exact(bad)
    # a zero divisor is refused before any term is read, so by ZERO as well
    for q in (const(3), ZERO):
        with pytest.raises(ZeroDivisionError):
            q.divide_exact(0)


def test_exponents_that_are_not_ints_are_refused():
    with pytest.raises(TypeError):
        term(1, x1=1.5)
    with pytest.raises(TypeError):
        Monomial({Variable("x", 1): 0.5})
    with pytest.raises(TypeError, match="^exponent must be an int, got bool"):
        Monomial({Variable("x", 1): True})
    # a power or a scale that is not an int would leave a float coefficient
    x1 = var("x1")
    for power in (lambda: (3 * x1) ** 1.5, lambda: x1**0.5, lambda: Monomial({}) ** 0.5):
        with pytest.raises(TypeError, match="^exponent must be an int, got float"):
            power()
    for power in (lambda: (3 * x1) ** True, lambda: Monomial({Variable("x", 1): 2}) ** True):
        with pytest.raises(TypeError, match="^exponent must be an int, got bool"):
            power()
    for scale in (1.5, True):
        with pytest.raises(TypeError, match="^polynomial coefficients must be int"):
            PolyAccumulator().add(x1, scale)


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


def test_variable_code_is_set_once_and_is_not_a_field():
    v = Variable("b", 7)
    assert v.code == 2 << 40 | 7
    assert Variable("b", 8).code == v.code + 1
    assert repr(v) == "Variable(family='b', index=7)"
    # equality and hash read (family, index) alone, as the field tuple
    assert v == Variable("b", 7) and hash(v) == hash(Variable("b", 7)) == hash(("b", 7))
    for name in ("code", "family", "index"):
        with pytest.raises(AttributeError):
            setattr(v, name, 0)
        with pytest.raises(AttributeError):
            delattr(v, name)
    with pytest.raises(AttributeError):
        v.label = "b7"
    assert (v.family, v.index, v.code) == ("b", 7, 2 << 40 | 7)


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
    # the monomial's own text and order are those of the polynomial renderings
    distinct = list(dict.fromkeys(monos))
    poly = SparsePolynomial([(m, 1) for m in distinct])
    assert [m for m, _ in poly.terms()] == sorted(distinct, key=Monomial.sort_key)
    for m in distinct:
        assert str(m) == SparsePolynomial([(m, 1)]).to_text()


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


# -- refusals at the API edge -------------------------------------------------


@pytest.mark.parametrize("value, kind", [(1.5, "float"), (True, "bool"), (2.0, "float")])
def test_evaluate_refuses_a_value_that_is_not_an_int_by_name(value, kind):
    p = 2 * var("x1") + var("a2") ** 2
    with pytest.raises(TypeError, match=f"^value of a2 must be an int, got {kind}$"):
        p.evaluate({Variable("x", 1): 1, Variable("a", 2): value})
    # a value for a variable the polynomial does not hold is never read
    assert var("x1").evaluate({Variable("x", 1): 3, Variable("a", 2): value}) == 3


@pytest.mark.parametrize("key", ["x1", 1, var("x1")])
def test_substitution_keys_must_be_variables(key):
    p = var("x1") ** 2 + 3
    kind = type(key).__name__
    with pytest.raises(TypeError, match=f"^substitution keys must be Variable, got {kind}$"):
        p.substitute_all({key: 2})
    with pytest.raises(TypeError, match=f"^substitution keys must be Variable, got {kind}$"):
        p.substitute(key, 2)


# -- substitution against evaluation ------------------------------------------

_UNIVERSE = [Variable("x", 1), Variable("x", 2), Variable("a", 1), SCALAR_X]
_nonzero = st.integers(min_value=-4, max_value=4).filter(bool)
_small_monomials = st.dictionaries(
    st.sampled_from(_UNIVERSE), st.integers(min_value=0, max_value=3), max_size=3
).map(Monomial)
_small_polys = st.lists(st.tuples(_small_monomials, _nonzero), max_size=4).map(SparsePolynomial)


def _images(v):
    """Every kind of image substitute_all tells apart, for variable v."""
    return st.one_of(
        st.just(const(0)),
        _nonzero.map(lambda c: c * var(v)),
        st.builds(lambda m, c: SparsePolynomial([(m, c)]), _small_monomials, _nonzero),
        _small_polys.filter(lambda p: len(p) >= 2),
    )


_mappings = st.lists(
    st.sampled_from(_UNIVERSE).flatmap(lambda v: st.tuples(st.just(v), _images(v))),
    max_size=4,
    unique_by=lambda item: item[0],
).map(dict)
_points = st.fixed_dictionaries(
    {v: st.integers(min_value=-3, max_value=3) for v in _UNIVERSE}
)

_x1, _x2, _a1 = _UNIVERSE[:3]


@given(_small_polys, _mappings, _points)
@example(  # eq30's factorial weights: every image rescales its own variable
    var("x1") ** 2 * var("x2") + 5 * var("x2") ** 3,
    {_x1: 1 * var("x1"), _x2: 2 * var("x2")},
    {v: 2 for v in _UNIVERSE},
)
@example(  # eq23's alpha = 0 and an unmapped variable
    var("x1") * var("a1") + var("a1") ** 2 + 3,
    {_x1: const(0)},
    {v: 3 for v in _UNIVERSE},
)
@example(  # one-term images on other variables and with exponents above 1
    var("x1") ** 2 * var("x2") + var("x2") * var("a1"),
    {_x1: -2 * var("x2") ** 2, _x2: 3 * var("x1") * var("a1") ** 2},
    {_x1: 2, _x2: -1, _a1: 3, SCALAR_X: 1},
)
@example(  # multi-term images next to a rescale and a zero image
    var("x1") ** 2 * var("x2") * var(SCALAR_X) + var("a1") * var("x2") + 7,
    {_x1: var("x2") + 1, _x2: 4 * var("x2"), SCALAR_X: var("x1") - var("a1") ** 2, _a1: const(0)},
    {_x1: -2, _x2: 3, _a1: 2, SCALAR_X: -1},
)
def test_substitute_all_matches_evaluating_at_the_images(p, mapping, point):
    at_images = {v: mapping[v].evaluate(point) if v in mapping else point[v] for v in _UNIVERSE}
    substituted = p.substitute_all(mapping)
    assert substituted.evaluate(point) == p.evaluate(at_images)
    # a prepared map gives the same polynomial, with its terms in the same order
    prepared = p.substitute_all(_PreparedMap(mapping))
    assert list(prepared._terms.items()) == list(substituted._terms.items())


def test_a_prepared_map_is_analysed_once_and_refuses_writes(monkeypatch):
    calls = Counter()
    analyse = poly._analyse

    def counted(mapping):
        calls["analyse"] += 1
        return analyse(mapping)

    monkeypatch.setattr(poly, "_analyse", counted)
    source = {_x1: 6 * var("x1"), _x2: -2 * var("x2"), _a1: var("x1") + 1, SCALAR_X: 0}
    prepared = _PreparedMap(source)
    polys = [(var("x1") + var("x2") * var("a1") + var(SCALAR_X)) ** k for k in range(5)]
    got = [p.substitute_all(prepared) for p in polys]
    assert calls["analyse"] == 1
    # a plain mapping is analysed by every call
    assert [p.substitute_all(source) for p in polys] == got
    assert calls["analyse"] == 1 + len(polys)
    # it takes no writes, and does not follow later writes to its source
    with pytest.raises(TypeError):
        prepared[_x1] = var("x2")
    with pytest.raises(TypeError):
        del prepared[_x1]
    source[_x1] = var("x2")
    assert var("x1").substitute_all(prepared) == 6 * var("x1")


# -- one polynomial, whichever way it was built --------------------------------


@given(_polys, _polys, st.integers(min_value=0, max_value=3), st.integers(-(10**30), 10**30))
def test_construction_routes_agree_on_equality_and_hash(p, q, k, c):
    for built in ((p * q + q) ** k - 3 * p, var("x1") * 0 + c):
        for other in (
            SparsePolynomial(list(built.terms())),
            SparsePolynomial(dict(built.terms())),
            SparsePolynomial.from_json_obj(built.to_json_obj()),
        ):
            assert other == built
            assert hash(other) == hash(built)
            assert other.to_text() == built.to_text()
    assert const(c) == c
    assert hash(const(c)) == hash(c)


# -- the arithmetic builds no Monomial and no product for rescale images -------


def test_rescale_and_zero_images_multiply_no_polynomials(monkeypatch):
    p = (var("x1") + var("x2") * var("a1")) ** 3 + 2 * var("x2")
    weights = {_x1: 2 * var("x1"), _x2: 6 * var("x2"), _a1: -1 * var("a1")}
    eq23_alpha_zero = {_x1: const(0), _x2: const(0)}
    calls = Counter()
    product = SparsePolynomial.__mul__

    def counted(self, other):
        calls["mul"] += 1
        return product(self, other)

    monkeypatch.setattr(SparsePolynomial, "__mul__", counted)
    monkeypatch.setattr(SparsePolynomial, "__rmul__", counted)
    weighted = p.substitute_all(weights)
    vanished = p.substitute_all(eq23_alpha_zero)
    assert calls["mul"] == 0
    monkeypatch.undo()
    point = {v: i + 2 for i, v in enumerate(_UNIVERSE)}
    assert weighted.evaluate(point) == p.evaluate(
        {_x1: 2 * point[_x1], _x2: 6 * point[_x2], _a1: -point[_a1], SCALAR_X: 0}
    )
    assert vanished == 0


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_monomials_and_polynomials_pickle_at_every_protocol(protocol):
    mono = Monomial({Variable("a", 12): 2, SCALAR_X: 1})
    p = term(-3, x1=2, x10=1) + var(SCALAR_X) ** 11 - 7
    for value in (mono, Monomial(), p, ZERO):
        again = pickle.loads(pickle.dumps(value, protocol))
        assert type(again) is type(value)
        assert again == value and hash(again) == hash(value) and str(again) == str(value)

"""Polynomial family tests.

Two kinds of oracle back these tests: a convolution recurrence for the
plain partial polynomials, and direct exhaustive witness sums (built with
itertools, independent of the package's enumerator) for the paired
families.  Numeric spot values are frozen from those oracles.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lahbell import bell
from lahbell.bell import (
    FACTORIALS,
    ONES,
    SequenceSpec,
    complete_bell,
    complete_lah_bell,
    complete_r_bell,
    complete_r_lah_bell,
    complete_r_lah_bell_expansion,
    incomplete_bell,
    incomplete_lah_bell,
    incomplete_r_bell,
    incomplete_r_lah_bell,
    lah_bell_polynomial,
    moments_from_cumulants,
)
from lahbell.exact_core import (
    _MEMO,
    _reuse,
    binomial,
    factorial,
    lah,
    lah_bell_number,
    r_lah_bell_number,
    rlah,
)
from lahbell.poly import (
    SCALAR_X,
    Monomial,
    PolyAccumulator,
    SparsePolynomial,
    Variable,
    as_poly,
    const,
    term,
    var,
)

X = SequenceSpec.symbolic("x")
A = SequenceSpec.symbolic("a")
B = SequenceSpec.symbolic("b")


def oracle_incomplete_bell(n, k, xs):
    """Convolution recurrence on the first argument's least element."""
    if n == 0 and k == 0:
        return const(1)
    if n == 0 or k == 0:
        return const(0)
    total = const(0)
    for i in range(1, n - k + 2):
        total = total + binomial(n - 1, i - 1) * xs.at(i) * oracle_incomplete_bell(
            n - i, k - 1, xs
        )
    return total


def oracle_incomplete_r_bell(n, k, rho, a, b):
    """Exhaustive weighted witness sum with Fraction coefficients."""
    total = const(0)
    nf, rf = factorial(n), factorial(rho)
    for kp in itertools.product(range(k + 1), repeat=n):
        if sum(kp) != k:
            continue
        kw = sum(i * v for i, v in enumerate(kp, start=1))
        if kw > n:
            continue
        for rp in itertools.product(range(rho + 1), repeat=n + 1):
            if sum(rp) != rho:
                continue
            if sum(i * v for i, v in enumerate(rp)) != n - kw:
                continue
            coeff = Fraction(nf) * Fraction(rf)
            mono = const(1)
            for i, v in enumerate(kp, start=1):
                coeff /= factorial(v) * factorial(i) ** v
                mono = mono * a.at(i) ** v
            for i, v in enumerate(rp):
                coeff /= factorial(v) * factorial(i) ** v
                mono = mono * b.at(i + 1) ** v
            assert coeff.denominator == 1
            total = total + int(coeff) * mono
    return total


def oracle_incomplete_r_lah_bell(n, k, r, a, b):
    """Same witness sum with ordinary powers and multinomial weights."""
    rho = 2 * r
    total = const(0)
    nf, rf = factorial(n), factorial(rho)
    for kp in itertools.product(range(k + 1), repeat=n):
        if sum(kp) != k:
            continue
        kw = sum(i * v for i, v in enumerate(kp, start=1))
        if kw > n:
            continue
        for rp in itertools.product(range(rho + 1), repeat=n + 1):
            if sum(rp) != rho:
                continue
            if sum(i * v for i, v in enumerate(rp)) != n - kw:
                continue
            coeff = Fraction(nf) * Fraction(rf)
            mono = const(1)
            for v in kp:
                coeff /= factorial(v)
            for v in rp:
                coeff /= factorial(v)
            for i, v in enumerate(kp, start=1):
                mono = mono * a.at(i) ** v
            for i, v in enumerate(rp):
                mono = mono * b.at(i + 1) ** v
            assert coeff.denominator == 1
            total = total + int(coeff) * mono
    return total


def test_sequence_spec_kinds():
    assert ONES.at(7) == 1
    assert FACTORIALS.at(4) == 24
    explicit = SequenceSpec.explicit([3, 1, 4])
    assert explicit.at(2) == 1
    with pytest.raises(ValueError):
        explicit.at(4)
    assert SequenceSpec.symbolic("y").at(2) == var("y2")
    assert SequenceSpec.uniform(var("x1")).at(9) == var("x1")
    with pytest.raises(ValueError):
        SequenceSpec.symbolic("q")
    with pytest.raises(ValueError):
        SequenceSpec("symbolic", family="q")


def test_incomplete_bell_matches_recurrence_oracle():
    for n in range(8):
        for k in range(n + 2):
            assert incomplete_bell(n, k, X) == oracle_incomplete_bell(n, k, X), (n, k)


def test_incomplete_bell_known_forms():
    assert str(incomplete_bell(4, 2, X)) == "4*x1*x3 + 3*x2^2"
    assert str(incomplete_bell(3, 2, X)) == "3*x1*x2"
    assert incomplete_bell(0, 0, X) == 1
    assert incomplete_bell(3, 0, X) == 0
    assert incomplete_bell(2, 3, X) == 0


def test_incomplete_bell_ones_gives_block_counts():
    rows = [
        [1],
        [0, 1],
        [0, 1, 1],
        [0, 1, 3, 1],
        [0, 1, 7, 6, 1],
        [0, 1, 15, 25, 10, 1],
        [0, 1, 31, 90, 65, 15, 1],
    ]
    for n, row in enumerate(rows):
        got = [incomplete_bell(n, k, ONES).as_int() for k in range(n + 1)]
        assert got == row


def test_incomplete_bell_factorials_gives_lah():
    for n in range(9):
        for k in range(n + 1):
            assert incomplete_bell(n, k, FACTORIALS).as_int() == lah(n, k)


def test_complete_bell_sums_the_partial_ones():
    for n in range(9):
        total = sum(
            (incomplete_bell(n, k, X) for k in range(n + 1)), const(0)
        )
        assert complete_bell(n, X) == total
    assert str(complete_bell(3, X)) == "x1^3 + 3*x1*x2 + x3"


def test_complete_bell_numeric_sequences():
    assert [complete_bell(n, ONES).as_int() for n in range(8)] == [
        1, 1, 2, 5, 15, 52, 203, 877,
    ]
    assert [complete_bell(n, FACTORIALS).as_int() for n in range(6)] == [
        1, 1, 3, 13, 73, 501,
    ]


def test_incomplete_lah_bell_is_multinomial_weighted():
    for n in range(8):
        for k in range(n + 1):
            weighted = incomplete_bell(n, k, X).substitute_all(
                {
                    Variable("x", i): factorial(i) * var(Variable("x", i))
                    for i in range(1, n - k + 2)
                }
            )
            assert incomplete_lah_bell(n, k, X) == weighted, (n, k)
    assert str(incomplete_lah_bell(3, 2, X)) == "6*x1*x2"


def test_complete_lah_bell_matches_partial_sums_and_numbers():
    for n in range(9):
        total = sum(
            (incomplete_lah_bell(n, k, X) for k in range(n + 1)), const(0)
        )
        assert complete_lah_bell(n, X) == total
    assert complete_lah_bell(4, ONES).as_int() == 73


def test_incomplete_r_bell_matches_exhaustive_oracle():
    for n in range(5):
        for k in range(n + 1):
            for rho in range(4):
                assert incomplete_r_bell(n, k, rho, A, B) == oracle_incomplete_r_bell(
                    n, k, rho, A, B
                ), (n, k, rho)


# With (A, B), checked by the two tests above, these (a, b) pairs reach every
# way the witness sums join the two sides: a's family above b's, the same
# family with both parts nonempty, fills on one side or both, int values with
# a zero and a negative, and all ones.
SPEC_PAIRS = [
    ("B, A", B, A),
    ("A, A", A, A),
    ("uniform(x1), B", SequenceSpec.uniform(var("x1")), B),
    ("uniform(x), uniform(3)", SequenceSpec.uniform(var("x")), SequenceSpec.uniform(3)),
    (
        "explicit([2, 0, -1, 5, 1]), FACTORIALS",
        SequenceSpec.explicit([2, 0, -1, 5, 1]),
        FACTORIALS,
    ),
    ("ONES, ONES", ONES, ONES),
]


@pytest.mark.parametrize(
    "a, b", [pair[1:] for pair in SPEC_PAIRS], ids=[pair[0] for pair in SPEC_PAIRS]
)
def test_paired_families_match_the_oracles_for_every_spec_pair(a, b):
    for n in range(5):
        for k in range(n + 1):
            for rho in range(4):
                assert incomplete_r_bell(n, k, rho, a, b) == oracle_incomplete_r_bell(
                    n, k, rho, a, b
                ), (n, k, rho)
            for r in range(3):
                assert incomplete_r_lah_bell(
                    n, k, r, a, b
                ) == oracle_incomplete_r_lah_bell(n, k, r, a, b), (n, k, r)


def test_complete_families_over_a_fill_sum_the_partial_ones():
    # the complete sums raise the fill to every block count, the partial ones
    # to one count each
    fill = SequenceSpec.uniform(var("x1") + 1)
    for n in range(7):
        bell_parts = [incomplete_bell(n, k, fill) for k in range(n + 1)]
        for k, part in enumerate(bell_parts):
            assert part == oracle_incomplete_bell(n, k, fill), (n, k)
        assert complete_bell(n, fill) == sum(bell_parts, const(0)), n
        lah_parts = (incomplete_lah_bell(n, k, fill) for k in range(n + 1))
        assert complete_lah_bell(n, fill) == sum(lah_parts, const(0)), n


def test_witness_sums_build_no_polynomial_per_witness(monkeypatch):
    """Polynomial work of the witness sums as counts, so a change that goes
    back to a product per witness fails here and not only in timings."""
    fill = SequenceSpec.uniform(var("x1") + 1)
    counts = Counter()
    multiply, power, add = SparsePolynomial.__mul__, SparsePolynomial.__pow__, PolyAccumulator.add

    def counted_multiply(self, other):
        counts["mul"] += 1
        return multiply(self, other)

    def counted_power(self, k):
        counts["pow"] += 1
        return power(self, k)

    def counted_add(self, poly, scale=1):
        counts["add"] += 1
        return add(self, poly, scale)

    monkeypatch.setattr(SparsePolynomial, "__mul__", counted_multiply)
    monkeypatch.setattr(SparsePolynomial, "__pow__", counted_power)
    monkeypatch.setattr(PolyAccumulator, "add", counted_add)
    assert len(complete_bell(18, X)) == 385
    assert len(incomplete_r_lah_bell(14, 5, 2, A, B)) > 0
    assert counts == Counter()
    # every witness has 4 blocks, so the fill is raised once, to the 4th power
    assert len(incomplete_r_lah_bell(10, 4, 1, fill, ONES)) == 5
    assert counts["pow"] <= 1


def test_incomplete_r_bell_separated_element_counts():
    # partitions of a 4-set into blocks where the 2 marked elements are
    # kept apart: 4, 5, 1 blocks of the unmarked pair across k = 0, 1, 2
    got = [incomplete_r_bell(2, k, 2, ONES, ONES).as_int() for k in range(3)]
    assert got == [4, 5, 1]
    assert sum(got) == 10


def test_incomplete_r_bell_collapses_unweighted_at_rho_zero():
    for n in range(6):
        for k in range(n + 1):
            assert incomplete_r_bell(n, k, 0, A, B) == incomplete_bell(n, k, A)


def test_incomplete_r_bell_base_convention():
    assert str(incomplete_r_bell(0, 0, 3, A, B)) == "b1^3"
    assert incomplete_r_bell(0, 1, 2, A, B) == 0


def test_complete_r_bell_forms():
    assert str(complete_r_bell(1, 1, A, B)) == "a1*b1 + b2"
    for n in range(6):
        assert complete_r_bell(n, 0, A, B) == complete_bell(n, A)
    for n in range(5):
        for rho in range(4):
            total = sum(
                (incomplete_r_bell(n, k, rho, A, B) for k in range(n + 1)), const(0)
            )
            assert complete_r_bell(n, rho, A, B) == total
    assert [complete_r_bell(n, 2, ONES, ONES).as_int() for n in range(4)] == [
        1, 3, 10, 37,
    ]


def test_incomplete_r_lah_bell_matches_exhaustive_oracle():
    for n in range(5):
        for k in range(n + 1):
            for r in range(3):
                assert incomplete_r_lah_bell(
                    n, k, r, A, B
                ) == oracle_incomplete_r_lah_bell(n, k, r, A, B), (n, k, r)


def test_incomplete_r_lah_bell_known_forms():
    assert str(incomplete_r_lah_bell(1, 1, 1, A, B)) == "a1*b1^2"
    assert str(incomplete_r_lah_bell(2, 1, 1, A, B)) == "4*a1*b1*b2 + 2*a2*b1^2"
    assert str(incomplete_r_lah_bell(0, 0, 2, A, B)) == "b1^4"
    assert incomplete_r_lah_bell(3, 2, 0, X, B) == incomplete_lah_bell(3, 2, X)


def test_incomplete_r_lah_bell_all_ones_gives_rlah():
    for n in range(8):
        for k in range(n + 1):
            for r in range(3):
                assert incomplete_r_lah_bell(n, k, r, ONES, ONES).as_int() == rlah(
                    n, k, r
                )


def test_complete_r_lah_bell_collects_partial_sums():
    x = var(SCALAR_X)
    for n in range(6):
        for r in range(3):
            total = const(0)
            for k in range(n + 1):
                total = total + x ** k * incomplete_r_lah_bell(n, k, r, A, B)
            assert complete_r_lah_bell(n, r, x, A, B) == total
    assert str(complete_r_lah_bell(2, 1, x, ONES, ONES)) == "x^2 + 6*x + 6"
    assert complete_r_lah_bell(2, 1, 1, ONES, ONES).as_int() == 13


def test_lah_bell_polynomial_values():
    x = var(SCALAR_X)
    assert str(lah_bell_polynomial(2, 1, x)) == "x^2 + 6*x + 6"
    assert lah_bell_polynomial(2, 0, 2).as_int() == 8
    assert lah_bell_polynomial(0, 3, x) == 1
    for n in range(8):
        assert lah_bell_polynomial(n, 0, 1).as_int() == sum(
            lah(n, k) for k in range(n + 1)
        )


def test_expansion_known_forms():
    Y = SequenceSpec.symbolic("y")
    assert str(complete_r_lah_bell_expansion(1, 1, X, Y)) == "x1*y1^2 + 2*y1*y2"
    assert str(complete_r_lah_bell_expansion(0, 1, X, Y)) == "y1^2"
    assert complete_r_lah_bell_expansion(0, 0, X, Y) == 1
    assert str(complete_r_lah_bell_expansion(1, 0, X, Y)) == "x1"


def test_expansion_matches_witness_route():
    Y = SequenceSpec.symbolic("y")
    for n in range(6):
        for r in range(3):
            assert complete_r_lah_bell_expansion(n, r, X, Y) == complete_r_lah_bell(
                n, r, 1, X, Y
            ), (n, r)


def test_moments_from_cumulants():
    assert moments_from_cumulants([], 0) == 1
    # all cumulants 1: moments are the set partition counts
    assert [moments_from_cumulants([1] * 6, n) for n in range(7)] == [
        1, 1, 2, 5, 15, 52, 203,
    ]
    # mean zero, variance one, higher cumulants zero: pair counts
    kappas = [0, 1, 0, 0, 0, 0]
    assert [moments_from_cumulants(kappas, n) for n in range(1, 7)] == [
        0, 1, 0, 3, 0, 15,
    ]
    with pytest.raises(ValueError):
        moments_from_cumulants([1], 2)


def test_partial_bell_matches_sympy():
    # sympy's bell(n, k, symbols) was written outside this package
    sympy = pytest.importorskip("sympy")
    for n in range(9):
        summed = sympy.Integer(0)
        for k in range(n + 1):
            theirs = sympy.bell(n, k, sympy.symbols(f"x1:{n - k + 2}"))
            ours = sympy.sympify(incomplete_bell(n, k, X).to_text())
            assert sympy.expand(ours - theirs) == 0, (n, k)
            summed += theirs
        ours = sympy.sympify(complete_bell(n, X).to_text())
        assert sympy.expand(ours - summed) == 0, n


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        incomplete_bell(-1, 0, X)
    with pytest.raises(ValueError):
        complete_bell(-1, X)
    with pytest.raises(ValueError):
        complete_lah_bell(-2, X)
    with pytest.raises(ValueError):
        complete_r_lah_bell_expansion(-1, 1, X, B)
    with pytest.raises(ValueError):
        incomplete_r_bell(2, 1, -1, A, B)
    with pytest.raises(ValueError):
        complete_r_lah_bell(2, -1, 1, A, B)


# Row sums loop over k = 0..n, where a negative n gives an empty sum, so they
# check their arguments themselves, like every other entry point.
NEGATIVE_ROW_SUMS = [
    (lah_bell_number, (-2,)),
    (r_lah_bell_number, (-2, 1)),
    (r_lah_bell_number, (-2, -1)),
    (lah_bell_polynomial, (-1, 0, 1)),
    (lah_bell_polynomial, (-1, -1, 1)),
    (complete_r_bell, (-1, 0, A, B)),
    (complete_r_bell, (-1, -2, A, B)),
    (complete_r_lah_bell, (-1, 1, 1, A, B)),
    (complete_r_lah_bell, (-1, -1, 1, A, B)),
    (complete_r_lah_bell_expansion, (0, -1, X, B)),
]


@pytest.mark.parametrize(
    "fn, args",
    NEGATIVE_ROW_SUMS,
    ids=[f"{fn.__name__}({', '.join(map(str, args[:2]))})" for fn, args in NEGATIVE_ROW_SUMS],
)
def test_row_sums_reject_negative_arguments(fn, args):
    with pytest.raises(ValueError, match="must be nonnegative"):
        fn(*args)


NOT_INTEGERS = [
    ("explicit([1.5, 2])", lambda: SequenceSpec.explicit([1.5, 2])),
    ("explicit([Fraction(3, 2)])", lambda: SequenceSpec.explicit([Fraction(3, 2)])),
    ("moments_from_cumulants([1.5, 2.0], 2)", lambda: moments_from_cumulants([1.5, 2.0], 2)),
    ("const(2.5)", lambda: const(2.5)),
    ("const(Fraction(1, 2))", lambda: const(Fraction(1, 2))),
    ("term(1.5, x1=1)", lambda: term(1.5, x1=1)),
    ("SparsePolynomial([(Monomial(), 0.5)])", lambda: SparsePolynomial([(Monomial(), 0.5)])),
    ("explicit([True, 2])", lambda: SequenceSpec.explicit([True, 2])),
    ("const(True)", lambda: const(True)),
    ("as_poly(True)", lambda: as_poly(True)),
    ("SparsePolynomial([(Monomial(), True)])", lambda: SparsePolynomial([(Monomial(), True)])),
    ("x1 + True", lambda: var("x1") + True),
    ("x1 * True", lambda: var("x1") * True),
    ("True * x1", lambda: True * var("x1")),
]


@pytest.mark.parametrize("call", [c for _, c in NOT_INTEGERS], ids=[i for i, _ in NOT_INTEGERS])
def test_values_that_are_not_integers_are_refused(call):
    with pytest.raises(TypeError):
        call()


# Every witness-sum constructor, by name, at (n, k, r, a, b); the r-bell ones
# take rho = 2r.
_CONSTRUCTORS = {
    "incomplete_bell": lambda n, k, r, a, b: incomplete_bell(n, k, a),
    "complete_bell": lambda n, k, r, a, b: complete_bell(n, a),
    "incomplete_lah_bell": lambda n, k, r, a, b: incomplete_lah_bell(n, k, a),
    "complete_lah_bell": lambda n, k, r, a, b: complete_lah_bell(n, a),
    "incomplete_r_bell": lambda n, k, r, a, b: incomplete_r_bell(n, k, 2 * r, a, b),
    "complete_r_bell": lambda n, k, r, a, b: complete_r_bell(n, 2 * r, a, b),
    "incomplete_r_lah_bell": lambda n, k, r, a, b: incomplete_r_lah_bell(n, k, r, a, b),
    "complete_r_lah_bell": lambda n, k, r, a, b: complete_r_lah_bell(n, r, var("x"), a, b),
    "complete_r_lah_bell_expansion": (
        lambda n, k, r, a, b: complete_r_lah_bell_expansion(n, r, a, b)
    ),
}
_SCOPE_SPECS = [
    ONES,
    FACTORIALS,
    X,
    A,
    B,
    SequenceSpec.explicit([3, -1, 4, 0, 5]),
    SequenceSpec.uniform(var("x1") + 1),
    SequenceSpec.uniform(2),
]


def _outcome(name, n, k, r, a, b):
    """The constructor's value, or the type and text of the error it raised."""
    try:
        return _CONSTRUCTORS[name](n, k, r, a, b)
    except ValueError as exc:
        return type(exc), str(exc)


_CALLS = st.tuples(
    st.sampled_from(sorted(_CONSTRUCTORS)),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2),
    st.sampled_from(_SCOPE_SPECS),
    st.sampled_from(_SCOPE_SPECS),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_CALLS, min_size=1, max_size=6))
def test_reuse_scope_gives_the_unscoped_values(calls):
    """A kept witness stream or slot table changes no value and no error;
    the explicit spec is too short for the larger n, so errors come up too."""
    want = [_outcome(*call) for call in calls]
    for step in (1, -1):
        with _reuse():
            got = [_outcome(*call) for call in calls[::step]]
        assert got[::step] == want


def test_a_kept_slot_table_serves_a_larger_n():
    """Tables kept at n = 3 must not cap the factorials a later n = 12 reads."""
    fill = SequenceSpec.uniform(var("x1") + 1)
    for spec in (X, FACTORIALS, fill):
        for name in sorted(_CONSTRUCTORS):
            want = [_CONSTRUCTORS[name](n, 2, 1, spec, B) for n in (3, 12)]
            with _reuse():
                got = [_CONSTRUCTORS[name](n, 2, 1, spec, B) for n in (3, 12)]
            assert got == want, (name, spec)


@pytest.mark.parametrize("name", sorted(_CONSTRUCTORS))
def test_too_short_sequences_fail_alike_in_a_scope(name):
    short = SequenceSpec.explicit([1, 2])
    for a, b in ((short, ONES), (ONES, short), (short, short)):
        want = _outcome(name, 5, 2, 1, a, b)
        with _reuse():
            # the tables are warm with the slots a small call could fill
            _outcome(name, 1, 1, 0, a, b)
            assert _outcome(name, 5, 2, 1, a, b) == want, (a, b)
    assert want[0] is ValueError and "need index" in want[1]


def test_a_scope_keeps_inputs_only(monkeypatch):
    """Each of the three witness streams is read once per scope, and no
    constructor value is kept."""
    calls = Counter()
    for name in ("enumerate_pi", "enumerate_lambda", "_exponent_vectors"):
        original = getattr(bell, name)

        def counted(*args, _name=name, _original=original):
            calls[_name, args] += 1
            return _original(*args)

        monkeypatch.setattr(bell, name, counted)
    with _reuse():
        for _ in range(2):
            incomplete_bell(5, 2, X)
            complete_lah_bell(5, X)
            incomplete_r_lah_bell(5, 2, 1, A, B)
        kept = _MEMO.get()
        assert not any(
            isinstance(value, SparsePolynomial) for value in kept.values()
        ), "a constructor value was kept"
    assert calls == Counter(
        {
            ("enumerate_pi", (5, 2)): 1,
            ("_exponent_vectors", (5,)): 1,
            ("enumerate_lambda", (5, 2, 2)): 1,
        }
    )
    assert _MEMO.get() is None


def test_a_scope_checks_counts_before_reading_a_kept_stream():
    """True hashes like 1, so a kept stream must not stand in for a check."""
    with _reuse():
        incomplete_bell(3, 1, X)
        incomplete_r_bell(3, 1, 1, A, B)
        with pytest.raises(TypeError, match="^k must be an int, got bool"):
            incomplete_bell(3, True, X)
        with pytest.raises(TypeError, match="^k must be an int, got bool"):
            incomplete_r_bell(3, True, 1, A, B)
        with pytest.raises(TypeError, match="^rho must be an int, got bool"):
            incomplete_r_bell(3, 1, True, A, B)

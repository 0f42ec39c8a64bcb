"""Verification harness semantics: registry, bounds, result shape, and that
every identity reports a fault in each route it compares."""

import itertools
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from lahbell import bell, cli, exact_core, partitions, poly, series, verify
from lahbell.bell import ONES, SequenceSpec, incomplete_bell, incomplete_r_lah_bell
from lahbell.exact_core import _MEMO, _reuse
from lahbell.poly import Monomial, SparsePolynomial, const, var
from lahbell.series import TruncatedSeries
from lahbell.verify import SUITE_NAMES, IdentityResult, run_suites


def test_registry_names():
    assert SUITE_NAMES[0] == "all"
    expected = {
        "theorem1", "prop2", "theorem3", "eq23", "eq28", "eq30", "theorem4",
        "theorem5", "corollary6", "theorem7", "eq42", "faadibruno", "series-oracle",
    }
    assert set(SUITE_NAMES[1:]) == expected


def test_all_runs_every_suite():
    results = run_suites("all", 5, 1)
    assert {item.suite for item in results} == set(SUITE_NAMES[1:])
    assert all(item.passed for item in results)
    assert all(item.counterexample is None for item in results)


def test_single_suite_selection():
    results = run_suites("theorem5", 6, 2)
    assert [item.suite for item in results] == ["theorem5"]
    assert results[0].passed
    assert "n<=6" in results[0].bounds


def test_result_is_frozen_record():
    item = IdentityResult("s", "identity", "n<=1", True, None)
    with pytest.raises(AttributeError):
        item.passed = False


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        run_suites("nope", 5, 1)
    with pytest.raises(ValueError):
        run_suites("all", -1, 1)
    with pytest.raises(ValueError):
        run_suites("all", 5, -2)


def test_bounds_must_be_ints():
    # a bool or float bound is refused before any suite runs
    for n_max, r_max in [(True, 0), (0, False), (2.0, 1), (2, 1.0), ("2", 1)]:
        for suite in ("eq28", "theorem1", "all"):
            with pytest.raises(TypeError, match="^(n|r)_max must be an int"):
                run_suites(suite, n_max, r_max)


def test_tiny_bounds_still_run():
    results = run_suites("all", 0, 0)
    assert all(item.passed for item in results)


def _plus_one(value):
    """value off by one: every coefficient of a series or list, else the value."""
    if isinstance(value, TruncatedSeries):
        return TruncatedSeries(value.order, tuple(c + 1 for c in value.coeffs))
    if isinstance(value, list):
        return [c + 1 for c in value]
    return value + 1


def _break(monkeypatch, owner, name, only=None, shift=_plus_one):
    """Replace owner.name by a copy whose result is shifted wherever only(args) holds."""
    original = getattr(owner, name)

    def broken(*args, **kwargs):
        got = original(*args, **kwargs)
        return shift(got) if only is None or only(args) else got

    monkeypatch.setattr(owner, name, broken)


def _row(owner, name, suite, identity, counterexample, only=None, shift=_plus_one):
    return pytest.param(
        owner, name, only, suite, identity, counterexample, shift, id=f"{name}-{identity}"
    )


def _family(family):
    return lambda args: args[0] == family


def _scales_plus_one(analysis):
    """A prepared substitution map's analysis with every rescale off by one."""
    scales, images = analysis
    return {code: scale + 1 for code, scale in scales.items()}, images


def _head_steps(args):
    """An int lattice product from _head_step: the base, shifted, is one entry
    shorter than the head it steps.  Heads over ones are the triangle's alone,
    while the tails it shares with the row totals come from plain products."""
    left, right = args
    return len(left) < len(right)


T1 = "ordered-partition totals: closed form vs factorial Bell sum vs series"
P2_POLY = "ordered-block partial polynomial equals weighted plain one"
P2_TRIANGLE = "witness-sum route matches the closed-form triangle"
T3 = "complete ordered-block polynomial splits into the partial ones"
EQ23 = "partial ordered-block polynomials are homogeneous of degree k"
EQ28 = "all-equal-argument complete polynomial equals the row polynomial"
EQ30 = "ordered-block extended polynomial equals factorially weighted plain one"
T4 = "all-ones complete extended polynomial equals the row polynomial"
T5 = "all-ones partial extended polynomial equals the extended triangle"
C6 = "paired-witness multinomial sum matches the extended triangle"
T7 = "partition-times-composition expansion equals the witness sum at x=1"
EQ42 = "scalar-argument partial sums rebuild the row polynomial"
FDB = "series derivatives at 0 equal the factorial Bell values"
SO_TRIANGLE = "triangle series match the closed forms"
SO_ROWS = "row-total series match the closed forms"
SO_POLY = "scalar-argument series match the row polynomials"
SO_ORDINARY = "generic ordinary series match the witness sums"
SO_COMPLETE = "generic complete series match the witness sums"
SO_EGF = "generic egf series match the fractional witness sums"
SO_COMPLETE_EGF = "complete egf series match the fractional witness sums"


# Two rows per identity (three for theorem1's three routes): each makes one
# compared route off by one at the narrowest name it reads, and the suite
# must report exactly that identity.  A suite that compared a route with
# itself, or skipped its loop, would pass a row and fail this test.  The int
# kernels of constant series (_int_exp, _int_lattice) have rows of their own,
# so the series route is checked where it skips the polynomial convolution.
# The analysis of the prepared weight maps that prop2, eq23 and eq30 apply
# (poly._analyse) has a row in each, which puts every rescale off by one.
FAULT_ROWS = [
    _row(verify, "lah_bell_number", "theorem1", T1, "n=0: 2 vs 1 vs 1"),
    _row(verify, "complete_bell", "theorem1", T1, "n=0: 1 vs 2 vs 1"),
    _row(series, "exp", "theorem1", T1, "n=0: 1 vs 1 vs 2"),
    _row(series, "_int_exp", "theorem1", T1, "n=0: 1 vs 1 vs 2"),
    _row(verify, "incomplete_lah_bell", "prop2", P2_POLY, "n=0 k=0: 2 vs 1"),
    _row(verify, "incomplete_bell", "prop2", P2_POLY, "n=0 k=0: 1 vs 2"),
    _row(verify, "lah_via_pi", "prop2", P2_TRIANGLE, "n=0 k=0: 2 vs 1"),
    _row(verify, "lah", "prop2", P2_TRIANGLE, "n=0 k=0: 1 vs 2"),
    _row(poly, "_analyse", "prop2", P2_POLY, "n=1 k=1: x1 vs 2*x1", shift=_scales_plus_one),
    _row(verify, "complete_lah_bell", "theorem3", T3, "n=1: x1 + 1 vs x1"),
    _row(verify, "incomplete_lah_bell", "theorem3", T3, "n=1: x1 vs x1 + 1"),
    _row(SparsePolynomial, "substitute_all", "eq23", EQ23, "n=0 k=0 alpha=-3: 2 vs 1"),
    _row(
        SparsePolynomial, "__mul__", "eq23", EQ23, "n=0 k=0 alpha=-3: 1 vs 2",
        only=lambda args: isinstance(args[1], int),
    ),
    _row(
        poly, "_analyse", "eq23", EQ23, "n=1 k=1 alpha=-3: -2*x1 vs -3*x1",
        shift=_scales_plus_one,
    ),
    _row(verify, "complete_lah_bell", "eq28", EQ28, "n=0: 2 vs 1"),
    _row(verify, "lah_bell_polynomial", "eq28", EQ28, "n=0: 1 vs 2"),
    _row(verify, "incomplete_r_lah_bell", "eq30", EQ30, "n=0 k=0 r=0: 2 vs 1"),
    _row(verify, "incomplete_r_bell", "eq30", EQ30, "n=0 k=0 r=0: 1 vs 2"),
    _row(poly, "_analyse", "eq30", EQ30, "n=1 k=1 r=0: a1 vs 2*a1", shift=_scales_plus_one),
    _row(verify, "complete_r_lah_bell", "theorem4", T4, "n=0 r=0: 2 vs 1"),
    _row(verify, "lah_bell_polynomial", "theorem4", T4, "n=0 r=0: 1 vs 2"),
    _row(verify, "incomplete_r_lah_bell", "theorem5", T5, "n=0 k=0 r=0: 2 vs 1"),
    _row(verify, "rlah", "theorem5", T5, "n=0 k=0 r=0: 1 vs 2"),
    _row(verify, "rlah_via_lambda", "corollary6", C6, "n=0 k=0 r=0: 2 vs 1"),
    _row(verify, "rlah", "corollary6", C6, "n=0 k=0 r=0: 1 vs 2"),
    _row(verify, "complete_r_lah_bell_expansion", "theorem7", T7, "n=0 r=0: 2 vs 1"),
    _row(verify, "complete_r_lah_bell", "theorem7", T7, "n=0 r=0: 1 vs 2"),
    _row(verify, "incomplete_r_lah_bell", "eq42", EQ42, "n=0 r=0: 2 vs 1"),
    _row(verify, "lah_bell_polynomial", "eq42", EQ42, "n=0 r=0: 1 vs 2"),
    _row(series, "exp", "faadibruno", FDB, "m=1: 2 vs 1"),
    _row(verify, "complete_bell", "faadibruno", FDB, "m=1: 1 vs 2"),
    _row(
        verify, "gf_expand", "series-oracle", SO_TRIANGLE, "n=0 k=0 r=0: 2 vs 1",
        only=_family("r-lah"),
    ),
    _row(verify, "rlah", "series-oracle", SO_TRIANGLE, "n=0 k=0 r=0: 1 vs 2"),
    _row(
        series, "_int_lattice", "series-oracle", SO_TRIANGLE, "n=1 k=1 r=0: 2 vs 1",
        only=_head_steps,
    ),
    _row(
        verify, "gf_expand", "series-oracle", SO_ROWS, "n=0 r=0: 2 vs 1",
        only=_family("r-lah-bell"),
    ),
    _row(verify, "r_lah_bell_number", "series-oracle", SO_ROWS, "n=0 r=0: 1 vs 2"),
    _row(series, "_int_exp", "series-oracle", SO_ROWS, "n=0 r=0: 2 vs 1"),
    _row(
        verify, "gf_expand", "series-oracle", SO_POLY, "n=0 r=0: 2 vs 1",
        only=_family("r-lah-bell-poly"),
    ),
    _row(verify, "lah_bell_polynomial", "series-oracle", SO_POLY, "n=0 r=0: 1 vs 2"),
    _row(
        verify, "gf_expand", "series-oracle", SO_ORDINARY, "n=0 k=0 r=0: 2 vs 1",
        only=_family("incomplete-generic"),
    ),
    _row(verify, "incomplete_r_lah_bell", "series-oracle", SO_ORDINARY, "n=0 k=0 r=0: 1 vs 2"),
    _row(
        verify, "gf_expand", "series-oracle", SO_COMPLETE, "n=0 r=0: 2 vs 1",
        only=_family("complete-generic"),
    ),
    _row(verify, "complete_r_lah_bell", "series-oracle", SO_COMPLETE, "n=0 r=0: 1 vs 2"),
    _row(
        verify, "gf_expand", "series-oracle", SO_EGF, "n=0 k=0 rho=0: 2 vs 1",
        only=_family("incomplete-r-bell"),
    ),
    _row(verify, "incomplete_r_bell", "series-oracle", SO_EGF, "n=0 k=0 rho=0: 1 vs 2"),
    _row(
        verify, "gf_expand", "series-oracle", SO_COMPLETE_EGF, "n=0 rho=0: 2 vs 1",
        only=_family("complete-r-bell"),
    ),
    _row(verify, "complete_r_bell", "series-oracle", SO_COMPLETE_EGF, "n=0 rho=0: 1 vs 2"),
]


@pytest.mark.parametrize("owner,name,only,suite,identity,counterexample,shift", FAULT_ROWS)
def test_series_oracle_reports_the_broken_route(
    monkeypatch, owner, name, only, suite, identity, counterexample, shift
):
    _break(monkeypatch, owner, name, only, shift)
    results = run_suites(suite, 3, 1)
    failed = [(item.identity, item.counterexample) for item in results if not item.passed]
    assert failed == [(identity, counterexample)]


# A counterexample cuts a polynomial's text at 60 characters, from 20
# characters before the first difference when the two sides agree past the
# cut, and shows an int in full.  Each row breaks one route as a fault row
# does, by the given shift.
SHOWN_ROWS = [
    pytest.param(
        verify, "complete_r_lah_bell", lambda args: args[:2] == (3, 1), _plus_one,
        "theorem7", T7,
        "n=3 r=1: ... 12*y1*y4 + 12*y2*y3 vs ... 12*y1*y4 + 12*y2*y3 + 1",
        id="polynomial-cut-at-60",
    ),
    pytest.param(
        verify, "rlah", None, lambda value: value + 10**70, "theorem5", T5,
        "n=0 k=0 r=0: 1 vs 1" + "0" * 69 + "1",
        id="int-in-full",
    ),
]


@pytest.mark.parametrize("owner,name,only,shift,suite,identity,counterexample", SHOWN_ROWS)
def test_counterexample_text(monkeypatch, owner, name, only, shift, suite, identity, counterexample):
    _break(monkeypatch, owner, name, only, shift)
    failed = [(item.identity, item.counterexample) for item in run_suites(suite, 3, 1)]
    assert failed == [(identity, counterexample)]


def test_shown_cuts_both_sides_from_the_same_start():
    xs = sum((var(f"x{i}") for i in range(1, 30)), const(0))
    ys = sum((var(f"y{i}") for i in range(1, 30)), const(0))
    text = xs.to_text()
    # the sides first differ at the end, past the cut
    assert verify._shown(xs, xs + 1) == ("..." + text[-20:], "..." + text[-20:] + " + 1")
    # they differ before the cut: both cut at 57 characters from the start
    fewer = (xs - var("x1")).to_text()
    assert verify._shown(xs, xs - var("x1")) == (text[:57] + "...", fewer[:57] + "...")
    # both sides run on past 60 characters from their common start
    more, less = (xs + ys).to_text(), (xs + ys - var("x29")).to_text()
    start = more.index("x29") - 20
    assert verify._shown(xs + ys, xs + ys - var("x29")) == (
        "..." + more[start : start + 54] + "...",
        "..." + less[start : start + 54] + "...",
    )
    # an int stays in full
    assert verify._shown(3, xs) == ("3", text[:57] + "...")


def test_a_label_is_formatted_only_for_a_counterexample():
    """_compare formats a point's label from the grid's template only for a
    counterexample: a template that raises when formatted passes unread
    while the sides agree, with two sides or with three."""
    unformattable = "n={} k={}"  # two fields, one value: format raises IndexError
    two = (lambda n: const(n), lambda n: n + (n == 3))
    three = (lambda n: const(n), lambda n: n + (n == 3), lambda n: var("x1") if n == 3 else n)
    for sides in (two, three):
        grid = (unformattable, "n<=2", [(1,), (2,)])
        assert verify._compare("s", "i", grid, *sides) == IdentityResult("s", "i", "n<=2", True)
        with pytest.raises(IndexError):
            verify._compare("s", "i", (unformattable, "n<=3", [(1,), (2,), (3,)]), *sides)
    grid = ("n={}", "n<=3", [(2,), (3,)])
    assert verify._compare("s", "i", grid, *two).counterexample == "n=3: 3 vs 4"
    assert verify._compare("s", "i", grid, *three).counterexample == "n=3: 3 vs 4 vs x1"
    # a later side that differs from the first fails the point on its own
    last = (lambda n: n, lambda n: n, lambda n: n + (n == 3))
    assert verify._compare("s", "i", grid, *last).counterexample == "n=3: 3 vs 3 vs 4"


def test_a_verify_run_makes_no_sequence_spec(monkeypatch):
    """Every suite passes the module's one spec per family, so the scope's
    tables are found by identity and no equal spec is built per case."""
    made = Counter()
    init = SequenceSpec.__init__

    def counted(self, kind, *args, **kwargs):
        made[kind] += 1
        init(self, kind, *args, **kwargs)

    monkeypatch.setattr(SequenceSpec, "__init__", counted)
    assert all(item.passed for item in run_suites("all", 3, 1))
    assert made == Counter()


def test_a_suite_stops_at_its_first_counterexample(monkeypatch):
    """Nothing after the first counterexample is computed: with the closed form
    off at n=0, theorem5 builds its first witness sum and no other."""
    calls = Counter()
    witness_sum = verify.incomplete_r_lah_bell

    def counted(*args):
        calls[args] += 1
        return witness_sum(*args)

    _break(monkeypatch, verify, "rlah")
    monkeypatch.setattr(verify, "incomplete_r_lah_bell", counted)
    [result] = run_suites("theorem5", 3, 1)
    assert not result.passed
    assert list(calls.elements()) == [(0, 0, 0, ONES, ONES)]


def test_series_oracle_builds_each_head_and_tail_once(monkeypatch):
    """Series work of one oracle run as counts, so a change that drops the
    reuse of heads and tails fails here and not only in benchmark timings."""
    counts = Counter()
    product, exponential = TruncatedSeries.__mul__, series.exp

    def counted_product(self, other):
        counts["products"] += 1
        return product(self, other)

    def counted_exp(s):
        counts["exp"] += 1
        return exponential(s)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted_product)
    monkeypatch.setattr(series, "exp", counted_exp)
    assert all(item.passed for item in run_suites("series-oracle", 12, 2))
    # 114 head-times-tail products at grid points with a nonzero tail exponent,
    # and 7 to build the tails
    assert counts["products"] <= 130
    # r-lah-bell, r-lah-bell-poly, complete-generic and complete-r-bell
    assert counts["exp"] == 4


def test_a_verify_run_builds_no_monomial(monkeypatch):
    """Terms are keyed by pair tuples, so the arithmetic of a whole run, and
    rendering its polynomials, never wraps one in a Monomial."""
    counts = Counter()
    raw, init = vars(Monomial)["_raw"].__func__, Monomial.__init__

    def counted_raw(cls, pairs):
        counts["_raw"] += 1
        return raw(cls, pairs)

    def counted_init(self, *args):
        counts["__init__"] += 1
        init(self, *args)

    monkeypatch.setattr(Monomial, "_raw", classmethod(counted_raw))
    monkeypatch.setattr(Monomial, "__init__", counted_init)
    assert all(item.passed for item in run_suites("all", 8, 2))
    p = incomplete_r_lah_bell(5, 2, 1, SequenceSpec.symbolic("a"), SequenceSpec.symbolic("b"))
    assert p.to_text().startswith("120*a1^2*b1*b4 + 120*a1^2*b2*b3 + ")
    assert p.to_json_obj()["terms"][0]["monomial"] == {"a1": 2, "b1": 1, "b4": 1}
    assert counts == Counter()
    # the public views still hand out Monomials
    assert [str(mono) for mono, _ in const(3).terms()] == ["1"]
    assert counts == Counter({"_raw": 1})


def _entered(side, points):
    """The code objects of lahbell, outside verify, that side(*point) enters
    over points, traced on its own in a fresh reuse scope and with the
    one-entry caches its closure reads emptied first."""
    package, own = str(Path(verify.__file__).parent), verify.__file__
    for cell in side.__closure__ or ():
        getattr(cell.cell_contents, "cache_clear", lambda: None)()
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package) and code.co_filename != own:
            entered.add(code)

    with _reuse():
        sys.setprofile(profile)
        try:
            for point in points:
                side(*point)
        finally:
            sys.setprofile(None)
    return entered


def test_the_two_sides_of_an_identity_never_enter_the_same_functions(monkeypatch):
    """A route guard: every identity of a run is one _compare call, and each
    pair of its sides, traced apart, enters different sets of library
    functions, so no identity compares a computation with itself."""
    identities = [(item.suite, item.identity) for item in run_suites("all", 0, 0)]
    declared = []
    compare = verify._compare

    def captured(suite, identity, grid, *sides):
        template, bounds, points = grid
        points = list(points)
        declared.append((suite, identity, points, sides))
        return compare(suite, identity, (template, bounds, points), *sides)

    monkeypatch.setattr(verify, "_compare", captured)
    assert all(item.passed for item in run_suites("all", 4, 1))
    assert [(suite, identity) for suite, identity, *_ in declared] == identities
    assert len(identities) == 20
    for suite, identity, points, sides in declared:
        assert points, identity
        entered = [_entered(side, points) for side in sides]
        for (i, one), (j, other) in itertools.combinations(enumerate(entered), 2):
            assert one != other, (identity, i, j)


def test_each_shared_value_is_built_once(monkeypatch):
    """theorem1's series, each series-oracle expansion and each eq23 base
    polynomial come from a one-entry cache, and their grids vary the
    parameters they depend on slowest, so each is built once.  Dropping a
    cache, or a grid where n no longer varies fastest, fails here."""
    expansions, bases = Counter(), Counter()
    expand, base = verify.gf_expand, verify.incomplete_lah_bell

    def counted_expand(family, *args, **kwargs):
        expansions[family] += 1
        return expand(family, *args, **kwargs)

    def counted_base(n, k, xs):
        bases[n, k] += 1
        return base(n, k, xs)

    monkeypatch.setattr(verify, "gf_expand", counted_expand)
    monkeypatch.setattr(verify, "incomplete_lah_bell", counted_base)
    assert all(item.passed for item in run_suites("theorem1", 6, 1))
    assert expansions == Counter({"lah-bell": 1})
    expansions.clear()
    assert all(item.passed for item in run_suites("series-oracle", 6, 1))
    assert expansions == Counter({
        "r-lah": 14, "r-lah-bell": 2, "r-lah-bell-poly": 2, "incomplete-generic": 14,
        "complete-generic": 2, "incomplete-r-bell": 21, "complete-r-bell": 3,
    })
    assert all(item.passed for item in run_suites("eq23", 6, 1))
    assert len(bases) == 28 and set(bases.values()) == {1}


def test_a_suite_run_alone_gives_what_the_whole_run_gives_for_it():
    """Inputs that a run keeps and shares across its suites change no verdict."""
    together = run_suites("all", 6, 2)
    for suite in SUITE_NAMES[1:]:
        assert run_suites(suite, 6, 2) == [item for item in together if item.suite == suite]


def test_every_identity_has_two_fault_rows():
    rows = Counter(row.values[4] for row in FAULT_ROWS)
    assert set(rows) == {item.identity for item in run_suites("all", 0, 0)}
    assert min(rows.values()) >= 2


def test_a_verify_run_enumerates_each_witness_stream_once(monkeypatch):
    """The witness sums in bell and the routes of prop2 and corollary6 in
    partitions each look the enumerator up by name, and all of them read
    one kept stream per (enumerator, args) within a run."""
    calls = Counter()
    for name in ("enumerate_lambda", "enumerate_pi"):
        original = getattr(partitions, name)

        def counted(*args, _name=name, _original=original):
            calls[_name, args] += 1
            return _original(*args)

        monkeypatch.setattr(bell, name, counted)
        monkeypatch.setattr(partitions, name, counted)
    assert all(item.passed for item in run_suites("all", 8, 2))
    assert {name for name, _ in calls} == {"enumerate_lambda", "enumerate_pi"}
    assert set(calls.values()) == {1}
    # the two routes alone read every stream of their grids, once each
    for suite, name, grid in (
        ("prop2", "enumerate_pi", {(n, k) for n in range(9) for k in range(n + 1)}),
        (
            "corollary6", "enumerate_lambda",
            {(n, k, 2 * r) for n in range(9) for k in range(n + 1) for r in range(3)},
        ),
    ):
        calls.clear()
        assert all(item.passed for item in run_suites(suite, 8, 2))
        assert {args for called, args in calls if called == name} == grid
        assert set(calls.values()) == {1}
    # outside a scope each constructor call enumerates afresh
    calls.clear()
    a, b = SequenceSpec.symbolic("a"), SequenceSpec.symbolic("b")
    for _ in range(2):
        incomplete_bell(6, 3, a)
        incomplete_r_lah_bell(6, 3, 1, a, b)
    assert calls == Counter({("enumerate_pi", (6, 3)): 2, ("enumerate_lambda", (6, 3, 2)): 2})


def test_a_verify_run_works_out_each_side_once(monkeypatch):
    """Each (slot table, part) side is worked out once per run, and no
    witness sum of a run merges pairs: its specs are distinct families."""
    sides, merges = Counter(), Counter()
    side, merge = bell._Factors.side, bell._merge

    def counted_side(self, part):
        sides[self._spec, self._shift, self._block_weights, part] += 1
        return side(self, part)

    def counted_merge(p, q):
        merges[p, q] += 1
        return merge(p, q)

    monkeypatch.setattr(bell._Factors, "side", counted_side)
    monkeypatch.setattr(bell, "_merge", counted_merge)
    assert all(item.passed for item in run_suites("all", 8, 2))
    assert sides and set(sides.values()) == {1}
    assert merges == Counter()
    # outside a scope each constructor call works out its sides afresh
    sides.clear()
    a, b = SequenceSpec.symbolic("a"), SequenceSpec.symbolic("b")
    for _ in range(2):
        incomplete_bell(6, 3, a)
        incomplete_r_lah_bell(6, 3, 1, a, b)
    assert sides and set(sides.values()) == {2}


README = Path(__file__).resolve().parents[1] / "README.md"


def _documented_kinds():
    """The key kinds that open the bullets of README's list of what a run keeps."""
    text = README.read_text()
    start = text.index("Within one `verify` run")
    kinds = set()
    for line in text[start : text.index("\n\n", start)].splitlines():
        if line.startswith("- "):
            kinds.update(re.findall(r"`([^`]+)`", line.partition(":")[0]))
    return kinds


def test_the_reuse_scope_spans_a_run_and_closes_after_it(monkeypatch):
    seen = []
    oracle = verify._SUITES["series-oracle"]

    def inspect(n_max, r_max):
        results = oracle(n_max, r_max)
        seen.append(dict(_MEMO.get()))
        return results

    assert _MEMO.get() is None
    monkeypatch.setitem(verify._SUITES, "series-oracle", inspect)
    assert all(item.passed for item in run_suites("all", 3, 1))
    assert _MEMO.get() is None
    # the last suite still sees what the earlier ones kept, and every kind
    # of kept table is one that README's list names
    [kept] = seen
    assert all(isinstance(key, tuple) for key in kept), "a bare key was kept"
    kinds = {key[0] for key in kept}
    assert kinds == _documented_kinds()
    assert kinds == {"witnesses", "r-parts", "slots", "head", "exp", "tail"}

    def fail(n_max, r_max):
        raise RuntimeError("raised inside a suite")

    monkeypatch.setitem(verify._SUITES, "eq30", fail)
    with pytest.raises(RuntimeError, match="raised inside a suite"):
        run_suites("all", 3, 1)
    assert _MEMO.get() is None


def test_a_run_keeps_its_inputs_in_the_scope_its_caller_opened(capsys):
    with _reuse():
        run_suites("theorem5", 3, 1)
        assert any(key[0] == "witnesses" for key in _MEMO.get() if isinstance(key, tuple))
    assert _MEMO.get() is None
    # the verify command opens the scope around its run and closes it
    assert cli.main(["verify", "--suite", "theorem5", "--n-max", "3"]) == 0
    assert "1 of 1 identities passed" in capsys.readouterr().out
    assert _MEMO.get() is None


def test_a_wrong_r_part_weight_fails_corollary6_alone(monkeypatch):
    """The r-part weights (2r)!/prod(r_i!) belong to corollary6's witness
    route only: one made wrong fails that identity and no other.  The weight
    broken is that of the r-part r_0 = r_1 = 1 at r = 1, over 2!; no k-part
    multinomial meets that pair, since a k-part (1, 1) has n = 3 over 3!."""
    _break(monkeypatch, partitions, "_multinomial", only=lambda args: args[:2] == (2, (1, 1)))
    failed = [
        (item.identity, item.counterexample) for item in run_suites("all", 3, 1) if not item.passed
    ]
    assert failed == [(C6, "n=1 k=0 r=1: 3 vs 2")]


def test_a_wrong_row_total_fails_theorem1_and_the_series_row_totals(monkeypatch):
    """lah_bell_number and r_lah_bell_number return the last value of
    exact_core._row_totals, the route that `table` and `value` print, so
    that recurrence off by one at n = 9 fails the two identities that read
    a row total, and no other."""
    row_totals = exact_core._row_totals

    def off_at_nine(n_max, r):
        for n, total in enumerate(row_totals(n_max, r)):
            yield total + (n == 9)

    monkeypatch.setattr(exact_core, "_row_totals", off_at_nine)
    failed = [
        (item.identity, item.counterexample) for item in run_suites("all", 12, 2) if not item.passed
    ]
    assert failed == [
        (T1, "n=9: 4596554 vs 4596553 vs 4596553"),
        (SO_ROWS, "n=9 r=0: 4596553 vs 4596554"),
    ]


def test_a_fault_in_the_shared_r_part_lists_is_reported(monkeypatch):
    """Every paired stream of a run reads one r-part list per (rho, weight),
    so a list cut short must be caught by the closed forms and the series,
    not hidden by a route compared with itself."""
    r_parts = partitions._r_parts

    def cut_short(rho, weight):
        parts = r_parts(rho, weight)
        return parts[:-1] if len(parts) > 1 else parts

    monkeypatch.setattr(partitions, "_r_parts", cut_short)
    failed = {item.suite for item in run_suites("all", 6, 2) if not item.passed}
    assert {"corollary6", "theorem5"} <= failed

"""Verification harness semantics: registry, bounds, result shape, and that
every identity reports a fault in each route it compares."""

from collections import Counter

import pytest

from lahbell import bell, cli, series, verify
from lahbell.bell import ONES, SequenceSpec, incomplete_bell, incomplete_r_lah_bell
from lahbell.exact_core import _MEMO, _reuse
from lahbell.poly import SparsePolynomial, const, var
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


def _row(owner, name, suite, identity, counterexample, only=None):
    return pytest.param(
        owner, name, only, suite, identity, counterexample, id=f"{name}-{identity}"
    )


def _family(family):
    return lambda args: args[0] == family


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
# itself, or skipped its loop, would pass a row and fail this test.
FAULT_ROWS = [
    _row(verify, "lah_bell_number", "theorem1", T1, "n=0: closed=2 bell=1 series=1"),
    _row(verify, "complete_bell", "theorem1", T1, "n=0: closed=1 bell=2 series=1"),
    _row(series, "exp", "theorem1", T1, "n=0: closed=1 bell=1 series=2"),
    _row(verify, "incomplete_lah_bell", "prop2", P2_POLY, "n=0 k=0: 2 vs 1"),
    _row(verify, "incomplete_bell", "prop2", P2_POLY, "n=0 k=0: 1 vs 2"),
    _row(verify, "lah_via_pi", "prop2", P2_TRIANGLE, "n=0 k=0: 2 vs 1"),
    _row(verify, "lah", "prop2", P2_TRIANGLE, "n=0 k=0: 1 vs 2"),
    _row(verify, "complete_lah_bell", "theorem3", T3, "n=1: x1 + 1 vs x1"),
    _row(verify, "incomplete_lah_bell", "theorem3", T3, "n=1: x1 vs x1 + 1"),
    _row(SparsePolynomial, "substitute_all", "eq23", EQ23, "n=0 k=0 alpha=-3: 2 vs 1"),
    _row(
        SparsePolynomial, "__mul__", "eq23", EQ23, "n=0 k=0 alpha=-3: 1 vs 2",
        only=lambda args: isinstance(args[1], int),
    ),
    _row(verify, "complete_lah_bell", "eq28", EQ28, "n=0: 2 vs 1"),
    _row(verify, "lah_bell_polynomial", "eq28", EQ28, "n=0: 1 vs 2"),
    _row(verify, "incomplete_r_lah_bell", "eq30", EQ30, "n=0 k=0 r=0: 2 vs 1"),
    _row(verify, "incomplete_r_bell", "eq30", EQ30, "n=0 k=0 r=0: 1 vs 2"),
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
    _row(series, "exp", "faadibruno", FDB, "m=1: series=2 partitions=1"),
    _row(series, "complete_bell", "faadibruno", FDB, "m=1: series=1 partitions=2"),
    _row(
        verify, "gf_expand", "series-oracle", SO_TRIANGLE, "n=0 k=0 r=0: 2 vs 1",
        only=_family("r-lah"),
    ),
    _row(verify, "rlah", "series-oracle", SO_TRIANGLE, "n=0 k=0 r=0: 1 vs 2"),
    _row(
        verify, "gf_expand", "series-oracle", SO_ROWS, "n=0 r=0: 2 vs 1",
        only=_family("r-lah-bell"),
    ),
    _row(verify, "r_lah_bell_number", "series-oracle", SO_ROWS, "n=0 r=0: 1 vs 2"),
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


@pytest.mark.parametrize("owner,name,only,suite,identity,counterexample", FAULT_ROWS)
def test_series_oracle_reports_the_broken_route(
    monkeypatch, owner, name, only, suite, identity, counterexample
):
    _break(monkeypatch, owner, name, only)
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


def test_every_identity_has_two_fault_rows():
    rows = Counter(row.values[4] for row in FAULT_ROWS)
    assert set(rows) == {item.identity for item in run_suites("all", 0, 0)}
    assert min(rows.values()) >= 2


def test_a_verify_run_enumerates_each_witness_stream_once(monkeypatch):
    calls = Counter()
    for name in ("enumerate_lambda", "enumerate_pi"):
        original = getattr(bell, name)

        def counted(*args, _name=name, _original=original):
            calls[_name, args] += 1
            return _original(*args)

        monkeypatch.setattr(bell, name, counted)
    assert all(item.passed for item in run_suites("all", 8, 2))
    assert {name for name, _ in calls} == {"enumerate_lambda", "enumerate_pi"}
    assert set(calls.values()) == {1}
    # outside a scope each constructor call enumerates afresh
    calls.clear()
    a, b = SequenceSpec.symbolic("a"), SequenceSpec.symbolic("b")
    for _ in range(2):
        incomplete_bell(6, 3, a)
        incomplete_r_lah_bell(6, 3, 1, a, b)
    assert calls == Counter({("enumerate_pi", (6, 3)): 2, ("enumerate_lambda", (6, 3, 2)): 2})


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
    # the last suite still sees what the earlier ones kept
    [kept] = seen
    assert {key[0] for key in kept if isinstance(key, tuple)} >= {
        "witnesses", "slots", "head", "tail"
    }

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

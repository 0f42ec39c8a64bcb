"""Verification harness semantics: registry, bounds, result shape."""

import pytest

from lahbell import verify
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


def test_tiny_bounds_still_run():
    results = run_suites("all", 0, 0)
    assert all(item.passed for item in results)


@pytest.mark.parametrize(
    "name,identity,counterexample",
    [
        ("rlah", "triangle series match the closed forms", "n=0 k=0 r=0: 1 vs 2"),
        (
            "incomplete_r_bell",
            "generic egf series match the fractional witness sums",
            "n=0 k=0 rho=0: 1 vs 2",
        ),
    ],
)
def test_series_oracle_reports_the_broken_route(monkeypatch, name, identity, counterexample):
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: original(*args) + 1)
    results = run_suites("series-oracle", 3, 1)
    assert len(results) == 7
    failed = [item for item in results if not item.passed]
    assert [(item.identity, item.counterexample) for item in failed] == [(identity, counterexample)]

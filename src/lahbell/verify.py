"""Named identity suites checked at runtime by the command-line verifier.

Every suite re-derives a family of values along two or three independent
routes (closed form, witness-sum, generating series) and reports exact
equality.  Suites are keyed by short stable labels; each returns one result
per identity.

There is one verdict path.  A suite lays out each identity's comparisons as
a lazy stream of cases (where, got, want); _mismatches turns the cases whose
sides differ into counterexample text "where: got vs want", and _verdict
reports the first of them, or a pass when there is none.  The stream is
consumed only up to that first counterexample, so nothing after it is
computed.  theorem1's three-way check and faadibruno's report write their
counterexample text themselves and feed _verdict the same way.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .bell import (
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
)
from .exact_core import (
    _MEMO, _check_nonnegative_int, _reuse, factorial, lah, lah_bell_number, r_lah_bell_number,
    rlah,
)
from .partitions import lah_via_pi, rlah_via_lambda
from .poly import SCALAR_X, SparsePolynomial, Variable, const, var
from .series import GF_FAMILIES, faa_di_bruno_check, gf_expand

__all__ = ["IdentityResult", "SUITE_NAMES", "run_suites"]


@dataclass(frozen=True)
class IdentityResult:
    """One identity's verdict; the fields, in this order, are its JSON keys."""

    suite: str
    identity: str
    bounds: str
    passed: bool
    counterexample: str | None = None


def _shown(got: SparsePolynomial | int, want: SparsePolynomial | int) -> tuple[str, ...]:
    """Both sides as text: ints in full, polynomials cut at 60 characters, and
    from 20 characters before their first difference if they agree at the cut."""
    texts = [v if isinstance(v, int) else v.to_text() for v in (got, want)]
    same = len(os.path.commonprefix(texts)) if all(isinstance(t, str) for t in texts) else 0
    start = same - 20 if same >= 57 and max(map(len, texts)) > 60 else 0
    return tuple(str(t) if isinstance(t, int) else _cut(t, start) for t in texts)


def _cut(text: str, start: int) -> str:
    """text from start, behind "..." unless start is 0, in at most 60 characters."""
    text = "..." + text[start:] if start else text
    return text if len(text) <= 60 else text[:57] + "..."


def _mismatches(cases: Iterable[tuple[str, object, object]]) -> Iterator[str]:
    """'where: got vs want' for each (where, got, want) case whose sides differ."""
    for where, got, want in cases:
        if got != want:
            yield f"{where}: " + " vs ".join(_shown(got, want))


def _verdict(suite: str, identity: str, bounds: str, failures: Iterable[str]) -> IdentityResult:
    """Failed with the first counterexample in failures, or passed if there is none."""
    first = next(iter(failures), None)
    return IdentityResult(suite, identity, bounds, first is None, first)


def _sym(family: str) -> SequenceSpec:
    return SequenceSpec.symbolic(family)


def _rows(n_max: int, r_max: int) -> Iterator[tuple[int, int]]:
    """(n, r) for n <= n_max and r <= r_max, r varying slowest."""
    return ((n, r) for r in range(r_max + 1) for n in range(n_max + 1))


def _triangles(n_max: int, r_max: int) -> Iterator[tuple[int, int, int]]:
    """(n, k, r) for k <= n <= n_max and r <= r_max, r varying slowest."""
    return ((n, k, r) for n, r in _rows(n_max, r_max) for k in range(n + 1))


def _check_theorem1(n_max: int, r_max: int) -> list[IdentityResult]:
    identity = "ordered-partition totals: closed form vs factorial Bell sum vs series"
    expanded = gf_expand("lah-bell", n_max)
    routes = ((n, lah_bell_number(n), complete_bell(n, FACTORIALS)) for n in range(n_max + 1))
    failures = (
        "n={}: closed={} bell={} series={}".format(n, closed, *_shown(bell, expanded[n]))
        for n, closed, bell in routes
        if bell != const(closed) or expanded[n] != const(closed)
    )
    return [_verdict("theorem1", identity, f"n<={n_max}", failures)]


def _check_prop2(n_max: int, r_max: int) -> list[IdentityResult]:
    bounds = f"n<={n_max}, k<=n"
    weighted = (
        (
            f"n={n} k={k}",
            incomplete_lah_bell(n, k, _sym("x")),
            incomplete_bell(n, k, _sym("x")).substitute_all(
                {Variable("x", i): factorial(i) * var(Variable("x", i)) for i in range(1, n + 2)}
            ),
        )
        for n, k, _ in _triangles(n_max, 0)
    )
    triangle = ((f"n={n} k={k}", lah_via_pi(n, k), lah(n, k)) for n, k, _ in _triangles(n_max, 0))
    return [
        _verdict(
            "prop2", "ordered-block partial polynomial equals weighted plain one", bounds,
            _mismatches(weighted),
        ),
        _verdict(
            "prop2", "witness-sum route matches the closed-form triangle", bounds,
            _mismatches(triangle),
        ),
    ]


def _check_theorem3(n_max: int, r_max: int) -> list[IdentityResult]:
    identity = "complete ordered-block polynomial splits into the partial ones"
    cases = (
        (
            f"n={n}",
            complete_lah_bell(n, _sym("x")),
            sum((incomplete_lah_bell(n, k, _sym("x")) for k in range(1, n + 1)), const(0)),
        )
        for n in range(1, n_max + 1)
    )
    return [_verdict("theorem3", identity, f"1<=n<={n_max}", _mismatches(cases))]


def _check_eq23(n_max: int, r_max: int) -> list[IdentityResult]:
    identity = "partial ordered-block polynomials are homogeneous of degree k"
    cases = (
        (
            f"n={n} k={k} alpha={alpha}",
            base.substitute_all(
                {Variable("x", i): alpha * var(Variable("x", i)) for i in range(1, n - k + 2)}
            ),
            base * alpha**k,
        )
        for n, k, _ in _triangles(n_max, 0)
        for base in [incomplete_lah_bell(n, k, _sym("x"))]
        for alpha in range(-3, 4)
    )
    bounds = f"n<={n_max}, k<=n, alpha in -3..3"
    return [_verdict("eq23", identity, bounds, _mismatches(cases))]


def _check_eq28(n_max: int, r_max: int) -> list[IdentityResult]:
    identity = "all-equal-argument complete polynomial equals the row polynomial"
    x = var(SCALAR_X)
    cases = (
        (f"n={n}", complete_lah_bell(n, SequenceSpec.uniform(x)), lah_bell_polynomial(n, 0, x))
        for n in range(n_max + 1)
    )
    return [_verdict("eq28", identity, f"n<={n_max}", _mismatches(cases))]


def _check_eq30(n_max: int, r_max: int) -> list[IdentityResult]:
    identity = "ordered-block extended polynomial equals factorially weighted plain one"
    cases = (
        (
            f"n={n} k={k} r={r}",
            incomplete_r_lah_bell(n, k, r, _sym("a"), _sym("b")),
            incomplete_r_bell(n, k, 2 * r, _sym("a"), _sym("b")).substitute_all(weights),
        )
        for n, r in _rows(n_max, r_max)
        # one weight map per row, shared by the row's k
        for weights in [
            {Variable("a", i): factorial(i) * var(Variable("a", i)) for i in range(1, n + 1)}
            | {Variable("b", j): factorial(j - 1) * var(Variable("b", j)) for j in range(1, n + 2)}
        ]
        for k in range(n + 1)
    )
    return [_verdict("eq30", identity, f"n<={n_max}, k<=n, r<={r_max}", _mismatches(cases))]


def _check_theorem4(n_max: int, r_max: int) -> list[IdentityResult]:
    identity = "all-ones complete extended polynomial equals the row polynomial"
    x = var(SCALAR_X)
    cases = (
        (f"n={n} r={r}", complete_r_lah_bell(n, r, x, ONES, ONES), lah_bell_polynomial(n, r, x))
        for n, r in _rows(n_max, r_max)
    )
    return [_verdict("theorem4", identity, f"n<={n_max}, r<={r_max}", _mismatches(cases))]


def _check_theorem5(n_max: int, r_max: int) -> list[IdentityResult]:
    identity = "all-ones partial extended polynomial equals the extended triangle"
    cases = (
        (f"n={n} k={k} r={r}", incomplete_r_lah_bell(n, k, r, ONES, ONES), rlah(n, k, r))
        for n, k, r in _triangles(n_max, r_max)
    )
    return [_verdict("theorem5", identity, f"n<={n_max}, k<=n, r<={r_max}", _mismatches(cases))]


def _check_corollary6(n_max: int, r_max: int) -> list[IdentityResult]:
    identity = "paired-witness multinomial sum matches the extended triangle"
    cases = (
        (f"n={n} k={k} r={r}", rlah_via_lambda(n, k, r), rlah(n, k, r))
        for n, k, r in _triangles(n_max, r_max)
    )
    bounds = f"n<={n_max}, k<=n, r<={r_max}"
    return [_verdict("corollary6", identity, bounds, _mismatches(cases))]


def _check_theorem7(n_max: int, r_max: int) -> list[IdentityResult]:
    identity = "partition-times-composition expansion equals the witness sum at x=1"
    cases = (
        (
            f"n={n} r={r}",
            complete_r_lah_bell_expansion(n, r, _sym("x"), _sym("y")),
            complete_r_lah_bell(n, r, 1, _sym("x"), _sym("y")),
        )
        for n, r in _rows(n_max, r_max)
    )
    return [_verdict("theorem7", identity, f"n<={n_max}, r<={r_max}", _mismatches(cases))]


def _check_eq42(n_max: int, r_max: int) -> list[IdentityResult]:
    identity = "scalar-argument partial sums rebuild the row polynomial"
    x = var(SCALAR_X)
    xs = SequenceSpec.uniform(x)
    cases = (
        (
            f"n={n} r={r}",
            sum((incomplete_r_lah_bell(n, k, r, xs, ONES) for k in range(n + 1)), const(0)),
            lah_bell_polynomial(n, r, x),
        )
        for n, r in _rows(n_max, r_max)
    )
    return [_verdict("eq42", identity, f"n<={n_max}, r<={r_max}", _mismatches(cases))]


def _check_faadibruno(n_max: int, r_max: int) -> list[IdentityResult]:
    identity = "series derivatives at 0 equal the factorial Bell values"
    top = max(n_max, 1)
    reports = (faa_di_bruno_check(m) for m in range(1, top + 1))
    failures = (
        f"m={report.m}: series={report.series_value} partitions={report.partition_value}"
        for report in reports
        if not report.passed
    )
    return [_verdict("faadibruno", identity, f"1<=m<={top}", failures)]


def _check_series_oracle(n_max: int, r_max: int) -> list[IdentityResult]:
    suite = "series-oracle"
    bounds = f"n<={n_max}, k<=n, r<={r_max}"
    x = var(SCALAR_X)
    a, b = _sym("a"), _sym("b")
    sweeps = {"k": range(n_max + 1), "r": range(r_max + 1), "rho": range(2 * r_max + 1)}
    fixed = {"x": x, "a": a, "b": b}

    def compare(identity: str, family: str, want) -> IdentityResult:
        """gf_expand(family) at each parameter point against want(n, *point) for n <= n_max."""
        # The family's integer parameters are swept in GF_FAMILIES order, so k,
        # declared first, varies slowest; x, a and b are the same at every point.
        swept = [name for name in GF_FAMILIES[family] if name in sweeps]
        given = {name: fixed[name] for name in GF_FAMILIES[family] if name in fixed}
        cases = (
            (
                " ".join(f"{name}={value}" for name, value in [("n", n), *zip(swept, values)]),
                got[n],
                want(n, *values),
            )
            for values in itertools.product(*(sweeps[name] for name in swept))
            for got in [gf_expand(family, n_max, **dict(zip(swept, values)), **given)]
            for n in range(n_max + 1)
        )
        return _verdict(suite, identity, bounds, _mismatches(cases))

    # The families share heads A^k/k! and exp(x A) and tails B^m across the
    # grid; inside the run's reuse scope gf_expand builds each of them once.
    # The scope keeps inputs only, never a compared value.
    return [
        compare(
            "triangle series match the closed forms",
            "r-lah",
            lambda n, k, r: const(rlah(n, k, r)),
        ),
        compare(
            "row-total series match the closed forms",
            "r-lah-bell",
            lambda n, r: const(r_lah_bell_number(n, r)),
        ),
        compare(
            "scalar-argument series match the row polynomials",
            "r-lah-bell-poly",
            lambda n, r: lah_bell_polynomial(n, r, x),
        ),
        compare(
            "generic ordinary series match the witness sums",
            "incomplete-generic",
            lambda n, k, r: incomplete_r_lah_bell(n, k, r, a, b),
        ),
        compare(
            "generic complete series match the witness sums",
            "complete-generic",
            lambda n, r: complete_r_lah_bell(n, r, x, a, b),
        ),
        compare(
            "generic egf series match the fractional witness sums",
            "incomplete-r-bell",
            lambda n, k, rho: incomplete_r_bell(n, k, rho, a, b),
        ),
        compare(
            "complete egf series match the fractional witness sums",
            "complete-r-bell",
            lambda n, rho: complete_r_bell(n, rho, a, b),
        ),
    ]


_SUITES: dict[str, Callable[[int, int], list[IdentityResult]]] = {
    "theorem1": _check_theorem1,
    "prop2": _check_prop2,
    "theorem3": _check_theorem3,
    "eq23": _check_eq23,
    "eq28": _check_eq28,
    "eq30": _check_eq30,
    "theorem4": _check_theorem4,
    "theorem5": _check_theorem5,
    "corollary6": _check_corollary6,
    "theorem7": _check_theorem7,
    "eq42": _check_eq42,
    "faadibruno": _check_faadibruno,
    "series-oracle": _check_series_oracle,
}

SUITE_NAMES = ("all",) + tuple(_SUITES)


def run_suites(suite: str, n_max: int, r_max: int) -> list[IdentityResult]:
    """Run one named suite (or every suite for 'all') at the given bounds.

    The suites run inside one reuse scope (exact_core._reuse), so each
    witness stream, slot table and series head or tail is built once for the
    whole run.  When the caller has a scope open, the run keeps its inputs
    there and the caller's scope drops them; otherwise the run opens its own
    and drops them when it returns or raises.

    A bound that is not an int, or is a bool, raises TypeError; a negative
    bound or an unknown suite raises ValueError.
    """
    _check_nonnegative_int(n_max=n_max, r_max=r_max)
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite: {suite!r}")
    checks = _SUITES.values() if suite == "all" else [_SUITES[suite]]
    with _reuse() if _MEMO.get() is None else contextlib.nullcontext():
        return [result for check in checks for result in check(n_max, r_max)]

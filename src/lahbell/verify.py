"""Named identity suites checked at runtime by the command-line verifier.

Every suite re-derives a family of values along two or three independent
routes (closed form, witness-sum, generating series) and reports exact
equality.  Suites are keyed by short stable labels; each returns one result
per identity with the first counterexample when a comparison fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

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
from .exact_core import factorial, lah, lah_bell_number, r_lah_bell_number, rlah
from .partitions import lah_via_pi, rlah_via_lambda
from .poly import SCALAR_X, SparsePolynomial, Variable, const, var
from .series import GF_FAMILIES, _reuse, faa_di_bruno_check, gf_expand

__all__ = ["IdentityResult", "SUITE_NAMES", "run_suites"]


@dataclass(frozen=True)
class IdentityResult:
    suite: str
    identity: str
    bounds: str
    passed: bool
    counterexample: str | None = None


def _ok(suite: str, identity: str, bounds: str) -> IdentityResult:
    return IdentityResult(suite, identity, bounds, True)


def _fail(suite: str, identity: str, bounds: str, where: str) -> IdentityResult:
    return IdentityResult(suite, identity, bounds, False, where)


def _shown(p: SparsePolynomial) -> str:
    text = p.to_text()
    return text if len(text) <= 60 else text[:57] + "..."


def _sym(family: str) -> SequenceSpec:
    return SequenceSpec.symbolic(family)


def _check_theorem1(n_max: int, r_max: int) -> list[IdentityResult]:
    suite, bounds = "theorem1", f"n<={n_max}"
    identity = "ordered-partition totals: closed form vs factorial Bell sum vs series"
    series_values = gf_expand("lah-bell", n_max)
    for n in range(n_max + 1):
        closed = lah_bell_number(n)
        bell_route = complete_bell(n, FACTORIALS)
        series_route = series_values[n]
        if bell_route != const(closed) or series_route != const(closed):
            return [
                _fail(
                    suite,
                    identity,
                    bounds,
                    f"n={n}: closed={closed} bell={_shown(bell_route)} series={_shown(series_route)}",
                )
            ]
    return [_ok(suite, identity, bounds)]


def _check_prop2(n_max: int, r_max: int) -> list[IdentityResult]:
    suite, bounds = "prop2", f"n<={n_max}, k<=n"
    results = []
    identity = "ordered-block partial polynomial equals weighted plain one"
    failure = None
    for n in range(n_max + 1):
        for k in range(n + 1):
            lhs = incomplete_lah_bell(n, k, _sym("x"))
            weighted = incomplete_bell(n, k, _sym("x")).substitute_all(
                {Variable("x", i): factorial(i) * var(Variable("x", i)) for i in range(1, n + 2)}
            )
            if lhs != weighted:
                failure = f"n={n} k={k}: {_shown(lhs)} vs {_shown(weighted)}"
                break
        if failure:
            break
    results.append(
        _fail(suite, identity, bounds, failure) if failure else _ok(suite, identity, bounds)
    )
    identity = "witness-sum route matches the closed-form triangle"
    for n in range(n_max + 1):
        for k in range(n + 1):
            if lah_via_pi(n, k) != lah(n, k):
                results.append(
                    _fail(suite, identity, bounds, f"n={n} k={k}: {lah_via_pi(n, k)} vs {lah(n, k)}")
                )
                return results
    results.append(_ok(suite, identity, bounds))
    return results


def _check_theorem3(n_max: int, r_max: int) -> list[IdentityResult]:
    suite, bounds = "theorem3", f"1<=n<={n_max}"
    identity = "complete ordered-block polynomial splits into the partial ones"
    for n in range(1, n_max + 1):
        total = complete_lah_bell(n, _sym("x"))
        summed = sum(
            (incomplete_lah_bell(n, k, _sym("x")) for k in range(1, n + 1)),
            const(0),
        )
        if total != summed:
            return [_fail(suite, identity, bounds, f"n={n}: {_shown(total)} vs {_shown(summed)}")]
    return [_ok(suite, identity, bounds)]


def _check_eq23(n_max: int, r_max: int) -> list[IdentityResult]:
    suite, bounds = "eq23", f"n<={n_max}, k<=n, alpha in -3..3"
    identity = "partial ordered-block polynomials are homogeneous of degree k"
    for n in range(n_max + 1):
        for k in range(n + 1):
            base = incomplete_lah_bell(n, k, _sym("x"))
            for alpha in range(-3, 4):
                scaled = base.substitute_all(
                    {
                        Variable("x", i): alpha * var(Variable("x", i))
                        for i in range(1, n - k + 2)
                    }
                )
                expected = base * alpha**k
                if scaled != expected:
                    return [
                        _fail(
                            suite,
                            identity,
                            bounds,
                            f"n={n} k={k} alpha={alpha}: {_shown(scaled)} vs {_shown(expected)}",
                        )
                    ]
    return [_ok(suite, identity, bounds)]


def _check_eq28(n_max: int, r_max: int) -> list[IdentityResult]:
    suite, bounds = "eq28", f"n<={n_max}"
    identity = "all-equal-argument complete polynomial equals the row polynomial"
    x = var(SCALAR_X)
    for n in range(n_max + 1):
        lhs = complete_lah_bell(n, SequenceSpec.uniform(x))
        rhs = lah_bell_polynomial(n, 0, x)
        if lhs != rhs:
            return [_fail(suite, identity, bounds, f"n={n}: {_shown(lhs)} vs {_shown(rhs)}")]
    return [_ok(suite, identity, bounds)]


def _check_eq30(n_max: int, r_max: int) -> list[IdentityResult]:
    suite, bounds = "eq30", f"n<={n_max}, k<=n, r<={r_max}"
    identity = "ordered-block extended polynomial equals factorially weighted plain one"
    for r in range(r_max + 1):
        for n in range(n_max + 1):
            mapping = {
                Variable("a", i): factorial(i) * var(Variable("a", i))
                for i in range(1, n + 1)
            }
            mapping.update(
                {
                    Variable("b", j): factorial(j - 1) * var(Variable("b", j))
                    for j in range(1, n + 2)
                }
            )
            for k in range(n + 1):
                lhs = incomplete_r_lah_bell(n, k, r, _sym("a"), _sym("b"))
                rhs = incomplete_r_bell(n, k, 2 * r, _sym("a"), _sym("b")).substitute_all(mapping)
                if lhs != rhs:
                    return [
                        _fail(
                            suite,
                            identity,
                            bounds,
                            f"n={n} k={k} r={r}: {_shown(lhs)} vs {_shown(rhs)}",
                        )
                    ]
    return [_ok(suite, identity, bounds)]


def _check_theorem4(n_max: int, r_max: int) -> list[IdentityResult]:
    suite, bounds = "theorem4", f"n<={n_max}, r<={r_max}"
    identity = "all-ones complete extended polynomial equals the row polynomial"
    x = var(SCALAR_X)
    for r in range(r_max + 1):
        for n in range(n_max + 1):
            lhs = complete_r_lah_bell(n, r, x, ONES, ONES)
            rhs = lah_bell_polynomial(n, r, x)
            if lhs != rhs:
                return [
                    _fail(suite, identity, bounds, f"n={n} r={r}: {_shown(lhs)} vs {_shown(rhs)}")
                ]
    return [_ok(suite, identity, bounds)]


def _check_theorem5(n_max: int, r_max: int) -> list[IdentityResult]:
    suite, bounds = "theorem5", f"n<={n_max}, k<=n, r<={r_max}"
    identity = "all-ones partial extended polynomial equals the extended triangle"
    for r in range(r_max + 1):
        for n in range(n_max + 1):
            for k in range(n + 1):
                lhs = incomplete_r_lah_bell(n, k, r, ONES, ONES)
                rhs = rlah(n, k, r)
                if lhs != const(rhs):
                    return [
                        _fail(suite, identity, bounds, f"n={n} k={k} r={r}: {_shown(lhs)} vs {rhs}")
                    ]
    return [_ok(suite, identity, bounds)]


def _check_corollary6(n_max: int, r_max: int) -> list[IdentityResult]:
    suite, bounds = "corollary6", f"n<={n_max}, k<=n, r<={r_max}"
    identity = "paired-witness multinomial sum matches the extended triangle"
    for r in range(r_max + 1):
        for n in range(n_max + 1):
            for k in range(n + 1):
                lhs = rlah_via_lambda(n, k, r)
                rhs = rlah(n, k, r)
                if lhs != rhs:
                    return [_fail(suite, identity, bounds, f"n={n} k={k} r={r}: {lhs} vs {rhs}")]
    return [_ok(suite, identity, bounds)]


def _check_theorem7(n_max: int, r_max: int) -> list[IdentityResult]:
    suite, bounds = "theorem7", f"n<={n_max}, r<={r_max}"
    identity = "partition-times-composition expansion equals the witness sum at x=1"
    for r in range(r_max + 1):
        for n in range(n_max + 1):
            lhs = complete_r_lah_bell_expansion(n, r, _sym("x"), _sym("y"))
            rhs = complete_r_lah_bell(n, r, 1, _sym("x"), _sym("y"))
            if lhs != rhs:
                return [
                    _fail(suite, identity, bounds, f"n={n} r={r}: {_shown(lhs)} vs {_shown(rhs)}")
                ]
    return [_ok(suite, identity, bounds)]


def _check_eq42(n_max: int, r_max: int) -> list[IdentityResult]:
    suite, bounds = "eq42", f"n<={n_max}, r<={r_max}"
    identity = "scalar-argument partial sums rebuild the row polynomial"
    x = var(SCALAR_X)
    xs = SequenceSpec.uniform(x)
    for r in range(r_max + 1):
        for n in range(n_max + 1):
            summed = sum(
                (incomplete_r_lah_bell(n, k, r, xs, ONES) for k in range(n + 1)),
                const(0),
            )
            rhs = lah_bell_polynomial(n, r, x)
            if summed != rhs:
                return [
                    _fail(suite, identity, bounds, f"n={n} r={r}: {_shown(summed)} vs {_shown(rhs)}")
                ]
    return [_ok(suite, identity, bounds)]


def _check_faadibruno(n_max: int, r_max: int) -> list[IdentityResult]:
    suite, bounds = "faadibruno", f"1<=m<={max(n_max, 1)}"
    identity = "series derivatives at 0 equal the factorial Bell values"
    for m in range(1, max(n_max, 1) + 1):
        report = faa_di_bruno_check(m)
        if not report.passed:
            return [
                _fail(
                    suite,
                    identity,
                    bounds,
                    f"m={m}: series={report.series_value} partitions={report.partition_value}",
                )
            ]
    return [_ok(suite, identity, bounds)]


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
        for values in itertools.product(*(sweeps[name] for name in swept)):
            point = dict(zip(swept, values))
            got = gf_expand(family, n_max, **point, **given)
            for n in range(n_max + 1):
                expected = want(n, *values)
                if got[n] != expected:
                    where = " ".join(f"{name}={value}" for name, value in {"n": n, **point}.items())
                    return _fail(
                        suite, identity, bounds, f"{where}: {_shown(got[n])} vs {_shown(expected)}"
                    )
        return _ok(suite, identity, bounds)

    # The families share heads A^k/k! and exp(x A) and tails B^m across the
    # grid; inside the scope gf_expand builds each of them once.  The want
    # side never reads what the scope keeps.
    with _reuse():
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
    """Run one named suite (or every suite for 'all') at the given bounds."""
    if n_max < 0 or r_max < 0:
        raise ValueError("bounds must be nonnegative")
    if suite == "all":
        results = []
        for check in _SUITES.values():
            results.extend(check(n_max, r_max))
        return results
    if suite not in _SUITES:
        raise ValueError(f"unknown suite: {suite!r}")
    return _SUITES[suite](n_max, r_max)

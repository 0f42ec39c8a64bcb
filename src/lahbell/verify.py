"""Named identity suites checked at runtime by the command-line verifier.

Every suite re-derives a family of values along two or three independent
routes (closed form, witness-sum, generating series) and reports exact
equality.  Suites are keyed by short stable labels; each returns one result
per identity.

There is one verdict path.  Every identity is declared as one _compare call:
a grid and two or three callable sides.  A grid is the label template, the
bounds text and the points; the helpers _ns, _n_k, _n_r and _n_k_r return
the common ones, r varying slowest.  At each point _compare evaluates the
sides in order, and the first point where a later side differs from the
first is the counterexample "where: s1 vs s2 [vs s3]", where is
template.format(*point).  A label is formatted only for a counterexample,
never for a case that passes, and nothing after it is computed.  Each side
is a lambda that looks its library function up by name when it is called,
so a function replaced on this module, by a test's fault or a tracer, is
the one it reads.

A value that several points share (theorem1's series, eq23's base
polynomial, each series-oracle expansion) comes from a
functools.lru_cache(maxsize=1) on a function local to the suite call.  The
grid varies the parameters it depends on slowest, so one entry builds each
value once, and nothing outlives the suite.

Setup that would repeat per case is done once.  The suites read their shared
inputs from module constants: one SequenceSpec per symbolic family, the
scalar x and one uniform spec over it, so a run makes no spec and the reuse
scope finds each symbolic spec's tables by identity.  The weight maps of
prop2, eq23 and eq30 are prepared (poly._PreparedMap) when the suite starts,
so substitute_all analyses each map once, not once per case.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
from typing import Callable, Iterable

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
    _MEMO, _Record, _check_nonnegative_int, _reuse, factorial, lah, lah_bell_number,
    r_lah_bell_number, rlah,
)
from .partitions import lah_via_pi, rlah_via_lambda
from .poly import (
    _INDEXED_FAMILIES, SCALAR_X, SparsePolynomial, Variable, _PreparedMap, const, indexed_var, var,
)
from .series import GF_FAMILIES, _series_derivative, gf_expand

__all__ = ["IdentityResult", "SUITE_NAMES", "run_suites"]


class IdentityResult(_Record):
    """One identity's verdict; the fields, in this order, are its JSON keys."""

    __slots__ = ("suite", "identity", "bounds", "passed", "counterexample")

    def __init__(
        self, suite: str, identity: str, bounds: str, passed: bool, counterexample: str | None = None
    ) -> None:
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "counterexample", counterexample)


def _shown(*values: SparsePolynomial | int) -> tuple[str, ...]:
    """Each side as text: ints in full, polynomials cut at 60 characters, and
    from 20 characters before their first difference if they agree at the cut."""
    texts = [v if isinstance(v, int) else v.to_text() for v in values]
    same = len(os.path.commonprefix(texts)) if all(isinstance(t, str) for t in texts) else 0
    start = same - 20 if same >= 57 and max(map(len, texts)) > 60 else 0
    return tuple(str(t) if isinstance(t, int) else _cut(t, start) for t in texts)


def _cut(text: str, start: int) -> str:
    """text from start, behind "..." unless start is 0, in at most 60 characters."""
    text = "..." + text[start:] if start else text
    return text if len(text) <= 60 else text[:57] + "..."


# The suites' shared inputs: a spec per symbolic family, the scalar x, a uniform spec over x.
_SYMBOLIC = {family: SequenceSpec.symbolic(family) for family in _INDEXED_FAMILIES}
_X = var(SCALAR_X)
_UNIFORM_X = SequenceSpec.uniform(_X)


_Grid = tuple[str, str, Iterable[tuple[int, ...]]]


def _ns(n_max: int, first: int = 0) -> _Grid:
    """The grid (n,) for first <= n <= n_max."""
    bounds = f"{first}<=n<={n_max}" if first else f"n<={n_max}"
    return "n={}", bounds, ((n,) for n in range(first, n_max + 1))


def _n_k(n_max: int) -> _Grid:
    """The grid (n, k) for k <= n <= n_max."""
    points = ((n, k) for n in range(n_max + 1) for k in range(n + 1))
    return "n={} k={}", f"n<={n_max}, k<=n", points


def _n_r(n_max: int, r_max: int) -> _Grid:
    """The grid (n, r) for n <= n_max and r <= r_max, r varying slowest."""
    points = ((n, r) for r in range(r_max + 1) for n in range(n_max + 1))
    return "n={} r={}", f"n<={n_max}, r<={r_max}", points


def _n_k_r(n_max: int, r_max: int) -> _Grid:
    """The grid (n, k, r) for k <= n <= n_max and r <= r_max, r varying slowest."""
    points = ((n, k, r) for r in range(r_max + 1) for n in range(n_max + 1) for k in range(n + 1))
    return "n={} k={} r={}", f"n<={n_max}, k<=n, r<={r_max}", points


def _compare(
    suite: str, identity: str, grid: _Grid, *sides: Callable[..., object]
) -> IdentityResult:
    """identity's verdict over grid, a (template, bounds, points) triple: the
    sides are evaluated in order at each point, and the first point where a
    later side differs from the first is the counterexample."""
    template, bounds, points = grid
    for point in points:
        values = []
        for side in sides:
            values.append(side(*point))
        if values.count(values[0]) < len(values):
            where = template.format(*point)
            return IdentityResult(
                suite, identity, bounds, False, f"{where}: " + " vs ".join(_shown(*values))
            )
    return IdentityResult(suite, identity, bounds, True)


def _check_theorem1(n_max: int, r_max: int) -> list[IdentityResult]:
    expanded = functools.lru_cache(maxsize=1)(lambda: gf_expand("lah-bell", n_max))
    return [_compare(
        "theorem1", "ordered-partition totals: closed form vs factorial Bell sum vs series",
        _ns(n_max),
        lambda n: lah_bell_number(n),
        lambda n: complete_bell(n, FACTORIALS),
        lambda n: expanded()[n],
    )]


def _weights(*rules: tuple[str, int, Callable[[int], int]]) -> _PreparedMap:
    """{v_i: weight(i) * v_i for i = 1..count} for each (family, count, weight)
    rule, to substitute_all.  It leaves the variables a polynomial lacks
    alone, so one map built at a suite's bound serves every (n, k) under it,
    and it is prepared, so its images are analysed once, not once a call."""
    return _PreparedMap({
        Variable(family, i): weight(i) * indexed_var(family, i)
        for family, count, weight in rules
        for i in range(1, count + 1)
    })


def _check_prop2(n_max: int, r_max: int) -> list[IdentityResult]:
    x, weights = _SYMBOLIC["x"], _weights(("x", n_max + 1, factorial))
    return [
        _compare(
            "prop2", "ordered-block partial polynomial equals weighted plain one", _n_k(n_max),
            lambda n, k: incomplete_lah_bell(n, k, x),
            lambda n, k: incomplete_bell(n, k, x).substitute_all(weights),
        ),
        _compare(
            "prop2", "witness-sum route matches the closed-form triangle", _n_k(n_max),
            lambda n, k: lah_via_pi(n, k),
            lambda n, k: lah(n, k),
        ),
    ]


def _check_theorem3(n_max: int, r_max: int) -> list[IdentityResult]:
    x = _SYMBOLIC["x"]
    return [_compare(
        "theorem3", "complete ordered-block polynomial splits into the partial ones",
        _ns(n_max, 1),
        lambda n: complete_lah_bell(n, x),
        lambda n: sum((incomplete_lah_bell(n, k, x) for k in range(1, n + 1)), const(0)),
    )]


def _check_eq23(n_max: int, r_max: int) -> list[IdentityResult]:
    _, bounds, points = _n_k(n_max)
    scalings = {alpha: _weights(("x", n_max + 1, lambda i: alpha)) for alpha in range(-3, 4)}
    grid = (
        "n={} k={} alpha={}", f"{bounds}, alpha in -3..3",
        ((n, k, alpha) for n, k in points for alpha in scalings),
    )
    base = functools.lru_cache(maxsize=1)(lambda n, k: incomplete_lah_bell(n, k, _SYMBOLIC["x"]))
    return [_compare(
        "eq23", "partial ordered-block polynomials are homogeneous of degree k", grid,
        lambda n, k, alpha: base(n, k).substitute_all(scalings[alpha]),
        lambda n, k, alpha: base(n, k) * alpha**k,
    )]


def _check_eq28(n_max: int, r_max: int) -> list[IdentityResult]:
    return [_compare(
        "eq28", "all-equal-argument complete polynomial equals the row polynomial", _ns(n_max),
        lambda n: complete_lah_bell(n, _UNIFORM_X),
        lambda n: lah_bell_polynomial(n, 0, _X),
    )]


def _check_eq30(n_max: int, r_max: int) -> list[IdentityResult]:
    weights = _weights(("a", n_max, factorial), ("b", n_max + 1, lambda j: factorial(j - 1)))
    a, b = _SYMBOLIC["a"], _SYMBOLIC["b"]
    return [_compare(
        "eq30", "ordered-block extended polynomial equals factorially weighted plain one",
        _n_k_r(n_max, r_max),
        lambda n, k, r: incomplete_r_lah_bell(n, k, r, a, b),
        lambda n, k, r: incomplete_r_bell(n, k, 2 * r, a, b).substitute_all(weights),
    )]


def _check_theorem4(n_max: int, r_max: int) -> list[IdentityResult]:
    return [_compare(
        "theorem4", "all-ones complete extended polynomial equals the row polynomial",
        _n_r(n_max, r_max),
        lambda n, r: complete_r_lah_bell(n, r, _X, ONES, ONES),
        lambda n, r: lah_bell_polynomial(n, r, _X),
    )]


def _check_theorem5(n_max: int, r_max: int) -> list[IdentityResult]:
    return [_compare(
        "theorem5", "all-ones partial extended polynomial equals the extended triangle",
        _n_k_r(n_max, r_max),
        lambda n, k, r: incomplete_r_lah_bell(n, k, r, ONES, ONES),
        lambda n, k, r: rlah(n, k, r),
    )]


def _check_corollary6(n_max: int, r_max: int) -> list[IdentityResult]:
    return [_compare(
        "corollary6", "paired-witness multinomial sum matches the extended triangle",
        _n_k_r(n_max, r_max),
        lambda n, k, r: rlah_via_lambda(n, k, r),
        lambda n, k, r: rlah(n, k, r),
    )]


def _check_theorem7(n_max: int, r_max: int) -> list[IdentityResult]:
    x, y = _SYMBOLIC["x"], _SYMBOLIC["y"]
    return [_compare(
        "theorem7", "partition-times-composition expansion equals the witness sum at x=1",
        _n_r(n_max, r_max),
        lambda n, r: complete_r_lah_bell_expansion(n, r, x, y),
        lambda n, r: complete_r_lah_bell(n, r, 1, x, y),
    )]


def _check_eq42(n_max: int, r_max: int) -> list[IdentityResult]:
    return [_compare(
        "eq42", "scalar-argument partial sums rebuild the row polynomial", _n_r(n_max, r_max),
        lambda n, r: sum(
            (incomplete_r_lah_bell(n, k, r, _UNIFORM_X, ONES) for k in range(n + 1)), const(0)
        ),
        lambda n, r: lah_bell_polynomial(n, r, _X),
    )]


def _check_faadibruno(n_max: int, r_max: int) -> list[IdentityResult]:
    top = max(n_max, 1)
    return [_compare(
        "faadibruno", "series derivatives at 0 equal the factorial Bell values",
        ("m={}", f"1<=m<={top}", ((m,) for m in range(1, top + 1))),
        lambda m: _series_derivative(m),
        lambda m: complete_bell(m, FACTORIALS),
    )]


def _check_series_oracle(n_max: int, r_max: int) -> list[IdentityResult]:
    _, bounds, _ = _n_k_r(n_max, r_max)
    a, b = _SYMBOLIC["a"], _SYMBOLIC["b"]
    sweeps = {"k": range(n_max + 1), "r": range(r_max + 1), "rho": range(2 * r_max + 1)}
    fixed = {"x": _X, "a": a, "b": b}

    def expansion(family: str) -> tuple[_Grid, Callable[..., object]]:
        """family's grid, its swept parameters slowest in GF_FAMILIES order
        (so k, declared first, slowest of all) and n fastest, and the side
        that reads entry n of gf_expand(family), expanded once per parameter
        point; x, a and b are the same at every point."""
        swept = [name for name in GF_FAMILIES[family] if name in sweeps]
        given = {name: fixed[name] for name in GF_FAMILIES[family] if name in fixed}
        points = (
            (n, *values)
            for values in itertools.product(*(sweeps[name] for name in swept))
            for n in range(n_max + 1)
        )
        expanded = functools.lru_cache(maxsize=1)(
            lambda *values: gf_expand(family, n_max, **dict(zip(swept, values)), **given)
        )
        template = " ".join(f"{name}={{}}" for name in ["n", *swept])
        return (template, bounds, points), lambda n, *values: expanded(*values)[n]

    # The families share heads A^k/k! and exp(x A) and tails B^m across the
    # grid; inside the run's reuse scope gf_expand builds each of them once.
    # The scope keeps inputs only, never a compared value.
    return [
        _compare("series-oracle", identity, *expansion(family), want)
        for identity, family, want in [
            ("triangle series match the closed forms", "r-lah",
             lambda n, k, r: const(rlah(n, k, r))),
            ("row-total series match the closed forms", "r-lah-bell",
             lambda n, r: const(r_lah_bell_number(n, r))),
            ("scalar-argument series match the row polynomials", "r-lah-bell-poly",
             lambda n, r: lah_bell_polynomial(n, r, _X)),
            ("generic ordinary series match the witness sums", "incomplete-generic",
             lambda n, k, r: incomplete_r_lah_bell(n, k, r, a, b)),
            ("generic complete series match the witness sums", "complete-generic",
             lambda n, r: complete_r_lah_bell(n, r, _X, a, b)),
            ("generic egf series match the fractional witness sums", "incomplete-r-bell",
             lambda n, k, rho: incomplete_r_bell(n, k, rho, a, b)),
            ("complete egf series match the fractional witness sums", "complete-r-bell",
             lambda n, rho: complete_r_bell(n, rho, a, b)),
        ]
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

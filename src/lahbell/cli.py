"""Command-line interface: tables, polynomials, single values, verification.

Commands print their payload to stdout; diagnostics go to stderr.  Exit
status is 0 on success, 1 when a verification suite reports a failed
identity, and 2 on usage errors, which include inputs the library refuses
while computing (a ValueError or IntegralityError, such as an explicit
sequence that is too short).  Output is deterministic: identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Iterable, Iterator, Sequence

from .bell import (
    FACTORIALS,
    ONES,
    SequenceSpec,
    complete_bell,
    complete_lah_bell,
    complete_r_lah_bell,
    complete_r_lah_bell_expansion,
    incomplete_bell,
    incomplete_lah_bell,
    incomplete_r_lah_bell,
    lah_bell_polynomial,
)
from .exact_core import (
    IntegralityError,
    _reuse,
    _row_totals,
    _rows,
    lah,
    lah_bell_number,
    r_lah_bell_number,
    rlah,
)
from .poly import SCALAR_X, var
from .verify import SUITE_NAMES, run_suites

__all__ = ["main", "run"]


# Each command's families: family -> (required flags, further flags accepted,
# computation).  The argparse choices keep the declaration order, and the JSON
# query lists the required flags, then the further ones given, in that order.
# The lambdas look up the library functions by name when called, so a wrapper
# put on a module-level name (tracing, a test's substitute) still applies.
_FOR_TABLE = {
    "lah": ((), (), lambda a: {"kind": "triangle", "rows": _rows(a.n_max, 0)}),
    "rlah": (("r",), (), lambda a: {"kind": "triangle", "rows": _rows(a.n_max, a.r)}),
    "lah-bell": ((), (), lambda a: {"kind": "sequence", "values": _row_totals(a.n_max, 0)}),
    "r-lah-bell": (
        ("r",), (), lambda a: {"kind": "sequence", "values": _row_totals(a.n_max, a.r)}
    ),
}
_FOR_VALUE = {
    "lah": (("k",), (), lambda a: lah(a.n, a.k)),
    "rlah": (("k", "r"), (), lambda a: rlah(a.n, a.k, a.r)),
    "lah-bell": ((), (), lambda a: lah_bell_number(a.n)),
    "r-lah-bell": (("r",), (), lambda a: r_lah_bell_number(a.n, a.r)),
    "lah-bell-poly": (("r", "x"), (), lambda a: lah_bell_polynomial(a.n, a.r, a.x).as_int()),
}
# poly entries carry, before the computation, the symbolic family names that
# an absent --seq-a and --seq-b stand for; the computation takes both specs.
_FOR_POLY = {
    "complete-bell": ((), ("seq_a",), ("x",), lambda a, xs: complete_bell(a.n, xs)),
    "incomplete-bell": (("k",), ("seq_a",), ("x",), lambda a, xs: incomplete_bell(a.n, a.k, xs)),
    "complete-lah-bell": ((), ("seq_a",), ("x",), lambda a, xs: complete_lah_bell(a.n, xs)),
    "incomplete-lah-bell": (
        ("k",), ("seq_a",), ("x",), lambda a, xs: incomplete_lah_bell(a.n, a.k, xs)
    ),
    "incomplete-r-lah-bell": (
        ("k", "r"), ("seq_a", "seq_b"), ("a", "b"),
        lambda a, sa, sb: incomplete_r_lah_bell(a.n, a.k, a.r, sa, sb),
    ),
    "complete-r-lah-bell": (
        ("r",), ("seq_a", "seq_b", "x"), ("a", "b"),
        lambda a, sa, sb: complete_r_lah_bell(
            a.n, a.r, var(SCALAR_X) if a.x is None else a.x, sa, sb
        ),
    ),
    "theorem7": (
        ("r",), ("seq_a", "seq_b"), ("x", "y"),
        lambda a, xs, ys: complete_r_lah_bell_expansion(a.n, a.r, xs, ys),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lahbell",
        description="Exact Lah number and Bell polynomial family computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="print a triangle or row-total sequence")
    table.add_argument("family", choices=tuple(_FOR_TABLE))
    table.add_argument("--n-max", type=int, required=True)
    table.add_argument("--r", type=int)
    table.add_argument("--format", choices=("text", "json", "csv"), default="text")

    polyp = sub.add_parser("poly", help="print one polynomial in canonical form")
    polyp.add_argument("family", choices=tuple(_FOR_POLY))
    polyp.add_argument("--n", type=int, required=True)
    polyp.add_argument("--k", type=int)
    polyp.add_argument("--r", type=int)
    polyp.add_argument("--x", type=int)
    polyp.add_argument("--seq-a", help="ones, factorials, symbolic, or comma-separated ints")
    polyp.add_argument("--seq-b", help="ones, factorials, symbolic, or comma-separated ints")
    polyp.add_argument("--format", choices=("text", "json"), default="text")

    value = sub.add_parser("value", help="print one number")
    value.add_argument("family", choices=tuple(_FOR_VALUE))
    value.add_argument("--n", type=int, required=True)
    value.add_argument("--k", type=int)
    value.add_argument("--r", type=int)
    value.add_argument("--x", type=int)
    value.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="re-derive identity families and compare")
    verify.add_argument("--suite", choices=SUITE_NAMES, default="all")
    verify.add_argument("--n-max", type=int, default=12)
    verify.add_argument("--r-max", type=int, default=2)
    verify.add_argument("--format", choices=("text", "json"), default="text")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    Parsing leaves no state behind in it, so every main call can share it.
    """
    return build_parser()


def _parse_sequence(
    parser: argparse.ArgumentParser, text: str | None, family: str
) -> SequenceSpec:
    if text is None or text == "symbolic":
        return SequenceSpec.symbolic(family)
    if text == "ones":
        return ONES
    if text == "factorials":
        return FACTORIALS
    try:
        return SequenceSpec.explicit([int(part) for part in text.split(",")])
    except ValueError:
        parser.error(
            f"invalid sequence {text!r}: expected ones, factorials, symbolic, "
            "or comma-separated integers"
        )


def _require(parser: argparse.ArgumentParser, args: argparse.Namespace, names: Sequence[str]) -> None:
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"--{name.replace('_', '-')} is required for family {args.family!r}")
    for name in ("n", "n_max", "k", "r", "r_max"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            parser.error(f"--{name.replace('_', '-')} must be nonnegative")


def _refuse(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    optional: Sequence[str],
    allowed: Sequence[str],
) -> None:
    """Usage error for any optional flag given that the family does not take."""
    for name in optional:
        if name not in allowed and getattr(args, name) is not None:
            parser.error(f"--{name.replace('_', '-')} does not apply to family {args.family!r}")


def _family_query(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    families: dict,
    flags: Sequence[str],
    size: str,
) -> tuple[dict, list]:
    """Check the flags against the family's entry; return the query and the entry's rest.

    flags lists the command's optional flags, in the order they are refused.
    """
    required, further, *rest = families[args.family]
    _require(parser, args, required)
    _refuse(parser, args, flags, required + further)
    query: dict = {"family": args.family, size: getattr(args, size)}
    for name in required + further:
        if getattr(args, name) is not None:
            query[name] = getattr(args, name)
    return query, rest


def _cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    query, (compute,) = _family_query(parser, args, _FOR_TABLE, ("r",), "n_max")
    return {"query": query, **compute(args)}


def _cmd_value(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    query, (compute,) = _family_query(parser, args, _FOR_VALUE, ("k", "r", "x"), "n")
    return {"kind": "number", "query": query, "value": compute(args)}


def _cmd_poly(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    query, (names, compute) = _family_query(
        parser, args, _FOR_POLY, ("k", "r", "x", "seq_a", "seq_b"), "n"
    )
    specs = [
        _parse_sequence(parser, getattr(args, flag), name)
        for flag, name in zip(("seq_a", "seq_b"), names)
    ]
    return {"kind": "polynomial", "query": query, "poly": compute(args, *specs)}


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    _require(parser, args, [])
    # The command owns the run's reuse scope, so the kept inputs (about a
    # millisecond to free at the default bounds) are freed in this frame, not
    # inside run_suites: the traced benchmark run (perfbench/run.py) checks
    # that run_suites spends no time outside its suites.
    with _reuse():
        results = run_suites(args.suite, args.n_max, args.r_max)
    return {
        "kind": "verdict",
        "query": {"suite": args.suite, "n_max": args.n_max, "r_max": args.r_max},
        "results": results,
    }


def _render_text(record: dict) -> Iterable[str]:
    kind = record["kind"]
    if kind == "triangle":
        return (" ".join(map(str, row)) + "\n" for row in record["rows"])
    if kind == "sequence":
        return (str(v) + "\n" for v in record["values"])
    if kind == "number":
        return (str(record["value"]) + "\n",)
    if kind == "polynomial":
        return (record["poly"].to_text() + "\n",)
    lines = []
    for item in record["results"]:
        status = "PASS" if item.passed else "FAIL"
        line = f"{status} {item.suite}: {item.identity} [{item.bounds}]"
        if item.counterexample:
            line += f" counterexample: {item.counterexample}"
        lines.append(line)
    passed = sum(1 for item in record["results"] if item.passed)
    lines.append(f"{passed} of {len(record['results'])} identities passed")
    return ("".join(line + "\n" for line in lines),)


def _render_csv(record: dict) -> Iterator[str]:
    if record["kind"] == "triangle":
        yield "n,k,value\n"
        for n, row in enumerate(record["rows"]):
            prefix = f"{n},"
            yield "".join([f"{prefix}{k},{value}\n" for k, value in enumerate(row)])
    else:
        yield "n,value\n"
        yield from (f"{n},{value}\n" for n, value in enumerate(record["values"]))


def _pieces(head: str, parts: Iterator[str], sep: str, tail: str) -> Iterator[str]:
    """head + sep.join(parts) + tail in pieces: head with the first part, then
    sep and each later part, then tail.  parts must not be empty."""
    yield head + next(parts)
    for part in parts:
        yield sep
        yield part
    yield tail


def _render_json(record: dict) -> Iterable[str]:
    import json  # here, not at the top: only a --format json run loads it

    kind = record["kind"]
    payload: dict = {"kind": kind, "query": record["query"]}
    if kind == "number":
        payload["value"] = str(record["value"])
    elif kind == "verdict":
        results = record["results"]
        payload["results"] = [{name: getattr(r, name) for name in r._fields} for r in results]
        payload["all_passed"] = all(r.passed for r in results)
    else:
        # json.dumps still writes kind and query, escaping any user text; the
        # rest goes in before its closing brace, written as it would write it.
        # A table has at least one row and a row at least one entry, and a
        # decimal string needs no escaping.
        head = json.dumps(payload, indent=2)[:-2]
        if kind == "polynomial":
            return (head + ',\n  "terms": ' + record["poly"]._json_terms() + "\n}\n",)
        if kind == "triangle":
            return _pieces(
                head + ',\n  "rows": [\n    [\n      "',
                ('",\n      "'.join(map(str, row)) for row in record["rows"]),
                '"\n    ],\n    [\n      "', '"\n    ]\n  ]\n}\n',
            )
        return _pieces(
            head + ',\n  "values": [\n    "', map(str, record["values"]), '",\n    "', '"\n  ]\n}\n'
        )
    return (json.dumps(payload, indent=2) + "\n",)


_COMMANDS = {"table": _cmd_table, "poly": _cmd_poly, "value": _cmd_value, "verify": _cmd_verify}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        try:
            record = _COMMANDS[args.command](parser, args)
        except (ValueError, IntegralityError) as exc:
            # Only the computation is guarded: an error while rendering is
            # not a refused input.  A table's rows are computed as they are
            # written, by recurrences that refuse nothing _require lets by.
            # The usage text would not help here, so this is parser.error's
            # message and exit status alone.
            parser.exit(2, f"{parser.prog}: error: {exc}\n")
        # argparse offers csv only to table, whose records are all tables
        render = {"text": _render_text, "csv": _render_csv, "json": _render_json}[args.format]
        write = sys.stdout.write
        try:
            for piece in render(record):
                write(piece)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe (head, say): stop quietly.  What is
            # still buffered goes to devnull, so the flush at exit is silent.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if record["kind"] == "verdict":
            return 0 if all(item.passed for item in record["results"]) else 1
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

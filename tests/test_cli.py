"""Command-line behaviour: golden output, formats, exit codes."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lahbell import cli
from lahbell.exact_core import IntegralityError
from lahbell.poly import SCALAR_X, Monomial, SparsePolynomial, Variable, const, term, var
from lahbell.verify import IdentityResult

GOLDEN = Path(__file__).parent / "golden"

# each entry is (argv, golden file); output must match byte for byte
GOLDEN_CASES = [
    (["table", "lah", "--n-max", "3"], "table_lah_nmax3.txt"),
    (["table", "lah-bell", "--n-max", "3"], "table_lah_bell_nmax3.txt"),
    (["table", "rlah", "--n-max", "3", "--r", "0"], "table_rlah_r0_nmax3.txt"),
    (["table", "r-lah-bell", "--n-max", "2", "--r", "1"], "table_r_lah_bell_r1_nmax2.txt"),
    (["poly", "complete-bell", "--n", "3"], "poly_complete_bell_n3.txt"),
    (["poly", "incomplete-lah-bell", "--n", "3", "--k", "2"], "poly_incomplete_lah_bell_n3_k2.txt"),
    (["poly", "theorem7", "--n", "1", "--r", "1"], "poly_theorem7_n1_r1.txt"),
    (
        ["poly", "incomplete-r-lah-bell", "--n", "2", "--k", "1", "--r", "1"],
        "poly_incomplete_r_lah_bell_n2_k1_r1.txt",
    ),
    (
        ["poly", "complete-r-lah-bell", "--n", "2", "--r", "1", "--seq-a", "ones", "--seq-b", "ones"],
        "poly_complete_r_lah_bell_n2_r1.txt",
    ),
    (["value", "lah", "--n", "4", "--k", "2"], "value_lah_n4_k2.txt"),
    (["value", "r-lah-bell", "--n", "0", "--r", "5"], "value_r_lah_bell_n0_r5.txt"),
    (
        ["value", "lah-bell-poly", "--n", "2", "--r", "0", "--x", "2"],
        "value_lah_bell_poly_n2_r0_x2.txt",
    ),
    (["table", "lah", "--n-max", "2", "--format", "csv"], "table_lah_nmax2.csv"),
    (["table", "lah", "--n-max", "2", "--format", "json"], "table_lah_nmax2.json"),
    (
        ["poly", "incomplete-r-lah-bell", "--n", "1", "--k", "1", "--r", "1", "--format", "json"],
        "poly_incomplete_r_lah_bell_n1_k1_r1.json",
    ),
    (["poly", "complete-r-lah-bell", "--n", "5", "--r", "2"], "poly_complete_r_lah_bell_n5_r2.txt"),
    (["poly", "theorem7", "--n", "4", "--r", "1", "--format", "json"], "poly_theorem7_n4_r1.json"),
    (["value", "lah", "--n", "4", "--k", "2", "--format", "json"], "value_lah_n4_k2.json"),
    (["value", "rlah", "--n", "3", "--k", "1", "--r", "1", "--format", "json"], "value_rlah_n3_k1_r1.json"),
    (["value", "lah-bell", "--n", "3", "--format", "json"], "value_lah_bell_n3.json"),
    (["value", "r-lah-bell", "--n", "2", "--r", "1", "--format", "json"], "value_r_lah_bell_n2_r1.json"),
    (
        ["value", "lah-bell-poly", "--n", "2", "--r", "1", "--x", "3", "--format", "json"],
        "value_lah_bell_poly_n2_r1_x3.json",
    ),
    (["table", "rlah", "--n-max", "2", "--r", "1", "--format", "json"], "table_rlah_r1_nmax2.json"),
    (["table", "lah-bell", "--n-max", "3", "--format", "json"], "table_lah_bell_nmax3.json"),
    (
        ["table", "r-lah-bell", "--n-max", "2", "--r", "1", "--format", "json"],
        "table_r_lah_bell_r1_nmax2.json",
    ),
    (
        ["poly", "incomplete-bell", "--n", "3", "--k", "2", "--seq-a", "factorials", "--format", "json"],
        "poly_incomplete_bell_n3_k2_factorials.json",
    ),
    # pins the query key order: seq_a, seq_b, then x
    (
        [
            "poly", "complete-r-lah-bell", "--n", "2", "--r", "1", "--x", "3",
            "--seq-a", "ones", "--seq-b", "1,2,3", "--format", "json",
        ],
        "poly_complete_r_lah_bell_n2_r1_x3.json",
    ),
    # the zero polynomial, a negative constant on the unit monomial, a leading
    # negative term among mixed signs, and indices of 10 and above in order
    (["poly", "incomplete-bell", "--n", "3", "--k", "5"], "poly_incomplete_bell_n3_k5_zero.txt"),
    (
        ["poly", "incomplete-bell", "--n", "3", "--k", "5", "--format", "json"],
        "poly_incomplete_bell_n3_k5_zero.json",
    ),
    (
        ["poly", "complete-bell", "--n", "3", "--seq-a=-1,2,-3"],
        "poly_complete_bell_n3_negative_constant.txt",
    ),
    (
        ["poly", "complete-bell", "--n", "3", "--seq-a=-1,2,-3", "--format", "json"],
        "poly_complete_bell_n3_negative_constant.json",
    ),
    (
        ["poly", "incomplete-r-lah-bell", "--n", "3", "--k", "1", "--r", "1", "--seq-a=-1,2,-3"],
        "poly_incomplete_r_lah_bell_n3_k1_r1_mixed_signs.txt",
    ),
    (
        [
            "poly", "incomplete-r-lah-bell", "--n", "3", "--k", "1", "--r", "1", "--seq-a=-1,2,-3",
            "--format", "json",
        ],
        "poly_incomplete_r_lah_bell_n3_k1_r1_mixed_signs.json",
    ),
    (["poly", "complete-bell", "--n", "11"], "poly_complete_bell_n11.txt"),
    # one row that is both the first and the last; r > 1 triangles and totals
    (["table", "lah", "--n-max", "0", "--format", "json"], "table_lah_nmax0.json"),
    (["table", "lah-bell", "--n-max", "0", "--format", "json"], "table_lah_bell_nmax0.json"),
    (["table", "rlah", "--n-max", "4", "--r", "2", "--format", "csv"], "table_rlah_r2_nmax4.csv"),
    (["table", "rlah", "--n-max", "3", "--r", "2", "--format", "json"], "table_rlah_r2_nmax3.json"),
    (
        ["table", "r-lah-bell", "--n-max", "5", "--r", "2", "--format", "csv"],
        "table_r_lah_bell_r2_nmax5.csv",
    ),
    (["value", "r-lah-bell", "--n", "6", "--r", "3"], "value_r_lah_bell_n6_r3.txt"),
    (["verify", "--suite", "all"], "verify_all.txt"),
    (["verify", "--suite", "all", "--format", "json"], "verify_all.json"),
]


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("argv,filename", GOLDEN_CASES, ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_golden_invocations(capsys, argv, filename):
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / filename).read_text()


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, ["poly", "complete-r-lah-bell", "--n", "3", "--r", "2"])
    second = run_cli(capsys, ["poly", "complete-r-lah-bell", "--n", "3", "--r", "2"])
    assert first == second


def test_json_and_text_tables_agree(capsys):
    _, text = run_cli(capsys, ["table", "rlah", "--n-max", "4", "--r", "2"])
    _, blob = run_cli(capsys, ["table", "rlah", "--n-max", "4", "--r", "2", "--format", "json"])
    doc = json.loads(blob)
    from_text = [[int(v) for v in line.split()] for line in text.splitlines()]
    from_json = [[int(v) for v in row] for row in doc["rows"]]
    assert from_text == from_json
    assert doc["query"] == {"family": "rlah", "n_max": 4, "r": 2}


def test_json_polynomial_round_trips(capsys):
    _, blob = run_cli(
        capsys, ["poly", "theorem7", "--n", "2", "--r", "1", "--format", "json"]
    )
    doc = json.loads(blob)
    poly = SparsePolynomial.from_json_obj(doc)
    _, text = run_cli(capsys, ["poly", "theorem7", "--n", "2", "--r", "1"])
    assert poly.to_text() + "\n" == text


# One argv per poly family at a small n, with the flags the family requires.
_POLY_ARGVS = {
    "complete-bell": ["--n", "4"],
    "incomplete-bell": ["--n", "4", "--k", "2"],
    "complete-lah-bell": ["--n", "4"],
    "incomplete-lah-bell": ["--n", "4", "--k", "2"],
    "incomplete-r-lah-bell": ["--n", "4", "--k", "2", "--r", "1"],
    "complete-r-lah-bell": ["--n", "3", "--r", "1"],
    "theorem7": ["--n", "3", "--r", "1"],
}
_SEQ_KINDS = ["symbolic", "ones", "factorials", "-1,2,-3,4,5,-6,7"]


@pytest.mark.parametrize("kind", _SEQ_KINDS)
@pytest.mark.parametrize("family", sorted(_POLY_ARGVS))
def test_json_polynomial_round_trips_for_every_family(capsys, family, kind):
    """The JSON terms read back to the computed polynomial, whose text is the
    text output; a family that takes --seq-b gets the same kind there."""
    parser = cli.build_parser()
    argv = ["poly", family, *_POLY_ARGVS[family], f"--seq-a={kind}"]
    if "seq_b" in cli._FOR_POLY[family][1]:
        argv.append(f"--seq-b={kind}")
    computed = cli._cmd_poly(parser, parser.parse_args(argv))["poly"]
    code, text = run_cli(capsys, argv)
    _, blob = run_cli(capsys, argv + ["--format", "json"])
    read_back = SparsePolynomial.from_json_obj(json.loads(blob))
    assert code == 0
    assert read_back == computed
    assert read_back.to_text() + "\n" == text


_RANKS = {"x": 0, "a": 1, "b": 2, "y": 3, "scalar": 4}


def _reference_text(poly):
    """Canonical text rebuilt from the rules: terms by descending degree, then
    ascending family and index with the higher power first, signs in between."""

    def name(v, e):
        base = "x" if v.family == "scalar" else f"{v.family}{v.index}"
        return base if e == 1 else f"{base}^{e}"

    def order(item):
        pairs = item[0].pairs
        return -sum(e for _, e in pairs), [(_RANKS[v.family], v.index, -e) for v, e in pairs]

    text = ""
    for mono, coeff in sorted(poly.terms(), key=order):
        names = "*".join(name(v, e) for v, e in mono.pairs)
        mag = abs(coeff)
        body = str(mag) if not names else names if mag == 1 else f"{mag}*{names}"
        if not text:
            text = "-" + body if coeff < 0 else body
        else:
            text += (" - " if coeff < 0 else " + ") + body
    return text or "0"


def _reference_json_obj(poly):
    """The JSON form built as a dict, term by term in canonical order."""
    return {
        "terms": [
            {"coeff": str(c), "monomial": {v.name: e for v, e in m.pairs}}
            for m, c in poly.terms()
        ]
    }


# few indices and exponents, so that terms often tie on degree and leading pair
_render_variables = st.one_of(
    st.builds(Variable, st.sampled_from(["x", "a", "b", "y"]), st.sampled_from([1, 2, 10, 12])),
    st.just(SCALAR_X),
)
_render_monomials = st.dictionaries(
    _render_variables, st.sampled_from([0, 1, 2, 3, 10, 11]), max_size=4
).map(Monomial)
_render_coeffs = st.one_of(st.sampled_from([1, -1]), st.integers(-(10**25), 10**25))
_render_polys = st.lists(st.tuples(_render_monomials, _render_coeffs), max_size=8).map(
    SparsePolynomial
)
_queries = st.dictionaries(
    st.text(max_size=4), st.one_of(st.integers(-3, 30), st.text(max_size=6)), max_size=3
)


@settings(max_examples=300, deadline=None)
@given(_render_polys, _queries)
@example(SparsePolynomial(), {"family": "incomplete-bell", "n": 3, "k": 5})
@example(const(-10), {"family": "complete-bell", "seq_a": "-1,2,-3"})
@example(const(1), {})
@example(-var(SCALAR_X) ** 11 + 1, {"\"q\u00e9\n": "\\"})
@example(
    term(-3, x1=2, x10=1) + term(1, x2=10) - term(1, a12=1, b3=1, x=1) + 7,
    {"family": "complete-bell", "n": 11},
)
@example(term(1, x1=1, x2=2) + term(5, x1=2, x2=1) - term(1, x1=3) + term(2, x2=3), {})
def test_polynomial_renderings_match_the_reference(poly, query):
    record = {"kind": "polynomial", "query": query, "poly": poly}
    assert "".join(cli._render_text(record)) == _reference_text(poly) + "\n"
    obj = _reference_json_obj(poly)
    assert poly.to_json_obj() == obj
    want = json.dumps({"kind": "polynomial", "query": query, **obj}, indent=2)
    assert "".join(cli._render_json(record)) == want + "\n"


def _reference_csv(record):
    """The CSV layout written one entry per line."""
    if record["kind"] == "triangle":
        lines = ["n,k,value"] + [
            f"{n},{k},{value}" for n, row in enumerate(record["rows"]) for k, value in enumerate(row)
        ]
    else:
        lines = ["n,value"] + [f"{n},{value}" for n, value in enumerate(record["values"])]
    return "".join(line + "\n" for line in lines)


# zero, negatives, and ints of hundreds of digits; a table is never empty
_table_ints = st.one_of(st.integers(-3, 3), st.integers(-(10**400), 10**400))
_table_records = st.one_of(
    st.builds(
        lambda rows, query: {"kind": "triangle", "query": query, "rows": rows},
        st.lists(st.lists(_table_ints, min_size=1, max_size=6), min_size=1, max_size=5),
        _queries,
    ),
    st.builds(
        lambda values, query: {"kind": "sequence", "query": query, "values": values},
        st.lists(_table_ints, min_size=1, max_size=8),
        _queries,
    ),
)


@settings(max_examples=300, deadline=None)
@given(_table_records)
@example({"kind": "triangle", "query": {"family": "lah", "n_max": 0}, "rows": [[1]]})
@example({"kind": "sequence", "query": {"family": "lah-bell", "n_max": 0}, "values": [1]})
@example({"kind": "triangle", "query": {"\"qé\n": "\\"}, "rows": [[0, -1], [-(10**300)]]})
@example({"kind": "sequence", "query": {"ré": "\"\\☃"}, "values": [0, -7, 10**300]})
def test_table_renderings_match_the_reference(record):
    if record["kind"] == "triangle":
        shown = {"rows": [[str(v) for v in row] for row in record["rows"]]}
    else:
        shown = {"values": [str(v) for v in record["values"]]}
    payload = {"kind": record["kind"], "query": record["query"], **shown}
    assert "".join(cli._render_json(record)) == json.dumps(payload, indent=2) + "\n"
    assert "".join(cli._render_csv(record)) == _reference_csv(record)


class _CountingSink:
    """A stdout that counts the characters it is given and keeps none of them."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "argv", [["table", "rlah", "--n-max", "150", "--r", "2"], ["table", "lah-bell", "--n-max", "600"]]
)
def test_a_table_is_written_without_holding_the_table(monkeypatch, argv, fmt):
    """Rows go out as the recurrence makes them, so the traced peak stays far
    below the output: holding every row, or the whole text, is a multiple of it."""
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    # the same command at n_max 0 builds the parser and imports json first
    assert cli.main([*argv[:2], "--n-max", "0", *argv[4:], "--format", fmt]) == 0
    sink.size = 0
    tracemalloc.start()
    try:
        code = cli.main([*argv, "--format", fmt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < sink.size / 10, (peak, sink.size)


def test_csv_sequence_layout(capsys):
    code, out = run_cli(capsys, ["table", "lah-bell", "--n-max", "2", "--format", "csv"])
    assert code == 0
    assert out == "n,value\n0,1\n1,1\n2,3\n"


def test_poly_with_explicit_sequences(capsys):
    code, out = run_cli(capsys, ["poly", "complete-bell", "--n", "3", "--seq-a", "1,1,1"])
    assert (code, out) == (0, "5\n")
    code, out = run_cli(capsys, ["poly", "incomplete-bell", "--n", "4", "--k", "2", "--seq-a", "factorials"])
    assert (code, out) == (0, "36\n")


def test_usage_errors_exit_2(capsys):
    cases = [
        ["value", "lah", "--n", "4"],
        ["table", "lah", "--n-max", "-1"],
        ["table", "lah", "--n-max", "2", "--r", "1"],
        ["table", "nope", "--n-max", "2"],
        ["poly", "complete-bell", "--n", "3", "--format", "csv"],
        ["poly", "complete-bell", "--n", "3", "--seq-a", "1,2,oops"],
        ["poly", "complete-bell", "--n", "3", "--seq-b", "ones"],
        ["poly", "incomplete-bell", "--n", "3", "--k", "1", "--x", "2"],
        ["verify", "--suite", "nope"],
        [],
    ]
    for argv in cases:
        code = cli.main(argv)
        capsys.readouterr()
        assert code == 2, argv


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    """Every main call shares the parser the first one built, and a usage
    error on a later call prints the same bytes and exits 2 again."""
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert cli.main(["value", "lah", "--n", "4", "--k", "2"]) == 0
        assert cli.main(["value", "lah", "--n", "5", "--k", "2"]) == 0
        assert capsys.readouterr().out == "36\n240\n"
        assert len(built) == 1
        bad = ["poly", "complete-bell", "--n", "3", "--seq-a", "1,2,oops"]
        outcomes = []
        for _ in range(2):
            outcomes.append((cli.main(bad), *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 2 and "invalid sequence" in outcomes[0][2]
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize(
    "argv,flag,family",
    [
        (["value", "lah", "--n", "3", "--k", "1", "--r", "2"], "--r", "lah"),
        (["value", "lah", "--n", "3", "--k", "1", "--x", "2"], "--x", "lah"),
        (["value", "lah-bell", "--n", "3", "--k", "1"], "--k", "lah-bell"),
        (["value", "r-lah-bell", "--n", "3", "--r", "1", "--x", "2"], "--x", "r-lah-bell"),
        (["value", "lah-bell-poly", "--n", "3", "--r", "1", "--x", "2", "--k", "1"], "--k", "lah-bell-poly"),
        (["poly", "complete-bell", "--n", "3", "--k", "2"], "--k", "complete-bell"),
        (["poly", "complete-lah-bell", "--n", "3", "--r", "1"], "--r", "complete-lah-bell"),
        (["poly", "incomplete-bell", "--n", "3", "--k", "1", "--x", "2"], "--x", "incomplete-bell"),
        (["poly", "incomplete-r-lah-bell", "--n", "3", "--k", "1", "--r", "1", "--x", "2"], "--x", "incomplete-r-lah-bell"),
        (["poly", "complete-r-lah-bell", "--n", "3", "--r", "1", "--k", "1"], "--k", "complete-r-lah-bell"),
        (["poly", "theorem7", "--n", "3", "--r", "1", "--x", "1"], "--x", "theorem7"),
        (["poly", "complete-bell", "--n", "3", "--seq-b", "ones"], "--seq-b", "complete-bell"),
    ],
)
def test_flags_a_family_does_not_take_exit_2(capsys, argv, flag, family):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith(f"error: {flag} does not apply to family {family!r}\n")


def test_flags_a_family_takes_still_work(capsys):
    assert run_cli(capsys, ["value", "rlah", "--n", "3", "--k", "1", "--r", "1"]) == (0, "36\n")
    argv = ["poly", "complete-r-lah-bell", "--n", "1", "--r", "1", "--x", "2"]
    assert run_cli(capsys, argv + ["--seq-a", "ones", "--seq-b", "ones"]) == (0, "4\n")


def test_refused_input_exits_2_without_traceback(capsys):
    code = cli.main(["poly", "complete-bell", "--n", "5", "--seq-a", "1,2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err == "lahbell: error: explicit sequence too short: need index 3, have 2\n"


# Every poly family that takes --seq-a or --seq-b, once with a too-short a side
# and once with a too-short b side: the index named is the first one the
# computation reads, so these pin the order in which values are looked up.
TOO_SHORT = [
    (["complete-bell", "--n", "5", "--seq-a", "1,2"], "need index 3, have 2"),
    (["incomplete-bell", "--n", "5", "--k", "2", "--seq-a", "1,2"], "need index 4, have 2"),
    (["complete-lah-bell", "--n", "5", "--seq-a", "1,2"], "need index 3, have 2"),
    (["incomplete-lah-bell", "--n", "5", "--k", "2", "--seq-a", "1,2"], "need index 4, have 2"),
    (["incomplete-r-lah-bell", "--n", "5", "--k", "2", "--r", "1", "--seq-a", "1,2"], "need index 3, have 2"),
    (["incomplete-r-lah-bell", "--n", "5", "--k", "2", "--r", "1", "--seq-b", "1,2"], "need index 4, have 2"),
    (
        ["incomplete-r-lah-bell", "--n", "5", "--k", "2", "--r", "1", "--seq-a", "ones", "--seq-b", "4,0,1"],
        "need index 4, have 3",
    ),
    (["complete-r-lah-bell", "--n", "5", "--r", "1", "--seq-a", "1,2"], "need index 3, have 2"),
    (["complete-r-lah-bell", "--n", "5", "--r", "1", "--seq-b", "1,2"], "need index 6, have 2"),
    (
        ["complete-r-lah-bell", "--n", "4", "--r", "2", "--seq-a", "3,1", "--seq-b", "ones"],
        "need index 3, have 2",
    ),
    (["theorem7", "--n", "5", "--r", "1", "--seq-a", "1,2"], "need index 3, have 2"),
    (["theorem7", "--n", "5", "--r", "1", "--seq-b", "1,2"], "need index 6, have 2"),
    (["theorem7", "--n", "4", "--r", "2", "--seq-a", "ones", "--seq-b", "1,1"], "need index 5, have 2"),
]


@pytest.mark.parametrize("argv,need", TOO_SHORT, ids=[" ".join(argv) for argv, _ in TOO_SHORT])
def test_too_short_sequences_are_refused_at_the_first_index_read(capsys, argv, need):
    code = cli.main(["poly", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"lahbell: error: explicit sequence too short: {need}\n"


def test_integrality_error_exits_2(capsys, monkeypatch):
    def refuse(suite, n_max, r_max):
        raise IntegralityError("non-integer coefficient 1/2")

    monkeypatch.setattr(cli, "run_suites", refuse)
    code = cli.main(["verify", "--suite", "theorem1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "lahbell: error: non-integer coefficient 1/2\n"


def test_verify_single_suite_passes(capsys):
    code, out = run_cli(capsys, ["verify", "--suite", "theorem1", "--n-max", "6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS theorem1:")
    assert lines[-1] == "1 of 1 identities passed"


def test_verify_json_shape(capsys):
    code, blob = run_cli(
        capsys, ["verify", "--suite", "corollary6", "--n-max", "5", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(blob)
    assert doc["kind"] == "verdict"
    assert doc["all_passed"] is True
    assert doc["results"][0]["suite"] == "corollary6"
    assert doc["results"][0]["counterexample"] is None


def test_failed_identity_exits_1(capsys, monkeypatch):
    broken = [
        IdentityResult("theorem1", "demo identity", "n<=2", False, "n=2: 3 != 4"),
    ]
    monkeypatch.setattr(cli, "run_suites", lambda suite, n_max, r_max: broken)
    code, out = run_cli(capsys, ["verify", "--suite", "theorem1"])
    assert code == 1
    assert "FAIL theorem1: demo identity [n<=2] counterexample: n=2: 3 != 4" in out
    assert out.splitlines()[-1] == "0 of 1 identities passed"


def test_failed_identity_json_exits_1(capsys, monkeypatch):
    broken = [
        IdentityResult("eq42", "demo identity", "n<=2", False, "n=1"),
        IdentityResult("eq42", "second identity", "n<=2", True, None),
    ]
    monkeypatch.setattr(cli, "run_suites", lambda suite, n_max, r_max: broken)
    code, blob = run_cli(capsys, ["verify", "--suite", "eq42", "--format", "json"])
    assert code == 1
    doc = json.loads(blob)
    assert doc["all_passed"] is False
    assert [item["passed"] for item in doc["results"]] == [False, True]


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["table", "--help"]) == 0
    capsys.readouterr()


_FUZZ_FAMILIES = {
    "table": ("lah", "rlah", "lah-bell", "r-lah-bell"),
    "value": ("lah", "rlah", "lah-bell", "r-lah-bell", "lah-bell-poly"),
    "poly": (
        "complete-bell", "incomplete-bell", "complete-lah-bell", "incomplete-lah-bell",
        "incomplete-r-lah-bell", "complete-r-lah-bell", "theorem7",
    ),
    "verify": (),
}


def _tokens(lo, hi):
    """Small integers as argv tokens, with a few malformed ones mixed in."""
    return st.sampled_from([str(i) for i in range(lo, hi + 1)] * 4 + ["", "x", "1.5", "--n"])


_SEQUENCES = ["ones", "factorials", "symbolic", "1,2,3", "1,2", "3,-1,0,2,2,2,2", "1,,2", "a"]
# --r stays at most 3: the work of theorem7 grows with the compositions into
# 2r parts, and r = 6 at n = 6 costs more than the rest of the run
_FUZZ_FLAGS = {
    "--n": _tokens(-1, 6),
    "--n-max": _tokens(-1, 6),
    "--k": _tokens(-1, 6),
    "--r": _tokens(-1, 3),
    "--x": _tokens(-3, 3),
    "--seq-a": st.sampled_from(_SEQUENCES),
    "--seq-b": st.sampled_from(_SEQUENCES),
    "--format": st.sampled_from(["text", "json", "csv", "xml"]),
}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from([*_FUZZ_FAMILIES] * 4 + ["nope"]))
    argv = [command]
    if _FUZZ_FAMILIES.get(command):
        argv.append(draw(st.sampled_from(_FUZZ_FAMILIES[command] * 4 + ("nope",))))
    # the size flag comes first and usually, so that many draws get past argparse
    size = "--n" if command in ("value", "poly") else "--n-max"
    flags = draw(st.lists(st.sampled_from(list(_FUZZ_FLAGS)), unique=True, max_size=4))
    if size not in flags and draw(st.integers(0, 9)) < 9:
        flags.insert(0, size)
    for flag in flags:
        argv += [flag, draw(_FUZZ_FLAGS[flag])]
    return argv


@settings(max_examples=200, deadline=None)
@given(_fuzz_argv())
def test_fuzzed_argv_exits_0_1_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


def test_module_form_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "lahbell.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )

    done = module("value", "lah", "--n", "4", "--k", "2")
    assert (done.returncode, done.stdout) == (0, "36\n")
    refused = module("value", "lah", "--n", "4")
    assert refused.returncode == 2 and "--k is required" in refused.stderr


def test_package_form_prints_what_main_prints(capsys):
    argv = ["value", "lah", "--n", "4", "--k", "2"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "lahbell", *argv], capture_output=True, env=env, timeout=60
    )
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert (done.returncode, done.stdout) == (code, out.encode())


def test_the_console_script_runs_the_cli(monkeypatch, capsys):
    """pyproject's lahbell script, resolved from its entry as an installer
    does, reads sys.argv, prints the command's output and exits with its
    status: `lahbell verify --suite all` prints the golden that CI diffs."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["lahbell"]
    module, _, name = entry.partition(":")
    run = getattr(importlib.import_module(module), name)
    for argv, code, out in [
        (["value", "lah", "--n", "4", "--k", "2"], 0, "36\n"),
        (["verify", "--suite", "all"], 0, (GOLDEN / "verify_all.txt").read_text()),
        (["value", "lah", "--n", "4"], 2, ""),
    ]:
        monkeypatch.setattr(sys, "argv", ["lahbell", *argv])
        with pytest.raises(SystemExit) as exited:
            run()
        assert (exited.value.code, capsys.readouterr().out) == (code, out), argv


def test_a_reader_closing_the_pipe_ends_the_command_quietly():
    """head -c 5 on a table of megabytes: the writes that follow the close
    stop the command, which exits 0 with nothing on stderr."""
    argv = [sys.executable, "-m", "lahbell", "table", "lah", "--n-max", "300"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        try:
            head = proc.stdout.read(5)
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert (head, proc.returncode, err) == (b"1\n0 1", 0, b"")

"""The README's library quickstart runs and its printed values are true."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _first_python_block() -> str:
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    return text[start : text.index("```", start)]


def test_quickstart_claims_hold():
    source = _first_python_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        code, _, claim = lines[stmt.end_lineno - 1].partition("  # ")
        if not claim:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr), code
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        checked.append((code.strip(), repr(value), claim.strip()))
    assert checked == [(code, claim, claim) for code, _, claim in checked]
    assert len(checked) == sum("  # " in line for line in lines)

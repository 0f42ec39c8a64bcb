"""No module of the package imports a name that it never uses.

The project has no linter, so this test stands in for its unused-import
rule: each module under src/lahbell is parsed with ast, and every name it
imports must be read somewhere in it or listed in its __all__.
`from __future__ import annotations` changes how the module compiles and
is exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lahbell"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, __future__ left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(source: str) -> list[str]:
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = read | _exported(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in kept]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_imported_name_is_used(path):
    assert _unused(path.read_text()) == []


def test_a_leftover_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from .exact_core import exact_div, factorial\n"
        "__all__ = ['factorial']\n"
        "def f(n):\n"
        "    return math.perm(n, 1)\n"
    )
    assert _unused(source) == ["exact_div (line 3)"]

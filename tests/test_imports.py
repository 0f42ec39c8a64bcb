"""No module of the package imports a name that it never uses, and no
private helper is left that nothing in the package reads.

The project has no linter, so these tests stand in for its unused-import
and unused-name rules: each module under src/lahbell is parsed with ast, and
every name it imports must be read somewhere in it or listed in its __all__.
`from __future__ import annotations` changes how the module compiles and
is exempt.  Every module-level function, class or assigned name with one
leading underscore must be loaded, read as an attribute or imported
somewhere in the package.

A fresh interpreter that loads the CLI, as a one-shot `lahbell` run does,
must not pull in dataclasses, json or the inspect, ast, dis and tokenize
modules that dataclasses loads: they cost a cold start more than the
package itself.
"""

import ast
import subprocess
import sys
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


def _private_defined(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each module-level def, class or assignment with one
    leading underscore."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in found for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _orphans(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(_read_names, trees.values()))
    return [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_defined(tree).items()
        if name not in read
    ]


def test_every_private_helper_is_read():
    assert _orphans({path.name: path.read_text() for path in MODULES}) == []


def test_a_leftover_private_helper_is_caught():
    sources = {
        "verify.py": (
            "from .bell import _SPECS\n"
            "_TABLE = {'x': 1}\n"
            "def _sym(family):\n"
            "    return _TABLE[family]\n"
            "def check():\n"
            "    return _SPECS.x, _TABLE['x']\n"
        ),
        "bell.py": "_SPECS = object()\n_gone = 2\nclass _Kept:\n    pass\n_Kept()\n",
    }
    assert _orphans(sources) == ["verify.py: _sym (line 3)", "bell.py: _gone (line 2)"]


HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json")


def test_loading_the_cli_imports_no_heavy_module():
    """The benchmark's setup line in one isolated interpreter; a module the
    interpreter's own start-up loaded is not the package's doing."""
    code = (
        f"import sys; before = set(sys.modules); sys.path.insert(0, {str(PACKAGE.parent)!r}); "
        "import lahbell, lahbell.cli; lahbell.cli.build_parser(); "
        f"print(sorted((set(sys.modules) - before) & set({HEAVY!r})))"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert run.stdout == "[]\n"

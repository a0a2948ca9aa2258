"""Rules of the package's source, stated for every line by parsing it.

The library behaves the same under ``python -O``.  ``-O`` strips ``assert``
statements and sets ``__debug__`` to False and ``sys.flags.optimize`` to 1;
it changes nothing else a module can see.  So no module of the package may
hold an ``assert`` or read either flag.

Only the builders that prove every rule of ``Graph``'s or ``TreeColoring``'s
check in their own lines skip it through ``values._unchecked``.  A new caller
fails here until it is added to ``UNCHECKED_BUILDERS`` on purpose.
"""

import ast
from pathlib import Path

import pytest

import equitree

PACKAGE = Path(equitree.__file__).resolve().parent


def _optimize_dependent(source: str) -> list[str]:
    """Each place in source whose behaviour ``-O`` changes, as 'line N: what'."""
    tree = ast.parse(source)
    sys_names = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import)
                 for alias in node.names if alias.name == "sys"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append((node.lineno, "__debug__"))
        elif (isinstance(node, ast.Attribute) and node.attr == "flags"
              and isinstance(node.value, ast.Name) and node.value.id in sys_names):
            found.append((node.lineno, "sys.flags"))
        elif (isinstance(node, ast.ImportFrom) and node.module == "sys"
              and any(alias.name == "flags" for alias in node.names)):
            found.append((node.lineno, "sys.flags"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("source, found", [
    ("assert x", ["line 1: assert"]),
    ("x = 1\nif __debug__:\n    x = 2", ["line 2: __debug__"]),
    ("def f():\n    return not __debug__", ["line 2: __debug__"]),
    ("import sys\nlevel = sys.flags.optimize", ["line 2: sys.flags"]),
    ("import os, sys as s\nflags = s.flags", ["line 2: sys.flags"]),
    ("from sys import flags", ["line 1: sys.flags"]),
    ("import sys\nsys.exit(args.flags)", []),
    ("raise AssertionError('debug')", []),
], ids=["assert", "if-debug", "not-debug", "sys-flags", "aliased-sys",
        "from-sys", "other-flags", "raise"])
def test_the_check_finds_each_optimize_dependence(source, found):
    assert _optimize_dependent(source) == found


def test_no_module_depends_on_the_optimize_flag():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "__init__.py" in modules
    found = [f"{path.relative_to(PACKAGE)} {place}" for path in modules
             for place in _optimize_dependent(path.read_text(encoding="utf-8"))]
    assert found == []


# Each builds its value valid by construction; every other path keeps the check.
UNCHECKED_BUILDERS = [
    "bipartite.py _layout",
    "graph.py complete_bipartite",
    "graph.py path",
    "graph.py hex_grid",
    "graph.py maximal_outerplanar_random",
    "graph.py parse_edge_list",
]


def _unchecked_uses(source: str) -> list[tuple[int, str]]:
    """Each use of ``_unchecked`` in source, with its innermost function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == "_unchecked"
                    or isinstance(child, ast.Attribute) and child.attr == "_unchecked"):
                found.append((child.lineno, owner))
            elif isinstance(child, ast.alias) and child.name == "_unchecked" and child.asname:
                found.append((child.lineno, f"import as {child.asname}"))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


@pytest.mark.parametrize("source, found", [
    ("def f():\n    return _unchecked(C, x=1)", [(2, "f")]),
    ("async def f():\n    return _unchecked(C)", [(2, "f")]),
    ("x = graph._unchecked(C)", [(1, "<module>")]),
    ("def f():\n    def g():\n        return _unchecked(C)\n    return g", [(3, "g")]),
    ("class C:\n    def m(self):\n        return _unchecked(C)", [(3, "m")]),
    ("build = _unchecked\ndef f():\n    return build(C)", [(1, "<module>")]),
    ("from .graph import _unchecked as make", [(1, "import as make")]),
    ("from .graph import _unchecked\ndef _unchecked_twin():\n    return C()", []),
], ids=["call", "async", "attribute", "nested", "method", "alias", "import-as", "none"])
def test_the_check_finds_each_use_of_unchecked(source, found):
    assert _unchecked_uses(source) == found


def test_only_the_listed_builders_skip_the_check():
    found = [f"{path.relative_to(PACKAGE)} {owner}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for _, owner in _unchecked_uses(path.read_text(encoding="utf-8"))]
    assert found == UNCHECKED_BUILDERS

"""The library behaves the same under ``python -O``.

``-O`` strips ``assert`` statements and sets ``__debug__`` to False and
``sys.flags.optimize`` to 1; it changes nothing else a module can see.  So
no module of the package may hold an ``assert`` or read either flag.  Parsing
the source states this for every line, also for lines no other test runs.
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

"""What a process loads: the package resolves names on first use, and the
CLI imports an engine only for the subcommand that runs it.

Every check runs in a fresh interpreter, since this one has imported
everything already.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import equitree

PACKAGE = Path(equitree.__file__).resolve().parent
SUBMODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


# Prepended to each script: on exit, write to stderr the loaded equitree
# submodules, and dataclasses and inspect if the script loaded them: the
# package needs neither, and their import is a large share of start-up.
_REPORT = ("import atexit, sys\n"
           "preloaded = set(sys.modules)\n"
           "atexit.register(lambda: sys.stderr.write(' '.join(\n"
           "    m for m in sys.modules if m.startswith('equitree.')\n"
           "    or m in ('dataclasses', 'inspect') and m not in preloaded)))\n")


def _loaded(script: str) -> tuple[str, set[str]]:
    """Stdout of a fresh interpreter that runs script, and the equitree
    submodules, with dataclasses and inspect if loaded, when it exits."""
    done = _python("-c", _REPORT + script)
    return done.stdout, {name.removeprefix("equitree.") for name in done.stderr.split()}


def _defined_names(module: str) -> set[str]:
    """Top-level names that a submodule's own source defines."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_package_import_loads_no_submodule():
    assert _loaded("import equitree") == ("", set())


def test_cli_import_loads_only_what_every_subcommand_uses():
    assert _loaded("import equitree.cli")[1] == {"cli", "errors", "graph", "coloring"}


def test_exact_va_loads_only_bipartite_beside_the_cli_core():
    # What `python -m equitree.cli exact-va ...` does; run as __main__, the
    # CLI module itself is not loaded as equitree.cli.
    script = ("import runpy\n"
              "sys.argv[1:] = ['exact-va', '--variant', '11', '--knn', '43']\n"
              "runpy.run_module('equitree.cli', run_name='__main__', alter_sys=True)\n")
    assert _loaded(script)[1] == {"errors", "graph", "coloring", "bipartite"}


def test_search_loads_only_the_oracle_beside_the_cli_core(tmp_path):
    # The oracle needs bipartite's formulas for cross-check only.
    graph = tmp_path / "k55.txt"
    graph.write_text(equitree.format_edge_list(equitree.complete_bipartite(5)))
    argv = ["search", "--graph", str(graph), "--t", "3", "--k", "1", "--d", "1"]
    script = ("import runpy\n"
              f"sys.argv[1:] = {argv!r}\n"
              "try:\n"
              "    runpy.run_module('equitree.cli', run_name='__main__', alter_sys=True)\n"
              "except SystemExit:\n"
              "    pass\n")
    assert _loaded(script)[1] == {"errors", "graph", "coloring", "oracle"}


def test_every_public_name_resolves_to_its_defining_module():
    homes = {}
    for module in SUBMODULES:
        for name in _defined_names(module) & set(equitree.__all__):
            assert name not in homes, f"{name} defined in {homes[name]} and {module}"
            homes[name] = module
    assert sorted(homes) == equitree.__all__
    script = textwrap.dedent("""
        import importlib, json, sys
        import equitree
        homes = json.loads(sys.argv[1])
        wrong = [name for name, home in homes.items()
                 if getattr(equitree, name)
                 is not getattr(importlib.import_module("equitree." + home), name)]
        print(json.dumps({
            "wrong": wrong,
            "undir": sorted(set(equitree.__all__) - set(dir(equitree))),
            # Resolved once, a name is a plain entry of the package's dict.
            "unstored": sorted(set(equitree.__all__) - set(vars(equitree))),
        }))
    """)
    result = json.loads(_python("-c", script, json.dumps(homes)).stdout)
    assert result == {"wrong": [], "undir": [], "unstored": []}


def test_submodule_resolves_as_an_attribute():
    script = "import equitree; print(equitree.sparse.__name__, 'sparse' in dir(equitree))"
    assert _python("-c", script).stdout == "equitree.sparse True\n"


def test_star_import_binds_every_public_name():
    script = ("from equitree import *\nimport equitree\n"
              "print(len(equitree.__all__), sum(n in globals() for n in equitree.__all__))")
    assert _python("-c", script).stdout == "78 78\n"

"""What a process loads: the package resolves names on first use, and the
CLI imports a module, json included, only for the subcommand that runs it.

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

import pytest

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
# submodules, and dataclasses, inspect, json, argparse and gettext if the
# script, not site, loaded them: the package needs neither of the first two,
# whose import is a large share of start-up, only a process that reads or
# writes JSON needs json, and only the CLI's help and errors need argparse
# and the gettext it imports.
_REPORT = ("import atexit, sys\n"
           "preloaded = set(sys.modules)\n"
           "atexit.register(lambda: sys.stderr.write(' '.join(\n"
           "    m for m in sys.modules if m.startswith('equitree.')\n"
           "    or m in ('dataclasses', 'inspect', 'json', 'argparse', 'gettext')\n"
           "    and m not in preloaded)))\n")


def _loaded(script: str) -> tuple[str, set[str]]:
    """Stdout of a fresh interpreter that runs script, and the equitree
    submodules, with the other modules _REPORT names if loaded, when it
    exits."""
    done = _python("-c", _REPORT + script)
    return done.stdout, {name.removeprefix("equitree.") for name in done.stderr.split()}


def _cli_loads(*argv: str) -> set[str]:
    """What ``python -m equitree.cli ARGV`` loads, whatever its exit code.

    Run as __main__, the CLI module itself is not loaded as equitree.cli.
    """
    script = ("import runpy\n"
              f"sys.argv[1:] = {list(argv)!r}\n"
              "try:\n"
              "    runpy.run_module('equitree.cli', run_name='__main__', alter_sys=True)\n"
              "except SystemExit:\n"
              "    pass\n")
    return _loaded(script)[1]


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
    assert _loaded("import equitree.cli")[1] == {"cli", "errors", "values"}


@pytest.mark.parametrize("argv", [
    ("exact-va", "--variant", "11", "--knn", "43"),
    ("exact-va", "--variant", "inf2", "--knn", "43", "--json"),
    ("feasible", "--variant", "11", "--knn", "43", "--q", "21"),
    ("feasible", "--variant", "inf2", "--knn", "8", "--q", "5", "--json"),
], ids=["exact-va", "exact-va-json", "feasible", "feasible-witness-json"])
def test_knn_deciders_load_only_the_decider_beside_the_base(argv):
    expected = {"errors", "values", "decider"} | ({"json"} if "--json" in argv else set())
    assert _cli_loads(*argv) == expected


def test_gen_loads_no_coloring_and_no_json():
    assert _cli_loads("gen", "--family", "knn", "--n", "8") == {"errors", "values", "graph"}


def _edge_list(tmp_path, g) -> str:
    path = tmp_path / "graph.txt"
    path.write_text(equitree.format_edge_list(g))
    return str(path)


def test_construct_loads_the_sparse_engine_only_off_knn(tmp_path):
    core = {"errors", "values", "graph", "coloring", "dispatch", "bipartite", "decider",
            "json"}
    knn = _edge_list(tmp_path, equitree.complete_bipartite(8))
    assert _cli_loads("construct", "--graph", knn, "--t", "5", "--k", "2", "--d", "2") == core
    outer = _edge_list(tmp_path, equitree.maximal_outerplanar_random(40, 7))
    assert _cli_loads("construct", "--graph", outer, "--t", "3") == core | {"sparse"}


def test_search_loads_only_the_oracle_beside_the_cli_core(tmp_path):
    graph = _edge_list(tmp_path, equitree.complete_bipartite(5))
    argv = ["search", "--graph", graph, "--t", "3", "--k", "1", "--d", "1"]
    # json reads the ids of the edge list's canonical layout.
    assert _cli_loads(*argv) == {"errors", "values", "graph", "coloring", "oracle", "json"}


def test_cross_check_loads_the_decider_not_the_constructions():
    assert _cli_loads("cross-check", "--nmax", "2", "--qmax", "2") == {
        "errors", "values", "graph", "coloring", "oracle", "decider"}


_PLAIN = {
    "gen": ["--family", "outerplanar", "--n", "40", "--seed", "7"],
    "construct": ["--graph", "GRAPH", "--t", "2", "--k", "inf", "--d", "1"],
    "verify": ["--graph", "GRAPH", "--cert", "CERT", "--json"],
    "feasible": ["--variant", "11", "--knn", "8", "--q", "5"],
    "exact-va": ["--variant", "inf2", "--knn", "8"],
    "search": ["--graph", "GRAPH", "--t", "2", "--max-nodes", "100", "--time-cap", "5"],
    "cross-check": ["--nmax", "2", "--qmax", "2", "--json"],
}


@pytest.mark.parametrize("command", list(_PLAIN))
def test_plain_argv_loads_no_argparse(command, tmp_path):
    graph = _edge_list(tmp_path, equitree.complete_bipartite(3))
    cert = tmp_path / "cert.json"
    cert.write_text('{"n_vertices": 6, "t": 2, "k": null, "d": null, '
                    '"colors": [1, 1, 1, 2, 2, 2]}')
    argv = [{"GRAPH": graph, "CERT": str(cert)}.get(w, w) for w in _PLAIN[command]]
    assert not _cli_loads(command, *argv) & {"argparse", "gettext"}


@pytest.mark.parametrize("argv", [("--help",), ("gen", "--family", "knn", "--n", "x")],
                         ids=["help", "bad-int"])
def test_help_and_errors_load_argparse(argv):
    assert {"argparse", "gettext"} <= _cli_loads(*argv)


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

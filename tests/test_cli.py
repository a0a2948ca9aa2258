"""End-to-end command-line behavior, run in process through main()."""

import argparse
import ast
import io
import json
import re
import sys
from pathlib import Path

import cli_parity
import pytest

from equitree import (ClassCountVector, CrossCheckReport, Disagreement, cli,
                      oracle, parse_edge_list)
from equitree.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def k33(tmp_path, capsys):
    target = tmp_path / "k33.txt"
    code, out, _ = run(capsys, "gen", "--family", "knn", "--n", "3")
    assert code == 0
    target.write_text(out)
    return target


class TestGen:
    def test_families_parse_back(self, capsys):
        for family, n in (("knn", 4), ("cycle", 6), ("path", 5),
                          ("hexgrid", 2), ("outerplanar", 9)):
            code, out, _ = run(capsys, "gen", "--family", family, "--n",
                               str(n))
            assert code == 0
            g = parse_edge_list(out)
            assert g.n >= n

    def test_seed_changes_outerplanar(self, capsys):
        _, out_a, _ = run(capsys, "gen", "--family", "outerplanar", "--n",
                          "12", "--seed", "1")
        _, out_b, _ = run(capsys, "gen", "--family", "outerplanar", "--n",
                          "12", "--seed", "2")
        assert out_a != out_b


class TestConstructVerifyRoundTrip:
    def test_biclique_round_trip(self, k33, tmp_path, capsys):
        code, out, _ = run(capsys, "construct", "--graph", str(k33),
                           "--t", "3", "--k", "1", "--d", "1")
        assert code == 0
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        code, out, _ = run(capsys, "verify", "--graph", str(k33),
                           "--cert", str(cert))
        assert code == 0
        assert out.strip() == "valid"

    def test_sparse_auto_round_trip(self, tmp_path, capsys):
        _, out, _ = run(capsys, "gen", "--family", "dodecahedron")
        graph_file = tmp_path / "dod.txt"
        graph_file.write_text(out)
        code, out, _ = run(capsys, "construct", "--graph", str(graph_file),
                           "--t", "3")
        assert code == 0
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        code, _, _ = run(capsys, "verify", "--graph", str(graph_file),
                         "--cert", str(cert))
        assert code == 0

    def test_outerplanar_fallback_round_trip(self, tmp_path, capsys):
        _, out, _ = run(capsys, "gen", "--family", "outerplanar", "--n",
                        "15", "--seed", "4")
        graph_file = tmp_path / "op.txt"
        graph_file.write_text(out)
        for t in ("2", "5"):
            code, out, _ = run(capsys, "construct", "--graph",
                               str(graph_file), "--t", t)
            assert code == 0
            cert = tmp_path / "cert.json"
            cert.write_text(out)
            code, _, _ = run(capsys, "verify", "--graph", str(graph_file),
                             "--cert", str(cert))
            assert code == 0

    def test_explicit_methods(self, tmp_path, capsys):
        graphs = {}
        for family in (["knn", "--n", "6"], ["dodecahedron"],
                       ["hexgrid", "--n", "3"]):
            _, out, _ = run(capsys, "gen", "--family", *family)
            graphs[family[0]] = tmp_path / f"{family[0]}.txt"
            graphs[family[0]].write_text(out)
        for family, extra in (
                ("knn", ["--t", "4"]),
                ("knn", ["--t", "5"]),
                ("knn", ["--t", "5", "--d", "2"]),
                ("dodecahedron", ["--t", "3", "--method", "girth5"]),
                ("hexgrid", ["--t", "2", "--method", "girth6"])):
            code, out, _ = run(capsys, "construct", "--graph",
                               str(graphs[family]), *extra)
            assert code == 0, extra
            payload = json.loads(out)
            assert payload["t"] == int(extra[1])

    def test_unbounded_cap_round_trip(self, tmp_path, capsys):
        _, out, _ = run(capsys, "gen", "--family", "knn", "--n", "6")
        graph_file = tmp_path / "k66.txt"
        graph_file.write_text(out)
        code, out, _ = run(capsys, "construct", "--graph", str(graph_file),
                           "--t", "3", "--k", "inf", "--d", "2")
        assert code == 0
        payload = json.loads(out)
        assert (payload["k"], payload["d"]) == (None, 2)
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        code, out, _ = run(capsys, "verify", "--graph", str(graph_file),
                           "--cert", str(cert))
        assert (code, out.strip()) == (0, "valid")

    def test_removed_biclique_methods_exit_2(self, k33, capsys):
        # auto builds every K_{n,n} instance these used to force.
        for method in ("even", "odd11", "classcounts"):
            with pytest.raises(SystemExit) as exc:
                main(["construct", "--graph", str(k33), "--t", "2",
                      "--method", method])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_method_on_wrong_family(self, k33, capsys):
        # K_{3,3} is not outerplanar and has too many edges for girth 5 or 6.
        expected = {
            "outerplanar": (66, "no reducible configuration found; the graph "
                                "is outside the outerplanar class this "
                                "algorithm covers"),
            "girth5": (65, "edge count 9 violates the girth-5 planar bound "
                           "|E| <= 5(|V|-2)/3"),
            "girth6": (65, "edge count 9 violates the girth-6 planar bound "
                           "|E| <= 3(|V|-2)/2"),
        }
        for method, (code, message) in expected.items():
            assert run(capsys, "construct", "--graph", str(k33), "--t", "3",
                       "--method", method) == (code, "", f"error: {message}\n")

    def test_stdin_graph(self, k33, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(k33.read_text()))
        code, out, _ = run(capsys, "construct", "--graph", "-", "--t", "2")
        assert code == 0
        assert json.loads(out)["t"] == 2

    def test_emit_dot(self, k33, tmp_path, capsys):
        dot = tmp_path / "out.dot"
        code, _, _ = run(capsys, "construct", "--graph", str(k33),
                         "--t", "2", "--emit-dot", str(dot))
        assert code == 0
        text = dot.read_text()
        assert text.startswith("graph")
        assert "fillcolor=" in text
        assert "--" in text

    def test_tampered_certificate_fails_verify(self, k33, tmp_path, capsys):
        _, out, _ = run(capsys, "construct", "--graph", str(k33), "--t", "3",
                        "--k", "1", "--d", "1")
        payload = json.loads(out)
        payload["colors"][0] = payload["colors"][1]
        cert = tmp_path / "bad.json"
        cert.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--graph", str(k33),
                           "--cert", str(cert))
        assert code == 1
        assert out.startswith("invalid")

    def test_verify_json_report(self, k33, tmp_path, capsys):
        _, out, _ = run(capsys, "construct", "--graph", str(k33), "--t", "2")
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        code, out, _ = run(capsys, "verify", "--graph", str(k33),
                           "--cert", str(cert), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True
        assert len(report["classes"]) == 2


class TestFeasibleAndExact:
    def test_bad_instance_is_precondition_error(self, capsys):
        code, _, err = run(capsys, "feasible", "--knn", "0", "--q", "3",
                           "--variant", "11")
        assert code == 65


class TestSearch:
    def test_no_depth_limit(self, tmp_path, capsys):
        graph_file = tmp_path / "p1500.txt"
        _, out, _ = run(capsys, "gen", "--family", "path", "--n", "1500")
        graph_file.write_text(out)
        code, out, err = run(capsys, "search", "--graph", str(graph_file),
                             "--t", "1")
        assert code == 0, err
        assert json.loads(out)["colors"] == [1] * 1500

    def test_nan_time_cap_rejected(self, tmp_path, capsys):
        graph_file = tmp_path / "p4.txt"
        _, out, _ = run(capsys, "gen", "--family", "path", "--n", "4")
        graph_file.write_text(out)
        code, _, _ = run(capsys, "search", "--graph", str(graph_file),
                         "--t", "2", "--time-cap", "nan")
        assert code == 65


class TestCrossCheckCommand:
    def test_disagreement_is_listed(self, capsys, monkeypatch):
        report = CrossCheckReport(
            4, (Disagreement(2, 3, "inf2", "budget-exceeded", True),))
        monkeypatch.setattr(oracle, "cross_check_bipartite",
                            lambda n_max, q_max: report)
        code, out, _ = run(capsys, "cross-check", "--nmax", "2",
                           "--qmax", "2")
        assert code == 1
        assert out == ("checked 4 instances, 1 disagreements\n"
                       "  n=2 q=3 variant=inf2 oracle=budget-exceeded "
                       "formula=feasible\n")
        code, out, _ = run(capsys, "cross-check", "--nmax", "2",
                           "--qmax", "2", "--json")
        assert code == 1
        assert out == ('{"checked": 4, "disagreements": [{"n": 2, "q": 3, '
                       '"variant": "inf2", "oracle_status": "budget-exceeded", '
                       '"formula_feasible": true}]}\n')

    def test_empty_grid_is_precondition_error(self, capsys):
        for nmax, qmax in (("0", "0"), ("3", "0"), ("0", "3"), ("-2", "4")):
            code, out, err = run(capsys, "cross-check", "--nmax", nmax,
                                 "--qmax", qmax)
            assert code == 65, (nmax, qmax)
            assert out == ""
            assert err.startswith("error: ")


class TestErrorPaths:
    def test_malformed_graph_exit_64(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("zero one\n")
        code, _, err = run(capsys, "construct", "--graph", str(bad),
                           "--t", "2")
        assert code == 64
        assert "error:" in err

    def test_missing_file_exit_64(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", "--graph",
                           str(tmp_path / "nope.txt"),
                           "--cert", str(tmp_path / "nope.json"))
        assert code == 64

    def test_non_utf8_file_exit_64(self, k33, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"0 1\n# caf\xe9\n")
        code, _, err = run(capsys, "construct", "--graph", str(bad),
                           "--t", "2")
        assert code == 64
        assert err.startswith(f"error: cannot read {bad}: ")
        assert err.count("\n") == 1
        code, _, err = run(capsys, "verify", "--graph", str(k33),
                           "--cert", str(bad))
        assert code == 64
        assert err.startswith(f"error: cannot read {bad}: ")

    def test_unwritable_dot_exit_64(self, k33, tmp_path, capsys):
        dot = tmp_path / "missing" / "out.dot"
        for argv in (("construct", "--graph", str(k33), "--t", "2"),
                     ("search", "--graph", str(k33), "--t", "2")):
            code, out, err = run(capsys, *argv, "--emit-dot", str(dot))
            assert code == 64
            assert out == ""
            assert err.startswith(f"error: cannot write {dot}: ")
            assert err.count("\n") == 1

    def test_bad_certificate_json_exit_64(self, k33, tmp_path, capsys):
        cert = tmp_path / "broken.json"
        cert.write_text("{not json")
        code, _, _ = run(capsys, "verify", "--graph", str(k33),
                         "--cert", str(cert))
        assert code == 64

    def test_infeasible_construct_exit_65(self, tmp_path, capsys):
        graph_file = tmp_path / "k55.txt"
        _, out, _ = run(capsys, "gen", "--family", "knn", "--n", "5")
        graph_file.write_text(out)
        code, _, err = run(capsys, "construct", "--graph", str(graph_file),
                           "--t", "3", "--k", "1", "--d", "1")
        assert code == 65
        assert "error:" in err

    def test_unsupported_caps_on_sparse_graph(self, tmp_path, capsys):
        graph_file = tmp_path / "dod.txt"
        _, out, _ = run(capsys, "gen", "--family", "dodecahedron")
        graph_file.write_text(out)
        code, _, _ = run(capsys, "construct", "--graph", str(graph_file),
                         "--t", "3", "--k", "2")
        assert code == 65

    def test_non_outerplanar_method_exit_66(self, tmp_path, capsys):
        k4 = tmp_path / "k4.txt"
        k4.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, _, _ = run(capsys, "construct", "--graph", str(k4),
                         "--t", "2", "--method", "outerplanar")
        assert code == 66

    def test_bad_flag_value_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["construct", "--graph", "x", "--t", "2", "--k", "wat"])
        assert excinfo.value.code == 2

    def test_negative_bound_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["construct", "--graph", "x", "--t", "2", "--d", "-1"])
        assert excinfo.value.code == 2
        assert "bounds must be nonnegative" in capsys.readouterr().err

    def test_unexpected_exception_exits_70(self, capsys, monkeypatch):
        def boom(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "_cmd_exact_va", boom)
        code, out, err = run(capsys, "exact-va", "--knn", "5",
                             "--variant", "11")
        assert code == 70
        assert out == ""
        assert err == ("internal error: RecursionError: "
                       "maximum recursion depth exceeded\n")



# Inputs of the golden table, written to its working directory.
_GOLDEN_FILES = {
    "k33.txt": "p 6 9\n0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n",
    "c5.txt": "p 5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n",
    "p4.txt": "p 4 3\n0 1\n1 2\n2 3\n",
    "sides.json": '{"n_vertices": 6, "t": 2, "k": null, "d": null, '
                  '"colors": [1, 1, 1, 2, 2, 2]}',
    "one.json": '{"n_vertices": 6, "t": 1, "k": null, "d": null, '
                '"colors": [1, 1, 1, 1, 1, 1]}',
}

_WITNESS_65_9 = ('{"a": 14, "r": 4, "x1": 0, "x2": 0, "x1p": 0, "x2p": 5, '
                 '"y1": 4, "y2": 0, "y1p": 0, "y2p": 0}')
_GEN_USAGE = ("usage: equitree gen [-h] --family\n"
              "                    {knn,cycle,path,dodecahedron,hexgrid,"
              "outerplanar} [--n N]\n"
              "                    [--seed SEED]\n")
# argparse's own help and error text, as CPython 3.10 and 3.11 print it.
_ARGPARSE = pytest.mark.skipif(
    sys.version_info[:2] not in ((3, 10), (3, 11)),
    reason="argparse text differs between CPython versions")

# (argv, exit code, stdout, stderr): every byte the CLI writes for each kind
# of answer, in text mode and under --json.
_GOLDEN = [
    ("gen --family knn --n 3", 0,
     "p 6 9\n0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n", ""),
    ("gen --family cycle --n 5", 0, "p 5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n", ""),
    ("gen --family path --n 4", 0, "p 4 3\n0 1\n1 2\n2 3\n", ""),
    ("gen --family dodecahedron", 0,
     "p 20 30\n0 1\n0 10\n0 19\n1 2\n1 8\n2 3\n2 6\n3 4\n3 19\n4 5\n4 17\n"
     "5 6\n5 15\n6 7\n7 8\n7 14\n8 9\n9 10\n9 13\n10 11\n11 12\n11 18\n"
     "12 13\n12 16\n13 14\n14 15\n15 16\n16 17\n17 18\n18 19\n", ""),
    ("gen --family hexgrid --n 1", 0,
     "p 6 6\n0 1\n0 3\n1 2\n2 5\n3 4\n4 5\n", ""),
    ("gen --family outerplanar --n 6 --seed 3", 0,
     "p 6 9\n0 1\n0 2\n0 5\n1 2\n2 3\n2 5\n3 4\n3 5\n4 5\n", ""),
    ("gen --family cycle", 65, "",
     "error: --n is required for family 'cycle'\n"),
    pytest.param(
        "gen --family wheel --n 5", 2, "",
        _GEN_USAGE + "equitree gen: error: argument --family: invalid "
        "choice: 'wheel' (choose from 'knn', 'cycle', 'path', "
        "'dodecahedron', 'hexgrid', 'outerplanar')\n", marks=_ARGPARSE),
    ("construct --graph k33.txt --t 2", 0,
     '{"n_vertices": 6, "t": 2, "k": null, "d": null, '
     '"colors": [1, 1, 1, 2, 2, 2]}\n', ""),
    ("construct --graph k33.txt --t 3 --k 0 --d 0", 65, "",
     "error: K_{3,3} has no equitable (3,0,0)-tree-coloring\n"),
    ("construct --graph p4.txt --t 2 --emit-dot -", 0,
     '{"n_vertices": 4, "t": 2, "k": null, "d": null, '
     '"colors": [2, 1, 1, 2]}\n'
     'graph coloring {\n  node [style=filled];\n'
     '  0 [label="0" colorclass=2 fillcolor="0.500 0.400 1.000"];\n'
     '  1 [label="1" colorclass=1 fillcolor="0.000 0.400 1.000"];\n'
     '  2 [label="2" colorclass=1 fillcolor="0.000 0.400 1.000"];\n'
     '  3 [label="3" colorclass=2 fillcolor="0.500 0.400 1.000"];\n'
     '  0 -- 1;\n  1 -- 2;\n  2 -- 3;\n}\n', ""),
    ("verify --graph k33.txt --cert sides.json", 0, "valid\n", ""),
    ("verify --graph k33.txt --cert sides.json --json", 0,
     '{"verdict": true, "equitable": true, "first_violation": "", '
     '"classes": [{"size": 3, "is_forest": true, "max_degree": 0, '
     '"diameter": 0}, {"size": 3, "is_forest": true, "max_degree": 0, '
     '"diameter": 0}]}\n', ""),
    ("verify --graph k33.txt --cert one.json", 1,
     "invalid: class 1 contains a cycle\n", ""),
    ("verify --graph k33.txt --cert one.json --json", 1,
     '{"verdict": false, "equitable": true, "first_violation": "class 1 '
     'contains a cycle", "classes": [{"size": 6, "is_forest": false, '
     '"max_degree": 3, "diameter": null}]}\n', ""),
    ("feasible --variant 11 --knn 43 --q 22", 0, "feasible\n", ""),
    ("feasible --variant 11 --knn 43 --q 22 --json", 0,
     '{"feasible": true, "witness": null}\n', ""),
    ("feasible --variant 11 --knn 43 --q 21", 1, "infeasible\n", ""),
    ("feasible --variant 11 --knn 43 --q 21 --json", 1,
     '{"feasible": false, "witness": null}\n', ""),
    ("feasible --variant inf2 --knn 65 --q 9", 0,
     f"feasible\n{_WITNESS_65_9}\n", ""),
    ("feasible --variant inf2 --knn 65 --q 9 --json", 0,
     f'{{"feasible": true, "witness": {_WITNESS_65_9}}}\n', ""),
    ("feasible --variant inf2 --knn 65 --q 7", 1, "infeasible\n", ""),
    ("feasible --variant inf2 --knn 65 --q 7 --json", 1,
     '{"feasible": false, "witness": null}\n', ""),
    ("exact-va --variant 11 --knn 43", 0, "22\n", ""),
    ("exact-va --variant 11 --knn 43 --json", 0, '{"value": 22}\n', ""),
    ("exact-va --variant inf2 --knn 65", 0, "8\n", ""),
    ("exact-va --variant inf2 --knn 65 --json", 0, '{"value": 8}\n', ""),
    ("search --graph c5.txt --t 1", 1, "infeasible\n", ""),
    ("search --graph c5.txt --t 1 --json", 1,
     '{"status": "infeasible", "nodes": 5, "certificate": null}\n', ""),
    ("search --graph k33.txt --t 3 --k 1 --d 1 --max-nodes 2", 2,
     "budget-exceeded\n", ""),
    ("search --graph k33.txt --t 3 --k 1 --d 1 --max-nodes 2 --json", 2,
     '{"status": "budget-exceeded", "nodes": 3, "certificate": null}\n', ""),
    ("search --graph p4.txt --t 2", 0,
     '{"n_vertices": 4, "t": 2, "k": null, "d": null, '
     '"colors": [2, 1, 1, 2]}\n', ""),
    ("search --graph p4.txt --t 2 --json", 0,
     '{"status": "feasible", "nodes": 4, "certificate": {"n_vertices": 4, '
     '"t": 2, "k": null, "d": null, "colors": [2, 1, 1, 2]}}\n', ""),
    ("cross-check --nmax 2 --qmax 4", 0,
     "checked 16 instances, 0 disagreements\n", ""),
    ("cross-check --nmax 2 --qmax 4 --json", 0,
     '{"checked": 16, "disagreements": []}\n', ""),
    pytest.param(
        "--help", 0,
        "usage: equitree [-h]\n"
        "                {gen,construct,verify,feasible,exact-va,search,"
        "cross-check}\n"
        "                ...\n\n"
        "Construct, verify, and decide equitable tree-colorings.\n\n"
        "positional arguments:\n"
        "  {gen,construct,verify,feasible,exact-va,search,cross-check}\n"
        "    gen                 generate a named graph family\n"
        "    construct           build a coloring certificate\n"
        "    verify              check a certificate against a graph\n"
        "    feasible            feasibility for K_{n,n}\n"
        "    exact-va            exact strong threshold for K_{n,n}\n"
        "    search              exhaustive search on a small graph\n"
        "    cross-check         compare formulas against the oracle\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n", "",
        marks=_ARGPARSE),
    pytest.param(
        "gen --help", 0,
        _GEN_USAGE + "\noptions:\n"
        "  -h, --help            show this help message and exit\n"
        "  --family {knn,cycle,path,dodecahedron,hexgrid,outerplanar}\n"
        "  --n N\n"
        "  --seed SEED\n", "", marks=_ARGPARSE),
]


@pytest.mark.parametrize("argv, code, out, err", _GOLDEN,
                         ids=[getattr(row, "values", row)[0] for row in _GOLDEN])
def test_golden_bytes(argv, code, out, err, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in _GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    try:
        got = main(argv.split())
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)


def test_golden_covers_every_subcommand():
    """Every subcommand has a golden row, and one with --json has rows
    with and without it."""
    rows = {tuple(getattr(row, "values", row)[0].split()) for row in _GOLDEN}
    commands = next(action.choices for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for name, parser in commands.items():
        flagged = {"--json" in argv for argv in rows if argv[0] == name}
        wanted = ({False, True} if "--json" in parser._option_string_actions
                  else {False})
        assert flagged == wanted, name

def _readme_commands():
    """Argument lists of every ``equitree ...`` line in README's sh blocks,
    cut at the first shell redirection or pipe."""
    return [argv for block in cli_parity.readme_blocks() for argv, _, _ in block]


def test_readme_has_commands_for_every_subcommand():
    used = {argv[0] for argv in _readme_commands()}
    assert used == {"gen", "construct", "verify", "feasible", "exact-va",
                    "search", "cross-check"}


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    cli._build_parser().parse_args(argv)


def test_plain_reader_agrees_with_argparse():
    """The reader declines each argv of the corpus or reads exactly what
    argparse reads, and reads README's and the benchmark's argv itself."""
    assert cli_parity.disagreements(cli_parity.corpus()) == []
    assert all(cli._read_plain(argv) for argv in _readme_commands() + cli_parity.BENCH)


def test_readme_blocks_run_in_order(tmp_path, capsys, monkeypatch):
    """Every README command runs as written, in order, in one directory:
    each exits as documented, reads only files an earlier command wrote,
    and every file written by redirection is read by a later command."""
    monkeypatch.chdir(tmp_path)
    written, read = set(), set()
    for block in cli_parity.readme_blocks():
        for argv, target, expected in block:
            for flag in ("--graph", "--cert"):
                if flag in argv:
                    name = argv[argv.index(flag) + 1]
                    assert name in written, (argv, f"{name} not written yet")
                    read.add(name)
            code, out, err = run(capsys, *argv)
            assert code == expected, (argv, code, err)
            if target is not None:
                (tmp_path / target).write_text(out)
                written.add(target)
            if "--emit-dot" in argv:
                dot = tmp_path / argv[argv.index("--emit-dot") + 1]
                assert dot.read_text().startswith("graph coloring {")
    assert written == read


def test_readme_python_block_states_its_values():
    """README's python block runs, and each expression whose comment
    states a value evaluates to it."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values[ast.get_source_segment(block, stmt)] = eval(
                compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    comments = {line.split("#")[0].strip(): line.split("#")[1].strip()
                for line in block.splitlines()
                if "#" in line and not line.lstrip().startswith("#")}
    for source, value in (("feasible_11(43, 21)", False),
                          ("exact_va11(43)", 22),
                          ("report.verdict", True),
                          ("exact_vainf2(65)", 8)):
        assert type(values[source]) is type(value), source
        assert values[source] == value, source
        assert comments[source].split(",")[0] == str(value), source
    assert isinstance(values["feasible_counts(8, 5, 2, 2)"], ClassCountVector)
    assert "ClassCountVector" in comments["feasible_counts(8, 5, 2, 2)"]

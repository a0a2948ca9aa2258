"""End-to-end command-line behavior, run in process through main()."""

import io
import json
import re
import shlex
from pathlib import Path

import pytest

from equitree import cli, parse_edge_list
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

    def test_dodecahedron_needs_no_n(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "dodecahedron")
        assert code == 0
        assert parse_edge_list(out).n == 20

    def test_missing_n_is_precondition_error(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "cycle")
        assert code == 65
        assert "--n" in err

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
                ("knn", ["--t", "4", "--method", "even"]),
                ("knn", ["--t", "5", "--method", "odd11"]),
                ("knn", ["--t", "5", "--method", "classcounts", "--d", "2"]),
                ("dodecahedron", ["--t", "3", "--method", "girth5"]),
                ("hexgrid", ["--t", "2", "--method", "girth6"])):
            code, out, _ = run(capsys, "construct", "--graph",
                               str(graphs[family]), *extra)
            assert code == 0, extra
            payload = json.loads(out)
            assert payload["t"] == int(extra[1])

    def test_method_on_wrong_family(self, k33, capsys):
        code, _, err = run(capsys, "construct", "--graph", str(k33),
                           "--t", "3", "--method", "outerplanar")
        assert code == 66 or code == 65

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
        code, out, _ = run(capsys, "construct", "--graph", str(k33),
                           "--t", "2", "--emit-dot", "-")
        assert code == 0
        certificate, dot_text = out.split("\n", 1)
        assert json.loads(certificate)["t"] == 2
        assert dot_text.startswith("graph coloring {")

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
    def test_feasible_with_witness(self, capsys):
        code, out, _ = run(capsys, "feasible", "--knn", "65", "--q", "9",
                           "--variant", "inf2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "feasible"
        witness = json.loads(lines[1])
        assert witness["x2p"] == 5 and witness["y1"] == 4

    def test_infeasible_exit_code(self, capsys):
        code, out, _ = run(capsys, "feasible", "--knn", "65", "--q", "7",
                           "--variant", "inf2")
        assert code == 1
        assert out.strip() == "infeasible"

    def test_matching_variant_json(self, capsys):
        code, out, _ = run(capsys, "feasible", "--knn", "43", "--q", "22",
                           "--variant", "11", "--json")
        assert code == 0
        assert json.loads(out) == {"feasible": True, "witness": None}

    def test_exact_va_frozen_values(self, capsys):
        code, out, _ = run(capsys, "exact-va", "--knn", "43",
                           "--variant", "11")
        assert (code, out.strip()) == (0, "22")
        code, out, _ = run(capsys, "exact-va", "--knn", "65",
                           "--variant", "inf2")
        assert (code, out.strip()) == (0, "8")

    def test_exact_va_json(self, capsys):
        code, out, _ = run(capsys, "exact-va", "--knn", "65",
                           "--variant", "inf2", "--json")
        assert json.loads(out) == {"value": 8}

    def test_bad_instance_is_precondition_error(self, capsys):
        code, _, err = run(capsys, "feasible", "--knn", "0", "--q", "3",
                           "--variant", "11")
        assert code == 65


class TestSearch:
    def test_feasible_prints_certificate(self, tmp_path, capsys):
        graph_file = tmp_path / "p4.txt"
        _, out, _ = run(capsys, "gen", "--family", "path", "--n", "4")
        graph_file.write_text(out)
        code, out, _ = run(capsys, "search", "--graph", str(graph_file),
                           "--t", "2")
        assert code == 0
        cert = json.loads(out)
        assert cert["t"] == 2 and len(cert["colors"]) == 4

    def test_infeasible_exit_one(self, tmp_path, capsys):
        graph_file = tmp_path / "k55.txt"
        _, out, _ = run(capsys, "gen", "--family", "knn", "--n", "5")
        graph_file.write_text(out)
        code, out, _ = run(capsys, "search", "--graph", str(graph_file),
                           "--t", "3", "--k", "1", "--d", "1")
        assert code == 1
        assert out.strip() == "infeasible"

    def test_budget_exit_two(self, tmp_path, capsys):
        graph_file = tmp_path / "k44.txt"
        _, out, _ = run(capsys, "gen", "--family", "knn", "--n", "4")
        graph_file.write_text(out)
        code, out, _ = run(capsys, "search", "--graph", str(graph_file),
                           "--t", "3", "--k", "1", "--d", "1",
                           "--max-nodes", "4")
        assert code == 2
        assert out.strip() == "budget-exceeded"

    def test_json_status(self, tmp_path, capsys):
        graph_file = tmp_path / "c5.txt"
        _, out, _ = run(capsys, "gen", "--family", "cycle", "--n", "5")
        graph_file.write_text(out)
        code, out, _ = run(capsys, "search", "--graph", str(graph_file),
                           "--t", "1", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "infeasible"
        assert payload["certificate"] is None


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
    def test_clean_window(self, capsys):
        code, out, _ = run(capsys, "cross-check", "--nmax", "3",
                           "--qmax", "6")
        assert code == 0
        assert "0 disagreements" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "cross-check", "--nmax", "2",
                           "--qmax", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["checked"] == 16
        assert payload["disagreements"] == []

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


def _readme_blocks():
    """README's sh blocks in order, each a list of ``(argv, redirect
    target or None, expected exit code)`` for its ``equitree ...`` lines.
    A line's exit code is 0 unless its comment says ``exit code N``."""
    blocks = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        commands = []
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] != ["equitree"]:
                continue
            cut = next((i for i, w in enumerate(words) if w in (">", "|")),
                       len(words))
            target = words[cut + 1] if words[cut:cut + 1] == [">"] else None
            expected = re.search(r"#.*exit code (\d+)", line)
            commands.append((words[1:cut], target,
                             int(expected.group(1)) if expected else 0))
        if commands:
            blocks.append(commands)
    return blocks


def _readme_commands():
    """Argument lists of every ``equitree ...`` line in README's sh blocks,
    cut at the first shell redirection or pipe."""
    return [argv for block in _readme_blocks() for argv, _, _ in block]


def test_readme_has_commands_for_every_subcommand():
    used = {argv[0] for argv in _readme_commands()}
    assert used == {"gen", "construct", "verify", "feasible", "exact-va",
                    "search", "cross-check"}


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    cli._build_parser().parse_args(argv)


def test_readme_blocks_run_in_order(tmp_path, capsys, monkeypatch):
    """Every README command runs as written, in order, in one directory:
    each exits as documented, reads only files an earlier command wrote,
    and every file written by redirection is read by a later command."""
    monkeypatch.chdir(tmp_path)
    written, read = set(), set()
    for block in _readme_blocks():
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

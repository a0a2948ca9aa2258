"""Command-line surface: generate graphs, construct and verify colorings,
decide feasibility, compute exact thresholds, and run the oracle.

Exit codes form the contract: 0 on success or a positive answer, 1 on a
negative answer (infeasible, invalid certificate, disagreements found),
2 when the search budget runs out, 64 for an input file that is malformed
or cannot be read or an output file that cannot be written, 65 for calls
outside a precondition, 66 when no reducible configuration exists, 70 for
an internal error (any other exception, reported on one stderr line).
argparse itself exits with 2 on bad flags, before any computation.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import (
    ConfigurationNotFoundError,
    InputFormatError,
    PreconditionError,
)
from .values import METHODS, UNBOUNDED, asdict

if TYPE_CHECKING:
    from .coloring import TreeColoring
    from .graph import Graph

# Everything else (graph, coloring, the engines and json) is imported by the
# handlers that use it, so a process loads only what its subcommand runs.

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_INPUT = 64
EXIT_PRECONDITION = 65
EXIT_NO_CONFIGURATION = 66
EXIT_INTERNAL = 70

# The typed errors that answer about the input, and their exit codes.
_ERROR_EXITS = ((InputFormatError, EXIT_INPUT),
                (ConfigurationNotFoundError, EXIT_NO_CONFIGURATION),
                (PreconditionError, EXIT_PRECONDITION))


def _parse_bound(text: str):
    if text == "inf":
        return UNBOUNDED
    try:
        value = int(text)
    except ValueError:
        message = f"expected an integer or 'inf', got {text!r}"
    else:
        if value >= 0:
            return value
        message = "bounds must be nonnegative"
    from argparse import ArgumentTypeError

    raise ArgumentTypeError(message)


def _read_text(source: str) -> str:
    try:
        if source == "-":
            return sys.stdin.read()
        return Path(source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {source}: {exc}") from exc


def _load_graph(source: str) -> Graph:
    from .graph import parse_edge_list

    return parse_edge_list(_read_text(source))


def _load_certificate(source: str):
    import json

    from .coloring import coloring_from_certificate

    text = _read_text(source)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"certificate is not valid JSON: {exc}") from exc
    return coloring_from_certificate(payload)


def _dot_text(g: Graph, coloring: TreeColoring) -> str:
    """The colored graph in DOT format, one HSV fill color per class."""
    lines = ["graph coloring {", "  node [style=filled];"]
    for v in range(g.n):
        c = coloring.colors[v]
        hue = (c - 1) / coloring.t
        lines.append(
            f'  {v} [label="{v}" colorclass={c} '
            f'fillcolor="{hue:.3f} 0.400 1.000"];'
        )
    for u, v in sorted(g.edges()):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dumps(payload) -> str:
    """payload as JSON text; json is imported only by a process that writes it."""
    import json

    return json.dumps(payload)


def _print_coloring(args, g: Graph, coloring: TreeColoring, payload) -> None:
    """Print payload as JSON, then any `--emit-dot -` DOT text; a DOT file
    is written first, so one that cannot be written leaves stdout empty."""
    destination = args.emit_dot
    text = _dot_text(g, coloring) if destination else ""
    if destination and destination != "-":
        try:
            Path(destination).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputFormatError(f"cannot write {destination}: {exc}") from exc
    print(_dumps(payload))
    if destination == "-":
        sys.stdout.write(text)


def _answer(args, payload, text, ok=True) -> int:
    """Print payload as JSON under --json and text otherwise; exit 0 on a
    positive answer and 1 on a negative one."""
    print(_dumps(payload) if args.json else text)
    return EXIT_OK if ok else EXIT_NEGATIVE


# The gen families, in --family's order: each builds a graph from (n, seed)
# with the generators of the graph module it is given.
_FAMILIES = {
    "knn": lambda graph, n, seed: graph.complete_bipartite(n),
    "cycle": lambda graph, n, seed: graph.cycle(n),
    "path": lambda graph, n, seed: graph.path(n),
    "dodecahedron": lambda graph, n, seed: graph.dodecahedron(),
    "hexgrid": lambda graph, n, seed: graph.hex_grid(n, n),
    "outerplanar": lambda graph, n, seed: graph.maximal_outerplanar_random(n, seed),
}


def _cmd_gen(args) -> int:
    from . import graph

    if args.n is None and args.family != "dodecahedron":
        raise PreconditionError(f"--n is required for family {args.family!r}")
    g = _FAMILIES[args.family](graph, args.n, args.seed)
    sys.stdout.write(graph.format_edge_list(g))
    return EXIT_OK


def _cmd_construct(args) -> int:
    from .coloring import Params, certificate_from_coloring
    from .dispatch import construct

    g = _load_graph(args.graph)
    params = Params(args.t, args.k, args.d)
    coloring = construct(g, params, args.method)
    _print_coloring(args, g, coloring,
                    certificate_from_coloring(coloring, params))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .coloring import verify

    g = _load_graph(args.graph)
    params, coloring = _load_certificate(args.cert)
    report = verify(g, coloring, params)
    text = "valid" if report.verdict else f"invalid: {report.first_violation}"
    return _answer(args, asdict(report), text, report.verdict)


def _cmd_feasible(args) -> int:
    from .decider import feasible_11, feasible_inf2

    if args.variant == "11":
        ok = feasible_11(args.knn, args.q)
        witness = None
    else:
        witness = feasible_inf2(args.knn, args.q)
        ok = witness is not None
    payload = {"feasible": ok, "witness": asdict(witness) if witness else None}
    text = "feasible" if ok else "infeasible"
    if witness is not None:
        text += "\n" + _dumps(payload["witness"])
    return _answer(args, payload, text, ok)


def _cmd_exact_va(args) -> int:
    from .decider import exact_va11, exact_vainf2

    fn = exact_va11 if args.variant == "11" else exact_vainf2
    value = fn(args.knn)
    return _answer(args, {"value": value}, value)


def _cmd_search(args) -> int:
    from .coloring import Params, certificate_from_coloring
    from .oracle import BUDGET_EXCEEDED, FEASIBLE, SearchBudget, brute_force_search

    g = _load_graph(args.graph)
    params = Params(args.t, args.k, args.d)
    budget = SearchBudget(args.max_nodes, args.time_cap)
    result = brute_force_search(g, params, budget)
    certificate = None
    if result.status == FEASIBLE:
        certificate = certificate_from_coloring(result.coloring, params)
    report = {
        "status": result.status,
        "nodes": result.nodes,
        "certificate": certificate,
    }
    if certificate is None:
        code = _answer(args, report, result.status, ok=False)
        return EXIT_BUDGET if result.status == BUDGET_EXCEEDED else code
    _print_coloring(args, g, result.coloring,
                    report if args.json else certificate)
    return EXIT_OK


def _cmd_cross_check(args) -> int:
    from .oracle import cross_check_bipartite

    report = cross_check_bipartite(args.nmax, args.qmax)
    lines = [f"checked {report.checked} instances, "
             f"{len(report.disagreements)} disagreements"]
    lines += [f"  n={item.n} q={item.q} variant={item.variant} "
              f"oracle={item.oracle_status} "
              f"formula={'feasible' if item.formula_feasible else 'infeasible'}"
              for item in report.disagreements]
    return _answer(args, asdict(report), "\n".join(lines), report.clean)


# Every flag's add_argument keywords: a flag means the same in each
# subcommand that takes it. A count is a required int; a bound is a cap.
_COUNT = {"required": True, "type": int}
_BOUND = {"type": _parse_bound, "default": UNBOUNDED}
_FLAGS = {
    "--family": {"required": True, "choices": list(_FAMILIES)},
    "--n": {"type": int},
    "--seed": {"type": int, "default": 0},
    "--graph": {"required": True},
    "--cert": {"required": True},
    "--t": _COUNT,
    "--k": _BOUND,
    "--d": _BOUND,
    "--method": {"default": "auto", "choices": METHODS},
    "--knn": _COUNT,
    "--q": _COUNT,
    "--variant": {"required": True, "choices": ["11", "inf2"]},
    "--max-nodes": {"type": int, "default": 100_000_000},
    "--time-cap": {"type": float, "default": 60.0},
    "--nmax": _COUNT,
    "--qmax": _COUNT,
    "--json": {"action": "store_true", "default": False},
    "--emit-dot": {},
}
# The subcommands in --help's order, each with its help line and its flags
# in --help's order. main runs COMMAND's handler, _cmd_COMMAND, by name.
_COMMANDS = {
    "gen": ("generate a named graph family", "--family --n --seed"),
    "construct": ("build a coloring certificate",
                  "--graph --t --k --d --method --emit-dot"),
    "verify": ("check a certificate against a graph", "--graph --cert --json"),
    "feasible": ("feasibility for K_{n,n}", "--knn --q --variant --json"),
    "exact-va": ("exact strong threshold for K_{n,n}", "--knn --variant --json"),
    "search": ("exhaustive search on a small graph",
               "--graph --t --k --d --max-nodes --time-cap --json --emit-dot"),
    "cross-check": ("compare formulas against the oracle", "--nmax --qmax --json"),
}


def _build_parser():
    """The parser of _COMMANDS: the author of every help, usage and error
    text, and the reader of each argv that _read_plain declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="equitree",
        description="Construct, verify, and decide equitable tree-colorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, flags) in _COMMANDS.items():
        each = sub.add_parser(command, help=help_line)
        for flag in flags.split():
            each.add_argument(flag, **_FLAGS[flag])
    return parser


def _read_plain(argv):
    """What argparse reads from a plain argv, without importing argparse;
    None for any other argv. A plain argv is COMMAND, then flags by their
    full names, each once and each but a switch with a value. No value
    starts with '-', a number is at most 640 ASCII digits (the lowest
    digit limit int() can be given) or 'inf' for a bound, and a value with
    choices is one of them."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    unread = _COMMANDS[argv[0]][1].split()
    args = SimpleNamespace(command=argv[0])
    words = iter(argv[1:])
    for flag in words:
        if flag not in unread:
            return None
        unread.remove(flag)
        spec = _FLAGS[flag]
        if "action" in spec:
            value = True
        else:
            text = next(words, "-")
            kind = spec.get("type")
            if text[:1] == "-" or kind and not (
                    text.isascii() and text.isdigit() and len(text) <= 640
                    or text == "inf" and kind is _parse_bound):
                return None
            value = kind(text) if kind else text
            if "choices" in spec and value not in spec["choices"]:
                return None
        setattr(args, flag[2:].replace("-", "_"), value)
    for flag in unread:
        if "required" in _FLAGS[flag]:
            return None
        setattr(args, flag[2:].replace("-", "_"), _FLAGS[flag].get("default"))
    return args


def main(argv=None) -> int:
    args = (_read_plain(sys.argv[1:] if argv is None else argv)
            or _build_parser().parse_args(argv))
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except Exception as exc:
        for kind, code in _ERROR_EXITS:
            if isinstance(exc, kind):
                print(f"error: {exc}", file=sys.stderr)
                return code
        # Anything else is a defect, never an answer: keep it off exit 1.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

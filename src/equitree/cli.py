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

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .bipartite import exact_va11, exact_vainf2, feasible_11, feasible_inf2
from .coloring import (
    Params,
    TreeColoring,
    certificate_from_coloring,
    coloring_from_certificate,
    verify,
)
from .dispatch import METHODS, construct
from .errors import (
    ConfigurationNotFoundError,
    InputFormatError,
    PreconditionError,
)
from .graph import (
    UNBOUNDED,
    Graph,
    complete_bipartite,
    cycle,
    dodecahedron,
    format_edge_list,
    hex_grid,
    maximal_outerplanar_random,
    parse_edge_list,
    path,
)
from .oracle import (
    BUDGET_EXCEEDED,
    FEASIBLE,
    SearchBudget,
    brute_force_search,
    cross_check_bipartite,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_INPUT = 64
EXIT_PRECONDITION = 65
EXIT_NO_CONFIGURATION = 66
EXIT_INTERNAL = 70


def _parse_bound(text: str):
    if text == "inf":
        return UNBOUNDED
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'inf', got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError("bounds must be nonnegative")
    return value


def _read_text(source: str) -> str:
    try:
        if source == "-":
            return sys.stdin.read()
        return Path(source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {source}: {exc}") from exc


def _load_graph(source: str) -> Graph:
    return parse_edge_list(_read_text(source))


def _load_certificate(source: str):
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
    print(json.dumps(payload))
    if destination == "-":
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    if args.family == "dodecahedron":
        g = dodecahedron()
    else:
        if args.n is None:
            raise PreconditionError(
                f"--n is required for family {args.family!r}"
            )
        if args.family == "knn":
            g = complete_bipartite(args.n)
        elif args.family == "cycle":
            g = cycle(args.n)
        elif args.family == "path":
            g = path(args.n)
        elif args.family == "hexgrid":
            g = hex_grid(args.n, args.n)
        else:
            g = maximal_outerplanar_random(args.n, args.seed)
    sys.stdout.write(format_edge_list(g))
    return EXIT_OK


def _cmd_construct(args) -> int:
    g = _load_graph(args.graph)
    params = Params(args.t, args.k, args.d)
    coloring = construct(g, params, args.method)
    _print_coloring(args, g, coloring,
                    certificate_from_coloring(coloring, params))
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    params, coloring = _load_certificate(args.cert)
    report = verify(g, coloring, params)
    if args.json:
        print(json.dumps({
            "verdict": report.verdict,
            "equitable": report.equitable,
            "first_violation": report.first_violation,
            "classes": [asdict(c) for c in report.classes],
        }))
    elif report.verdict:
        print("valid")
    else:
        print(f"invalid: {report.first_violation}")
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


def _cmd_feasible(args) -> int:
    if args.variant == "11":
        ok = feasible_11(args.knn, args.q)
        witness = None
    else:
        witness = feasible_inf2(args.knn, args.q)
        ok = witness is not None
    if args.json:
        payload = {
            "feasible": ok,
            "witness": asdict(witness) if witness else None,
        }
        print(json.dumps(payload))
    else:
        print("feasible" if ok else "infeasible")
        if witness is not None:
            print(json.dumps(asdict(witness)))
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_exact_va(args) -> int:
    fn = exact_va11 if args.variant == "11" else exact_vainf2
    value = fn(args.knn)
    if args.json:
        print(json.dumps({"value": value}))
    else:
        print(value)
    return EXIT_OK


def _cmd_search(args) -> int:
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
        print(json.dumps(report) if args.json else result.status)
        return EXIT_BUDGET if result.status == BUDGET_EXCEEDED else EXIT_NEGATIVE
    _print_coloring(args, g, result.coloring,
                    report if args.json else certificate)
    return EXIT_OK


def _cmd_cross_check(args) -> int:
    report = cross_check_bipartite(args.nmax, args.qmax)
    if args.json:
        print(json.dumps({
            "checked": report.checked,
            "disagreements": [asdict(item) for item in report.disagreements],
        }))
    else:
        print(f"checked {report.checked} instances, "
              f"{len(report.disagreements)} disagreements")
        for item in report.disagreements:
            print(f"  n={item.n} q={item.q} variant={item.variant} "
                  f"oracle={item.oracle_status} "
                  f"formula={'feasible' if item.formula_feasible else 'infeasible'}")
    return EXIT_OK if report.clean else EXIT_NEGATIVE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equitree",
        description="Construct, verify, and decide equitable tree-colorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a named graph family")
    gen.add_argument(
        "--family", required=True,
        choices=["knn", "cycle", "path", "dodecahedron", "hexgrid",
                 "outerplanar"],
    )
    gen.add_argument("--n", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_gen)

    con = sub.add_parser("construct", help="build a coloring certificate")
    con.add_argument("--graph", required=True)
    con.add_argument("--t", required=True, type=int)
    con.add_argument("--k", type=_parse_bound, default=UNBOUNDED)
    con.add_argument("--d", type=_parse_bound, default=UNBOUNDED)
    con.add_argument("--method", default="auto", choices=METHODS)
    con.add_argument("--emit-dot")
    con.set_defaults(func=_cmd_construct)

    ver = sub.add_parser("verify", help="check a certificate against a graph")
    ver.add_argument("--graph", required=True)
    ver.add_argument("--cert", required=True)
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=_cmd_verify)

    fea = sub.add_parser("feasible", help="feasibility for K_{n,n}")
    fea.add_argument("--knn", required=True, type=int)
    fea.add_argument("--q", required=True, type=int)
    fea.add_argument("--variant", required=True, choices=["11", "inf2"])
    fea.add_argument("--json", action="store_true")
    fea.set_defaults(func=_cmd_feasible)

    exa = sub.add_parser("exact-va", help="exact strong threshold for K_{n,n}")
    exa.add_argument("--knn", required=True, type=int)
    exa.add_argument("--variant", required=True, choices=["11", "inf2"])
    exa.add_argument("--json", action="store_true")
    exa.set_defaults(func=_cmd_exact_va)

    sea = sub.add_parser("search", help="exhaustive search on a small graph")
    sea.add_argument("--graph", required=True)
    sea.add_argument("--t", required=True, type=int)
    sea.add_argument("--k", type=_parse_bound, default=UNBOUNDED)
    sea.add_argument("--d", type=_parse_bound, default=UNBOUNDED)
    sea.add_argument("--max-nodes", type=int, default=100_000_000)
    sea.add_argument("--time-cap", type=float, default=60.0)
    sea.add_argument("--json", action="store_true")
    sea.add_argument("--emit-dot")
    sea.set_defaults(func=_cmd_search)

    cro = sub.add_parser("cross-check",
                         help="compare formulas against the oracle")
    cro.add_argument("--nmax", required=True, type=int)
    cro.add_argument("--qmax", required=True, type=int)
    cro.add_argument("--json", action="store_true")
    cro.set_defaults(func=_cmd_cross_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigurationNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONFIGURATION
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        # Anything else is a defect, never an answer: keep it off exit 1.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

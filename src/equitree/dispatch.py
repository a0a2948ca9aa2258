"""One construction entry point: choose a construction, build it, verify it once."""

from __future__ import annotations

from .bipartite import (
    _complementary_pair,
    _counts_coloring,
    construct_knn_11,
    construct_knn_inf2,
    detect_balanced_biclique,
    even_t_coloring,
    feasible_11,
    odd_q_11_coloring,
    relabel_for_sides,
    two_solution_coloring,
)
from .coloring import Params, TreeColoring, verify
from .errors import ConfigurationNotFoundError, PreconditionError
from .graph import UNBOUNDED, Graph
from .sparse import color_girth5, color_girth6, color_outerplanar

METHODS = ("auto", "even", "odd11", "classcounts", "girth5", "girth6",
           "outerplanar")


def _auto_biclique(n: int, params: Params) -> TreeColoring:
    """Construction choice for K_{n,n}: parity, then zero caps, then feasibility."""
    t = params.t
    if t % 2 == 0:
        return even_t_coloring(n, t)
    if params.k == 0 or params.d == 0:
        # Every class is an independent set, which in K_{n,n} is one-sided.
        if t > 2 * n:
            return odd_q_11_coloring(n, t)
        pair = _complementary_pair(n, t)
        if pair is None:
            raise PreconditionError(
                f"K_{{{n},{n}}} admits no equitable ({t},{params.k},{params.d})"
                "-tree-coloring: a zero cap makes every class one-sided, and "
                "no two one-sided class-size profiles add up to t classes"
            )
        return two_solution_coloring(n, *pair)
    # Both caps are now at least 1; UNBOUNDED is infinity, so d >= 2 holds for it.
    if feasible_11(n, t):
        return construct_knn_11(n, t)
    if params.d >= 2:
        return construct_knn_inf2(n, t)
    raise PreconditionError(
        f"K_{{{n},{n}}} admits no equitable ({t},{params.k},{params.d})"
        "-tree-coloring by the matching-variant feasibility test"
    )


def _build(g: Graph, params: Params, method: str) -> TreeColoring:
    t = params.t
    if method in ("even", "odd11", "classcounts"):
        sides = detect_balanced_biclique(g)
        if sides is None:
            raise PreconditionError(
                f"method {method!r} needs a balanced complete bipartite graph"
            )
        n = len(sides[0])
        if method == "even":
            base = even_t_coloring(n, t)
        elif method == "odd11":
            base = odd_q_11_coloring(n, t)
        else:
            base = _counts_coloring(n, t)
        return relabel_for_sides(base, *sides)
    if method == "girth5":
        return color_girth5(g, t)
    if method == "girth6":
        return color_girth6(g, t)
    if method == "outerplanar":
        return color_outerplanar(g, t)

    sides = detect_balanced_biclique(g)
    if sides is not None:
        return relabel_for_sides(_auto_biclique(len(sides[0]), params), *sides)
    if t == 1:
        # Only forests can take a single class; construct verifies.
        return TreeColoring((1,) * g.n, 1)
    if params.k != UNBOUNDED or params.d != UNBOUNDED:
        raise PreconditionError(
            "finite degree or diameter caps are only supported for "
            "balanced complete bipartite inputs"
        )
    if t == 2:
        try:
            return color_girth6(g, 2)
        except (PreconditionError, ConfigurationNotFoundError):
            return color_outerplanar(g, 2)
    try:
        return color_girth5(g, t)
    except (PreconditionError, ConfigurationNotFoundError):
        return color_outerplanar(g, t)


def construct(g: Graph, params: Params, method: str = "auto") -> TreeColoring:
    """Build an equitable (t, k, d)-tree-coloring of g by a method in METHODS.

    ``auto`` picks by shape: K_{n,n} by parity, caps and feasibility, t = 1 for
    forests, else girth 6 (t = 2) or girth 5, falling back to outerplanar.
    The result is verified once; PreconditionError when it misses the caps
    or no method supports the input.
    """
    if method not in METHODS:
        raise PreconditionError(
            f"unknown method {method!r}; expected one of {', '.join(METHODS)}"
        )
    coloring = _build(g, params, method)
    report = verify(g, coloring, params)
    if not report.verdict:
        raise PreconditionError(
            "no supported construction meets the requested bounds: "
            + report.first_violation
        )
    return coloring

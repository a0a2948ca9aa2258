"""One construction entry point: choose a construction, build it, verify it once."""

from __future__ import annotations

from .bipartite import construct_knn, detect_balanced_biclique, relabel_for_sides
from .coloring import METHODS, Params, TreeColoring, _check_args, verify
from .errors import ConfigurationNotFoundError, PreconditionError
from .graph import UNBOUNDED, Graph
from .sparse import color_girth5, color_girth6, color_outerplanar


def _build(g: Graph, params: Params, method: str) -> TreeColoring:
    t = params.t
    if method == "girth5":
        return color_girth5(g, t)
    if method == "girth6":
        return color_girth6(g, t)
    if method == "outerplanar":
        return color_outerplanar(g, t)

    sides = detect_balanced_biclique(g)
    if sides is not None:
        base = construct_knn(len(sides[0]), t, params.k, params.d)
        return relabel_for_sides(base, *sides)
    if t == 1:
        # Only forests can take a single class; construct verifies.
        return TreeColoring((1,) * g.n, 1)
    if params.k != UNBOUNDED or params.d != UNBOUNDED:
        raise PreconditionError(
            "finite degree or diameter caps are only supported for "
            "balanced complete bipartite inputs"
        )
    try:
        # Looked up at call time, so a patched module attribute is seen.
        return (color_girth6 if t == 2 else color_girth5)(g, t)
    except (PreconditionError, ConfigurationNotFoundError):
        return color_outerplanar(g, t)


def construct(g: Graph, params: Params, method: str = "auto") -> TreeColoring:
    """Build an equitable (t, k, d)-tree-coloring of g by a method in METHODS.

    ``auto`` picks by shape: K_{n,n} under any caps by construct_knn, t = 1 for
    forests, else girth 6 (t = 2) or girth 5, falling back to outerplanar.
    The result is verified once; PreconditionError when it misses the caps
    or no method supports the input.
    """
    _check_args(g, params)
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

"""Equitable tree-colorings: constructions, verification, and feasibility.

A (t, k, d)-tree-coloring splits the vertices into t classes whose sizes
differ by at most one, each class inducing a forest with maximum degree
at most k and component diameter at most d.  This package provides exact
feasibility formulas and constructions for balanced complete bipartite
graphs, an iterative peel-and-extend engine for sparse planar and
outerplanar graphs, one verified entry point (``construct``) choosing
among them, an exhaustive oracle for small instances, and a CLI around
them.

Public names and submodules are imported on first use, so a process loads
only the modules whose names it reads.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "bipartite": (
        "SolutionPair", "construct_knn", "construct_knn_11", "construct_knn_inf2",
        "detect_balanced_biclique", "even_t_coloring", "infeasible_by_divisibility",
        "make_class_counts", "odd_q_11_coloring", "odd_q_inf2_counts",
        "realize_class_counts", "relabel_for_sides", "solve_linear",
        "two_solution_coloring", "va11_upper", "vainf2_upper",
    ),
    "coloring": (
        "ClassCheck", "Params", "TreeColoring", "VerificationReport",
        "certificate_from_coloring", "coloring_from_certificate", "verify",
    ),
    "decider": (
        "ClassCountVector", "exact_va11", "exact_vainf2", "feasible_11",
        "feasible_counts", "feasible_inf2",
    ),
    "dispatch": ("construct",),
    "errors": (
        "ConfigurationNotFoundError", "EquitreeError", "InfeasibleVectorError",
        "InputFormatError", "NoLowDegreeVertexError", "NotEnoughVerticesError",
        "PreconditionError",
    ),
    "graph": (
        "Graph", "complete_bipartite", "component_diameter_max",
        "connected_components", "cycle", "dodecahedron", "format_edge_list",
        "girth", "graph_from_edges", "hex_grid", "is_forest", "max_degree",
        "maximal_outerplanar_random", "parse_edge_list", "path",
        "remove_vertices",
    ),
    "oracle": (
        "BUDGET_EXCEEDED", "FEASIBLE", "INFEASIBLE", "CrossCheckReport",
        "Disagreement", "SearchBudget", "SearchResult", "brute_force_search",
        "cross_check_bipartite",
    ),
    "sparse": (
        "DEGREE_THREE_LINK", "DEGREE_TWO_LINK", "LOW_VERTEX", "TWO_NEIGHBOR_HUB",
        "Configuration", "ExtensionSequence", "color_girth5", "color_girth6",
        "color_outerplanar", "extend_coloring", "fill_sequence",
        "find_reducible_girth5", "find_reducible_girth6",
        "find_reducible_outerplanar",
    ),
    "values": ("METHODS", "UNBOUNDED"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    # Later lookups are plain reads of this module's dict.
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)

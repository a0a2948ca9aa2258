"""The library's construction entry point: method choice and its one verify."""

import random
import re
from itertools import product

import pytest

from equitree import (
    METHODS,
    FEASIBLE,
    UNBOUNDED,
    Params,
    PreconditionError,
    TreeColoring,
    brute_force_search,
    color_girth6,
    color_outerplanar,
    complete_bipartite,
    component_diameter_max,
    construct,
    cycle,
    dodecahedron,
    even_t_coloring,
    feasible_11,
    feasible_inf2,
    graph_from_edges,
    is_forest,
    maximal_outerplanar_random,
    odd_q_11_coloring,
    path,
    remove_vertices,
    va11_upper,
)
from equitree import cli, dispatch


def _assert_valid(g, coloring, params):
    """Check a coloring with graph.py's own queries, not with verify."""
    assert coloring.t == params.t and coloring.n == g.n
    sizes = coloring.class_sizes()
    assert max(sizes) - min(sizes) <= 1
    for c in range(1, params.t + 1):
        keep = set(coloring.color_class(c))
        h = remove_vertices(g, [v for v in range(g.n) if v not in keep])[0]
        assert is_forest(h), c
        assert max(h.degrees(), default=0) <= params.k, c
        assert component_diameter_max(h) <= params.d, c


def _relabeled_biclique(n, rng):
    ids = list(range(2 * n))
    rng.shuffle(ids)
    g = complete_bipartite(n)
    return graph_from_edges(2 * n, [(ids[u], ids[v]) for u, v in g.edges()])


@pytest.mark.parametrize("n", [1, 5, 7, 12])
def test_auto_on_relabeled_biclique(n):
    g = _relabeled_biclique(n, random.Random(n))
    for q in range(1, 2 * n + 3):
        for params, feasible in (
            (Params(q, 1, 1), feasible_11(n, q)),
            (Params(q, UNBOUNDED, 2), feasible_inf2(n, q) is not None),
        ):
            if feasible:
                _assert_valid(g, construct(g, params), params)
            else:
                with pytest.raises(PreconditionError):
                    construct(g, params)


@pytest.mark.parametrize("k, d", product((0, 1, 2, 3, UNBOUNDED), repeat=2))
def test_auto_biclique_uses_the_closed_forms(k, d):
    # The side split for every even t; the disjoint edges for odd t above
    # va11_upper(n) once both caps allow an edge.
    for n in range(1, 31):
        g = complete_bipartite(n)
        for t in range(2, 2 * n + 3, 2):
            assert construct(g, Params(t, k, d)) == even_t_coloring(n, t)
        if k >= 1 and d >= 1:
            # va11_upper(n) is even, so this runs over the odd t above it.
            for t in range(va11_upper(n) + 1, 2 * n + 3, 2):
                assert construct(g, Params(t, k, d)) == odd_q_11_coloring(n, t)


@pytest.mark.parametrize("k, d", product((0, 1, 2, 3, UNBOUNDED), repeat=2))
def test_zero_cap_biclique_matches_oracle(k, d):
    # Every cap pair, the zero caps (every class one-sided) among them.
    for n in range(1, 7):
        g = complete_bipartite(n)
        for q in range(1, 2 * n + 3):
            params = Params(q, k, d)
            if brute_force_search(g, params).status == FEASIBLE:
                _assert_valid(g, construct(g, params), params)
            else:
                with pytest.raises(PreconditionError):
                    construct(g, params)


@pytest.mark.parametrize("n, t, d", [(n, t, d) for n, t in ((8, 5), (9, 5), (11, 7))
                                     for d in (2, 3, UNBOUNDED)])
def test_degree_cap_two_biclique_matches_oracle(n, t, d):
    # Degree cap 2 allows stars of size a = 3 but not of size a+1, and each
    # of these colorings needs one: none is all one-sided.
    g, params = complete_bipartite(n), Params(t, 2, d)
    assert brute_force_search(g, params).status == FEASIBLE
    _assert_valid(g, construct(g, params), params)


@pytest.mark.parametrize("n, t, k, d", [(7, 3, 2, 2), (9, 3, 2, 2),
                                        (43, 21, 2, 2), (8, 3, 3, 2)])
def test_infeasible_capped_biclique_names_the_instance(n, t, k, d):
    message = f"K_{{{n},{n}}} has no equitable ({t},{k},{d})-tree-coloring"
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        construct(complete_bipartite(n), Params(t, k, d))


def test_single_class_on_cycle_raises():
    with pytest.raises(PreconditionError,
                       match="no supported construction meets the requested "
                             "bounds: class 1 contains a cycle"):
        construct(cycle(5), Params(1))
    g = path(6)
    _assert_valid(g, construct(g, Params(1)), Params(1))


def test_finite_caps_on_non_biclique_raise():
    for params in (Params(3, 2), Params(3, UNBOUNDED, 4), Params(2, 1, 1)):
        with pytest.raises(PreconditionError, match="finite degree or diameter"):
            construct(dodecahedron(), params)


def test_finite_caps_refused_in_full_on_a_regular_non_biclique():
    # K_{30,30} under shuffled ids is recognized.  With its edges x0y0 and
    # x1y1 swapped for x0x1 and y0y1 every degree stays 30, but a triangle
    # appears, so the same ids and caps get the refusal, word for word.
    n, params = 30, Params(21, 1, 1)
    ids = list(range(2 * n))
    random.Random(0).shuffle(ids)
    plain = [(x, n + y) for x in range(n) for y in range(n)]
    swapped = [e for e in plain if e not in ((0, n), (1, n + 1))] + [(0, 1), (n, n + 1)]
    g, h = (graph_from_edges(2 * n, [(ids[u], ids[v]) for u, v in edges])
            for edges in (plain, swapped))
    _assert_valid(g, construct(g, params), params)
    assert set(h.degrees()) == {n}
    message = ("finite degree or diameter caps are only supported for "
               "balanced complete bipartite inputs")
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        construct(h, params)


def test_auto_two_classes_falls_back_to_outerplanar():
    g = maximal_outerplanar_random(15, 4)
    with pytest.raises(PreconditionError):
        color_girth6(g, 2)
    coloring = construct(g, Params(2))
    assert coloring == color_outerplanar(g, 2)
    _assert_valid(g, coloring, Params(2))


def test_unknown_method_raises():
    with pytest.raises(PreconditionError, match="unknown method"):
        construct(path(4), Params(2), "greedy")


def test_failed_verdict_raises(monkeypatch):
    monkeypatch.setattr(dispatch, "color_outerplanar",
                        lambda g, t: TreeColoring((1,) * g.n, t))
    with pytest.raises(PreconditionError,
                       match="class 1 has size 4, outside the equitable range"):
        construct(path(4), Params(2), "outerplanar")


@pytest.mark.parametrize("method", METHODS)
def test_every_method_accepted_by_cli_parser(method):
    args = cli._build_parser().parse_args(
        ["construct", "--graph", "g.txt", "--t", "2", "--method", method])
    assert args.method == method

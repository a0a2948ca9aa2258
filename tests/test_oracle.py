"""Exhaustive search oracle and formula cross-checking."""

import itertools
import random
import sys

import pytest

from equitree import (
    BUDGET_EXCEEDED,
    FEASIBLE,
    INFEASIBLE,
    Params,
    PreconditionError,
    SearchBudget,
    UNBOUNDED,
    brute_force_search,
    complete_bipartite,
    cross_check_bipartite,
    component_diameter_max,
    cycle,
    graph_from_edges,
    is_forest,
    max_degree,
    path,
    remove_vertices,
    verify,
)


def _reference_ok(g, colors, params):
    """Equitable, and every class a forest within the caps, by graph.py alone."""
    n, t = g.n, params.t
    sizes = [colors.count(c) for c in range(1, t + 1)]
    if not (n // t <= min(sizes) and max(sizes) <= -(-n // t)):
        return False
    for c in range(1, t + 1):
        h, _ = remove_vertices(g, [v for v in range(n) if colors[v] != c])
        if not is_forest(h) or max_degree(h) > params.k:
            return False
        if component_diameter_max(h) > params.d:
            return False
    return True


class TestBruteForce:
    def test_tree_feasible_single_class(self):
        result = brute_force_search(path(4), Params(1))
        assert result.status == FEASIBLE
        assert verify(path(4), result.coloring, Params(1)).verdict

    def test_cycle_infeasible_single_class(self):
        result = brute_force_search(cycle(5), Params(1, 2, UNBOUNDED))
        assert result.status == INFEASIBLE
        assert result.coloring is None

    def test_cycle_two_classes(self):
        result = brute_force_search(cycle(5), Params(2))
        assert result.status == FEASIBLE

    def test_equitable_sizes_enforced(self):
        result = brute_force_search(path(5), Params(2))
        assert sorted(result.coloring.class_sizes()) == [2, 3]
        result = brute_force_search(path(5), Params(3))
        assert sorted(result.coloring.class_sizes()) == [1, 2, 2]

    def test_k33_matching_coloring(self):
        result = brute_force_search(complete_bipartite(3), Params(3, 1, 1))
        assert result.status == FEASIBLE
        rep = verify(complete_bipartite(3), result.coloring, Params(3, 1, 1))
        assert rep.verdict

    def test_k55_sharp_infeasible(self):
        result = brute_force_search(complete_bipartite(5), Params(3, 1, 1))
        assert result.status == INFEASIBLE

    def test_empty_graph(self):
        g = graph_from_edges(0, [])
        result = brute_force_search(g, Params(2))
        assert result.status == FEASIBLE
        assert result.coloring.n == 0

    def test_more_classes_than_vertices(self):
        result = brute_force_search(path(3), Params(5))
        assert result.status == FEASIBLE

    def test_node_budget_stops_search(self):
        result = brute_force_search(
            complete_bipartite(4), Params(3, 1, 1), SearchBudget(5, 60.0)
        )
        assert result.status == BUDGET_EXCEEDED
        assert result.nodes >= 5

    def test_time_budget_stops_search(self):
        # The full search of this instance visits 570,419 nodes (seconds),
        # so the 5 ms cap, checked every 1,024 nodes, must cut it.
        result = brute_force_search(
            complete_bipartite(8), Params(5, 1, 1),
            SearchBudget(10**12, 0.005),
        )
        assert result.status == BUDGET_EXCEEDED
        assert result.nodes < 570_419

    def test_bad_budget_rejected(self):
        with pytest.raises(PreconditionError):
            SearchBudget(0, 1.0)
        with pytest.raises(PreconditionError):
            SearchBudget(10, 0.0)
        with pytest.raises(PreconditionError):
            SearchBudget(10, float("nan"))
        # A NaN node cap compares false with everything, so it would turn
        # the cap off; non-int caps go the way of Params.t.
        for nodes in (float("nan"), 2.5, True, False, 1.0, "5", None):
            with pytest.raises(PreconditionError, match="max_nodes"):
                SearchBudget(max_nodes=nodes)

    def test_symmetry_pruning_preserves_verdict(self):
        """The symmetry-reduced search must agree with the raw search."""
        rng = random.Random(55)
        graphs = [path(5), cycle(6), complete_bipartite(3),
                  graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2),
                                       (1, 3), (2, 3)])]
        for _ in range(8):
            n = rng.randint(2, 8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            graphs.append(graph_from_edges(n, edges))
        cases = [Params(1), Params(2), Params(2, 1, 1), Params(3, 1, 2),
                 Params(3, 0, 0)]
        for g in graphs:
            for params in cases:
                pruned = brute_force_search(g, params, symmetry=True)
                raw = brute_force_search(g, params, symmetry=False)
                assert pruned.status == raw.status, (g.n, params)
                assert pruned.nodes <= raw.nodes

    def test_matches_exhaustive_reference(self):
        """Every assignment, checked by graph.py, gives the oracle's verdict."""
        rng = random.Random(2012)
        caps = [0, 1, 2, UNBOUNDED]
        for _ in range(300):
            n = rng.randint(1, 6)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = graph_from_edges(n, edges)
            params = Params(rng.randint(1, 3), rng.choice(caps), rng.choice(caps))
            expected = any(
                _reference_ok(g, list(colors), params)
                for colors in itertools.product(range(1, params.t + 1), repeat=n)
            )
            for symmetry in (True, False):
                result = brute_force_search(g, params, symmetry=symmetry)
                assert result.status == (FEASIBLE if expected else INFEASIBLE), (
                    edges, params, symmetry)
                if expected:
                    assert _reference_ok(g, list(result.coloring.colors), params)


class TestDepth:
    """The search takes no stack frame per vertex."""

    def test_long_path(self):
        result = brute_force_search(path(1500), Params(1))
        assert result.status == FEASIBLE
        assert result.nodes == 1500

    def test_runs_under_a_low_recursion_limit(self):
        g = path(400)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            result = brute_force_search(g, Params(2))
        finally:
            sys.setrecursionlimit(limit)
        assert result.status == FEASIBLE
        assert verify(g, result.coloring, Params(2)).verdict


class TestCrossCheck:
    def test_small_window_is_clean(self):
        report = cross_check_bipartite(3, 7)
        assert report.checked == 42
        assert report.clean
        assert report.disagreements == ()

    def test_budget_exhaustion_counts_as_disagreement(self):
        report = cross_check_bipartite(4, 4, SearchBudget(2, 60.0))
        assert not report.clean
        assert any(d.oracle_status == BUDGET_EXCEEDED
                   for d in report.disagreements)

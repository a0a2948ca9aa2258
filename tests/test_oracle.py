"""Exhaustive search oracle and formula cross-checking."""

import itertools
import random
import sys
import time

import pytest

from equitree import (
    BUDGET_EXCEEDED,
    FEASIBLE,
    INFEASIBLE,
    Graph,
    Params,
    PreconditionError,
    SearchBudget,
    SearchResult,
    TreeColoring,
    UNBOUNDED,
    brute_force_search,
    complete_bipartite,
    cross_check_bipartite,
    component_diameter_max,
    cycle,
    dodecahedron,
    graph_from_edges,
    is_forest,
    max_degree,
    path,
    remove_vertices,
    verify,
)
from equitree import oracle
from equitree.coloring import _measure


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


def _reference_search(g: Graph, params: Params,
                      budget: SearchBudget | None = None,
                      symmetry: bool = True) -> SearchResult:
    """The search loop as it was before member sets and the star rule.

    It scans every neighbor of the new vertex for its color and measures
    every component the new vertex joins.  The library's search must visit
    the same tree: same status, coloring and node count on every input.
    """
    if budget is None:
        budget = SearchBudget()
    n, t, k, d = g.n, params.t, params.k, params.d
    adjacency = g.adjacency
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    # No class passes hi and at most full classes reach it, so the classes
    # below n // t never lack more vertices than remain uncolored.  If t | n,
    # at_cap == full only once all are colored: no class is at hi - 1.
    hi = -(-n // t)
    full = n % t or t
    colors = [0] * n
    sizes = [0] * (t + 1)
    # same[v]: the colored neighbors of v in v's class.
    same: list[set[int]] = [set() for _ in range(n)]
    # used[i]: the largest color among the first i vertices of the order.
    used = [0] * (n + 1)
    nodes, at_cap = 0, 0
    deadline = time.monotonic() + budget.time_cap
    index = 0
    while index < n:
        # The color counter of this index is the color its vertex holds;
        # take it back, then try the next one.
        v = order[index]
        c = colors[v]
        if c:
            for u in same[v]:
                same[u].remove(v)
            same[v].clear()
            if sizes[c] == hi:
                at_cap -= 1
            sizes[c] -= 1
            colors[v] = 0
        top = min(t, used[index] + 1) if symmetry else t
        c += 1
        while c <= top and (sizes[c] >= hi or (
                sizes[c] == hi - 1 and at_cap == full)):
            c += 1
        if c > top:
            index -= 1
            if index < 0:
                return SearchResult(INFEASIBLE, None, nodes)
            continue
        nodes += 1
        if nodes > budget.max_nodes or (
                nodes % 1024 == 0 and time.monotonic() > deadline):
            return SearchResult(BUDGET_EXCEEDED, None, nodes)
        colors[v] = c
        sizes[c] += 1
        if sizes[c] == hi:
            at_cap += 1
        # Every accepted partial coloring meets the caps, so only v and its
        # new class neighbors can break the degree cap, and only v's
        # component can hold a cycle or exceed the diameter cap.
        mates = same[v]
        mates.update(u for u in adjacency[v] if colors[u] == c)
        if mates:
            for u in mates:
                same[u].add(v)
            if len(mates) > k or any(len(same[u]) > k for u in mates):
                continue
            diameter = _measure(same, v)[1]
            if diameter is None or diameter > d:
                continue
        used[index + 1] = max(used[index], c)
        index += 1
    return SearchResult(FEASIBLE, TreeColoring(tuple(colors), t), nodes)


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

    # A bool is an int to Python, so True would pass as a one-second cap;
    # a string or None would reach the comparison and raise TypeError.
    @pytest.mark.parametrize("cap", [True, False, "5", None, [1.0], complex(1, 0),
                                     float("nan"), -1, 0])
    def test_bad_time_cap_rejected(self, cap):
        with pytest.raises(PreconditionError, match="positive time_cap"):
            SearchBudget(10, cap)

    @pytest.mark.parametrize("cap", [1, 0.5, float("inf")])
    def test_good_time_cap_accepted(self, cap):
        assert SearchBudget(10, cap).time_cap == cap

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

    def test_long_path(self, monkeypatch):
        # With d unbounded every join is one edge into a tree: nothing is
        # measured, so the chain stays linear.
        measured = []
        monkeypatch.setattr(oracle, "_measure",
                            lambda same, root: measured.append(root) or _measure(same, root))
        result = brute_force_search(path(1500), Params(1))
        assert result.status == FEASIBLE
        assert result.nodes == 1500
        assert not measured

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


CAP_VALUES = (0, 1, 2, 3, UNBOUNDED)


def _random_graph(rng, n):
    p = rng.random()
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])


class TestSameTreeAsReference:
    """Member sets and the star rule change the work per node, never the
    tree: every search returns what the reference loop returns, node count
    included."""

    def _assert_same(self, g, params, budget=None, symmetry=True):
        expected = _reference_search(g, params, budget, symmetry)
        assert brute_force_search(g, params, budget, symmetry) == expected, (
            g.adjacency, params, budget, symmetry)
        return expected

    def test_random_graphs_every_t_and_cap_pair(self):
        rng = random.Random(17)
        # The node cap only guards the test's run time: every one of these
        # searches runs to its end.
        budget = SearchBudget(max_nodes=20_000)
        statuses = set()
        for n in list(range(1, 10)) * 3:
            g = _random_graph(rng, n)
            for t in range(1, n + 2):
                for k, d in itertools.product(CAP_VALUES, repeat=2):
                    for symmetry in (True, False):
                        result = self._assert_same(g, Params(t, k, d), budget, symmetry)
                        statuses.add(result.status)
        assert statuses == {FEASIBLE, INFEASIBLE}

    def test_tight_budgets_stop_mid_search(self):
        rng = random.Random(18)
        for _ in range(300):
            g = _random_graph(rng, rng.randint(4, 9))
            params = Params(rng.randint(1, 4), rng.choice(CAP_VALUES), rng.choice(CAP_VALUES))
            symmetry = rng.random() < 0.5
            full = _reference_search(g, params, None, symmetry).nodes
            # A cap below the full search's node count stops it at cap + 1.
            budget = SearchBudget(max_nodes=rng.randint(1, max(1, full - 1)))
            result = self._assert_same(g, params, budget, symmetry)
            assert full <= 1 or result.nodes == budget.max_nodes + 1

    def test_trees_without_a_diameter_cap(self):
        # A join with one mate skips the measure only when d is unbounded.
        rng = random.Random(19)
        graphs = [path(n) for n in (2, 3, 8, 31)]
        for n in (6, 13, 24):
            graphs.append(graph_from_edges(
                n, [(v, rng.randrange(v)) for v in range(1, n)]))
            spine = n // 3
            graphs.append(graph_from_edges(
                n, [(v, v + 1) for v in range(spine - 1)]
                + [(v, rng.randrange(spine)) for v in range(spine, n)]))
        budget = SearchBudget(max_nodes=20_000)
        statuses = set()
        for g in graphs:
            for t in (1, 2, 3):
                for k in (1, 2, UNBOUNDED):
                    statuses.add(self._assert_same(g, Params(t, k), budget).status)
        assert statuses == {FEASIBLE, INFEASIBLE}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_bipartite_both_variants(self, n):
        g = complete_bipartite(n)
        for q in range(1, 2 * n + 3):
            for k, d in ((1, 1), (UNBOUNDED, 2)):
                self._assert_same(g, Params(q, k, d))

    @pytest.mark.parametrize("t, k, d", [(2, 1, 1), (2, UNBOUNDED, 2), (3, 1, 1),
                                         (3, 2, 2), (4, 0, 0), (5, 0, 0)])
    def test_capped_dodecahedron(self, t, k, d):
        result = self._assert_same(dodecahedron(), Params(t, k, d),
                                   SearchBudget(max_nodes=200_000, time_cap=600.0))
        assert result.status == FEASIBLE


class TestNodeCounts:
    """The searches the K_{n,n} results rest on.  A pruning rule that cuts
    nodes has to move these pins on purpose."""

    @pytest.mark.parametrize("n, t, nodes", [(5, 3, 547), (8, 3, 8_144), (8, 5, 570_419)])
    def test_infeasible_under_caps_11(self, n, t, nodes):
        result = brute_force_search(complete_bipartite(n), Params(t, 1, 1))
        assert (result.status, result.nodes) == (INFEASIBLE, nodes)


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

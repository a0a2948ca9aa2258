"""Configuration finders, deletion sequences, extension, sparse algorithms."""

import random
import sys
from dataclasses import dataclass
from heapq import heappop
from itertools import chain, permutations

import pytest

from equitree import (
    ConfigurationNotFoundError,
    DEGREE_THREE_LINK,
    DEGREE_TWO_LINK,
    ExtensionSequence,
    LOW_VERTEX,
    NoLowDegreeVertexError,
    NotEnoughVerticesError,
    Params,
    PreconditionError,
    TWO_NEIGHBOR_HUB,
    TreeColoring,
    color_girth5,
    color_girth6,
    color_outerplanar,
    complete_bipartite,
    cycle,
    dodecahedron,
    extend_coloring,
    fill_sequence,
    find_reducible_girth5,
    find_reducible_girth6,
    find_reducible_outerplanar,
    graph_from_edges,
    hex_grid,
    is_forest,
    maximal_outerplanar_random,
    path,
    remove_vertices,
    verify,
)
from equitree import coloring, sparse
from equitree.coloring import _class_checks
from equitree.graph import Graph
from equitree.sparse import (
    Configuration,
    _girth5_level,
    _girth6_level,
    _outerplanar_level,
    _peel,
)


def _biclique(a, b):
    """K_{a,b} with the small side first (unbalanced, unlike complete_bipartite)."""
    return graph_from_edges(
        a + b, [(i, a + j) for i in range(a) for j in range(b)]
    )


class TestGirth5Finder:
    def test_pendant_vertex_found_first(self):
        cfg = find_reducible_girth5(path(3))
        assert cfg.kind == LOW_VERTEX
        assert cfg["x"] == 0

    def test_two_vertex_with_light_neighbor(self):
        cfg = find_reducible_girth5(cycle(9))
        assert cfg.kind == DEGREE_TWO_LINK
        assert cfg["x"] == 0 and cfg["y"] == 1

    def test_dodecahedron_gives_three_link(self):
        cfg = find_reducible_girth5(dodecahedron())
        assert cfg.kind == DEGREE_THREE_LINK
        assert cfg["x"] == 0
        assert cfg["y"] != cfg["z"]

    def test_hub_with_two_neighbors(self):
        cfg = find_reducible_girth5(_biclique(2, 7))
        assert cfg.kind == TWO_NEIGHBOR_HUB
        assert cfg["x"] == 0 and cfg["degree"] == 7
        assert len(cfg["twos"]) == 7

    def test_nothing_reducible_raises(self):
        with pytest.raises(ConfigurationNotFoundError):
            find_reducible_girth5(complete_bipartite(7))


class TestGirth6Finder:
    def test_single_edge(self):
        cfg = find_reducible_girth6(path(2))
        assert cfg.kind == LOW_VERTEX

    def test_six_cycle(self):
        cfg = find_reducible_girth6(cycle(6))
        assert cfg.kind == DEGREE_TWO_LINK
        assert cfg["x"] == 0 and cfg["y"] == 1

    def test_k25_gives_hub(self):
        # Every 2-vertex of K_{2,5} sees only 5-vertices, so the link
        # pattern cannot apply and the hub is reported instead.
        cfg = find_reducible_girth6(_biclique(2, 5))
        assert cfg.kind == TWO_NEIGHBOR_HUB
        assert cfg["degree"] == 5 and len(cfg["twos"]) == 5

    def test_pendant_beats_hub(self):
        cfg = find_reducible_girth6(_biclique(1, 5))
        assert cfg.kind == LOW_VERTEX

    def test_nothing_reducible_raises(self):
        with pytest.raises(ConfigurationNotFoundError):
            find_reducible_girth6(_biclique(3, 5))


# Two triangles (1,2,0) and (3,4,0) share the 4-vertex 0; vertices 2 and 4
# are padded to degree 4, so the 2-vertices 1 and 3 see only 4-vertices.
_TWIN = graph_from_edges(7, [
    (1, 2), (1, 0), (2, 0),
    (3, 4), (3, 0), (4, 0),
    (2, 5), (2, 6), (4, 5), (4, 6), (5, 6),
])


class TestOuterplanarFinder:
    def test_tree_gives_low_vertex(self):
        cfg = find_reducible_outerplanar(path(4))
        assert cfg.kind == LOW_VERTEX

    # Each lemma configuration (an adjacent 2-pair, a triangle with a
    # 2-vertex and a 3-vertex, twin triangles) and a theta graph, which has
    # none of them, give the same pattern: the lowest 2-vertex and its
    # lowest neighbor of degree <= 4.
    @pytest.mark.parametrize("g, link", [
        (cycle(4), (0, 1)),
        (graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]), (0, 1)),
        (_TWIN, (1, 0)),
        (graph_from_edges(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]),
         (2, 0)),
    ], ids=["four_cycle", "diamond", "twin_triangles", "theta"])
    def test_two_vertex_with_light_neighbor(self, g, link):
        cfg = find_reducible_outerplanar(g)
        assert cfg.kind == DEGREE_TWO_LINK
        assert (cfg["x"], cfg["y"]) == link

    def test_k4_has_nothing(self):
        k4 = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                  (2, 3)])
        with pytest.raises(ConfigurationNotFoundError):
            find_reducible_outerplanar(k4)


class TestExtensionSequence:
    def test_valid_sequence(self):
        s = ExtensionSequence(path(5), (0, 2))
        assert s.t == 2

    def test_budget_per_position(self):
        g = complete_bipartite(3)
        # Vertex at position 1 may keep one outside neighbor only.
        with pytest.raises(PreconditionError, match="position 1"):
            ExtensionSequence(g, (0, 3))
        # Keeping two of the three neighbors inside the sequence works.
        ExtensionSequence(g, (3, 0, 1))

    def test_duplicates_and_range_rejected(self):
        with pytest.raises(PreconditionError):
            ExtensionSequence(path(5), (1, 1))
        with pytest.raises(PreconditionError):
            ExtensionSequence(path(5), (6,))
        with pytest.raises(PreconditionError):
            ExtensionSequence(path(5), ())


class TestFillSequence:
    def test_pinned_endpoint_example(self):
        seq = fill_sequence(path(5), {1: 0}, 2)
        assert seq.vertices[0] == 0
        assert len(seq.vertices) == 2

    def test_unpinned_prefers_low_degree(self):
        seq = fill_sequence(path(5), {}, 2)
        assert set(seq.vertices) <= {0, 1, 3, 4}
        assert seq.graph is not None

    def test_full_pinning(self):
        seq = fill_sequence(dodecahedron(), {1: 0, 2: 1, 3: 19}, 3)
        assert seq.vertices == (0, 1, 19)

    def test_too_few_vertices(self):
        with pytest.raises(NotEnoughVerticesError):
            fill_sequence(path(2), {}, 3)

    def test_dense_graph_fails_fast(self):
        with pytest.raises(NoLowDegreeVertexError):
            fill_sequence(complete_bipartite(5), {}, 2)

    def test_bad_pins_rejected(self):
        with pytest.raises(PreconditionError):
            fill_sequence(path(5), {4: 0}, 2)
        with pytest.raises(PreconditionError):
            fill_sequence(path(5), {1: 7}, 2)
        with pytest.raises(PreconditionError):
            fill_sequence(path(5), {1: 0, 2: 0}, 2)

    def test_budget_exhausted(self, monkeypatch):
        # A 9-position fill of this graph backtracks until its budget runs
        # out, the default 20,000 choices too; 200 gets there at once.
        monkeypatch.setattr(sparse, "_FILL_BUDGET", 200)
        with pytest.raises(NoLowDegreeVertexError,
                           match="^ran out of low-degree candidates"):
            fill_sequence(_budget_instance(), {}, 9)

    def test_budget_bounds_the_heap_work(self, monkeypatch):
        # Backtracking pushes stale heap entries; the walks rebuild a heap
        # that outgrows its live vertices, so each choice pops a bounded
        # number of entries (about 1.3 here, 10 without the rebuild).
        monkeypatch.setattr(sparse, "_FILL_BUDGET", 2000)
        pops = []
        monkeypatch.setattr(sparse, "heappop",
                            lambda heap: pops.append(1) or heappop(heap))
        with pytest.raises(NoLowDegreeVertexError,
                           match="^ran out of low-degree candidates"):
            fill_sequence(_budget_instance(), {}, 9)
        assert len(pops) <= 5_000

    def test_budget_reads_each_candidate_once(self, monkeypatch):
        # A backtrack resumes its position's stream instead of reading the
        # position again, so the fill deletes every candidate it reads but
        # the last, which the budget refuses.
        monkeypatch.setattr(sparse, "_FILL_BUDGET", 2000)
        read, deleted = [], []
        options, delete = sparse._options, sparse._Residual.delete

        def counted(res, pinned, position):
            for v in options(res, pinned, position):
                read.append(v)
                yield v

        monkeypatch.setattr(sparse, "_options", counted)
        monkeypatch.setattr(sparse._Residual, "delete",
                            lambda res, v: deleted.append(v) or delete(res, v))
        with pytest.raises(NoLowDegreeVertexError,
                           match="^ran out of low-degree candidates"):
            fill_sequence(_budget_instance(), {}, 9)
        assert len(read) == 2001
        assert read[:-1] == deleted


def _budget_instance():
    """A seeded G(15, 0.7) whose 9-position fills only end at the budget."""
    rng = random.Random(3)
    n = rng.randint(8, 30)
    p = rng.choice((0.3, 0.4, 0.5, 0.6, 0.7))
    g = graph_from_edges(n, [(u, v) for u in range(n)
                             for v in range(u + 1, n) if rng.random() < p])
    assert (n, p) == (15, 0.7)
    return g


def _reference_fill(g, pinned, t, budget=20000):
    """fill_sequence as a scan of every vertex at every position."""
    slots = [None] * t
    chosen = set()

    def attempt(position):
        nonlocal budget
        if position == 0:
            return True
        if position in pinned:
            slots[position - 1] = pinned[position]
            chosen.add(pinned[position])
            if attempt(position - 1):
                return True
            chosen.remove(pinned[position])
            return False
        below = {w for pos, w in pinned.items() if pos < position}
        ranked = sorted(
            (len(g.adjacency[v] - chosen), v) for v in range(g.n)
            if v not in chosen and v not in below
            and len(g.adjacency[v] - chosen - below) <= 2 * position - 1
        )
        for _, v in ranked:
            budget -= 1
            if budget < 0:
                raise NoLowDegreeVertexError("budget")
            slots[position - 1] = v
            chosen.add(v)
            if attempt(position - 1):
                return True
            chosen.remove(v)
        return False

    if not attempt(t):
        raise NoLowDegreeVertexError("no assignment")
    return tuple(slots)


def test_fill_matches_full_scan_reference():
    rng = random.Random(5)
    outcomes = set()
    for case in range(400):
        n = rng.randint(2, 16)
        g = graph_from_edges(n, [(u, v) for v in range(n) for u in range(v)
                                 if rng.random() < rng.choice((0.2, 0.4, 0.7))])
        t = rng.randint(1, min(n, 6))
        spots = rng.sample(range(1, t + 1), rng.randint(0, min(t, 3)))
        pinned = dict(zip(spots, rng.sample(range(n), len(spots))))
        outcome = []
        for fill in (lambda: ExtensionSequence(g, _reference_fill(g, pinned, t)),
                     lambda: fill_sequence(g, pinned, t)):
            try:
                outcome.append(fill().vertices)
            except NoLowDegreeVertexError:
                outcome.append(None)
            except PreconditionError:
                # A pin can break the bound of the position it was given.
                outcome.append("pin")
        assert outcome[0] == outcome[1], (case, pinned, t)
        outcomes.add(outcome[0] if outcome[0] in (None, "pin") else "seq")
    assert outcomes == {None, "pin", "seq"}


class TestExtendColoring:
    def test_star_worked_example(self):
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        seq = ExtensionSequence(star, (1, 0))
        inner = TreeColoring((1, 2), 2)
        result = extend_coloring(star, seq, inner)
        assert result.colors == (1, 2, 1, 2)

    def test_single_edge_from_empty(self):
        edge = path(2)
        seq = ExtensionSequence(edge, (0, 1))
        result = extend_coloring(edge, seq, TreeColoring((), 2))
        assert sorted(result.colors) == [1, 2]

    def test_sequence_colors_always_distinct(self):
        g = maximal_outerplanar_random(9, 3)
        seq = fill_sequence(g, {}, 3)
        reduced, _ = remove_vertices(g, set(seq.vertices))
        inner = color_outerplanar(reduced, 3)
        result = extend_coloring(g, seq, inner)
        on_s = [result.colors[v] for v in seq.vertices]
        assert len(set(on_s)) == 3
        assert verify(g, result, Params(3)).verdict

    def test_invalid_inner_rejected(self):
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        seq = ExtensionSequence(star, (1, 0))
        with pytest.raises(PreconditionError):
            extend_coloring(star, seq, TreeColoring((1, 1), 2))

    def test_inner_of_wrong_size_rejected(self):
        with pytest.raises(PreconditionError, match="does not cover"):
            extend_coloring(path(4), ExtensionSequence(path(4), (0, 1)),
                            TreeColoring((1, 2, 1), 2))

    def test_wrong_class_count_rejected(self):
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        seq = ExtensionSequence(star, (1, 0))
        with pytest.raises(PreconditionError):
            extend_coloring(star, seq, TreeColoring((1, 2), 3))

    def test_sequence_from_another_graph_rejected(self):
        star = graph_from_edges(6, [(0, 2), (0, 3), (0, 4), (0, 5)])
        seq = ExtensionSequence(path(6), (0, 1))
        with pytest.raises(PreconditionError, match="not extendable"):
            extend_coloring(star, seq, TreeColoring((1, 1, 2, 2), 2))


class TestColorGirth5:
    def test_dodecahedron_range(self):
        g = dodecahedron()
        for t in range(3, 12):
            rep = verify(g, color_girth5(g, t), Params(t))
            assert rep.verdict, (t, rep.first_violation)

    def test_cycles_and_trees(self):
        for g in (cycle(5), cycle(11), path(9)):
            for t in (3, 4):
                assert verify(g, color_girth5(g, t), Params(t)).verdict

    def test_t_below_three_rejected(self):
        with pytest.raises(PreconditionError):
            color_girth5(dodecahedron(), 2)

    def test_density_gate(self):
        with pytest.raises(PreconditionError, match="bound"):
            color_girth5(complete_bipartite(3), 3)

    def test_hub_branch_through_recursion(self):
        # K_{2,8} has average degree 3.2 < 10/3; at t=3 the finder reports
        # a degree-8 hub, exercising the remove-and-readd branch.
        g = _biclique(2, 8)
        cfg = find_reducible_girth5(g)
        assert cfg.kind == TWO_NEIGHBOR_HUB and cfg["degree"] == 8
        result = _peel(g, 3, _girth5_level)
        rep = verify(g, result, Params(3))
        assert rep.verdict, rep.first_violation

    def test_hub_branch_degree_nine(self):
        g = _biclique(2, 9)
        cfg = find_reducible_girth5(g)
        assert cfg.kind == TWO_NEIGHBOR_HUB and cfg["degree"] == 9
        result = _peel(g, 3, _girth5_level)
        assert verify(g, result, Params(3)).verdict

    def test_deterministic(self):
        g = dodecahedron()
        assert color_girth5(g, 4).colors == color_girth5(g, 4).colors


class TestColorGirth6:
    def test_hex_grids(self):
        for rows, cols in ((1, 1), (2, 2), (3, 3)):
            g = hex_grid(rows, cols)
            for t in (2, 3, 5):
                rep = verify(g, color_girth6(g, t), Params(t))
                assert rep.verdict, (rows, cols, t, rep.first_violation)

    def test_trees_and_cycles(self):
        for g in (path(8), cycle(6), cycle(12)):
            assert verify(g, color_girth6(g, 2), Params(2)).verdict

    def test_t_one_rejected(self):
        with pytest.raises(PreconditionError):
            color_girth6(cycle(6), 1)

    def test_density_gate(self):
        with pytest.raises(PreconditionError, match="bound"):
            color_girth6(_biclique(2, 5), 2)

    def test_hub_branch_through_recursion(self):
        # K_{2,5} is too dense for the public gate but its hub pattern
        # drives the two-class remove-and-readd branch directly.
        g = _biclique(2, 5)
        result = _peel(g, 2, _girth6_level)
        rep = verify(g, result, Params(2))
        assert rep.verdict, rep.first_violation

    def test_star_at_top_level(self):
        g = _biclique(1, 5)
        assert 2 * g.m <= 3 * (g.n - 2)
        assert verify(g, color_girth6(g, 2), Params(2)).verdict


def _assert_equitable_forests(g, coloring, t):
    """Class sizes and induced forests by graph.py's checkers, not verify."""
    assert coloring.t == t and coloring.n == g.n
    sizes = coloring.class_sizes()
    assert max(sizes) - min(sizes) <= 1
    for c in range(1, t + 1):
        keep = set(coloring.color_class(c))
        h = remove_vertices(g, [v for v in range(g.n) if v not in keep])[0]
        assert is_forest(h), c


def _fan(n):
    """The apex 0 joined to every vertex of the path 1..n-1."""
    return graph_from_edges(n, [(0, v) for v in range(1, n)]
                            + [(v, v + 1) for v in range(1, n - 1)])


def _two_core(g):
    while True:
        low = [v for v in range(g.n) if g.degree(v) <= 1]
        if not low:
            return g
        g = remove_vertices(g, low)[0]


class TestColorOuterplanar:
    def test_spanning_subgraphs_and_fans(self):
        # Pendant vertices, and 2-vertices beside the fan's apex; the 2-core
        # of each graph has minimum degree >= 2, where only the link remains.
        rng = random.Random(8)
        graphs = [_fan(n) for n in range(2, 40)]
        for _ in range(150):
            mop = maximal_outerplanar_random(rng.randint(3, 70), rng.randrange(10**6))
            keep = rng.choice((0.6, 0.8, 0.95))
            graphs.append(graph_from_edges(
                mop.n, [e for e in mop.edges() if rng.random() < keep]))
        links = 0
        for g in graphs:
            for t in (2, 3, 4, 7):
                _assert_equitable_forests(g, color_outerplanar(g, t), t)
            core = _two_core(g)
            if core.n:
                cfg = find_reducible_outerplanar(core)
                x, y = cfg["x"], cfg["y"]
                assert cfg.kind == DEGREE_TWO_LINK
                assert core.degree(x) == 2 and y in core.adjacency[x]
                assert core.degree(y) <= 4
                links += 1
        assert links > 100

    def test_random_triangulations(self):
        for seed in range(3):
            for n in (5, 9, 14, 23):
                g = maximal_outerplanar_random(n, seed)
                for t in (2, 3, 4, 7):
                    rep = verify(g, color_outerplanar(g, t), Params(t))
                    assert rep.verdict, (seed, n, t, rep.first_violation)

    def test_twin_triangle_instance(self):
        for t in (2, 3):
            assert verify(_TWIN, color_outerplanar(_TWIN, t),
                          Params(t)).verdict

    def test_small_graphs(self):
        for g in (path(1), path(2), cycle(3), cycle(4), path(6)):
            assert verify(g, color_outerplanar(g, 2), Params(2)).verdict

    def test_t_one_rejected(self):
        with pytest.raises(PreconditionError):
            color_outerplanar(path(4), 1)

    def test_non_outerplanar_input_detected(self):
        k4 = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                  (2, 3)])
        with pytest.raises(ConfigurationNotFoundError):
            color_outerplanar(k4, 2)
        # A pendant vertex on K_6 is found first, but no partner is left.
        k6 = [(u, v) for v in range(6) for u in range(v)]
        with pytest.raises(ConfigurationNotFoundError,
                           match="no vertex of residual degree <= 3"):
            color_outerplanar(graph_from_edges(7, k6 + [(5, 6)]), 2)

    def test_large_t_gives_distinct_colors(self):
        g = cycle(5)
        result = color_outerplanar(g, 8)
        assert sorted(result.class_sizes()) == [0, 0, 0, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("call", [
    lambda: color_outerplanar(cycle(5), 2.5),
    lambda: color_outerplanar(cycle(5), 3.0),
    lambda: color_outerplanar(cycle(5), True),
    lambda: color_girth5(dodecahedron(), 3.0),
    lambda: color_girth6(cycle(6), 2.0),
    lambda: fill_sequence(path(5), {}, 2.5),
], ids=["outerplanar_half", "outerplanar_float", "outerplanar_bool",
        "girth5_float", "girth6_float", "fill_half"])
def test_non_int_t_rejected(call):
    with pytest.raises(PreconditionError, match="int"):
        call()


# ---- the recursion the peel engine replaced, rebuilt from public pieces ----


def _reference_low_partner(g, x):
    return next(w for w in range(g.n)
                if w != x and len(g.adjacency[w] - {x}) <= 3)


def test_reinsertion_without_a_forest_raises():
    # Hub 0 joins 1, 2, 3; each of those joins all of 4..7, two per class.
    # Any two of 1, 2, 3 in one class close a 4-cycle through its old pair,
    # and every balanced assignment puts two of them together.
    g = graph_from_edges(8, [(0, 1), (0, 2), (0, 3)]
                         + [(a, y) for a in (1, 2, 3) for y in (4, 5, 6, 7)])
    colors = [0, 0, 0, 0, 1, 1, 2, 2]
    with pytest.raises(ConfigurationNotFoundError,
                       match="no balanced re-insertion"):
        sparse._reinsert(g.adjacency, colors, (0, 1, 2, 3), 2)
    assert colors == [0, 0, 0, 0, 1, 1, 2, 2]


def _reference_extend(g, pins, t, recurse):
    seq = fill_sequence(g, pins, t)
    reduced, _ = remove_vertices(g, set(seq.vertices))
    return extend_coloring(g, seq, recurse(reduced))


def _reference_readd(g, t, removed, primer, recurse):
    reduced, remap = remove_vertices(g, set(removed))
    inner = recurse(reduced)
    base = [0] * g.n
    for old, new in remap.items():
        base[old] = inner.colors[new]
    balanced = sorted(set(permutations([c for c in range(1, t + 1)
                                        for _ in range(2)])))
    trials = ([primer] if primer else []) + [a for a in balanced if a != primer]
    for assignment in trials:
        colors = list(base)
        for v, c in zip(removed, assignment):
            colors[v] = c
        candidate = TreeColoring(tuple(colors), t)
        if verify(g, candidate, Params(t)).verdict:
            return candidate
    raise AssertionError("no balanced re-insertion verifies")


def _reference_girth5(g, t):
    if g.n <= t:
        return TreeColoring(tuple(range(1, g.n + 1)), t)
    cfg = find_reducible_girth5(g)
    again = lambda h: _reference_girth5(h, t)  # noqa: E731
    if cfg.kind == TWO_NEIGHBOR_HUB and cfg["degree"] in (8, 9) and t == 3:
        return _reference_readd(g, t, [cfg["x"], *cfg["twos"][:5]], None, again)
    if cfg.kind == LOW_VERTEX:
        pins = {1: cfg["x"]}
    elif cfg.kind == DEGREE_TWO_LINK:
        pins = {1: cfg["x"], t: cfg["y"]}
    elif cfg.kind == DEGREE_THREE_LINK:
        pins = {1: cfg["x"], 2: cfg["y"], t: cfg["z"]}
    else:
        pins = {1: cfg["twos"][0], 2: cfg["twos"][1], t: cfg["x"]}
    return _reference_extend(g, pins, t, again)


def _reference_girth6_two(g):
    if g.n <= 2:
        return TreeColoring(tuple(range(1, g.n + 1)), 2)
    cfg = find_reducible_girth6(g)
    if cfg.kind == TWO_NEIGHBOR_HUB:
        return _reference_readd(g, 2, [cfg["x"], *cfg["twos"][:3]],
                                (2, 2, 1, 1), _reference_girth6_two)
    if cfg.kind == LOW_VERTEX:
        pins = {1: cfg["x"], 2: _reference_low_partner(g, cfg["x"])}
    else:
        pins = {1: cfg["x"], 2: cfg["y"]}
    return _reference_extend(g, pins, 2, _reference_girth6_two)


def _reference_outerplanar(g, t):
    if g.n <= t:
        return TreeColoring(tuple(range(1, g.n + 1)), t)
    cfg = find_reducible_outerplanar(g)
    if cfg.kind == LOW_VERTEX:
        pins = {1: cfg["x"], 2: _reference_low_partner(g, cfg["x"])}
    else:
        pins = {1: cfg["x"], 2: cfg["y"]}
    return _reference_extend(g, pins, t,
                             lambda h: _reference_outerplanar(h, t))


class TestPeelMatchesRecursion:
    """The peel engine returns exactly what the per-level recursion did."""

    def test_outerplanar(self):
        for seed in range(3):
            for n in (5, 12, 20, 33, 47, 60):
                g = maximal_outerplanar_random(n, seed)
                for t in (2, 3, 7):
                    assert (color_outerplanar(g, t).colors
                            == _reference_outerplanar(g, t).colors), (n, seed, t)

    def test_hex_grids(self):
        for rows in range(1, 5):
            for cols in range(1, 5):
                g = hex_grid(rows, cols)
                assert (color_girth6(g, 2).colors
                        == _reference_girth6_two(g).colors), (rows, cols)
                assert (color_girth6(g, 3).colors
                        == _reference_girth5(g, 3).colors), (rows, cols)

    def test_dodecahedron(self):
        g = dodecahedron()
        for t in range(3, 9):
            assert color_girth5(g, t).colors == _reference_girth5(g, t).colors, t

    def test_hub_reinsertions(self):
        # (8, 3) and (9, 3) re-insert; the others pin the hub and two of
        # its 2-neighbors and fill.
        for b, t in ((8, 3), (9, 3), (7, 3), (7, 4), (8, 4), (9, 5)):
            g = _biclique(2, b)
            assert find_reducible_girth5(g).kind == TWO_NEIGHBOR_HUB, b
            assert (_peel(g, t, _girth5_level).colors
                    == _reference_girth5(g, t).colors), (b, t)
        g = _biclique(2, 5)
        assert (_peel(g, 2, _girth6_level).colors
                == _reference_girth6_two(g).colors)


class TestPeelDepth:
    """No level of the peel or of the fill takes a stack frame."""

    @pytest.mark.parametrize("family", ["path", "maximal_outerplanar"])
    def test_five_thousand_vertices(self, family):
        g = path(5000) if family == "path" else maximal_outerplanar_random(5000, 0)
        assert verify(g, color_outerplanar(g, 2), Params(2)).verdict

    def test_long_sequence_fill(self):
        g = maximal_outerplanar_random(2000, 1)
        assert verify(g, color_outerplanar(g, 1200), Params(1200)).verdict

    @pytest.mark.parametrize("family, n, t", [
        ("path", 100_000, 2),
        ("maximal_outerplanar", 100_000, 2),
        ("maximal_outerplanar", 20_000, 7),
    ])
    def test_large_inputs(self, family, n, t):
        g = path(n) if family == "path" else maximal_outerplanar_random(n, 0)
        assert verify(g, color_outerplanar(g, t), Params(t)).verdict

    def test_runs_under_a_low_recursion_limit(self):
        g = maximal_outerplanar_random(600, 2)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            result = color_outerplanar(g, 3)
        finally:
            sys.setrecursionlimit(limit)
        assert verify(g, result, Params(3)).verdict


def _ear_ladder(m):
    """Hubs h_0..h_m in a path, each pair h_i, h_i+1 also sharing two ears.

    The ears take the low ids, e_i = i and f_i = m + i, and hub h_i is
    2m + i.  The graph is outerplanar, and an ear fails the link test until
    one of its hubs gets light, which happens only from the two ends of
    the ladder inwards.
    """
    edges = [(2 * m + i, 2 * m + i + 1) for i in range(m)]
    for i in range(m):
        for ear in (i, m + i):
            edges += [(ear, 2 * m + i), (ear, 2 * m + i + 1)]
    return graph_from_edges(3 * m + 1, edges)


class TestPeelWorkPinned:
    """The inputs that justify the peel's lazy structures."""

    def test_ear_ladder_parks_its_ears(self, monkeypatch):
        # Parking pops about 2 entries per vertex here.  Without it, every
        # step re-tests the low-id ears that still fail, and the peel is
        # quadratic.
        g = _ear_ladder(2000)
        pops = []
        monkeypatch.setattr(sparse, "heappop",
                            lambda heap: pops.append(1) or heappop(heap))
        coloring = color_outerplanar(g, 2)
        assert len(pops) <= 3 * g.n
        assert verify(g, coloring, Params(2)).verdict

    def test_promised_classes_never_backtrack(self, monkeypatch):
        # Every subgraph here has average degree below 4, so the first
        # candidate of each unpinned position completes its sequence.
        restores = []
        restore = sparse._Residual.restore
        monkeypatch.setattr(sparse._Residual, "restore",
                            lambda res, v: restores.append(v) or restore(res, v))
        for seed in range(3):
            for n in (7, 40, 300):
                g = maximal_outerplanar_random(n, seed)
                for t in (2, 3, 7):
                    color_outerplanar(g, t)
        for rows, cols in ((1, 1), (3, 4), (6, 5)):
            g = hex_grid(rows, cols)
            for t in (2, 3, 7):
                color_girth6(g, t)
        for t in range(3, 9):
            color_girth5(dodecahedron(), t)
        for t in (2, 3, 7):
            color_outerplanar(_ear_ladder(50), t)
        assert not restores


# ---- the hub step records the plain steps replaced, kept verbatim ----------


@dataclass(frozen=True)
class _Reinsertion:
    """A peel step that deletes 2t vertices and re-inserts two per class."""

    removed: tuple[int, ...]
    primer: tuple[int, ...] | None


def _remove_for_reinsertion(res, removed, primer):
    for v in removed:
        res.delete(v)
    return _Reinsertion(tuple(removed), primer)


def _reference_reinsert(g: Graph, step: _Reinsertion, colors: list[int], t: int) -> None:
    """Color the removed vertices, two per class, so that every class is a forest.

    Tries the primer assignment first, then every balanced assignment of
    the removed vertices (each color used exactly twice) in sorted order,
    keeping the first one that leaves every class a forest.  The colored
    vertices are exactly those live after the step, colored equitably, so
    two more per class keeps the coloring equitable.
    """
    classes: list[list[int]] = [[] for _ in range(t + 1)]
    for v, c in enumerate(colors):
        classes[c].append(v)
    balanced = sorted(set(permutations(sum(([c] * 2 for c in range(1, t + 1)), []))))
    trials = [step.primer] if step.primer is not None else []
    trials.extend(a for a in balanced if a != step.primer)
    for assignment in trials:
        if all(_class_checks(g, classes[c] + [v for v, a in zip(step.removed, assignment)
                                              if a == c]).is_forest
               for c in range(1, t + 1)):
            for v, c in zip(step.removed, assignment):
                colors[v] = c
            return
    raise ConfigurationNotFoundError(
        "no balanced re-insertion of the removed hub vertices verifies"
    )


def _record_girth5_level(res, t):
    cfg = sparse._find_girth5(res)
    if cfg.kind == TWO_NEIGHBOR_HUB and cfg["degree"] in (8, 9) and t == 3:
        return _remove_for_reinsertion(res, [cfg["x"], *cfg["twos"][:5]], None)
    return sparse._fill(res, sparse._girth5_pins(cfg, t), t)


def _record_girth6_level(res, t):
    cfg = sparse._find_girth6(res)
    if cfg.kind == TWO_NEIGHBOR_HUB:
        return _remove_for_reinsertion(
            res, [cfg["x"], *cfg["twos"][:3]], (2, 2, 1, 1)
        )
    return sparse._fill(res, sparse._link_pins(res, cfg), 2)


def _record_peel(g, t, level, reinserted):
    res = sparse._Residual(g)
    steps = []
    while res.size > t:
        steps.append(level(res, t))
    colors = [0] * g.n
    for c, v in enumerate((v for v, d in enumerate(res.deg) if d >= 0), start=1):
        colors[v] = c
    for step in reversed(steps):
        if isinstance(step, _Reinsertion):
            _reference_reinsert(g, step, colors, t)
            reinserted.append((step.primer, tuple(colors[v] for v in step.removed)))
        else:
            sparse._extend(g.adjacency, colors, step, t)
    return TreeColoring(tuple(colors), t)


def _biclique_copies(b, copies, extra, rng):
    """Disjoint copies of K_{2,b} plus extra random edges between any vertices."""
    n = (b + 2) * copies
    edges = {(k * (b + 2) + i, k * (b + 2) + 2 + j)
             for k in range(copies) for i in range(2) for j in range(b)}
    while len(edges) < 2 * b * copies + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return graph_from_edges(n, sorted(edges))


def _outcome(run):
    try:
        return run()
    except (ConfigurationNotFoundError, NoLowDegreeVertexError, PreconditionError) as exc:
        return type(exc), str(exc)


class TestHubStepsMatchReinsertionRecords:
    """A hub step as a plain tuple colors what its record did.

    The girth-6 record tried its primer, then the other balanced
    assignments in sorted order; the tuple's deletion order makes the
    primer its first sorted assignment.  So the two agree wherever the
    primer held.  Where it failed, the record's next trial was the
    primer's complement and the tuple's is the next in sorted order, so
    the colorings may differ, and both must be valid.
    """

    def test_copies_of_k2b(self):
        rng = random.Random(20)
        colorings = diverged = 0
        steps = []
        for b in range(5, 10):
            for copies in (1, 2, 5, 12):
                for extra in (0, 1, 3, 8):
                    g = _biclique_copies(b, copies, extra, rng)
                    for t, level, record in ((2, _girth6_level, _record_girth6_level),
                                             (3, _girth5_level, _record_girth5_level),
                                             (4, _girth5_level, _record_girth5_level)):
                        got = _outcome(lambda: _peel(g, t, level))
                        before = len(steps)
                        want = _outcome(lambda: _record_peel(g, t, record, steps))
                        if all(primer in (None, chosen) for primer, chosen in steps[before:]):
                            assert got == want, (b, copies, extra, t)
                        else:
                            diverged += 1
                            assert verify(g, got, Params(t)).verdict
                        colorings += isinstance(got, TreeColoring)
        primers = [primer for primer, _ in steps]
        assert primers.count(None) >= 70 and primers.count((2, 2, 1, 1)) >= 30
        # The primer fails once here: 12 copies of K_{2,5}, 8 extra edges, t = 2.
        assert colorings >= 120 and diverged == 1


class TestHubStepWork:
    """A hub step measures only the components its vertices join."""

    @pytest.mark.parametrize("b, t, color", [(5, 2, color_girth6), (8, 3, color_girth5)])
    def test_sweeps_per_vertex_do_not_grow_with_copies(self, monkeypatch, b, t, color):
        g = _biclique_copies(b, 200, 0, random.Random(0))
        visited = []
        sweep = coloring._sweep
        monkeypatch.setattr(coloring, "_sweep",
                            lambda inside, root: visited.append(len(sweep(inside, root)[0]))
                            or sweep(inside, root))
        result = color(g, t)
        assert sum(visited) <= 3 * g.n
        assert verify(g, result, Params(t)).verdict


# ---- the bucket scans the heaps replaced, kept verbatim as the reference ----


class _ReferenceResidual:
    """The residual as degree buckets, before the lazy heaps."""

    def __init__(self, g):
        self.adj = [set(nbrs) for nbrs in g.adjacency]
        self.deg = g.degrees()
        self.by_degree = [set() for _ in range(max([9, *self.deg]) + 1)]
        for v, d in enumerate(self.deg):
            self.by_degree[d].add(v)
        self.size = g.n
        self.restores = 0

    def delete(self, v):
        adj, deg, by_degree = self.adj, self.deg, self.by_degree
        by_degree[deg[v]].remove(v)
        for u in adj[v]:
            adj[u].remove(v)
            d = deg[u]
            by_degree[d].remove(u)
            by_degree[d - 1].add(u)
            deg[u] = d - 1
        self.size -= 1

    def restore(self, v):
        self.restores += 1
        adj, deg, by_degree = self.adj, self.deg, self.by_degree
        for u in adj[v]:
            adj[u].add(v)
            d = deg[u]
            by_degree[d].remove(u)
            by_degree[d + 1].add(u)
            deg[u] = d + 1
        by_degree[deg[v]].add(v)
        self.size += 1


def _reference_find_link(res, light):
    deg, adj, by_degree = res.deg, res.adj, res.by_degree
    low = [min(bucket) for bucket in by_degree[:2] if bucket]
    if low:
        return Configuration(LOW_VERTEX, {"x": min(low)})
    for v in sorted(by_degree[2]):
        near = [u for u in sorted(adj[v]) if deg[u] <= light]
        if near:
            return Configuration(DEGREE_TWO_LINK, {"x": v, "y": near[0]})
    return None


def _reference_find_girth5(res):
    deg, adj = res.deg, res.adj
    cfg = _reference_find_link(res, 6)
    if cfg is not None:
        return cfg
    for v in sorted(res.by_degree[3]):
        nbrs = sorted(adj[v])
        fours = [u for u in nbrs if deg[u] <= 4]
        sixes = [u for u in nbrs if deg[u] <= 6]
        if fours and len(sixes) >= 2:
            y = fours[0]
            z = min(u for u in sixes if u != y)
            return Configuration(DEGREE_THREE_LINK, {"x": v, "y": y, "z": z})
    for v in sorted(chain.from_iterable(res.by_degree[7:10])):
        twos = [u for u in sorted(adj[v]) if deg[u] == 2]
        if len(twos) >= deg[v] - 1:
            return Configuration(
                TWO_NEIGHBOR_HUB, {"x": v, "degree": deg[v], "twos": tuple(twos)}
            )
    raise ConfigurationNotFoundError("girth 5")


def _reference_find_girth6(res):
    deg, adj = res.deg, res.adj
    cfg = _reference_find_link(res, 4)
    if cfg is not None:
        return cfg
    for v in sorted(res.by_degree[5]):
        twos = [u for u in sorted(adj[v]) if deg[u] == 2]
        if len(twos) == 5:
            return Configuration(
                TWO_NEIGHBOR_HUB, {"x": v, "degree": 5, "twos": tuple(twos)}
            )
    raise ConfigurationNotFoundError("girth 6")


def _reference_bucket_low_partner(res, x):
    by_degree = res.by_degree
    home = by_degree[res.deg[x]]
    home.remove(x)
    lows = [min(pool) for pool in (*by_degree[:4], by_degree[4] & res.adj[x])
            if pool]
    home.add(x)
    if not lows:
        raise ConfigurationNotFoundError(f"no partner for {x}")
    return min(lows)


def _reference_options(res, pinned, position):
    if position in pinned:
        yield pinned[position]
        return
    cap = 2 * position - 1
    below = {w for pos, w in pinned.items() if pos < position}
    adj, deg, by_degree = res.adj, res.deg, res.by_degree
    near = set().union(*(adj[w] for w in below)) - below
    fits = {u for u in near if deg[u] - len(adj[u] & below) <= cap}
    for d in range(min(cap + len(below), len(by_degree) - 1) + 1):
        yield from sorted(by_degree[d] - below if d <= cap else by_degree[d] & fits)


_REFERENCE_SCANS = {
    "_find_link": _reference_find_link,
    "_find_girth5": _reference_find_girth5,
    "_find_girth6": _reference_find_girth6,
    "_low_partner": _reference_bucket_low_partner,
    "_options": _reference_options,
}

_LEVELS = {
    "outerplanar": (_outerplanar_level, "_find_outerplanar"),
    "girth5": (_girth5_level, "_find_girth5"),
    "girth6": (_girth6_level, "_find_girth6"),
}


def _delete_and_restore(res, rng, v):
    """Delete v and 12 more live vertices, pop every heap, restore all."""
    gone = [v] + rng.sample([u for u in range(len(res.deg))
                             if res.deg[u] >= 0 and u != v], 12)
    for u in gone:
        res.delete(u)
    for k in range(len(res.heaps)):
        res.lowest(k, k)
    for u in reversed(gone):
        res.restore(u)


def _assert_same_residual(res, ref):
    live = sorted(chain.from_iterable(ref.by_degree))
    assert res.size == ref.size == len(live)
    assert [v for v, d in enumerate(res.deg) if d >= 0] == live
    assert all(res.deg[v] == ref.deg[v] for v in live)


class TestHeapsMatchBucketScans:
    """Each peel step picks what the bucket scans picked: same
    configuration, same partner, same fill, same residual after it."""

    def _peel_side_by_side(self, monkeypatch, g, t, kind):
        level, finder = _LEVELS[kind]
        res, ref = sparse._Residual(g), _ReferenceResidual(g)
        kinds = set()
        while res.size > t:
            cfg = getattr(sparse, finder)(res)
            if cfg.kind == LOW_VERTEX:
                assert (sparse._low_partner(res, cfg["x"])
                        == _reference_bucket_low_partner(ref, cfg["x"]))
            with monkeypatch.context() as m:
                for name, scan in _REFERENCE_SCANS.items():
                    m.setattr(sparse, name, scan)
                assert getattr(sparse, finder)(ref) == cfg
                expected = level(ref, t)
            assert level(res, t) == expected, (kind, t, cfg)
            _assert_same_residual(res, ref)
            kinds.add(cfg.kind)
        return kinds

    def test_outerplanar(self, monkeypatch):
        rng = random.Random(14)
        graphs = [path(n) for n in (2, 3, 9, 40)]
        for seed in range(3):
            for n in (5, 12, 33, 60, 120):
                mop = maximal_outerplanar_random(n, seed)
                graphs.append(mop)
                graphs.append(graph_from_edges(
                    n, [e for e in mop.edges() if rng.random() < 0.8]))
        kinds = set()
        for g in graphs:
            for t in (2, 3, 7):
                kinds |= self._peel_side_by_side(monkeypatch, g, t, "outerplanar")
        assert kinds == {LOW_VERTEX, DEGREE_TWO_LINK}

    def test_hex_grids(self, monkeypatch):
        for rows, cols in ((1, 1), (2, 3), (4, 4), (6, 5)):
            g = hex_grid(rows, cols)
            self._peel_side_by_side(monkeypatch, g, 2, "girth6")
            for t in (3, 7):
                self._peel_side_by_side(monkeypatch, g, t, "girth5")

    def test_hubs_and_dodecahedron(self, monkeypatch):
        kinds = set()
        for b, t in ((8, 3), (9, 3), (7, 3), (7, 4), (8, 4), (9, 5)):
            kinds |= self._peel_side_by_side(monkeypatch, _biclique(2, b), t, "girth5")
        kinds |= self._peel_side_by_side(monkeypatch, _biclique(2, 5), 2, "girth6")
        for t in (3, 7):
            kinds |= self._peel_side_by_side(monkeypatch, dodecahedron(), t, "girth5")
        assert kinds == {LOW_VERTEX, DEGREE_TWO_LINK, DEGREE_THREE_LINK,
                         TWO_NEIGHBOR_HUB}

    def test_walk_survives_changes_between_ids(self):
        # Deletions, pops and restores leave stale entries and move the
        # live ones; a walk started after them still reads its bucket.
        rng = random.Random(3)
        for seed in range(20):
            g = maximal_outerplanar_random(80, seed)
            res = sparse._Residual(g)
            for d in (2, 3, 4):
                want = [v for v in range(g.n) if res.deg[v] == d]
                for v in want:
                    _delete_and_restore(res, rng, v)
                assert list(res.ascending(d, ())) == want, (seed, d)

    def test_suspended_walk_resumes_in_order(self):
        # The fill suspends each position's walk while it deletes, pops and
        # restores below it; resumed on the residual it was read from, the
        # walk yields the rest of its bucket in order.
        rng = random.Random(4)
        for seed in range(20):
            g = maximal_outerplanar_random(80, seed)
            res = sparse._Residual(g)
            for d in (2, 3, 4):
                want = [v for v in range(g.n) if res.deg[v] == d]
                assert len(want) >= 3, (seed, d)
                got = []
                for v in res.ascending(d, ()):
                    got.append(v)
                    _delete_and_restore(res, rng, v)
                assert got == want, (seed, d)

    def test_fills_that_backtrack(self, monkeypatch):
        # Peel steps never backtrack on these families, so fill random
        # graphs with random pins, several times on one residual, and
        # count the fills that had to undo a choice.
        rng = random.Random(5)
        backtracked = 0
        for case in range(150):
            n = rng.randint(6, 30)
            g = graph_from_edges(n, [(u, v) for v in range(n) for u in range(v)
                                     if rng.random() < rng.choice((0.2, 0.3, 0.4))])
            res, ref = sparse._Residual(g), _ReferenceResidual(g)
            for _ in range(3):
                t = rng.randint(2, 6)
                if res.size < t:
                    break
                live = [v for v, d in enumerate(res.deg) if d >= 0]
                pinned = {1: rng.choice(live)}
                for position in range(2, t + 1):
                    assert (list(sparse._options(res, pinned, position))
                            == list(_reference_options(ref, pinned, position)))
                outcome = []
                for side, scans in ((res, {}), (ref, _REFERENCE_SCANS)):
                    with monkeypatch.context() as m:
                        for name, scan in scans.items():
                            m.setattr(sparse, name, scan)
                        restores = ref.restores
                        try:
                            outcome.append(sparse._fill(side, pinned, t))
                        except NoLowDegreeVertexError as exc:
                            outcome.append(str(exc))
                assert outcome[0] == outcome[1], (case, pinned, t)
                _assert_same_residual(res, ref)
                if isinstance(outcome[0], tuple) and ref.restores > restores:
                    backtracked += 1
        assert backtracked >= 10

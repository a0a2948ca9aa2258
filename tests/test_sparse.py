"""Configuration finders, deletion sequences, extension, sparse algorithms."""

import random
import sys
from itertools import permutations

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
from equitree.sparse import _girth5_level, _girth6_level, _peel


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

    def test_large_t_gives_distinct_colors(self):
        g = cycle(5)
        result = color_outerplanar(g, 8)
        assert sorted(result.class_sizes()) == [0, 0, 0, 1, 1, 1, 1, 1]


# ---- the recursion the peel engine replaced, rebuilt from public pieces ----


def _reference_low_partner(g, x):
    return next(w for w in range(g.n)
                if w != x and len(g.adjacency[w] - {x}) <= 3)


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

    def test_runs_under_a_low_recursion_limit(self):
        g = maximal_outerplanar_random(600, 2)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            result = color_outerplanar(g, 3)
        finally:
            sys.setrecursionlimit(limit)
        assert verify(g, result, Params(3)).verdict

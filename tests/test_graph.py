"""Graph model, generators, queries, and the edge-list text format."""

import copy
import gc
import inspect
import pickle
import random

import pytest

import equitree.graph as graph_module
from equitree import (
    ClassCheck,
    ClassCountVector,
    Configuration,
    CrossCheckReport,
    Disagreement,
    ExtensionSequence,
    Graph,
    InputFormatError,
    Params,
    PreconditionError,
    SearchBudget,
    SearchResult,
    SolutionPair,
    TreeColoring,
    UNBOUNDED,
    VerificationReport,
    brute_force_search,
    certificate_from_coloring,
    color_girth5,
    color_girth6,
    color_outerplanar,
    complete_bipartite,
    component_diameter_max,
    connected_components,
    construct,
    cross_check_bipartite,
    cycle,
    detect_balanced_biclique,
    dodecahedron,
    extend_coloring,
    fill_sequence,
    find_reducible_girth5,
    find_reducible_girth6,
    find_reducible_outerplanar,
    format_edge_list,
    girth,
    graph_from_edges,
    hex_grid,
    is_forest,
    max_degree,
    maximal_outerplanar_random,
    parse_edge_list,
    path,
    realize_class_counts,
    relabel_for_sides,
    remove_vertices,
    solve_linear,
    two_solution_coloring,
    verify,
)


def _girth_by_edge_removal(g: Graph):
    """Independent girth oracle: shortest cycle through each edge.

    The shortest cycle containing edge (u, v) has length 1 plus the
    shortest u-v path in the graph without that edge.
    """
    best = UNBOUNDED
    for u, v in g.edges():
        dist = {u: 0}
        queue = [u]
        while queue:
            nxt = []
            for a in queue:
                for b in g.adjacency[a]:
                    if (a, b) in ((u, v), (v, u)):
                        continue
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            queue = nxt
        if v in dist and dist[v] + 1 < best:
            best = dist[v] + 1
    return best


def _all_pairs_distances(g: Graph):
    """Independent distance oracle: Floyd-Warshall, UNBOUNDED across components."""
    dist = [[0 if u == v else 1 if v in g.adjacency[u] else UNBOUNDED
             for v in range(g.n)] for u in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def _cycles_by_enumeration(g: Graph):
    """Second oracle: lengths of all simple cycles, by DFS over paths."""
    shortest = UNBOUNDED
    for start in range(g.n):
        stack = [(start, [start])]
        while stack:
            u, trail = stack.pop()
            for w in g.adjacency[u]:
                if w == start and len(trail) >= 3:
                    shortest = min(shortest, len(trail))
                elif w > start and w not in trail:
                    stack.append((w, trail + [w]))
    return shortest


class TestGraphModel:
    def test_rejects_self_loop(self):
        with pytest.raises(InputFormatError):
            Graph((frozenset({0}),))

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(InputFormatError):
            Graph((frozenset({1}), frozenset()))

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(InputFormatError):
            Graph((frozenset({5}),))

    @pytest.mark.parametrize("adjacency", [[frozenset()], (frozenset({1}), {0})],
                             ids=["list", "set"])
    def test_rejects_mutable_containers(self, adjacency):
        with pytest.raises(InputFormatError, match="tuple of frozensets"):
            Graph(adjacency)

    def test_from_edges_rejects_duplicates(self):
        with pytest.raises(InputFormatError, match=r"^duplicate edge \(1, 0\)$"):
            graph_from_edges(3, [(0, 1), (1, 0)])

    def test_from_edges_rejects_loops_and_range(self):
        with pytest.raises(InputFormatError, match="self-loop at vertex 1"):
            graph_from_edges(3, [(1, 1)])
        with pytest.raises(InputFormatError):
            graph_from_edges(3, [(0, 3)])

    def test_basic_queries(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.n == 4
        assert g.m == 4
        assert g.degree(0) == 2
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)
        assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]


class TestGenerators:
    def test_complete_bipartite_shape(self):
        g = complete_bipartite(3)
        assert (g.n, g.m) == (6, 9)
        assert g.degrees() == [3] * 6
        for x in range(3):
            assert g.adjacency[x] == frozenset({3, 4, 5})
        assert girth(g) == 4

    def test_complete_bipartite_k11(self):
        g = complete_bipartite(1)
        assert (g.n, g.m) == (2, 1)
        assert is_forest(g)

    def test_complete_bipartite_passes_the_graph_check(self):
        # complete_bipartite builds its graph without Graph's check, which
        # must accept the same fields.  The canonical parse skips the check
        # too; test_fast_parse_matches_the_line_loop holds it to the checked
        # line loop.
        for n in range(1, 61):
            g = complete_bipartite(n)
            assert Graph(**vars(g)) == g, n

    def test_path_and_cycle(self):
        p = path(5)
        assert (p.n, p.m) == (5, 4)
        assert is_forest(p)
        assert component_diameter_max(p) == 4
        c = cycle(5)
        assert (c.n, c.m) == (5, 5)
        assert not is_forest(c)
        assert girth(c) == 5
        with pytest.raises(PreconditionError):
            cycle(2)

    def test_dodecahedron(self):
        g = dodecahedron()
        assert (g.n, g.m) == (20, 30)
        assert g.degrees() == [3] * 20
        assert girth(g) == 5
        assert len(connected_components(g)) == 1
        # Edge count sits exactly on the girth-5 planar bound 5(n-2)/3.
        assert 3 * g.m == 5 * (g.n - 2)

    def test_hex_grid(self):
        one = hex_grid(1, 1)
        assert (one.n, one.m) == (6, 6)
        assert girth(one) == 6
        g = hex_grid(3, 3)
        assert (g.n, g.m) == (30, 38)
        assert girth(g) == 6
        assert max_degree(g) == 3
        assert len(connected_components(g)) == 1
        assert 2 * g.m <= 3 * (g.n - 2)

    def test_maximal_outerplanar_shape(self):
        for n in range(3, 15):
            g = maximal_outerplanar_random(n, seed=11)
            assert g.n == n
            assert g.m == 2 * n - 3
            assert girth(g) == 3
            assert len(connected_components(g)) == 1
            # Boundary cycle intact.
            for i in range(n - 1):
                assert g.has_edge(i, i + 1)
            assert g.has_edge(0, n - 1)

    def test_maximal_outerplanar_low_degree_supply(self):
        # 2-degeneracy: repeatedly deleting a minimum-degree vertex never
        # sees degree above 2, a cheap necessary condition of outerplanarity.
        for seed in range(6):
            g = maximal_outerplanar_random(30, seed)
            while g.n:
                v = min(range(g.n), key=g.degree)
                assert g.degree(v) <= 2
                g, _ = remove_vertices(g, {v})

    def test_maximal_outerplanar_deterministic(self):
        a = maximal_outerplanar_random(40, 7)
        b = maximal_outerplanar_random(40, 7)
        assert a.adjacency == b.adjacency
        c = maximal_outerplanar_random(40, 8)
        assert a.adjacency != c.adjacency

    def test_small_sizes(self):
        assert maximal_outerplanar_random(1, 0).n == 1
        assert maximal_outerplanar_random(2, 0).m == 1
        assert path(1).m == 0

    @pytest.mark.parametrize("call", [
        lambda: complete_bipartite(2.5),
        lambda: complete_bipartite(True),
        lambda: path(3.0),
        lambda: cycle(4.0),
        lambda: hex_grid(2.0, 2),
        lambda: hex_grid(2, True),
        lambda: maximal_outerplanar_random(5.0, 1),
    ], ids=["knn_float", "knn_bool", "path_float", "cycle_float",
            "hex_rows_float", "hex_cols_bool", "outerplanar_float"])
    def test_non_int_sizes_rejected(self, call):
        with pytest.raises(PreconditionError, match="int"):
            call()


# The generators as they were built from edge lists, through graph_from_edges
# and Graph's check.  The library builds their adjacency directly and must
# give the same graphs, each vertex's frozenset iterating in the same order.


def _reference_path(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _reference_hex_grid(rows, cols):
    coord_edges = set()
    for br in range(rows):
        x0 = br % 2
        for bc in range(cols):
            x = 2 * bc + x0
            ring = [
                (br, x), (br, x + 1), (br, x + 2),
                (br + 1, x + 2), (br + 1, x + 1), (br + 1, x),
            ]
            for p, q in zip(ring, ring[1:] + ring[:1]):
                coord_edges.add((min(p, q), max(p, q)))
    verts = sorted({p for e in coord_edges for p in e})
    index = {p: i for i, p in enumerate(verts)}
    return graph_from_edges(
        len(verts), sorted((index[p], index[q]) for p, q in coord_edges)
    )


def _reference_outerplanar(n, seed):
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    if n >= 3:
        edges.append((0, n - 1))
        stack = [(0, n - 1)]
        while stack:
            i, j = stack.pop()
            if j - i < 2:
                continue
            k = rng.randint(i + 1, j - 1)
            if k - i >= 2:
                edges.append((i, k))
            if j - k >= 2:
                edges.append((k, j))
            stack.append((i, k))
            stack.append((k, j))
    return graph_from_edges(n, edges)


class TestGeneratorsMatchTheirEdgeListBuilds:
    """path, hex_grid and maximal_outerplanar_random skip Graph's check; the
    checked constructor must accept each graph, and each must equal its
    reference down to the order in which every neighborhood iterates, which
    the peel's colorings depend on."""

    def _assert_same(self, g, expected):
        assert g == expected
        for v in range(g.n):
            assert list(g.adjacency[v]) == list(expected.adjacency[v]), v
        assert Graph(g.adjacency) == g

    def test_path(self):
        for n in [*range(1, 301), 2100]:
            self._assert_same(path(n), _reference_path(n))

    def test_hex_grid(self):
        for rows in range(1, 21):
            for cols in range(1, 21):
                self._assert_same(hex_grid(rows, cols), _reference_hex_grid(rows, cols))

    def test_maximal_outerplanar_random(self):
        for n in range(1, 101):
            for seed in range(5):
                self._assert_same(maximal_outerplanar_random(n, seed),
                                  _reference_outerplanar(n, seed))
        for n in (340, 3000):
            self._assert_same(maximal_outerplanar_random(n, 11),
                              _reference_outerplanar(n, 11))


class TestCollectorPause:
    """path, hex_grid, maximal_outerplanar_random and parse_edge_list's fast
    path pause the cyclic collector; every builder leaves it as it found it,
    on or off, also when it raises."""

    @pytest.mark.parametrize("build, error", [
        (lambda: maximal_outerplanar_random(50, 3), None),
        (lambda: hex_grid(4, 5), None),
        (lambda: path(30), None),
        (lambda: parse_edge_list("p 3 2\n0 1\n1 2\n"), None),
        # The fast path builds paused, finds the repeat and declines; the
        # line loop then raises inside graph_from_edges.
        (lambda: parse_edge_list("0 1\n1 0\n"), "duplicate edge"),
        (lambda: graph_from_edges(3, [(0, 1), (2, 1), (0, 1)]), "duplicate edge"),
    ], ids=["outerplanar", "hex_grid", "path", "parse",
            "parse_fallback_raises", "graph_from_edges_raises"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_state_restored(self, build, error, enabled):
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            if error is None:
                build()
            else:
                with pytest.raises(InputFormatError, match=error):
                    build()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_no_collection_while_a_graph_is_built(self):
        # Each build makes thousands of containers, past the collector's
        # first threshold; with it paused, no collection starts before the
        # build returns.  The first allocation after it may start one.
        text = format_edge_list(maximal_outerplanar_random(5000, 1))
        builds = {
            "outerplanar": lambda: maximal_outerplanar_random(5000, 1),
            "hex_grid": lambda: hex_grid(50, 50),
            "path": lambda: path(5000),
            "parse": lambda: parse_edge_list(text),
        }
        building = [None]
        collected_during = []

        def watch(phase, info):
            if phase == "start" and building[0]:
                collected_during.append(building[0])

        was_enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(watch)
        try:
            for name, build in builds.items():
                gc.collect()
                building[0] = name
                build()
                building[0] = None
        finally:
            gc.callbacks.remove(watch)
            (gc.enable if was_enabled else gc.disable)()
        assert collected_during == []


class TestQueries:
    def test_components_and_forest(self):
        g = graph_from_edges(6, [(0, 1), (1, 2), (4, 5)])
        assert connected_components(g) == [[0, 1, 2], [3], [4, 5]]
        assert is_forest(g)
        g2 = graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (4, 5)])
        assert not is_forest(g2)

    def test_diameter(self):
        assert component_diameter_max(path(6)) == 5
        star = graph_from_edges(5, [(0, i) for i in range(1, 5)])
        assert component_diameter_max(star) == 2
        assert component_diameter_max(graph_from_edges(3, [])) == 0

    def test_girth_on_forests(self):
        assert girth(path(7)) == UNBOUNDED
        assert girth(graph_from_edges(4, [])) == UNBOUNDED

    def test_girth_matches_both_oracles_on_small_graphs(self):
        rng = random.Random(2024)
        samples = [
            path(6), cycle(3), cycle(8), complete_bipartite(3),
            complete_bipartite(4), hex_grid(1, 1),
            maximal_outerplanar_random(8, 1),
            graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                 (0, 2)]),
        ]
        for _ in range(30):
            n = rng.randint(2, 10)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.35
            ]
            samples.append(graph_from_edges(n, edges))
        for g in samples:
            expected = _girth_by_edge_removal(g)
            assert girth(g) == expected
            if g.n <= 10:
                assert _cycles_by_enumeration(g) == expected

    def test_checkers_match_all_pairs_distances(self):
        rng = random.Random(26)
        disconnected = 0
        for _ in range(200):
            n = rng.randint(0, 12)
            p = rng.choice((0.1, 0.2, 0.35, 0.6))
            g = graph_from_edges(n, [(u, v) for u in range(n)
                                     for v in range(u + 1, n) if rng.random() < p])
            dist = _all_pairs_distances(g)
            comps = sorted({tuple(v for v in range(n) if dist[u][v] < UNBOUNDED)
                            for u in range(n)})
            disconnected += len(comps) > 1
            assert connected_components(g) == [list(c) for c in comps]
            # A forest is a graph where no edge lies on a cycle.
            assert is_forest(g) == (_girth_by_edge_removal(g) == UNBOUNDED)
            assert component_diameter_max(g) == max(
                (d for row in dist for d in row if d < UNBOUNDED), default=0)
        assert disconnected > 50

    def test_checkers_run_one_bfs_per_source_or_component(self, monkeypatch):
        roots = []
        real = graph_module._bfs

        def counting(g, root):
            roots.append(root)
            return real(g, root)

        monkeypatch.setattr(graph_module, "_bfs", counting)
        # Components {0, 1, 2} (a triangle), {3}, {4, 5} and {6, 7, 8}.
        g = graph_from_edges(9, [(0, 1), (1, 2), (2, 0), (4, 5), (6, 7), (7, 8)])
        for checker, expected in ((component_diameter_max, list(range(9))),
                                  (girth, list(range(9))),
                                  (connected_components, [0, 3, 4, 6]),
                                  (is_forest, [0, 3, 4, 6])):
            roots.clear()
            checker(g)
            assert roots == expected, checker.__name__

    def test_diameter_of_a_long_path(self):
        # One BFS per source: quadratic, not one BFS per pair of vertices.
        assert component_diameter_max(path(2000)) == 1999

    def test_remove_vertices_basic(self):
        g = cycle(6)
        h, remap = remove_vertices(g, {0, 3})
        assert h.n == 4
        assert remap == {1: 0, 2: 1, 4: 2, 5: 3}
        assert sorted(h.edges()) == [(0, 1), (2, 3)]
        with pytest.raises(PreconditionError):
            remove_vertices(g, {9})

    def test_remove_vertices_composes(self):
        g = maximal_outerplanar_random(12, 5)
        both, remap_both = remove_vertices(g, {2, 7})
        first, remap_first = remove_vertices(g, {2})
        second, remap_second = remove_vertices(first, {remap_first[7]})
        assert second.adjacency == both.adjacency
        for old in range(g.n):
            if old in (2, 7):
                continue
            assert remap_both[old] == remap_second[remap_first[old]]


class TestEdgeListFormat:
    def test_round_trip(self):
        for g in (path(5), cycle(7), complete_bipartite(3),
                  maximal_outerplanar_random(9, 4), graph_from_edges(3, [])):
            assert parse_edge_list(format_edge_list(g)).adjacency == g.adjacency

    def test_header_declares_counts(self):
        g = parse_edge_list("p 4 2\n0 1\n2 3\n")
        assert (g.n, g.m) == (4, 2)

    def test_headerless_infers_n(self):
        g = parse_edge_list("0 1\n1 4\n")
        assert g.n == 5

    def test_blank_lines_ignored(self):
        g = parse_edge_list("\np 3 1\n\n0 2\n\n")
        assert (g.n, g.m) == (3, 1)

    def test_bool_ids_rejected(self):
        # A bool id equals 0 or 1, but format_edge_list would write it as
        # True or False, which parse_edge_list rejects.
        with pytest.raises(InputFormatError, match="bool"):
            graph_from_edges(2, [(True, 0)])
        with pytest.raises(InputFormatError, match="bool"):
            Graph((frozenset({True}), frozenset({0})))
        with pytest.raises(InputFormatError, match="bool"):
            Graph((frozenset({2}), frozenset(), frozenset({False})))
        with pytest.raises(InputFormatError, match="bool"):
            Graph((frozenset(), frozenset({2}), frozenset({True})))
        g = graph_from_edges(2, [(1, 0)])
        text = format_edge_list(g)
        assert text.splitlines()[1:] == ["0 1"]
        assert parse_edge_list(text) == g

    def test_isolated_vertices_survive_round_trip(self):
        g = graph_from_edges(5, [(0, 1)])
        assert parse_edge_list(format_edge_list(g)).n == 5

    @pytest.mark.parametrize("text", [
        "p 3\n0 1\n",
        "0 1 2\n",
        "a b\n",
        "p x 1\n0 1\n",
        "0 1\np 3 1\n",
        "p 3 2\n0 1\n",
        "-1 0\n",
        "0 0\n",
        "0 1\n0 1\n",
        "p 2 1\n0 5\n",
        "p -1 0\n",
    ])
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(InputFormatError):
            parse_edge_list(text)


def _canonical_texts():
    """Texts in format_edge_list's layout, with and without the header."""
    graphs = [complete_bipartite(n) for n in (1, 2, 5, 12)]
    graphs += [maximal_outerplanar_random(n, seed) for n, seed in ((3, 0), (40, 1), (150, 2))]
    graphs += [hex_grid(3, 4), path(2), path(30), graph_from_edges(4, [(2, 3)])]
    texts = [format_edge_list(g) for g in graphs]
    texts += [text.split("\n", 1)[1] for text in texts]
    return texts + ["", "p 0 0\n", "p 3 0\n", "0 1\n"]


def _edge_lines(text):
    """The lines, the index of the first edge line, and each edge's two ids."""
    lines = text.split("\n")[:-1]
    first = 1 if lines and lines[0].startswith("p") else 0
    return lines, first, [tuple(map(int, line.split())) for line in lines[first:]]


def _perturbations(text, rng):
    """Variants of a canonical text that the fast path must hand to the loop."""
    lines, first, edges = _edge_lines(text)
    out = [text.replace("\n", "\r\n"), text[:-1], text.replace(" ", "\t"),
           text.replace(" ", "  "), text.replace("\n", " \n"),
           text.replace("\n", "\n ", 1), "\n" + text, text + "\n"]
    if not edges:
        return out + [text + "0\n", text + "0 1 2\n", text + "-1 0\n"]
    at = rng.randrange(first, len(lines))
    u, v = edges[at - first]

    def with_line(new, index=at):
        return "\n".join(lines[:index] + [new] + lines[index + 1:]) + "\n"

    for brk in ("\x0b", "\x0c", "\u2028", "\r"):
        out.append(with_line(lines[at] + brk + lines[at]) if len(edges) > 1
                   else text.replace("\n", brk))
    out += [with_line(f"0{u} {v}"), with_line(f"+{u} {v}"), with_line(f"{u} 1_0"),
            with_line(f"{u} {chr(0x660 + v % 10)}"), with_line(f"-{u} {v}"),
            with_line(f"{u}"), with_line(f"{u} {v} {v}"), with_line(f"{u} {v} x"),
            with_line(f"{u} {'9' * 5000}")]
    n = max(max(e) for e in edges) + 1
    if first:
        n, m = map(int, lines[0].split()[1:])
        out += [with_line(f"{u} {n}"), with_line(f"p {n} {m + 1}", 0),
                with_line(f"p {n} {m - 1}", 0), with_line(f"p {n}", 0),
                with_line(f"p {n} {'9' * 5000}", 0),
                "\n".join(lines[1:at + 1] + lines[:1] + lines[at + 1:]) + "\n"]
    extra = (f"{u} {v}", f"{v} {u}", f"{u} {u}", f"{v} {n + 3}")
    for line in extra:
        grown = text + line + "\n"
        out.append(grown)
        if first:
            out.append(grown.replace(f"p {n} {m}\n", f"p {n} {m + 1}\n", 1))
    return out


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)


def test_fast_parse_matches_the_line_loop():
    # The loop is the reference: on canonical text and on every variant that
    # the fast path must decline, parse_edge_list returns the same graph or
    # raises the same error with the same message and line number.
    rng = random.Random(23)
    declined = 0
    for text in _canonical_texts():
        expected = graph_module._parse_lines(text)
        assert parse_edge_list(text) == expected
        for variant in _perturbations(text, rng):
            outcome = _parse_outcome(graph_module._parse_lines, variant)
            assert _parse_outcome(parse_edge_list, variant) == outcome, repr(variant[:80])
            declined += isinstance(outcome, tuple)
    assert declined > 100


def test_canonical_text_never_reaches_the_line_loop(monkeypatch):
    g = complete_bipartite(50)
    text = format_edge_list(g)

    def loop(text):
        raise AssertionError("canonical text went through the line loop")

    monkeypatch.setattr(graph_module, "_parse_lines", loop)
    assert parse_edge_list(text) == g
    assert parse_edge_list(text.split("\n", 1)[1]) == g
    with pytest.raises(AssertionError, match="line loop"):
        parse_edge_list(text.replace("\n", "\r\n"))


# Every count, size and vertex id must be an int and not a bool, and every
# graph, coloring, params, budget or pin map must be of its type; anything
# else is a typed error at the entry point, never a bare TypeError,
# ValueError or AttributeError, and True is never read as 1.
@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: graph_from_edges(2.5, []), PreconditionError,
                 id="graph_from_edges-float-n"),
    pytest.param(lambda: graph_from_edges(2, [(0,)]), InputFormatError,
                 id="graph_from_edges-one-id"),
    pytest.param(lambda: graph_from_edges(2, [("0", 1)]), InputFormatError,
                 id="graph_from_edges-str-id"),
    pytest.param(lambda: graph_from_edges(2, [(1.5, 0)]), InputFormatError,
                 id="graph_from_edges-float-id"),
    pytest.param(lambda: Graph((frozenset({"a"}),)), InputFormatError,
                 id="Graph-str-neighbor"),
    pytest.param(lambda: Graph((frozenset({1.5}), frozenset())), InputFormatError,
                 id="Graph-float-neighbor"),
    pytest.param(lambda: verify(path(3), TreeColoring((1, 2, 1), 2), "x"),
                 PreconditionError, id="verify-str-params"),
    pytest.param(lambda: construct(path(3), 2), PreconditionError,
                 id="construct-int-params"),
    pytest.param(lambda: brute_force_search(path(3), 3), PreconditionError,
                 id="brute_force_search-int-params"),
    pytest.param(lambda: verify("x", TreeColoring((1,), 1), Params(1)),
                 PreconditionError, id="verify-str-graph"),
    pytest.param(lambda: construct("x", Params(1)), PreconditionError,
                 id="construct-str-graph"),
    pytest.param(lambda: brute_force_search("x", Params(1)), PreconditionError,
                 id="brute_force_search-str-graph"),
    pytest.param(lambda: brute_force_search(path(3), Params(2), "x"), PreconditionError,
                 id="brute_force_search-str-budget"),
    pytest.param(lambda: cross_check_bipartite(2, 2, "x"), PreconditionError,
                 id="cross_check_bipartite-str-budget"),
    pytest.param(lambda: remove_vertices(path(3), ["a"]), PreconditionError,
                 id="remove_vertices-str"),
    pytest.param(lambda: remove_vertices(path(3), [1.5]), PreconditionError,
                 id="remove_vertices-float"),
    pytest.param(lambda: ExtensionSequence(path(3), ("a",)), PreconditionError,
                 id="ExtensionSequence-str"),
    pytest.param(lambda: fill_sequence(path(3), {"1": 0}, 2), PreconditionError,
                 id="fill_sequence-str-position"),
    pytest.param(lambda: fill_sequence(path(3), {1: "a"}, 2), PreconditionError,
                 id="fill_sequence-str-vertex"),
    pytest.param(lambda: fill_sequence(path(3), {True: 0}, 2), PreconditionError,
                 id="fill_sequence-bool-position"),
    pytest.param(lambda: fill_sequence(path(3), {1: True}, 2), PreconditionError,
                 id="fill_sequence-bool-vertex"),
    pytest.param(lambda: fill_sequence(path(4), [1, 2], 2), PreconditionError,
                 id="fill_sequence-list-pins"),
    pytest.param(lambda: color_girth5("x", 3), PreconditionError,
                 id="color_girth5-str-graph"),
    pytest.param(lambda: color_girth6("x", 2), PreconditionError,
                 id="color_girth6-str-graph"),
    pytest.param(lambda: color_outerplanar("x", 2), PreconditionError,
                 id="color_outerplanar-str-graph"),
    pytest.param(lambda: fill_sequence("x", {}, 2), PreconditionError,
                 id="fill_sequence-str-graph"),
    pytest.param(lambda: remove_vertices("x", []), PreconditionError,
                 id="remove_vertices-str-graph"),
    pytest.param(lambda: format_edge_list("x"), PreconditionError,
                 id="format_edge_list-str-graph"),
    pytest.param(lambda: max_degree("x"), PreconditionError,
                 id="max_degree-str-graph"),
    pytest.param(lambda: is_forest("x"), PreconditionError, id="is_forest-str-graph"),
    pytest.param(lambda: connected_components("x"), PreconditionError,
                 id="connected_components-str-graph"),
    pytest.param(lambda: component_diameter_max("x"), PreconditionError,
                 id="component_diameter_max-str-graph"),
    pytest.param(lambda: girth("x"), PreconditionError, id="girth-str-graph"),
    pytest.param(lambda: find_reducible_girth5("x"), PreconditionError,
                 id="find_reducible_girth5-str-graph"),
    pytest.param(lambda: find_reducible_girth6("x"), PreconditionError,
                 id="find_reducible_girth6-str-graph"),
    pytest.param(lambda: find_reducible_outerplanar("x"), PreconditionError,
                 id="find_reducible_outerplanar-str-graph"),
    pytest.param(lambda: ExtensionSequence("x", (0,)), PreconditionError,
                 id="ExtensionSequence-str-graph"),
    pytest.param(lambda: extend_coloring(path(3), "x", TreeColoring((1, 1), 1)),
                 PreconditionError, id="extend_coloring-str-sequence"),
    pytest.param(lambda: extend_coloring(path(3), ExtensionSequence(path(3), (0,)), "x"),
                 PreconditionError, id="extend_coloring-str-inner"),
    pytest.param(lambda: detect_balanced_biclique("x"), PreconditionError,
                 id="detect_balanced_biclique-str-graph"),
    pytest.param(lambda: remove_vertices(path(3), 5), PreconditionError,
                 id="remove_vertices-int-drop"),
    pytest.param(lambda: relabel_for_sides("x", [0], [1]), PreconditionError,
                 id="relabel_for_sides-str-coloring"),
    pytest.param(lambda: relabel_for_sides(TreeColoring((1, 1), 1), 5, [1]),
                 PreconditionError, id="relabel_for_sides-int-xs"),
    pytest.param(lambda: parse_edge_list(b"0 1\n"), PreconditionError,
                 id="parse_edge_list-bytes-text"),
    pytest.param(lambda: maximal_outerplanar_random(6, None), PreconditionError,
                 id="maximal_outerplanar_random-none-seed"),
    pytest.param(lambda: realize_class_counts(3, 2, "x"), PreconditionError,
                 id="realize_class_counts-str-ccv"),
    pytest.param(lambda: two_solution_coloring(3, "a", "b"), PreconditionError,
                 id="two_solution_coloring-str-pairs"),
    pytest.param(lambda: ExtensionSequence(path(3), 5), PreconditionError,
                 id="ExtensionSequence-int-vertices"),
    pytest.param(lambda: ExtensionSequence(path(3), [0]), PreconditionError,
                 id="ExtensionSequence-list-vertices"),
    pytest.param(lambda: certificate_from_coloring("x", Params(1)), PreconditionError,
                 id="certificate_from_coloring-str-coloring"),
    pytest.param(lambda: verify(path(2), "x", Params(1)), PreconditionError,
                 id="verify-str-coloring"),
    pytest.param(lambda: solve_linear(2.5, 10), PreconditionError,
                 id="solve_linear-float-a"),
    pytest.param(lambda: solve_linear("3", 10), PreconditionError,
                 id="solve_linear-str-a"),
    pytest.param(lambda: solve_linear(True, 10), PreconditionError,
                 id="solve_linear-bool-a"),
    pytest.param(lambda: solve_linear(3, True), PreconditionError,
                 id="solve_linear-bool-n"),
])
def test_non_int_arguments_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


def test_wrong_types_name_the_argument_and_its_type():
    for call, message in (
        (lambda: color_outerplanar([], 2), "graph must be a Graph, got list"),
        (lambda: verify(path(2), (1, 1), Params(1)),
         "coloring must be a TreeColoring, got tuple"),
        (lambda: certificate_from_coloring(TreeColoring((1,), 1), 1),
         "params must be a Params, got int"),
        (lambda: brute_force_search(path(2), Params(1), 5),
         "budget must be a SearchBudget, got int"),
        (lambda: fill_sequence(path(2), [0], 1), "pinned must be a Mapping, got list"),
        (lambda: extend_coloring(path(2), "x", TreeColoring((1,), 1)),
         "sequence must be an ExtensionSequence, got str"),
    ):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            call()


# ---- the value classes ------------------------------------------------------

_K11 = "Graph(adjacency=(frozenset({1}), frozenset({0})))"


# One value of each class: built with every field positional, built by keyword
# with the defaults left out, and its repr.
_VALUES = [
    (complete_bipartite(1), Graph(adjacency=(frozenset({1}), frozenset({0}))), _K11),
    (Params(3, 1, 1), Params(d=1, k=1, t=3), "Params(t=3, k=1, d=1)"),
    (TreeColoring((1, 2, 2), 2), TreeColoring(t=2, colors=(1, 2, 2)),
     "TreeColoring(colors=(1, 2, 2), t=2)"),
    (ClassCheck(3, False, 2, None),
     ClassCheck(diameter=None, max_degree=2, is_forest=False, size=3),
     "ClassCheck(size=3, is_forest=False, max_degree=2, diameter=None)"),
    (VerificationReport(False, True, "x", (ClassCheck(1, True, 0, 0),)),
     VerificationReport(classes=(ClassCheck(1, True, 0, 0),), first_violation="x",
                        equitable=True, verdict=False),
     "VerificationReport(verdict=False, equitable=True, first_violation='x', "
     "classes=(ClassCheck(size=1, is_forest=True, max_degree=0, diameter=0),))"),
    (ClassCountVector(2, 1, 0, 3, 0, 0, 0, 0, 0, 0), ClassCountVector(r=1, a=2, x2=3),
     "ClassCountVector(a=2, r=1, x1=0, x2=3, x1p=0, x2p=0, y1=0, y2=0, y1p=0, y2p=0)"),
    (SolutionPair(2, 1), SolutionPair(y=1, x=2), "SolutionPair(x=2, y=1)"),
    (SearchBudget(100_000_000, 60.0), SearchBudget(),
     "SearchBudget(max_nodes=100000000, time_cap=60.0)"),
    (SearchResult("infeasible", None, 0), SearchResult(status="infeasible"),
     "SearchResult(status='infeasible', coloring=None, nodes=0)"),
    (Disagreement(3, 2, "11", "feasible", False),
     Disagreement(formula_feasible=False, oracle_status="feasible", variant="11",
                  q=2, n=3),
     "Disagreement(n=3, q=2, variant='11', oracle_status='feasible', "
     "formula_feasible=False)"),
    (CrossCheckReport(4, ()), CrossCheckReport(disagreements=(), checked=4),
     "CrossCheckReport(checked=4, disagreements=())"),
    (Configuration("low_vertex", {"v": 0}), Configuration(data={"v": 0}, kind="low_vertex"),
     "Configuration(kind='low_vertex', data={'v': 0})"),
    (ExtensionSequence(complete_bipartite(1), (0, 1)),
     ExtensionSequence(vertices=(0, 1), graph=complete_bipartite(1)),
     f"ExtensionSequence(graph={_K11}, vertices=(0, 1))"),
]


@pytest.mark.parametrize("value, by_keyword, text", _VALUES,
                         ids=[type(value).__name__ for value, _, _ in _VALUES])
def test_value_class_behaviour(value, by_keyword, text):
    cls = type(value)
    names = cls.__match_args__
    assert names == tuple(inspect.signature(cls).parameters)
    fields = tuple(getattr(value, name) for name in names)
    assert repr(value) == text
    assert value == by_keyword == cls(*fields) and value is not by_keyword
    assert value.__eq__(fields) is NotImplemented and value != fields
    # The hash of the fields; a Configuration's data is a dict, so it has none.
    if cls is Configuration:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(by_keyword) == hash(fields)
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and repr(twin) == text
    match value:
        case cls(first):
            assert first == fields[0]
        case _:
            pytest.fail("no match on the first field")

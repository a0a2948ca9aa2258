"""Acceptance gate: the eleven headline properties with their runtime caps,
and the file round trip of criterion 11's outerplanar graph.

Each test pins exact expected values where the result is a number, and
otherwise checks the full property (construct then verify, or oracle
agreement).  Runtime limits are asserted with a wall clock so a
regression in algorithmic complexity fails loudly.
"""

import json
import random
import time

from equitree import (
    ExtensionSequence,
    INFEASIBLE,
    Params,
    TreeColoring,
    UNBOUNDED,
    brute_force_search,
    certificate_from_coloring,
    color_girth5,
    color_girth6,
    color_outerplanar,
    coloring_from_certificate,
    complete_bipartite,
    construct,
    construct_knn_11,
    construct_knn_inf2,
    cross_check_bipartite,
    dodecahedron,
    exact_va11,
    exact_vainf2,
    extend_coloring,
    feasible_11,
    feasible_inf2,
    format_edge_list,
    graph_from_edges,
    hex_grid,
    maximal_outerplanar_random,
    parse_edge_list,
    path,
    realize_class_counts,
    solve_linear,
    va11_upper,
    vainf2_upper,
    verify,
)


def test_criterion_01_exact_threshold_43():
    start = time.monotonic()
    assert exact_va11(43) == 22
    assert not feasible_11(43, 21)
    for q in range(22, 87):
        assert feasible_11(43, q), q
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 1: PASS ({elapsed:.2f}s)")


def test_criterion_02_linear_solutions_43():
    got = [(s.x, s.y) for s in solve_linear(3, 43)]
    assert got == [(1, 10), (5, 7), (9, 4), (13, 1)]
    print("criterion 2: PASS")


def test_criterion_03_exact_threshold_65():
    start = time.monotonic()
    assert exact_vainf2(65) == 8
    assert feasible_inf2(65, 7) is None
    witness = feasible_inf2(65, 9)
    assert witness is not None
    coloring = realize_class_counts(65, 9, witness)
    rep = verify(complete_bipartite(65), coloring, Params(9, UNBOUNDED, 2))
    assert rep.verdict, rep.first_violation
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 3: PASS ({elapsed:.2f}s)")


def test_criterion_04_upper_bound_65_constructive():
    assert vainf2_upper(65) == 10
    g = complete_bipartite(65)
    for q in range(10, 133):
        coloring = construct_knn_inf2(65, q)
        rep = verify(g, coloring, Params(q, UNBOUNDED, 2))
        assert rep.verdict, (q, rep.first_violation)
    print("criterion 4: PASS")


def test_criterion_05_construction_soundness_to_200():
    start = time.monotonic()
    built = 0
    for n in range(1, 201):
        g = complete_bipartite(n)
        for q in range(max(1, va11_upper(n)), 2 * n + 3):
            coloring = construct_knn_11(n, q)
            rep = verify(g, coloring, Params(q, 1, 1))
            assert rep.verdict, ("11", n, q, rep.first_violation)
            built += 1
        for q in range(max(1, vainf2_upper(n)), 2 * n + 3):
            coloring = construct_knn_inf2(n, q)
            rep = verify(g, coloring, Params(q, UNBOUNDED, 2))
            assert rep.verdict, ("inf2", n, q, rep.first_violation)
            built += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 5: PASS ({built} colorings, {elapsed:.1f}s)")


def test_criterion_06_sharpness_family():
    for n, t in ((5, 1), (8, 2)):
        q = 2 * t + 1
        result = brute_force_search(complete_bipartite(n), Params(q, 1, 1))
        assert result.status == INFEASIBLE, (n, q, result.status)
        assert not feasible_11(n, q)
    print("criterion 6: PASS")


def test_criterion_07_divisibility_obstructions():
    start = time.monotonic()
    assert feasible_inf2(9, 3) is None
    assert feasible_inf2(20, 5) is None
    result = brute_force_search(complete_bipartite(9),
                                Params(3, UNBOUNDED, 2))
    assert result.status == INFEASIBLE
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 7: PASS ({elapsed:.1f}s)")


def test_criterion_08_oracle_concordance():
    start = time.monotonic()
    report = cross_check_bipartite(4, 8)
    assert report.checked == 64
    assert report.disagreements == ()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 8: PASS ({elapsed:.1f}s)")


def test_criterion_09_sparse_algorithms():
    start = time.monotonic()
    dod = dodecahedron()
    for t in range(3, 21):
        rep = verify(dod, color_girth5(dod, t), Params(t))
        assert rep.verdict, ("girth5", t, rep.first_violation)
    hexg = hex_grid(3, 3)
    for t in range(2, 21):
        rep = verify(hexg, color_girth6(hexg, t), Params(t))
        assert rep.verdict, ("girth6", t, rep.first_violation)
    for seed in range(5):
        g = maximal_outerplanar_random(100, seed)
        for t in range(2, 21):
            rep = verify(g, color_outerplanar(g, t), Params(t))
            assert rep.verdict, ("outerplanar", seed, t, rep.first_violation)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 9: PASS ({elapsed:.1f}s)")


def test_criterion_11_sparse_peel_at_scale():
    # The peel reads lazy heaps, never a whole degree bucket, so these
    # take seconds where bucket scans took minutes.
    start = time.monotonic()
    for g, t in ((path(100_000), 2),
                 (maximal_outerplanar_random(100_000, 0), 2),
                 (maximal_outerplanar_random(20_000, 0), 7)):
        rep = verify(g, color_outerplanar(g, t), Params(t))
        assert rep.verdict, (g.n, t, rep.first_violation)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 11: PASS ({elapsed:.1f}s)")


def test_outerplanar_round_trip_at_scale():
    # What `equitree gen`, `construct` and `verify` do with a 10^5-vertex
    # maximal outerplanar graph at t = 2, in process: the edge list and the
    # JSON certificate each read back to what was written, and verify
    # accepts what was read.
    g, params = maximal_outerplanar_random(100_000, 0), Params(2)
    graph = parse_edge_list(format_edge_list(g))
    assert graph == g
    coloring = construct(graph, params)
    text = json.dumps(certificate_from_coloring(coloring, params))
    assert coloring_from_certificate(json.loads(text)) == (params, coloring)
    rep = verify(graph, coloring, params)
    assert rep.verdict, rep.first_violation


def _random_forest_edges(rng, n):
    return [
        (rng.randrange(v), v)
        for v in range(1, n)
        if rng.random() < 0.7
    ]


def _extension_instance(case):
    """One randomized instance satisfying the extension preconditions.

    Built backwards: a random forest with a balanced coloring, t fresh
    sequence vertices wired to at most 2i-1 forest vertices each (1 for
    the first), free edges inside the sequence, then a random relabeling
    of the whole graph.
    """
    rng = random.Random(case)
    t = rng.randint(1, 5)
    n0 = rng.randint(0, 12)
    edges = _random_forest_edges(rng, n0)
    sizes = [n0 // t + (1 if i < n0 % t else 0) for i in range(t)]
    bag = [c + 1 for c, s in enumerate(sizes) for _ in range(s)]
    rng.shuffle(bag)
    for i in range(1, t + 1):
        v = n0 + i - 1
        cap = 1 if i == 1 else 2 * i - 1
        picks = rng.sample(range(n0), min(n0, rng.randint(0, cap)))
        edges.extend((u, v) for u in picks)
    for i in range(t):
        for j in range(i + 1, t):
            if rng.random() < 0.3:
                edges.append((n0 + i, n0 + j))
    total = n0 + t
    perm = list(range(total))
    rng.shuffle(perm)
    g = graph_from_edges(total, [(perm[u], perm[v]) for u, v in edges])
    seq = ExtensionSequence(g, tuple(perm[n0 + i] for i in range(t)))
    kept = sorted(perm[v] for v in range(n0))
    rank = {vid: idx for idx, vid in enumerate(kept)}
    inner_colors = [0] * n0
    for old in range(n0):
        inner_colors[rank[perm[old]]] = bag[old]
    inner = TreeColoring(tuple(inner_colors), t)
    return g, seq, inner


def test_criterion_10_extension_property_thousand_instances():
    failures = []
    for case in range(1000):
        g, seq, inner = _extension_instance(case)
        result = extend_coloring(g, seq, inner)
        rep = verify(g, result, Params(inner.t))
        on_sequence = [result.colors[v] for v in seq.vertices]
        if not rep.verdict or len(set(on_sequence)) != len(on_sequence):
            failures.append(case)
    assert failures == []
    print("criterion 10: PASS (1000 instances)")

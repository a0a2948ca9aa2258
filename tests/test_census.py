"""A census of every graph on at most 7 vertices, up to isomorphism.

The generator extends each graph on n - 1 vertices by one vertex joined to
every subset of the old ones, and keeps one canonical form per class.
The canonical form is the least adjacency code over the vertex orders that
list a degree-refined partition's cells in a fixed order; refinement
splits cells by the multiset of neighbor cells until no cell splits.
"""

from functools import lru_cache

import pytest

from equitree import (
    FEASIBLE,
    INFEASIBLE,
    EquitreeError,
    Params,
    UNBOUNDED,
    brute_force_search,
    complete_bipartite,
    construct,
    graph_from_edges,
    max_degree,
    verify,
)

CHECK_N = 6
CAPS = ((UNBOUNDED, UNBOUNDED), (1, 1), (UNBOUNDED, 2), (0, 0))


def _cells(adj):
    """Each vertex's cell in the stable refinement of the degree partition."""
    n = len(adj)
    color = [bin(a).count("1") for a in adj]
    while True:
        sig = [(color[v], tuple(sorted(color[u] for u in range(n) if adj[v] >> u & 1)))
               for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        refined = [rank[s] for s in sig]
        if len(rank) == len(set(color)):
            return refined
        color = refined


def _canonical(adj):
    """The least code over cell-respecting vertex orders.

    Row p of a code holds, as bits, which of the first p vertices of the
    order the p-th is adjacent to, so equal codes mean isomorphic graphs.
    A branch stops once its prefix exceeds the best code's.
    """
    n = len(adj)
    cell = _cells(adj)
    slots = sorted(cell)
    best = None

    def extend(order, code):
        nonlocal best
        p = len(order)
        if best is not None and code > best[:p]:
            return
        if p == n:
            best = code
            return
        for v in range(n):
            if cell[v] == slots[p] and v not in order:
                row = sum(1 << j for j, u in enumerate(order) if adj[v] >> u & 1)
                extend(order + [v], code + (row,))

    extend([], ())
    return best


def _masks(code):
    """Adjacency bit masks of the graph a code describes."""
    adj = [0] * len(code)
    for p, row in enumerate(code):
        for j in range(p):
            if row >> j & 1:
                adj[p] |= 1 << j
                adj[j] |= 1 << p
    return adj


@lru_cache(maxsize=None)
def _graphs(n):
    """Canonical codes of all graphs on n vertices, one per isomorphism class."""
    if n == 0:
        return frozenset({()})
    out = set()
    for code in _graphs(n - 1):
        adj = _masks(code)
        for subset in range(1 << (n - 1)):
            grown = [a | (subset >> v & 1) << (n - 1) for v, a in enumerate(adj)]
            out.add(_canonical(grown + [subset]))
    return frozenset(out)


def _graph(code):
    return graph_from_edges(len(code), [(p, j) for p, row in enumerate(code)
                                        for j in range(p) if row >> j & 1])


def test_counts_match_oeis_a000088():
    assert [len(_graphs(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]


def test_canonical_form_ignores_labels():
    # The path 0-1-2-3 and the path 1-3-0-2 are one class; the star is not.
    path_a = _canonical([0b0010, 0b0101, 0b1010, 0b0100])
    path_b = _canonical([0b1100, 0b1000, 0b0001, 0b0011])
    star = _canonical([0b1110, 0b0001, 0b0001, 0b0001])
    assert path_a == path_b != star


@lru_cache(maxsize=None)
def _census():
    """Each (graph, t, caps) with n <= CHECK_N and its oracle status."""
    table = {}
    for n in range(1, CHECK_N + 1):
        for code in sorted(_graphs(n)):
            g = _graph(code)
            for t in range(1, n + 1):
                for k, d in CAPS:
                    params = Params(t, k, d)
                    on = brute_force_search(g, params).status
                    off = brute_force_search(g, params, symmetry=False).status
                    table[code, t, k, d] = (on, off)
    return table


def test_oracle_symmetry_keeps_every_verdict():
    for key, (on, off) in _census().items():
        assert on in (FEASIBLE, INFEASIBLE), key
        assert on == off, key


def test_construct_colors_or_raises_a_typed_error():
    for (code, t, k, d), (status, _) in _census().items():
        g, params = _graph(code), Params(t, k, d)
        try:
            coloring = construct(g, params)
        except EquitreeError:
            continue
        except Exception as exc:  # any other exception is the failure
            pytest.fail(f"{code} at {(t, k, d)}: {type(exc).__name__}: {exc}")
        assert verify(g, coloring, params).verdict, (code, t, k, d)
        assert status == FEASIBLE, (code, t, k, d)


def test_strong_threshold_at_most_half_delta_plus_one():
    table = _census()
    for n in range(1, CHECK_N + 1):
        for code in _graphs(n):
            bound = -(-(max_degree(_graph(code)) + 1) // 2)
            for t in range(bound, n + 1):
                assert table[code, t, UNBOUNDED, UNBOUNDED][0] == FEASIBLE, (code, t)


def _feasible_ts(code, k, d):
    """The t <= n at which the oracle finds a coloring; t = n always works."""
    table = _census()
    return [t for t in range(1, len(code) + 1) if table[code, t, k, d][0] == FEASIBLE]


def _weak_and_strong(ts, n):
    """The least feasible t, and the least t from which every t <= n is."""
    strong = n
    while strong - 1 in ts:
        strong -= 1
    return ts[0], strong


def test_weak_and_strong_thresholds_agree_under_three_cap_pairs():
    for n in range(1, CHECK_N + 1):
        for code in _graphs(n):
            for k, d in CAPS[:3]:  # every pair but (0, 0)
                weak, strong = _weak_and_strong(_feasible_ts(code, k, d), n)
                assert weak == strong, (code, k, d)


def test_k33_is_the_one_graph_not_monotone_under_0_0():
    g = complete_bipartite(3)
    k33 = _canonical([sum(1 << u for u in g.adjacency[v]) for v in range(g.n)])
    differ = {}
    for n in range(1, CHECK_N + 1):
        for code in _graphs(n):
            ts = _feasible_ts(code, 0, 0)
            if len(set(_weak_and_strong(ts, n))) > 1:
                differ[code] = ts
    assert differ == {k33: [2, 4, 5, 6]}

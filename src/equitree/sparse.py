"""Equitable tree-colorings for sparse graphs, by one iterative peel.

The three public algorithms (planar girth >= 5, planar girth >= 6,
outerplanar) share one engine.  It keeps the residual graph, the part not
yet peeled, as neighbor sets on the original vertex ids, and runs in three
phases:

1. Peel: find a small reducible configuration, reserve its vertices at
   fixed positions of a deletion sequence, fill the remaining positions
   with low-degree vertices, delete the sequence and record it.  A hub
   step deletes the hub and 2t-1 of its 2-neighbors instead.  All three
   peels first scan for a vertex of degree <= 1, else a 2-vertex with a
   light neighbor; the outerplanar peel needs no other pattern.
2. Give the at most t vertices left distinct colors in id order.
3. Walk the recorded steps backwards, coloring one step at a time: a
   sequence one vertex per class, a hub step two per class, measuring
   only the components the hub step's vertices join.

Each step is one level of the paper's induction; no graph is rebuilt per
step and nothing recurses, so the depth of the peel is not limited.

Every scan takes the lowest id that passes.  The scans take their first
candidate off lazy min-heaps of vertex ids (one per degree, and one of the
2-vertices for the link scan) instead of taking a degree bucket's minimum,
and sort a bucket only for a scan whose first candidate fails, so a step
costs about the degrees it touches times a logarithm and the peel is
near-linear.

A sequence v1..vt is extendable when every v_i has at most 2i-1 neighbors
outside the sequence.  Coloring v_t first and walking down, v_i always
finds a color unused on the later sequence vertices and used at most once
among its already colored neighbors, which keeps every class a forest and
adds exactly one vertex to each class.

Structural hypotheses (planarity, girth, outerplanarity) are trusted, not
verified; only edge-count sanity gates run up front.  When an input lies
outside the promised class the configuration search fails and a
ConfigurationNotFoundError surfaces instead of a wrong coloring.
"""

from __future__ import annotations

from heapq import heappop, heappush, merge
from itertools import permutations
from math import gcd
from typing import Callable, Container, Iterator, Mapping, Sequence

from .coloring import Params, TreeColoring, _measure, verify
from .errors import (
    ConfigurationNotFoundError,
    NoLowDegreeVertexError,
    NotEnoughVerticesError,
    PreconditionError,
)
from .graph import Graph, remove_vertices
from .values import UNBOUNDED, _check_type, _is_count, _Value

# Configuration kinds, named for what they look like.  The first two are
# the shared scan of all three peels; the outerplanar peel needs no other.
LOW_VERTEX = "low_vertex"
DEGREE_TWO_LINK = "degree_two_link"
DEGREE_THREE_LINK = "degree_three_link"
TWO_NEIGHBOR_HUB = "two_neighbor_hub"

_FILL_BUDGET = 20000


class Configuration(_Value):
    """A reducible local pattern: its kind plus named witness vertices."""

    kind: str
    data: Mapping[str, object]

    def __init__(self, kind: str, data: Mapping[str, object]) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)

    def __getitem__(self, key: str):
        return self.data[key]


class ExtensionSequence(_Value):
    """Vertices v1..vt of a graph with |N(v_i) outside the set| <= 2i-1."""

    graph: Graph
    vertices: tuple[int, ...]

    def __init__(self, graph: Graph, vertices: tuple[int, ...]) -> None:
        _check_type(graph, Graph, "graph")
        _check_type(vertices, tuple, "vertices")
        if not vertices:
            raise PreconditionError("extension sequence must be nonempty")
        members = set(vertices)
        if len(members) != len(vertices):
            raise PreconditionError("extension sequence has repeated vertices")
        for position, v in enumerate(vertices, start=1):
            if not (_is_count(v, 0) and v < graph.n):
                raise PreconditionError(f"sequence vertex {v!r} out of range")
            outside = len(graph.adjacency[v] - members)
            if outside > 2 * position - 1:
                raise PreconditionError(
                    f"vertex {v} at position {position} has {outside} "
                    f"neighbors outside the sequence, above {2 * position - 1}"
                )
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "vertices", vertices)

    @property
    def t(self) -> int:
        return len(self.vertices)


# ---- the residual graph -----------------------------------------------------


class _Residual:
    """The vertices of a graph not yet peeled, on the graph's own ids.

    ``adj[v]`` and ``deg[v]`` of a live vertex count live neighbors only;
    ``deg[v]`` of a deleted vertex is -1.  ``heaps[d]`` is a lazy min-heap
    of vertex ids that holds every live vertex of degree d, plus stale
    entries (dead, or of another degree) that are dropped when they reach
    the top.  A vertex is pushed whenever its degree changes or it comes
    back, so no bucket is scanned for its minimum.
    ``links`` does the same for the 2-vertices with a neighbor of degree
    <= ``light``, the link scan's threshold, but parks a 2-vertex that
    fails the test: it is pushed back only when its degree comes back to 2
    or a neighbor's degree drops to ``light``.  A deleted vertex keeps its
    neighbor set, so deletions undone in reverse order restore the
    residual exactly.
    """

    def __init__(self, g: Graph) -> None:
        self.adj = [set(nbrs) for nbrs in g.adjacency]
        self.deg = g.degrees()
        # A heap for every degree up to 9, the highest a finder scans.
        self.heaps: list[list[int]] = [[] for _ in range(max([9, *self.deg]) + 1)]
        for v, d in enumerate(self.deg):
            self.heaps[d].append(v)  # ids ascend, so each list is a heap
        self.light: int | None = None
        self.links: list[int] = []
        self.size = g.n

    def delete(self, v: int) -> None:
        adj, deg, heaps, links, light = (self.adj, self.deg, self.heaps,
                                         self.links, self.light)
        deg[v] = -1
        for u in adj[v]:
            nbrs = adj[u]
            nbrs.remove(v)
            d = deg[u] - 1
            deg[u] = d
            heappush(heaps[d], u)
            if d == 2:
                heappush(links, u)
            elif d == light:
                for w in nbrs:
                    if deg[w] == 2:
                        heappush(links, w)
        self.size -= 1

    def restore(self, v: int) -> None:
        adj, deg, heaps, links = self.adj, self.deg, self.heaps, self.links
        for u in adj[v]:
            adj[u].add(v)
            d = deg[u] + 1
            deg[u] = d
            heappush(heaps[d], u)
            if d == 2:
                heappush(links, u)
        d = deg[v] = len(adj[v])
        heappush(heaps[d], v)
        if d == 2:
            heappush(links, v)
        self.size += 1

    def lowest(self, low: int, high: int, skip: Container[int] = ()) -> int | None:
        """The lowest-id live vertex of degree low..high not in skip, if any.

        Stale entries on top of each heap are dropped; entries in skip are
        lifted off and put back.
        """
        deg = self.deg
        best = None
        for d in range(low, high + 1):
            heap = self.heaps[d]
            lifted = []
            while heap:
                v = heap[0]
                if deg[v] == d:
                    if v not in skip:
                        if best is None or v < best:
                            best = v
                        break
                    lifted.append(v)
                heappop(heap)
            for w in lifted:
                heappush(heap, w)
        return best

    def ascending(self, d: int, skip: Container[int]) -> Iterator[int]:
        """The live vertices of degree d not in skip, lowest id first.

        The lowest comes from the top of heaps[d]; a caller that asks for a
        second id gets the rest from one sort of the bucket's live entries.
        The walk may be suspended while the residual changes, as long as
        the residual is back as it was each time the walk resumes.  A heap
        of more than 2 * size + 8 entries is first rebuilt, sorted, from
        its live ones.
        """
        heap, deg = self.heaps[d], self.deg
        if len(heap) > 2 * self.size + 8:
            heap[:] = sorted({v for v in heap if deg[v] == d})
        first = self.lowest(d, d, skip)
        if first is None:
            return
        yield first
        yield from sorted({v for v in heap if v > first and deg[v] == d and v not in skip})


# ---- configuration finders --------------------------------------------------


def _not_found(family: str) -> ConfigurationNotFoundError:
    return ConfigurationNotFoundError(
        "no reducible configuration found; the graph is outside the "
        f"{family} class this algorithm covers"
    )


def _find_link(res: _Residual, light: int) -> Configuration | None:
    """A vertex of degree <= 1, else a 2-vertex with a neighbor of degree <= light."""
    low = res.lowest(0, 1)
    if low is not None:
        return Configuration(LOW_VERTEX, {"x": low})
    deg, adj, links = res.deg, res.adj, res.links
    if res.light != light:
        res.light = light
        res.links = links = [v for v, d in enumerate(deg) if d == 2]
    while links:
        v = links[0]
        if deg[v] == 2:
            near = [u for u in adj[v] if deg[u] <= light]
            if near:
                return Configuration(DEGREE_TWO_LINK, {"x": v, "y": min(near)})
        heappop(links)  # stale, or parked until a neighbor gets light
    return None


def _find_girth5(res: _Residual) -> Configuration:
    deg, adj = res.deg, res.adj
    cfg = _find_link(res, 6)
    if cfg is not None:
        return cfg
    for v in res.ascending(3, ()):
        nbrs = sorted(adj[v])
        fours = [u for u in nbrs if deg[u] <= 4]
        sixes = [u for u in nbrs if deg[u] <= 6]
        if fours and len(sixes) >= 2:
            y = fours[0]
            z = min(u for u in sixes if u != y)
            return Configuration(DEGREE_THREE_LINK, {"x": v, "y": y, "z": z})
    for v in merge(*(res.ascending(d, ()) for d in (7, 8, 9))):
        twos = [u for u in sorted(adj[v]) if deg[u] == 2]
        if len(twos) >= deg[v] - 1:
            return Configuration(
                TWO_NEIGHBOR_HUB, {"x": v, "degree": deg[v], "twos": tuple(twos)}
            )
    raise _not_found("girth >= 5 planar")


def _find_girth6(res: _Residual) -> Configuration:
    deg, adj = res.deg, res.adj
    cfg = _find_link(res, 4)
    if cfg is not None:
        return cfg
    for v in res.ascending(5, ()):
        twos = [u for u in sorted(adj[v]) if deg[u] == 2]
        if len(twos) == 5:
            return Configuration(
                TWO_NEIGHBOR_HUB, {"x": v, "degree": 5, "twos": tuple(twos)}
            )
    raise _not_found("girth >= 6 planar")


def _find_outerplanar(res: _Residual) -> Configuration:
    cfg = _find_link(res, 4)
    if cfg is None:
        raise _not_found("outerplanar")
    return cfg


def find_reducible_girth5(g: Graph) -> Configuration:
    """Locate a reducible pattern guaranteed in the girth >= 5 planar class.

    Searched in order, lowest vertex id first: a vertex of degree <= 1; a
    2-vertex with a neighbor of degree <= 6; a 3-vertex with a neighbor of
    degree <= 4 and a second neighbor of degree <= 6; a vertex of degree
    i in {7, 8, 9} with at least i-1 neighbors of degree 2.
    """
    _check_type(g, Graph, "graph")
    return _find_girth5(_Residual(g))


def find_reducible_girth6(g: Graph) -> Configuration:
    """Reducible pattern for the girth >= 6 planar class.

    Order: a vertex of degree <= 1; a 2-vertex with a neighbor of degree
    <= 4; a 5-vertex whose neighbors are five 2-vertices.
    """
    _check_type(g, Graph, "graph")
    return _find_girth6(_Residual(g))


def find_reducible_outerplanar(g: Graph) -> Configuration:
    """Reducible pattern for outerplanar graphs.

    Order: a vertex of degree <= 1; a 2-vertex x with a neighbor y of
    degree <= 4.  One pattern is enough: each configuration of the
    structural lemma (two adjacent 2-vertices, a triangle with a 2-vertex
    and a 3-vertex, two triangles sharing a 4-vertex, each with its own
    2-vertex) contains such an edge xy, and a step pins only x at position
    1 (one neighbor outside the sequence) and y at position 2 (at most 3),
    so the richer patterns only ranked equivalent steps.
    """
    _check_type(g, Graph, "graph")
    return _find_outerplanar(_Residual(g))


def _low_partner(res: _Residual, x: int) -> int:
    """Lowest-id vertex besides x with at most 3 neighbors off {x, itself}."""
    deg = res.deg
    lows = [u for u in res.adj[x] if deg[u] == 4]
    low = res.lowest(0, 3, (x,))
    if low is not None:
        lows.append(low)
    if not lows:
        raise ConfigurationNotFoundError(
            f"no vertex of residual degree <= 3 remains after removing {x}"
        )
    return min(lows)


# ---- building and extending sequences ---------------------------------------


def _options(res: _Residual, pinned: Mapping[int, int],
             position: int) -> Iterator[int]:
    """Candidates for one position of a sequence, in the order fill tries them.

    A pinned position has its pin.  Otherwise: live vertices other than
    the pins below whose neighbors, not counting those pins, number at
    most 2i-1, by degree and then id.  Every vertex of degree at most 2i-1
    qualifies, and comes from a walk of its degree's heap; above that,
    only a neighbor of the pins below can, and the neighbors are read only
    when the walks run out.
    """
    if position in pinned:
        yield pinned[position]
        return
    cap = 2 * position - 1
    below = {w for pos, w in pinned.items() if pos < position}
    heaps = res.heaps
    for d in range(min(cap, len(heaps) - 1) + 1):
        if heaps[d]:
            yield from res.ascending(d, below)
    adj, deg = res.adj, res.deg
    near = set().union(*(adj[w] for w in below)) - below
    yield from sorted((u for u in near if cap < deg[u] <= cap + len(adj[u] & below)),
                      key=lambda u: (deg[u], u))


def _fill(res: _Residual, pinned: Mapping[int, int], t: int) -> tuple[int, ...]:
    """fill_sequence on the residual, which loses the vertices it returns.

    A chosen vertex is deleted from the residual at once, so a vertex's
    degree there is its count of neighbors not yet chosen; backtracking
    restores it.  A restore gives back exactly the residual that the
    position's candidates were read from, so a backtrack resumes that
    position's stream, and each candidate is read once.

    On the promised classes the fill never backtracks: every subgraph
    there has average degree below 4, so at each unpinned position the
    first candidate completes.  Off those classes it can need to, and a
    greedy fill that never backtracks loses colorings there.
    """
    slots = [0] * t
    streams: list[Iterator[int]] = []  # suspended, one per position above
    budget = _FILL_BUDGET
    position = t
    options = _options(res, pinned, position)
    while True:
        v = next(options, None)
        if v is None:
            if position == t:
                raise NoLowDegreeVertexError(
                    "no assignment of low-degree vertices completes the sequence"
                )
            position += 1
            res.restore(slots[position - 1])
            options = streams.pop()
            continue
        if position not in pinned:
            budget -= 1
            if budget < 0:
                raise NoLowDegreeVertexError(
                    "ran out of low-degree candidates while filling the "
                    "deletion sequence"
                )
        slots[position - 1] = v
        res.delete(v)
        if position == 1:
            return tuple(slots)
        streams.append(options)
        position -= 1
        options = _options(res, pinned, position)


def fill_sequence(g: Graph, pinned: Mapping[int, int], t: int) -> ExtensionSequence:
    """Complete a partially pinned deletion sequence of length t.

    Positions run t down to 1.  An unpinned position i takes an unused
    vertex whose yet-undeleted, unreserved neighbor count is at most
    2i-1 (at most 1 for position 1), preferring low degree and then low
    id.  Backtracks over the candidates under a fixed node budget.
    """
    _check_type(g, Graph, "graph")
    if not _is_count(t, 1):
        raise PreconditionError("sequence length must be an int >= 1")
    _check_type(pinned, Mapping, "pinned")
    if g.n < t:
        raise NotEnoughVerticesError(
            f"graph has {g.n} vertices, sequence needs {t}"
        )
    for pos, v in pinned.items():
        if not (_is_count(pos, 1) and pos <= t):
            raise PreconditionError(f"pinned position {pos!r} outside 1..{t}")
        if not (_is_count(v, 0) and v < g.n):
            raise PreconditionError(f"pinned vertex {v!r} out of range")
    if len(set(pinned.values())) != len(pinned):
        raise PreconditionError("pinned vertices must be distinct")
    return ExtensionSequence(g, _fill(_Residual(g), pinned, t))


def _extend(adjacency: Sequence[frozenset[int]], colors: list[int],
            vertices: tuple[int, ...], t: int) -> None:
    """Color the sequence vertices in colors, in place; 0 means uncolored."""
    later: set[int] = set()
    for v in reversed(vertices):
        seen: dict[int, int] = {}
        for u in adjacency[v]:
            cu = colors[u]
            if cu:
                seen[cu] = seen.get(cu, 0) + 1
        for c in range(1, t + 1):
            if c not in later and seen.get(c, 0) <= 1:
                colors[v] = c
                later.add(c)
                break
        else:
            raise PreconditionError(
                f"no admissible color for sequence vertex {v}; the sequence "
                "is not extendable in this graph"
            )


def extend_coloring(g: Graph, s: ExtensionSequence,
                    inner: TreeColoring) -> TreeColoring:
    """Extend an equitable tree-coloring of g minus the sequence to all of g.

    The sequence vertices are colored from position t down to 1.  Each
    takes the lowest color that no later sequence vertex carries and that
    appears at most once among its already colored neighbors.  The result
    is equitable, every class still induces a forest, and the sequence
    vertices end up with pairwise distinct colors.
    """
    _check_type(s, ExtensionSequence, "sequence")
    _check_type(inner, TreeColoring, "inner coloring")
    t = len(s.vertices)
    if inner.t != t:
        raise PreconditionError(
            f"inner coloring uses {inner.t} classes but the sequence has "
            f"{t} vertices"
        )
    reduced, remap = remove_vertices(g, set(s.vertices))
    if inner.n != reduced.n:
        raise PreconditionError(
            "inner coloring does not cover the graph minus the sequence"
        )
    report = verify(reduced, inner, Params(t, UNBOUNDED, UNBOUNDED))
    if not report.verdict:
        raise PreconditionError(
            "inner coloring is not an equitable tree-coloring: "
            + report.first_violation
        )
    colors = [0] * g.n
    for old, new in remap.items():
        colors[old] = inner.colors[new]
    _extend(g.adjacency, colors, s.vertices, t)
    return TreeColoring(tuple(colors), t)


# ---- hub steps --------------------------------------------------------------


class _SameColor:
    """Each vertex's neighbors of its own color, read from colors on demand."""

    def __init__(self, adjacency: Sequence[frozenset[int]], colors: list[int]) -> None:
        self.adjacency, self.colors = adjacency, colors

    def __getitem__(self, u: int) -> list[int]:
        colors = self.colors
        return [w for w in self.adjacency[u] if colors[w] == colors[u]]


def _reinsert(adjacency: Sequence[frozenset[int]], colors: list[int],
              vertices: tuple[int, ...], t: int) -> None:
    """Color the 2t vertices, two per class, so that every class is a forest.

    Writes each balanced assignment (each color used exactly twice) into
    colors in sorted order, and keeps the first after which every vertex
    lies in a tree of its class.  Every class was a forest before, so
    only the components the vertices join are measured.  The colored
    vertices are exactly those live after the step, colored equitably, so
    two more per class keeps the coloring equitable.
    """
    same = _SameColor(adjacency, colors)
    for assignment in sorted(set(permutations([*range(1, t + 1)] * 2))):
        for v, c in zip(vertices, assignment):
            colors[v] = c
        if all(_measure(same, v)[1] is not None for v in vertices):
            return
    for v in vertices:
        colors[v] = 0
    raise ConfigurationNotFoundError(
        "no balanced re-insertion of the removed hub vertices verifies"
    )


# ---- the peel engine --------------------------------------------------------


def _peel(g: Graph, t: int,
          level: Callable[[_Residual, int], tuple[int, ...]]) -> TreeColoring:
    """Peel g down to at most t vertices with level, then color it back up.

    level takes one step on the residual: it deletes the vertices it peels
    and returns them.  _extend colors a step of t, one per class; only a
    hub step deletes 2t, which _reinsert colors two per class.
    """
    res = _Residual(g)
    steps: list[tuple[int, ...]] = []
    while res.size > t:
        steps.append(level(res, t))
    colors = [0] * g.n
    for c, v in enumerate((v for v, d in enumerate(res.deg) if d >= 0), start=1):
        colors[v] = c
    for step in reversed(steps):
        (_extend if len(step) == t else _reinsert)(g.adjacency, colors, step, t)
    return TreeColoring(tuple(colors), t)


def _girth5_pins(cfg: Configuration, t: int) -> dict[int, int]:
    kind = cfg.kind
    if kind == LOW_VERTEX:
        return {1: cfg["x"]}
    if kind == DEGREE_TWO_LINK:
        return {1: cfg["x"], t: cfg["y"]}
    if kind == DEGREE_THREE_LINK:
        return {1: cfg["x"], 2: cfg["y"], t: cfg["z"]}
    twos = cfg["twos"]
    return {1: twos[0], 2: twos[1], t: cfg["x"]}


def _girth5_level(res: _Residual, t: int) -> tuple[int, ...]:
    cfg = _find_girth5(res)
    if cfg.kind == TWO_NEIGHBOR_HUB and cfg["degree"] in (8, 9) and t == 3:
        hub = (cfg["x"], *cfg["twos"][:5])
        for v in hub:
            res.delete(v)
        return hub
    return _fill(res, _girth5_pins(cfg, t), t)


def _girth6_level(res: _Residual, t: int) -> tuple[int, ...]:
    """One step of the two-class algorithm; t is always 2."""
    cfg = _find_girth6(res)
    if cfg.kind == TWO_NEIGHBOR_HUB:
        # The first balanced assignment puts x and twos[0] in class 2.
        twos = cfg["twos"]
        hub = (twos[1], twos[2], cfg["x"], twos[0])
        for v in hub:
            res.delete(v)
        return hub
    return _fill(res, _link_pins(res, cfg), 2)


def _link_pins(res: _Residual, cfg: Configuration) -> dict[int, int]:
    """Positions 1 and 2 for a LOW_VERTEX or DEGREE_TWO_LINK step."""
    x = cfg["x"]
    return {1: x, 2: _low_partner(res, x) if cfg.kind == LOW_VERTEX else cfg["y"]}


def _outerplanar_level(res: _Residual, t: int) -> tuple[int, ...]:
    return _fill(res, _link_pins(res, _find_outerplanar(res)), t)


# ---- public algorithms ------------------------------------------------------


def _euler_gate(g: Graph, girth: int) -> None:
    """Euler's edge bound for planar graphs of this girth: (girth-2)|E| <= girth(|V|-2)."""
    if g.n >= 3 and (girth - 2) * g.m > girth * (g.n - 2):
        h = gcd(girth, girth - 2)
        raise PreconditionError(
            f"edge count {g.m} violates the girth-{girth} planar bound "
            f"|E| <= {girth // h}(|V|-2)/{(girth - 2) // h}"
        )


def color_girth5(g: Graph, t: int) -> TreeColoring:
    """Equitable t-tree-coloring of a planar graph with girth >= 5, t >= 3."""
    _check_type(g, Graph, "graph")
    if not _is_count(t, 3):
        raise PreconditionError("color_girth5 needs an int t >= 3")
    _euler_gate(g, 5)
    return _peel(g, t, _girth5_level)


def color_girth6(g: Graph, t: int) -> TreeColoring:
    """Equitable t-tree-coloring of a planar graph with girth >= 6, t >= 2.

    For t >= 3 the girth-5 machinery already covers this sparser class;
    the dedicated two-class peel handles t = 2.
    """
    _check_type(g, Graph, "graph")
    if not _is_count(t, 2):
        raise PreconditionError("color_girth6 needs an int t >= 2")
    _euler_gate(g, 6)
    return _peel(g, 2, _girth6_level) if t == 2 else _peel(g, t, _girth5_level)


def color_outerplanar(g: Graph, t: int) -> TreeColoring:
    """Equitable t-tree-coloring of an outerplanar graph, t >= 2.

    Outerplanarity is trusted.  Every step pins a vertex of degree <= 1
    and a partner of degree <= 3, or a 2-vertex and its neighbor of degree
    <= 4, at positions 1 and 2 and fills the rest greedily; an
    outerplanar graph always has at least three vertices of degree at
    most 3, so the greedy fill has candidates even with two reserved.
    """
    _check_type(g, Graph, "graph")
    if not _is_count(t, 2):
        raise PreconditionError("color_outerplanar needs an int t >= 2")
    return _peel(g, t, _outerplanar_level)

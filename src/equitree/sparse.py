"""Recursive equitable tree-colorings for sparse graphs.

The three public algorithms (planar girth >= 5, planar girth >= 6,
outerplanar) share one engine: find a small reducible configuration,
reserve its vertices at fixed positions of a deletion sequence, fill the
remaining positions with low-degree vertices, color the reduced graph
recursively, then extend the coloring back one vertex at a time.

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

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Mapping

from .coloring import Params, TreeColoring, verify
from .errors import (
    ConfigurationNotFoundError,
    NoLowDegreeVertexError,
    NotEnoughVerticesError,
    PreconditionError,
)
from .graph import UNBOUNDED, Graph, remove_vertices

# Configuration kinds, named for what they look like.
LOW_VERTEX = "low_vertex"
DEGREE_TWO_LINK = "degree_two_link"
DEGREE_THREE_LINK = "degree_three_link"
TWO_NEIGHBOR_HUB = "two_neighbor_hub"
ADJACENT_TWO_PAIR = "adjacent_two_pair"
TRIANGLE_WITH_TWO = "triangle_with_two"
TWIN_TRIANGLES = "twin_triangles"
REDUCIBLE_EDGE = "reducible_edge"

_FILL_BUDGET = 20000


@dataclass(frozen=True)
class Configuration:
    """A reducible local pattern: its kind plus named witness vertices."""

    kind: str
    data: Mapping[str, object]

    def __getitem__(self, key: str):
        return self.data[key]


@dataclass(frozen=True)
class ExtensionSequence:
    """Vertices v1..vt of a graph with |N(v_i) outside the set| <= 2i-1."""

    graph: Graph
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise PreconditionError("extension sequence must be nonempty")
        members = set(self.vertices)
        if len(members) != len(self.vertices):
            raise PreconditionError("extension sequence has repeated vertices")
        for position, v in enumerate(self.vertices, start=1):
            if not 0 <= v < self.graph.n:
                raise PreconditionError(f"sequence vertex {v} out of range")
            outside = len(self.graph.adjacency[v] - members)
            if outside > 2 * position - 1:
                raise PreconditionError(
                    f"vertex {v} at position {position} has {outside} "
                    f"neighbors outside the sequence, above {2 * position - 1}"
                )

    @property
    def t(self) -> int:
        return len(self.vertices)


# ---- configuration finders --------------------------------------------------


def find_reducible_girth5(g: Graph) -> Configuration:
    """Locate a reducible pattern guaranteed in the girth >= 5 planar class.

    Searched in order, lowest vertex id first: a vertex of degree <= 1; a
    2-vertex with a neighbor of degree <= 6; a 3-vertex with a neighbor of
    degree <= 4 and a second neighbor of degree <= 6; a vertex of degree
    i in {7, 8, 9} with at least i-1 neighbors of degree 2.
    """
    deg = g.degrees()
    for v in range(g.n):
        if deg[v] <= 1:
            return Configuration(LOW_VERTEX, {"x": v})
    for v in range(g.n):
        if deg[v] == 2:
            light = [u for u in sorted(g.adjacency[v]) if deg[u] <= 6]
            if light:
                return Configuration(DEGREE_TWO_LINK, {"x": v, "y": light[0]})
    for v in range(g.n):
        if deg[v] == 3:
            nbrs = sorted(g.adjacency[v])
            fours = [u for u in nbrs if deg[u] <= 4]
            sixes = [u for u in nbrs if deg[u] <= 6]
            if fours and len(sixes) >= 2:
                y = fours[0]
                z = min(u for u in sixes if u != y)
                return Configuration(
                    DEGREE_THREE_LINK, {"x": v, "y": y, "z": z}
                )
    for v in range(g.n):
        if deg[v] in (7, 8, 9):
            twos = [u for u in sorted(g.adjacency[v]) if deg[u] == 2]
            if len(twos) >= deg[v] - 1:
                return Configuration(
                    TWO_NEIGHBOR_HUB,
                    {"x": v, "degree": deg[v], "twos": tuple(twos)},
                )
    raise ConfigurationNotFoundError(
        "no reducible configuration found; the graph is outside the "
        "girth >= 5 planar class this algorithm covers"
    )


def find_reducible_girth6(g: Graph) -> Configuration:
    """Reducible pattern for the girth >= 6 planar class.

    Order: a vertex of degree <= 1; a 2-vertex with a neighbor of degree
    <= 4; a 5-vertex whose neighbors are five 2-vertices.
    """
    deg = g.degrees()
    for v in range(g.n):
        if deg[v] <= 1:
            return Configuration(LOW_VERTEX, {"x": v})
    for v in range(g.n):
        if deg[v] == 2:
            light = [u for u in sorted(g.adjacency[v]) if deg[u] <= 4]
            if light:
                return Configuration(DEGREE_TWO_LINK, {"x": v, "y": light[0]})
    for v in range(g.n):
        if deg[v] == 5:
            twos = [u for u in sorted(g.adjacency[v]) if deg[u] == 2]
            if len(twos) == 5:
                return Configuration(
                    TWO_NEIGHBOR_HUB,
                    {"x": v, "degree": 5, "twos": tuple(twos)},
                )
    raise ConfigurationNotFoundError(
        "no reducible configuration found; the graph is outside the "
        "girth >= 6 planar class this algorithm covers"
    )


def find_reducible_outerplanar(g: Graph) -> Configuration:
    """Reducible pattern for outerplanar graphs.

    Order: a vertex of degree <= 1; two adjacent 2-vertices; a triangle
    containing a 2-vertex and a 3-vertex; two triangles sharing a
    4-vertex, each with its own 2-vertex; finally any edge xy with
    d(x) = 2 and d(y) <= 4, which subsumes the richer patterns.
    """
    deg = g.degrees()
    for v in range(g.n):
        if deg[v] <= 1:
            return Configuration(LOW_VERTEX, {"x": v})
    for u in range(g.n):
        if deg[u] != 2:
            continue
        for v in sorted(g.adjacency[u]):
            if deg[v] == 2:
                return Configuration(ADJACENT_TWO_PAIR, {"u": u, "v": v})
    for u in range(g.n):
        if deg[u] != 2:
            continue
        a, b = sorted(g.adjacency[u])
        if g.has_edge(a, b):
            for v, w in ((a, b), (b, a)):
                if deg[v] == 3:
                    return Configuration(
                        TRIANGLE_WITH_TWO, {"u": u, "v": v, "w": w}
                    )
    for w in range(g.n):
        if deg[w] != 4:
            continue
        nbrs = sorted(g.adjacency[w])
        pairs = [
            (p, q)
            for i, p in enumerate(nbrs)
            for q in nbrs[i + 1:]
            if g.has_edge(p, q)
        ]
        for p1, q1 in pairs:
            for p2, q2 in pairs:
                if {p1, q1} & {p2, q2}:
                    continue
                first = [c for c in (p1, q1) if deg[c] == 2]
                second = [c for c in (p2, q2) if deg[c] == 2]
                if first and second:
                    u = first[0]
                    v = q1 if u == p1 else p1
                    x = second[0]
                    y = q2 if x == p2 else p2
                    return Configuration(
                        TWIN_TRIANGLES,
                        {"u": u, "v": v, "w": w, "x": x, "y": y},
                    )
    for x in range(g.n):
        if deg[x] != 2:
            continue
        light = [u for u in sorted(g.adjacency[x]) if deg[u] <= 4]
        if light:
            return Configuration(REDUCIBLE_EDGE, {"x": x, "y": light[0]})
    raise ConfigurationNotFoundError(
        "no reducible configuration found; the graph is outside the "
        "outerplanar class this algorithm covers"
    )


# ---- building and extending sequences ---------------------------------------


def fill_sequence(g: Graph, pinned: Mapping[int, int], t: int) -> ExtensionSequence:
    """Complete a partially pinned deletion sequence of length t.

    Positions run t down to 1.  An unpinned position i takes an unused
    vertex whose yet-undeleted, unreserved neighbor count is at most
    2i-1 (at most 1 for position 1), preferring low degree and then low
    id.  Backtracks over the candidates under a fixed node budget.
    """
    if t < 1:
        raise PreconditionError("sequence length must be >= 1")
    if g.n < t:
        raise NotEnoughVerticesError(
            f"graph has {g.n} vertices, sequence needs {t}"
        )
    for pos, v in pinned.items():
        if not 1 <= pos <= t:
            raise PreconditionError(f"pinned position {pos} outside 1..{t}")
        if not 0 <= v < g.n:
            raise PreconditionError(f"pinned vertex {v} out of range")
    if len(set(pinned.values())) != len(pinned):
        raise PreconditionError("pinned vertices must be distinct")

    slots: list[int | None] = [None] * t
    chosen: set[int] = set()
    budget = _FILL_BUDGET

    def attempt(position: int) -> bool:
        nonlocal budget
        if position == 0:
            return True
        if position in pinned:
            v = pinned[position]
            slots[position - 1] = v
            chosen.add(v)
            if attempt(position - 1):
                return True
            chosen.remove(v)
            return False
        cap = 1 if position == 1 else 2 * position - 1
        pins_below = {
            w for pos, w in pinned.items() if pos < position and w not in chosen
        }
        ranked = []
        for v in range(g.n):
            if v in chosen or v in pins_below:
                continue
            remaining = g.adjacency[v] - chosen
            if len(remaining - pins_below) <= cap:
                ranked.append((len(remaining), v))
        ranked.sort()
        for _, v in ranked:
            budget -= 1
            if budget < 0:
                raise NoLowDegreeVertexError(
                    "ran out of low-degree candidates while filling the "
                    "deletion sequence"
                )
            slots[position - 1] = v
            chosen.add(v)
            if attempt(position - 1):
                return True
            chosen.remove(v)
        return False

    if not attempt(t):
        raise NoLowDegreeVertexError(
            "no assignment of low-degree vertices completes the sequence"
        )
    return ExtensionSequence(g, tuple(slots))  # type: ignore[arg-type]


def extend_coloring(g: Graph, s: ExtensionSequence,
                    inner: TreeColoring) -> TreeColoring:
    """Extend an equitable tree-coloring of g minus the sequence to all of g.

    The sequence vertices are colored from position t down to 1.  Each
    takes the lowest color that no later sequence vertex carries and that
    appears at most once among its already colored neighbors.  The result
    is equitable, every class still induces a forest, and the sequence
    vertices end up with pairwise distinct colors.
    """
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
    return _extend(g, s.vertices, inner, remap)


def _extend(g: Graph, vertices: tuple[int, ...], inner: TreeColoring,
            remap: dict[int, int]) -> TreeColoring:
    """extend_coloring without its input checks; remap is from remove_vertices."""
    t = len(vertices)
    colors = _lifted(g, inner, remap)
    for position in range(t, 0, -1):
        v = vertices[position - 1]
        later = {colors[vertices[j - 1]] for j in range(position + 1, t + 1)}
        seen: dict[int, int] = {}
        for u in g.adjacency[v]:
            cu = colors[u]
            if cu:
                seen[cu] = seen.get(cu, 0) + 1
        for c in range(1, t + 1):
            if c not in later and seen.get(c, 0) <= 1:
                colors[v] = c
                break
        else:
            raise PreconditionError(
                f"no admissible color for sequence vertex {v}; the sequence "
                "is not extendable in this graph"
            )
    return TreeColoring(tuple(colors), t)


# ---- the shared recursion ---------------------------------------------------


def _distinct_coloring(g: Graph, t: int) -> TreeColoring:
    return TreeColoring(tuple(range(1, g.n + 1)), t)


def _lifted(g: Graph, inner: TreeColoring, remap: dict[int, int]) -> list[int]:
    colors = [0] * g.n
    for old, new in remap.items():
        colors[old] = inner.colors[new]
    return colors


def _remove_recurse_readd(g: Graph, t: int, recurse: Callable,
                          removed: list[int],
                          primer: tuple[int, ...] | None) -> TreeColoring:
    """Delete 2t vertices, color the rest, then re-insert two per class.

    Tries the primer assignment first, then every balanced assignment of
    the removed vertices (each color used exactly twice) in sorted order,
    returning the first one the verifier accepts.
    """
    reduced, remap = remove_vertices(g, set(removed))
    inner = recurse(reduced, t)
    base = _lifted(g, inner, remap)
    balanced = sorted(set(permutations(sum(([c] * 2 for c in range(1, t + 1)), []))))
    trials = [primer] if primer is not None else []
    trials.extend(a for a in balanced if a != primer)
    for assignment in trials:
        colors = list(base)
        for v, c in zip(removed, assignment):
            colors[v] = c
        candidate = TreeColoring(tuple(colors), t)
        if verify(g, candidate, Params(t, UNBOUNDED, UNBOUNDED)).verdict:
            return candidate
    raise ConfigurationNotFoundError(
        "no balanced re-insertion of the removed hub vertices verifies"
    )


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


def _girth5_recurse(g: Graph, t: int) -> TreeColoring:
    if g.n <= t:
        return _distinct_coloring(g, t)
    cfg = find_reducible_girth5(g)
    if cfg.kind == TWO_NEIGHBOR_HUB and cfg["degree"] in (8, 9) and t == 3:
        removed = [cfg["x"], *cfg["twos"][:5]]
        return _remove_recurse_readd(g, t, _girth5_recurse, removed, None)
    pins = _girth5_pins(cfg, t)
    seq = fill_sequence(g, pins, t)
    reduced, remap = remove_vertices(g, set(seq.vertices))
    return _extend(g, seq.vertices, _girth5_recurse(reduced, t), remap)


def _low_partner(g: Graph, x: int, cap: int = 3) -> int:
    """Lowest-id vertex besides x with at most cap neighbors off {x, itself}."""
    for w in range(g.n):
        if w == x:
            continue
        effective = len(g.adjacency[w] - {x})
        if effective <= cap:
            return w
    raise ConfigurationNotFoundError(
        f"no vertex of residual degree <= {cap} remains after removing {x}"
    )


def _girth6_recurse_two(g: Graph, t: int = 2) -> TreeColoring:
    if g.n <= 2:
        return _distinct_coloring(g, 2)
    cfg = find_reducible_girth6(g)
    if cfg.kind == TWO_NEIGHBOR_HUB:
        removed = [cfg["x"], *cfg["twos"][:3]]
        return _remove_recurse_readd(
            g, 2, lambda h, _t: _girth6_recurse_two(h), removed, (2, 2, 1, 1)
        )
    if cfg.kind == LOW_VERTEX:
        pins = {1: cfg["x"], 2: _low_partner(g, cfg["x"])}
    else:
        pins = {1: cfg["x"], 2: cfg["y"]}
    seq = fill_sequence(g, pins, 2)
    reduced, remap = remove_vertices(g, set(seq.vertices))
    return _extend(g, seq.vertices, _girth6_recurse_two(reduced), remap)


def _outerplanar_pins(g: Graph, cfg: Configuration) -> dict[int, int]:
    kind = cfg.kind
    if kind == LOW_VERTEX:
        return {1: cfg["x"], 2: _low_partner(g, cfg["x"])}
    if kind == ADJACENT_TWO_PAIR:
        return {1: cfg["u"], 2: cfg["v"]}
    if kind == TRIANGLE_WITH_TWO:
        return {1: cfg["u"], 2: cfg["v"]}
    if kind == TWIN_TRIANGLES:
        return {1: cfg["u"], 2: cfg["w"]}
    return {1: cfg["x"], 2: cfg["y"]}


def _outerplanar_recurse(g: Graph, t: int) -> TreeColoring:
    if g.n <= t:
        return _distinct_coloring(g, t)
    cfg = find_reducible_outerplanar(g)
    pins = _outerplanar_pins(g, cfg)
    seq = fill_sequence(g, pins, t)
    reduced, remap = remove_vertices(g, set(seq.vertices))
    return _extend(g, seq.vertices, _outerplanar_recurse(reduced, t), remap)


# ---- public algorithms ------------------------------------------------------


def color_girth5(g: Graph, t: int) -> TreeColoring:
    """Equitable t-tree-coloring of a planar graph with girth >= 5, t >= 3."""
    if t < 3:
        raise PreconditionError("color_girth5 needs t >= 3")
    if g.n >= 3 and 3 * g.m > 5 * (g.n - 2):
        raise PreconditionError(
            f"edge count {g.m} violates the girth-5 planar bound "
            f"|E| <= 5(|V|-2)/3"
        )
    return _girth5_recurse(g, t)


def color_girth6(g: Graph, t: int) -> TreeColoring:
    """Equitable t-tree-coloring of a planar graph with girth >= 6, t >= 2.

    For t >= 3 the girth-5 machinery already covers this sparser class;
    the dedicated two-class recursion handles t = 2.
    """
    if t < 2:
        raise PreconditionError("color_girth6 needs t >= 2")
    if g.n >= 3 and 2 * g.m > 3 * (g.n - 2):
        raise PreconditionError(
            f"edge count {g.m} violates the girth-6 planar bound "
            f"|E| <= 3(|V|-2)/2"
        )
    return _girth6_recurse_two(g) if t == 2 else _girth5_recurse(g, t)


def color_outerplanar(g: Graph, t: int) -> TreeColoring:
    """Equitable t-tree-coloring of an outerplanar graph, t >= 2.

    Outerplanarity is trusted.  Every level pins two configuration
    vertices at positions 1 and 2 and fills the rest greedily; an
    outerplanar graph always has at least three vertices of degree at
    most 3, so the greedy fill has candidates even with two reserved.
    """
    if t < 2:
        raise PreconditionError("color_outerplanar needs t >= 2")
    return _outerplanar_recurse(g, t)

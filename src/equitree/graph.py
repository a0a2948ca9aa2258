"""Immutable simple graphs with dense vertex ids, generators, and queries."""

from __future__ import annotations

import random
import re
from typing import Iterable, Iterator

from .errors import InputFormatError, PreconditionError
# asdict is imported for the callers that read it from here, its old home.
from .values import UNBOUNDED, _check_type, _is_count, _unchecked, _Value, asdict  # noqa: F401


class Graph(_Value):
    """Undirected simple graph on vertex ids 0..n-1, stored as adjacency sets.

    Instances are immutable; vertex deletion produces a new graph together
    with an old-id -> new-id table (see remove_vertices).
    """

    adjacency: tuple[frozenset[int], ...]

    def __init__(self, adjacency: tuple[frozenset[int], ...]) -> None:
        # Frozen containers keep a validated graph valid and hashable; the
        # type test runs at C speed, once per distinct element type.
        if not (isinstance(adjacency, tuple)
                and all(issubclass(kind, frozenset) for kind in set(map(type, adjacency)))):
            raise InputFormatError("adjacency must be a tuple of frozensets")
        n = len(adjacency)
        # A neighbor that is not an int fails to compare or index.  A bool
        # equals 0 or 1, so only an id outside 2..n-1 needs the bool test.
        try:
            for v, nbrs in enumerate(adjacency):
                if v in nbrs:
                    raise InputFormatError(f"self-loop at vertex {v}")
                for u in nbrs:
                    if not 1 < u < n:
                        if not 0 <= u < n:
                            raise InputFormatError(f"neighbor {u} of vertex {v} out of range")
                        if u.__class__ is bool:
                            raise InputFormatError(f"neighbor {u} of vertex {v} is a bool")
                    if v not in adjacency[u]:
                        raise InputFormatError(f"asymmetric adjacency between {v} and {u}")
        except TypeError as exc:
            raise InputFormatError(f"neighbors must be int vertex ids: {exc}") from exc
        object.__setattr__(self, "adjacency", adjacency)

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield u, v


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on n vertices; Graph rejects self-loops and bool ids."""
    if not _is_count(n, 0):
        raise PreconditionError("vertex count must be nonnegative")
    adj: list[set[int]] = [set() for _ in range(n)]
    # A malformed edge fails to unpack, compare or index: no per-edge type test.
    try:
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputFormatError(f"edge ({u}, {v}) out of range for n={n}")
            if v in adj[u]:
                raise InputFormatError(f"duplicate edge ({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"edges must be pairs of int vertex ids: {exc}") from exc
    return Graph(tuple(frozenset(s) for s in adj))


# ---- generators -------------------------------------------------------------


def complete_bipartite(n: int) -> Graph:
    """K_{n,n} with side X on ids 0..n-1 and side Y on ids n..2n-1."""
    if not _is_count(n, 1):
        raise PreconditionError("complete_bipartite needs an int n >= 1")
    xs = frozenset(range(n))
    ys = frozenset(range(n, 2 * n))
    # Each side is the other's neighborhood: in range, loop-free, symmetric.
    return _unchecked(Graph, adjacency=tuple(ys if v < n else xs for v in range(2 * n)))


def path(n: int) -> Graph:
    """Path on n vertices, ids in path order."""
    if not _is_count(n, 1):
        raise PreconditionError("path needs an int n >= 1")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle on n vertices.  Needs n >= 3 to stay loop- and multi-edge-free."""
    if not _is_count(n, 3):
        raise PreconditionError("cycle needs an int n >= 3 to remain a simple graph")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# Chord offsets for the dodecahedral graph: ring 0..19 plus i -> i + shift.
_DODECAHEDRON_SHIFTS = (10, 7, 4, -4, -7, 10, -4, 7, -7, 4)


def dodecahedron() -> Graph:
    """The 20-vertex 3-regular planar graph of girth 5."""
    es: set[tuple[int, int]] = set()
    for i in range(20):
        for j in ((i + 1) % 20, (i + _DODECAHEDRON_SHIFTS[i % 10]) % 20):
            es.add((min(i, j), max(i, j)))
    return graph_from_edges(20, sorted(es))


def hex_grid(rows: int, cols: int) -> Graph:
    """Brick-wall patch of rows x cols hexagonal cells; girth exactly 6.

    Each cell is a 6-cycle drawn as a brick two grid columns wide; odd brick
    rows are shifted one grid column to the right.
    """
    if not (_is_count(rows, 1) and _is_count(cols, 1)):
        raise PreconditionError("hex_grid needs int rows >= 1 and cols >= 1")
    coord_edges: set[tuple[tuple[int, int], tuple[int, int]]] = set()
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


def maximal_outerplanar_random(n: int, seed: int) -> Graph:
    """Random triangulated polygon on n vertices, deterministic per seed.

    Boundary cycle 0..n-1 plus n-3 chords, so 2n-3 edges for n >= 2 and
    none for n = 1, whose boundary path is empty.
    """
    if not _is_count(n, 1):
        raise PreconditionError("maximal_outerplanar_random needs an int n >= 1")
    _check_type(seed, int, "seed")
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


# ---- structural queries -----------------------------------------------------


def _bfs(g: Graph, root: int) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """BFS from root: the vertices reached in BFS order, their distances and parents.

    The checkers' one search, sharing no code with coloring._sweep or _measure,
    the kernel they test.  Dicts keep it linear in root's component, not g.n.
    """
    order, dist, parent = [root], {root: 0}, {root: -1}
    for u in order:
        du = dist[u] + 1
        for v in g.adjacency[u]:
            if v not in dist:
                dist[v] = du
                parent[v] = u
                order.append(v)
    return order, dist, parent


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member.

    A reference checker for tests; verify does not use it.
    """
    _check_type(g, Graph, "graph")
    seen: set[int] = set()
    comps: list[list[int]] = []
    for s in range(g.n):
        if s not in seen:
            comps.append(sorted(_bfs(g, s)[0]))
            seen.update(comps[-1])
    return comps


def is_forest(g: Graph) -> bool:
    """A graph is a forest iff every component is a tree (m = n - #components).

    A reference checker for tests; verify does not use it.
    """
    return len(connected_components(g)) == g.n - g.m


def max_degree(g: Graph) -> int:
    """Largest vertex degree (0 for the empty graph).

    A reference checker for tests; verify does not use it.
    """
    _check_type(g, Graph, "graph")
    return max(g.degrees(), default=0)


def component_diameter_max(g: Graph) -> int:
    """Largest component diameter, the largest eccentricity (0 for the empty graph).

    A reference checker for tests, one BFS per vertex; verify does not use it.
    """
    _check_type(g, Graph, "graph")
    return max((max(_bfs(g, s)[1].values()) for s in range(g.n)), default=0)


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or UNBOUNDED when g is a forest.

    BFS from every root; any non-tree edge (u, w) closes a walk of length
    dist(u) + dist(w) + 1 that contains a cycle no longer than that, and a
    root lying on a shortest cycle attains its exact length.
    """
    _check_type(g, Graph, "graph")
    best: int | float = UNBOUNDED
    edge_list = list(g.edges())
    for root in range(g.n):
        _, dist, parent = _bfs(g, root)
        for u, w in edge_list:
            if (u in dist and parent[u] != w and parent[w] != u
                    and dist[u] + dist[w] < best):
                best = dist[u] + dist[w] + 1
    return best


def remove_vertices(g: Graph, drop: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Delete a vertex set; return the reduced graph and old-id -> new-id map."""
    _check_type(g, Graph, "graph")
    try:
        removed = set(drop)
    except TypeError as exc:
        raise PreconditionError(f"drop must be an iterable of vertex ids: {exc}") from exc
    for v in removed:
        if not (_is_count(v, 0) and v < g.n):
            raise PreconditionError(f"vertex {v!r} out of range for removal")
    keep = [v for v in range(g.n) if v not in removed]
    remap = {old: new for new, old in enumerate(keep)}
    adjacency = tuple(
        frozenset(remap[u] for u in g.adjacency[old] if u not in removed)
        for old in keep
    )
    return Graph(adjacency), remap


# ---- edge-list text format --------------------------------------------------


# The layout format_edge_list writes: an optional header, then one "u v"
# line per edge, ASCII digits one space apart, every line ending in LF.
_HEADER = re.compile(r"p ([0-9]+) ([0-9]+)\n")
_DROP_DIGITS = str.maketrans("", "", "0123456789")


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    Optional first line ``p <n> <m>``; every other non-blank line is ``u v``
    with 0-based ids.  Duplicate edges and self-loops are rejected.
    """
    _check_type(text, str, "text")
    # The common case at C speed; _parse_lines parses every other text and
    # finds the culprit of any fault.  Without its digits, a body in the
    # layout is one " \n" per line; json rejects an empty or zero-led id.
    header = _HEADER.match(text)
    body = text[header.end():] if header else text
    lines = body.count("\n")
    if body.translate(_DROP_DIGITS) == " \n" * lines:
        import json

        try:
            ids = json.loads("[" + body[:-1].replace(" ", ",").replace("\n", ",") + "]")
            n = int(header[1]) if header else 1 + max(ids, default=-1)
            m = int(header[2]) if header else lines
        except ValueError:  # also a number past the int digit limit
            pass
        else:
            if len(ids) == 2 * m and max(ids, default=-1) < n:
                adj: list[list[int]] = [[] for _ in range(n)]
                pairs = iter(ids)
                for u, v in zip(pairs, pairs):
                    adj[u].append(v)
                    adj[v].append(u)
                adjacency = tuple(map(frozenset, adj))
                # Shorter only if some edge repeats or is a self-loop.  The
                # layout admits only ids 0..n-1 and the appends are two-way,
                # so this graph passes every rule of Graph's check.
                if sum(map(len, adjacency)) == len(ids):
                    return _unchecked(Graph, adjacency=adjacency)
    return _parse_lines(text)


def _parse_lines(text: str) -> Graph:
    """parse_edge_list for any whitespace layout, line by line."""
    header: tuple[int, int] | None = None
    raw: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "p":
            if header is not None or raw:
                raise InputFormatError(f"line {lineno}: header must come first")
            if len(tokens) != 3:
                raise InputFormatError(f"line {lineno}: header must be 'p <n> <m>'")
            try:
                hn, hm = int(tokens[1]), int(tokens[2])
            except ValueError as exc:
                raise InputFormatError(f"line {lineno}: non-integer header field") from exc
            if hn < 0 or hm < 0:
                raise InputFormatError(f"line {lineno}: negative header field")
            header = (hn, hm)
            continue
        if len(tokens) != 2:
            raise InputFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: non-integer vertex id") from exc
        if u < 0 or v < 0:
            raise InputFormatError(f"line {lineno}: negative vertex id")
        raw.append((u, v))
    if header is not None:
        n, m = header
        if m != len(raw):
            raise InputFormatError(f"header declares {m} edges, found {len(raw)}")
    else:
        n = 1 + max((max(u, v) for u, v in raw), default=-1)
    return graph_from_edges(n, raw)


def format_edge_list(g: Graph) -> str:
    """Serialize a graph in the edge-list format, with header line."""
    _check_type(g, Graph, "graph")
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges()))
    return "\n".join(lines) + "\n"

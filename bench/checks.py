"""Independent correctness checks for the benchmark.

Nothing here imports equitree: every verdict the benchmark reaches about the
program's output comes from the rules below, so a bug in equitree.verify
cannot hide a wrong answer.

* K_{n,n} colorings are checked by the shape rule.  A class with x vertices
  on side X (ids 0..n-1) and y on side Y induces K_{x,y}, which is a forest
  iff x == 0, y == 0 or min(x, y) == 1.  Its maximum degree is max(x, y)
  when both sides are present and 0 otherwise, and its diameter is 0 for a
  one-sided class, 1 for a single edge and 2 for a larger star.
* Colorings of any other graph are checked by a union-find forest test,
  induced degrees and, where a diameter cap is finite, two BFS sweeps per
  tree.
* Feasibility for K_{n,n} comes from a reachable-sum computation over the
  X-counts the shape rule allows, which also gives the exact thresholds.
* Every check also requires the equitable class sizes.
"""

from __future__ import annotations

import math

INF = math.inf


def equitable_defect(colors: list[int], t: int) -> str | None:
    """None when colors uses 1..t with class sizes floor(N/t) or ceil(N/t)."""
    sizes = [0] * (t + 1)
    for v, c in enumerate(colors):
        if isinstance(c, bool) or not isinstance(c, int) or not 1 <= c <= t:
            return f"vertex {v} has color {c!r}, outside 1..{t}"
        sizes[c] += 1
    lo, hi = len(colors) // t, -(-len(colors) // t)
    for c in range(1, t + 1):
        if not lo <= sizes[c] <= hi:
            return f"class {c} has size {sizes[c]}, outside [{lo}, {hi}]"
    return None


# ---- K_{n,n}: the shape rule ------------------------------------------------


def shape(x: int, y: int) -> tuple[bool, int, int]:
    """(is_forest, max_degree, diameter) of K_{x,y}; degree/diameter only for forests."""
    if x == 0 or y == 0:
        return True, 0, 0
    if min(x, y) == 1:
        return True, max(x, y), 1 if max(x, y) == 1 else 2
    return False, max(x, y), 2


def check_knn_coloring(n: int, colors: list[int], t: int, k: float,
                       d: float) -> str | None:
    """None when colors is an equitable (t, k, d)-tree-coloring of K_{n,n}."""
    if len(colors) != 2 * n:
        return f"{len(colors)} colors for {2 * n} vertices"
    defect = equitable_defect(colors, t)
    if defect:
        return defect
    xs = [0] * (t + 1)
    ys = [0] * (t + 1)
    for v, c in enumerate(colors):
        if v < n:
            xs[c] += 1
        else:
            ys[c] += 1
    for c in range(1, t + 1):
        forest, degree, diameter = shape(xs[c], ys[c])
        if not forest:
            return f"class {c} induces K_{{{xs[c]},{ys[c]}}}, which has a cycle"
        if degree > k:
            return f"class {c} has degree {degree} above {k}"
        if diameter > d:
            return f"class {c} has diameter {diameter} above {d}"
    return None


def allowed_x_counts(size: int, k: float, d: float) -> list[int]:
    """X-side counts x for which a class of this size meets the caps in K_{n,n}."""
    out = []
    for x in range(size + 1):
        forest, degree, diameter = shape(x, size - x)
        if forest and degree <= k and diameter <= d:
            out.append(x)
    return out


def _sums(copies: int, options: list[int], n: int, start: int) -> int:
    """Bitset of totals <= n reachable from start by adding one option per copy."""
    mask = (1 << (n + 1)) - 1
    reach = start
    for _ in range(copies):
        nxt = 0
        for x in options:
            nxt |= reach << x
        nxt &= mask
        if nxt == reach:  # options hold 0, so a fixed point stays fixed
            break
        reach = nxt
    return reach


def knn_feasible(n: int, q: int, k: float, d: float) -> bool:
    """Whether K_{n,n} has an equitable (q, k, d)-tree-coloring.

    The classes are r = 2n - a*q of size a+1 and q-r of size a, with
    a = floor(2n/q).  Each picks an allowed X-count; the coloring exists iff
    the picks can total n (the Y side then totals n as well).
    """
    a = (2 * n) // q
    r = 2 * n - a * q
    big = _sums(r, allowed_x_counts(a + 1, k, d), n, 1)
    both = _sums(q - r, allowed_x_counts(a, k, d), n, big)
    return bool(both >> n & 1)


def knn_threshold(n: int, k: float, d: float) -> int:
    """Least t such that every t' >= t is feasible for K_{n,n}.

    For q > 2n every class has at most one vertex, so q = 2n+1 and beyond
    are feasible; scanning down from 2n+1 to the first infeasible q is
    enough.
    """
    for q in range(2 * n + 1, 0, -1):
        if not knn_feasible(n, q, k, d):
            return q + 1
    return 1


VARIANT_CAPS = {"11": (1, 1), "inf2": (INF, 2)}


# ---- arbitrary graphs: union-find forest test plus caps ---------------------


def check_tree_coloring(adjacency: list[set[int]] | list[frozenset[int]],
                        colors: list[int], t: int, k: float = INF,
                        d: float = INF) -> str | None:
    """None when colors is an equitable (t, k, d)-tree-coloring of the graph."""
    n = len(adjacency)
    if len(colors) != n:
        return f"{len(colors)} colors for {n} vertices"
    defect = equitable_defect(colors, t)
    if defect:
        return defect
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    degree = [0] * n
    for u in range(n):
        for v in adjacency[u]:
            if u < v and colors[u] == colors[v]:
                degree[u] += 1
                degree[v] += 1
                ru, rv = find(u), find(v)
                if ru == rv:
                    return f"class {colors[u]} contains a cycle through edge {u}-{v}"
                parent[ru] = rv
    worst = max(degree, default=0)
    if worst > k:
        return f"induced degree {worst} above {k}"
    if d != INF:
        seen = [False] * n
        for s in range(n):
            if seen[s] or degree[s] == 0:
                continue
            far, _ = _farthest(adjacency, colors, s, seen)
            _, ecc = _farthest(adjacency, colors, far, None)
            if ecc > d:
                return f"class {colors[s]} has a tree of diameter {ecc} above {d}"
    return None


def _farthest(adjacency, colors, s: int, mark: list[bool] | None) -> tuple[int, int]:
    """Farthest vertex from s inside its class tree, and its distance."""
    dist = {s: 0}
    queue = [s]
    for u in queue:
        for v in adjacency[u]:
            if colors[v] == colors[s] and v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    if mark is not None:
        for v in queue:
            mark[v] = True
    far = queue[-1]
    return far, dist[far]


# ---- edge lists and the CLI --------------------------------------------------


def parse_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Read the 'p n m' edge-list format strictly: header first, m edges."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    head = lines[0].split() if lines else []
    if len(head) != 3 or head[0] != "p":
        raise ValueError("edge list does not start with 'p <n> <m>'")
    n, m = int(head[1]), int(head[2])
    edges = []
    for line in lines[1:]:
        u, v = line.split()
        edges.append((int(u), int(v)))
    if len(edges) != m:
        raise ValueError(f"header says {m} edges, found {len(edges)}")
    return n, edges


def adjacency_of(n: int, edges: list[tuple[int, int]]) -> list[set[int]]:
    """Adjacency sets of a simple graph; raises ValueError otherwise."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v or v in adj[u]:
            raise ValueError(f"edge {u}-{v} is out of range, a loop or repeated")
        adj[u].add(v)
        adj[v].add(u)
    return adj


def knn_edge_defect(n: int, text: str) -> str | None:
    """None when text is exactly K_{n,n} with X = 0..n-1 and Y = n..2n-1."""
    try:
        count, edges = parse_edges(text)
    except ValueError as exc:
        return str(exc)
    if count != 2 * n or len(edges) != n * n:
        return f"expected p {2 * n} {n * n}"
    want = {(u, v) for u in range(n) for v in range(n, 2 * n)}
    if {(min(e), max(e)) for e in edges} != want:
        return f"edges are not those of K_{{{n},{n}}}"
    return None


def outerplanar_edge_defect(n: int, text: str) -> tuple[str | None, list[set[int]]]:
    """Check a generated maximal outerplanar graph and return its adjacency.

    Requires n vertices, 2n-3 simple edges, the boundary cycle 0..n-1, and
    chords that do not cross when the boundary is drawn as a convex polygon.
    """
    try:
        count, edges = parse_edges(text)
        adj = adjacency_of(count, edges)
    except ValueError as exc:
        return str(exc), []
    if count != n or len(edges) != 2 * n - 3:
        return f"expected {n} vertices and {2 * n - 3} edges", adj
    if any((i + 1) % n not in adj[i] for i in range(n)):
        return "boundary cycle is missing an edge", adj
    chords = sorted((min(e), max(e)) for e in edges
                    if abs(e[0] - e[1]) not in (1, n - 1))
    stack: list[int] = []
    for i, j in sorted(chords, key=lambda c: (c[0], -c[1])):
        while stack and stack[-1] <= i:
            stack.pop()
        if stack and j > stack[-1]:
            return f"chord {i}-{j} crosses another chord", adj
        stack.append(j)
    return None, adj


def witness_defect(n: int, q: int, witness: dict) -> str | None:
    """Check a (q, inf, 2) shape census printed by 'equitree feasible'.

    The fields count classes of each shape; they must total q, match the
    class sizes a and a+1, and consume exactly n vertices on each side.
    """
    a = (2 * n) // q
    r = 2 * n - a * q
    # field -> (class size, X vertices, Y vertices); the y-fields mirror x.
    shapes = {
        "x1": (a + 1, a + 1, 0), "x2": (a, a, 0),
        "x1p": (a + 1, a, 1), "x2p": (a, a - 1, 1),
        "y1": (a + 1, 0, a + 1), "y2": (a, 0, a),
        "y1p": (a + 1, 1, a), "y2p": (a, 1, a - 1),
    }
    if witness.get("a") != a or witness.get("r") != r:
        return f"witness has a={witness.get('a')}, r={witness.get('r')}"
    counts = {f: witness.get(f) for f in shapes}
    if any(not isinstance(c, int) or c < 0 for c in counts.values()):
        return "witness has a missing or negative count"
    if sum(counts.values()) != q:
        return f"witness counts total {sum(counts.values())}, not {q}"
    big = sum(c for f, c in counts.items() if shapes[f][0] == a + 1)
    if big != r:
        return f"witness has {big} classes of size {a + 1}, not {r}"
    for f, c in counts.items():
        if c and min(shapes[f][1:]) < 0:
            return f"witness uses impossible shape {f}"
        if c and not shape(*shapes[f][1:])[0]:
            return f"witness shape {f} is not a forest"
    x_total = sum(c * shapes[f][1] for f, c in counts.items())
    y_total = sum(c * shapes[f][2] for f, c in counts.items())
    if x_total != n or y_total != n:
        return f"witness consumes {x_total} X and {y_total} Y vertices, not {n}"
    return None


# ---- tampering and negative controls -----------------------------------------


def break_equitability(colors: list[int], t: int) -> list[int]:
    """Move one vertex from a smallest nonempty class into a largest class."""
    sizes = {c: 0 for c in range(1, t + 1)}
    for c in colors:
        sizes[c] += 1
    nonempty = [c for c in sizes if sizes[c]]
    source = min(nonempty, key=lambda c: (sizes[c], c))
    target = max((c for c in sizes if c != source), key=lambda c: (sizes[c], -c))
    out = list(colors)
    out[out.index(source)] = target
    return out


def plant_c4(colors: list[int], n: int) -> list[int]:
    """Swap colors so one class holds two X and two Y vertices of K_{n,n}.

    Swaps keep every class size, so only the C4 is wrong.  Needs n >= 2 and
    a class of at least four vertices.
    """
    out = list(colors)
    target = max(set(out), key=out.count)
    picked = [0, 1, n, n + 1]
    spare = [v for v, c in enumerate(out) if c == target and v not in picked]
    for v in picked:
        if out[v] != target:
            w = spare.pop()
            out[v], out[w] = out[w], out[v]
    return out


def negative_controls() -> list[str]:
    """Run each checker on known-bad colorings; return the ones it accepted.

    The controls are colorings of K_{4,4} and K_{3,3}.  Each bad one breaks
    exactly one rule, and the matching good one must pass, so a checker that
    rejects everything fails here too.
    """
    def knn_adj(n: int) -> list[set[int]]:
        return [set(range(n, 2 * n)) if v < n else set(range(n)) for v in range(2 * n)]

    good = [1, 1, 1, 1, 2, 2, 2, 2]  # K_{4,4}: one class per side
    c4 = plant_c4(good, 4)
    skewed = break_equitability(good, 2)
    stars = [1, 2, 2, 1, 1, 2]  # K_{3,3}: two 3-vertex stars, diameter 2
    k44, k33 = knn_adj(4), knn_adj(3)
    must_pass = {
        "shape rule rejected a valid coloring": check_knn_coloring(4, good, 2, INF, INF),
        "forest test rejected a valid coloring": check_tree_coloring(k44, good, 2),
        "shape rule rejected stars under (inf,2)": check_knn_coloring(3, stars, 2, INF, 2),
        "forest test rejected stars under (inf,2)": check_tree_coloring(k33, stars, 2, INF, 2),
    }
    must_fail = {
        "shape rule accepted a C4": check_knn_coloring(4, c4, 2, INF, INF),
        "shape rule accepted unequal classes": check_knn_coloring(4, skewed, 2, INF, INF),
        "shape rule accepted stars under (1,1)": check_knn_coloring(3, stars, 2, 1, 1),
        "forest test accepted a C4": check_tree_coloring(k44, c4, 2),
        "forest test accepted unequal classes": check_tree_coloring(k44, skewed, 2),
        "degree cap accepted stars under k=1": check_tree_coloring(k33, stars, 2, 1, INF),
        "diameter cap accepted stars under d=1": check_tree_coloring(k33, stars, 2, INF, 1),
    }
    missed = [name for name, defect in must_pass.items() if defect is not None]
    missed.extend(name for name, defect in must_fail.items() if defect is None)
    # Published thresholds: exact_va11(43) = 22 and exact_vainf2(65) = 8.
    if knn_feasible(43, 21, 1, 1) or knn_threshold(43, 1, 1) != 22:
        missed.append("feasibility reference disagrees on K_{43,43} (t,1,1)")
    if knn_threshold(65, INF, 2) != 8:
        missed.append("feasibility reference disagrees on K_{65,65} (t,inf,2)")
    return missed

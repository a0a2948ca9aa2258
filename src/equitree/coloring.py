"""Tree-coloring data model: parameters, colorings, verification, certificates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Collection, Mapping, Protocol, Sequence

from .errors import InputFormatError, PreconditionError
from .graph import UNBOUNDED, Graph, _check_type, _is_count

# The names of the methods that dispatch.construct chooses among.
METHODS = ("auto", "girth5", "girth6", "outerplanar")


def _check_bound(value: Any, name: str) -> int | float:
    """A cap: a nonnegative int, or any value equal to UNBOUNDED."""
    if value == UNBOUNDED or _is_count(value, 0):
        return value
    raise PreconditionError(f"{name} must be a nonnegative int or UNBOUNDED")


@dataclass(frozen=True)
class Params:
    """Problem parameters: t color classes, degree cap k, diameter cap d.

    Each class must induce a forest whose maximum degree is at most k and
    whose components each have diameter at most d.  Either cap may be
    UNBOUNDED, which disables it.
    """

    t: int
    k: int | float = UNBOUNDED
    d: int | float = UNBOUNDED

    def __post_init__(self) -> None:
        if not _is_count(self.t, 1):
            raise PreconditionError("t must be an int >= 1")
        _check_bound(self.k, "k")
        _check_bound(self.d, "d")


def _check_args(g: Any, params: Any) -> None:
    """The argument types of every entry point that takes a graph and params."""
    _check_type(g, Graph, "graph")
    _check_type(params, Params, "params")


@dataclass(frozen=True)
class TreeColoring:
    """An assignment of colors 1..t to vertices 0..n-1 (colors[v] = color of v)."""

    colors: tuple[int, ...]
    t: int

    def __post_init__(self) -> None:
        if not _is_count(self.t, 1):
            raise InputFormatError("t must be an int >= 1")
        colors = self.colors
        if not isinstance(colors, tuple):
            raise InputFormatError(f"colors must be a tuple, got {type(colors).__name__}")
        # The common case at C speed; the loop below only finds the culprit.
        if not colors or (set(map(type, colors)) == {int}
                          and 1 <= min(colors) and max(colors) <= self.t):
            return
        for v, c in enumerate(colors):
            if not (_is_count(c, 1) and c <= self.t):
                raise InputFormatError(
                    f"vertex {v} has color {c!r}, outside 1..{self.t}"
                )

    @property
    def n(self) -> int:
        return len(self.colors)

    def class_sizes(self) -> list[int]:
        """Sizes of classes 1..t, indexed 0..t-1."""
        sizes = [0] * self.t
        for c in self.colors:
            sizes[c - 1] += 1
        return sizes

    def color_class(self, c: int) -> list[int]:
        return [v for v, col in enumerate(self.colors) if col == c]


@dataclass(frozen=True)
class ClassCheck:
    """Measured facts about one color class.

    ``max_degree`` is the largest degree in the subgraph the class induces.
    ``diameter`` is the largest component diameter of a forest class, and
    None for a class with a cycle, which already fails every cap pair.
    Classes of size 0 or 1, and independent sets of any size, report
    ``ClassCheck(size, True, 0, 0)``.  A class of at most three vertices is
    fixed, up to isomorphism, by its induced edge count, so its check is a
    constant of ``_SMALL``; the triangle is ``(3, False, 2, None)``.
    """

    size: int
    is_forest: bool
    max_degree: int
    diameter: int | None


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verify: overall verdict plus per-class measurements."""

    verdict: bool
    equitable: bool
    first_violation: str
    classes: tuple[ClassCheck, ...]


# The check of each class of at most three vertices, by size, then induced edges.
_SMALL = ((ClassCheck(0, True, 0, 0),), (ClassCheck(1, True, 0, 0),),
          (ClassCheck(2, True, 0, 0), ClassCheck(2, True, 1, 1)),
          (ClassCheck(3, True, 0, 0), ClassCheck(3, True, 1, 1),
           ClassCheck(3, True, 2, 2), ClassCheck(3, False, 2, None)))


class _Inside(Protocol):
    """A class's induced adjacency: each vertex's neighbors in its class."""

    def __getitem__(self, u: int, /) -> Collection[int]: ...


def _sweep(inside: _Inside, root: int) -> tuple[list[int], int]:
    """BFS within a class: the vertices reached in BFS order and root's eccentricity.

    The last vertex of the order is one farthest from root.
    """
    dist = {root: 0}
    order = [root]
    for u in order:
        du = dist[u] + 1
        for v in inside[u]:
            if v not in dist:
                dist[v] = du
                order.append(v)
    return order, dist[order[-1]]


def _measure(inside: _Inside, root: int) -> tuple[list[int], int | None]:
    """The component of root within a class and its diameter, None if it has a cycle.

    A component with one edge fewer than vertices is a tree, whose diameter
    two sweeps find exactly.
    """
    comp, _ = _sweep(inside, root)
    if sum(len(inside[u]) for u in comp) != 2 * (len(comp) - 1):
        return comp, None
    return comp, _sweep(inside, comp[-1])[1]


def _class_checks(g: Graph, members: list[int]) -> ClassCheck:
    """Measure a class in time linear in its induced size.

    A class of at most three vertices is looked up in _SMALL by its induced
    edge count, one adjacency test per pair.  In a larger class each
    component goes through _measure, and the first component with a cycle
    ends the check: the class is not a forest, so it has no diameter to report.
    """
    adjacency = g.adjacency
    size = len(members)
    if size == 2:
        u, v = members
        return _SMALL[2][v in adjacency[u]]
    if size == 3:
        u, v, w = members
        near = adjacency[u]
        return _SMALL[3][(v in near) + (w in near) + (w in adjacency[v])]
    if size < 2:
        return _SMALL[size][0]
    mset = set(members)
    inside = {v: adjacency[v] & mset for v in members}
    max_degree = max(map(len, inside.values()))
    if not max_degree:
        return ClassCheck(size, True, 0, 0)

    seen: set[int] = set()
    diameter = 0
    for s in members:
        if s in seen or not inside[s]:
            continue
        comp, ecc = _measure(inside, s)
        if ecc is None:
            return ClassCheck(size, False, max_degree, None)
        seen.update(comp)
        if ecc > diameter:
            diameter = ecc
    return ClassCheck(size, True, max_degree, diameter)


def _check_coloring(coloring: Any, params: Any) -> None:
    """The types of a coloring and its parameter block, and that their t agree."""
    _check_type(coloring, TreeColoring, "coloring")
    _check_type(params, Params, "params")
    if coloring.t != params.t:
        raise InputFormatError(
            f"coloring declares t={coloring.t} but parameters say t={params.t}"
        )


def verify(g: Graph, coloring: TreeColoring, params: Params) -> VerificationReport:
    """Check a coloring against (t, k, d) and report the first defect found.

    Raises InputFormatError when the coloring does not even match the graph
    or the parameter block (wrong length, wrong t).  Semantic failures are
    reported in the returned VerificationReport, not raised.
    """
    _check_type(g, Graph, "graph")
    _check_coloring(coloring, params)
    if coloring.n != g.n:
        raise InputFormatError(
            f"coloring covers {coloring.n} vertices but the graph has {g.n}"
        )
    t = params.t
    classes: list[list[int]] = [[] for _ in range(t)]
    for v, c in enumerate(coloring.colors):
        classes[c - 1].append(v)

    lo, hi = g.n // t, -(-g.n // t)
    sizes = [len(members) for members in classes]
    first = ""
    equitable = lo <= min(sizes) and max(sizes) <= hi
    if not equitable:
        c, size = next((c, size) for c, size in enumerate(sizes, start=1)
                       if not lo <= size <= hi)
        first = (
            f"class {c} has size {size}, "
            f"outside the equitable range [{lo}, {hi}]"
        )

    checks: list[ClassCheck] = []
    verdict = equitable
    for c, members in enumerate(classes, start=1):
        check = _class_checks(g, members)
        checks.append(check)
        if not check.is_forest:
            problem = "contains a cycle"
        elif check.max_degree > params.k:
            problem = f"has induced degree {check.max_degree}, above the cap {params.k}"
        elif check.diameter > params.d:
            problem = (f"has a component of diameter {check.diameter}, "
                       f"above the cap {params.d}")
        else:
            continue
        verdict = False
        first = first or f"class {c} {problem}"
    return VerificationReport(verdict, equitable, first, tuple(checks))


# ---- certificates -----------------------------------------------------------


def certificate_from_coloring(coloring: TreeColoring, params: Params) -> dict[str, Any]:
    """JSON-ready certificate.  UNBOUNDED caps serialize as null.

    Raises InputFormatError when the coloring's t is not the parameters' t,
    as verify does, so every certificate written is one its inverse reads.
    """
    _check_coloring(coloring, params)
    return {
        "n_vertices": coloring.n,
        "t": params.t,
        "k": None if params.k == UNBOUNDED else params.k,
        "d": None if params.d == UNBOUNDED else params.d,
        "colors": list(coloring.colors),
    }


def coloring_from_certificate(data: Mapping[str, Any]) -> tuple[Params, TreeColoring]:
    """Inverse of certificate_from_coloring, with full validation."""
    if not isinstance(data, Mapping):
        raise InputFormatError("certificate must be a JSON object")
    for key in ("n_vertices", "t", "k", "d", "colors"):
        if key not in data:
            raise InputFormatError(f"certificate is missing the '{key}' field")
    n = data["n_vertices"]
    if not _is_count(n, 0):
        raise InputFormatError("'n_vertices' must be a nonnegative int")

    def bound(key: str) -> int | float:
        raw = data[key]
        if raw is None:
            return UNBOUNDED
        if not _is_count(raw, 0):
            raise InputFormatError(f"'{key}' must be a nonnegative int or null")
        return raw

    colors = data["colors"]
    if not isinstance(colors, Sequence) or isinstance(colors, (str, bytes)):
        raise InputFormatError("'colors' must be a list of ints")
    if len(colors) != n:
        raise InputFormatError(
            f"'colors' has {len(colors)} entries but 'n_vertices' is {n}"
        )
    k, d = bound("k"), bound("d")
    # TreeColoring raises InputFormatError for a bad t; Params would not.
    coloring = TreeColoring(tuple(colors), data["t"])
    return Params(coloring.t, k, d), coloring

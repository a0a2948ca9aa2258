"""Closed-form colorings and exact feasibility for balanced complete bipartite graphs.

Vertex convention for K_{n,n}: side X occupies ids 0..n-1, side Y occupies
ids n..2n-1.  For q color classes write a = floor(2n/q) and r = 2n - a*q;
an equitable coloring then has exactly r classes of size a+1 and q-r of
size a.

Two parameter variants are decided exactly.  Variant "11" (degree cap 1,
diameter cap 1) forces every class to be a one-sided set or a single edge.
Variant "inf2" (no degree cap, diameter cap 2) forces every class to induce
a star, which in K_{n,n} means one-sided sets or one-plus-many mixed sets.

Every construction describes its coloring as a list of class shapes
(count, from X, from Y): count classes, each taking that many vertices from
side X and from side Y.  One function, _layout, turns the list into colors:
it consumes each side left to right and numbers the classes 1..q in shape
order; colors past the last shape are empty classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .coloring import TreeColoring
from .errors import InfeasibleVectorError, PreconditionError


def _require_instance(n: int, q: int) -> None:
    if n < 1:
        raise PreconditionError("side size n must be >= 1")
    if q < 1:
        raise PreconditionError("class count q must be >= 1")


def _layout(q: int, shapes) -> TreeColoring:
    """Color K_{n,n} from (count, from X, from Y) class shapes, in order."""
    xs: list[int] = []
    ys: list[int] = []
    color = 1
    for count, nx, ny in shapes:
        block = list(range(color, color + count))
        xs += sorted(block * nx)
        ys += sorted(block * ny)
        color += count
    return TreeColoring(tuple(xs + ys), q)


# ---- class-count vectors ----------------------------------------------------


@dataclass(frozen=True)
class ClassCountVector:
    """Counts of the eight class shapes of an equitable (q, inf, 2)-coloring.

    Shapes are keyed by bulk side and size: x1 counts classes of a+1
    X-vertices, x2 of a X-vertices, x1p of a X-vertices plus one Y-vertex,
    x2p of a-1 X-vertices plus one Y-vertex.  The y-fields mirror these
    with sides swapped.  Mixed classes induce stars centered on the lone
    opposite-side vertex.
    """

    a: int
    r: int
    x1: int = 0
    x2: int = 0
    x1p: int = 0
    x2p: int = 0
    y1: int = 0
    y2: int = 0
    y1p: int = 0
    y2p: int = 0

    def counts(self) -> tuple[int, ...]:
        return (self.x1, self.x2, self.x1p, self.x2p,
                self.y1, self.y2, self.y1p, self.y2p)

    def _shapes(self) -> tuple[tuple[int, int, int], ...]:
        """The eight (count, from X, from Y) shapes, in field order."""
        a = self.a
        return ((self.x1, a + 1, 0), (self.x2, a, 0), (self.x1p, a, 1),
                (self.x2p, a - 1, 1), (self.y1, 0, a + 1), (self.y2, 0, a),
                (self.y1p, 1, a), (self.y2p, 1, a - 1))


_SHAPE_NAMES = ("x1", "x2", "x1p", "x2p", "y1", "y2", "y1p", "y2p")


def make_class_counts(n: int, q: int, *, x1: int = 0, x2: int = 0,
                      x1p: int = 0, x2p: int = 0, y1: int = 0, y2: int = 0,
                      y1p: int = 0, y2p: int = 0) -> ClassCountVector:
    """Validate the counting invariants for (n, q) and build the vector.

    Raises InfeasibleVectorError naming the first violated invariant:
    nonnegativity, total class count q, or either side-consumption
    equation.  When a = 0 the shapes that would need a-1 bulk vertices
    must be absent.
    """
    _require_instance(n, q)
    a = (2 * n) // q
    r = 2 * n - a * q
    vec = ClassCountVector(a, r, x1, x2, x1p, x2p, y1, y2, y1p, y2p)
    for name, value in zip(_SHAPE_NAMES, vec.counts()):
        if value < 0:
            raise InfeasibleVectorError(f"count {name} is negative ({value})")
    total = sum(vec.counts())
    if total != q:
        raise InfeasibleVectorError(f"counts sum to {total}, expected q={q}")
    if a == 0 and (x2p or y2p):
        raise InfeasibleVectorError(
            "shapes with a-1 bulk vertices are impossible when a=0"
        )
    for side, i in (("X", 1), ("Y", 2)):
        used = sum(shape[0] * shape[i] for shape in vec._shapes())
        if used != n:
            raise InfeasibleVectorError(
                f"{side}-side consumption is {used}, expected n={n}"
            )
    return vec


def realize_class_counts(n: int, q: int, ccv: ClassCountVector) -> TreeColoring:
    """Materialize a class-count vector on K_{n,n}, shapes in field order."""
    vec = make_class_counts(n, q, **dict(zip(_SHAPE_NAMES, ccv.counts())))
    return _layout(q, vec._shapes())


# ---- elementary constructions ----------------------------------------------


def even_t_coloring(n: int, t: int) -> TreeColoring:
    """Split each side into t/2 nearly equal one-sided classes.

    Valid for every degree and diameter cap, including (0, 0), because
    every class is an independent set.  Both sides use the same size
    profile, so the global multiset of sizes stays equitable.
    """
    _require_instance(n, t)
    if t % 2:
        raise PreconditionError("even_t_coloring needs an even class count")
    h = t // 2
    base, big = divmod(n, h)
    return _layout(t, ((big, base + 1, 0), (h - big, base, 0),
                       (big, 0, base + 1), (h - big, 0, base)))


def odd_q_11_coloring(n: int, q: int) -> TreeColoring:
    """Disjoint-edge construction for odd q at or above 2*floor((n+1)/3)+1.

    Case q < n: classes are 3q-2n disjoint edges (X_i with Y_i) plus
    one-sided triples of the leftovers.  Case q >= n: max(0, 2n-q) disjoint
    edges plus singletons, with empty classes past 2n.  Every class is a
    single edge or an independent set, so the result is valid for degree
    cap 1 and diameter cap 1.
    """
    _require_instance(n, q)
    bound = va11_upper(n) + 1
    if q % 2 == 0:
        raise PreconditionError("odd_q_11_coloring needs odd q")
    if q < bound:
        raise PreconditionError(
            f"odd_q_11_coloring needs q >= 2*floor((n+1)/3)+1 = {bound}"
        )
    if q < n:
        edges, size = 3 * q - 2 * n, 3
    else:
        edges, size = max(0, 2 * n - q), 1
    rest = (n - edges) // size
    return _layout(q, ((edges, 1, 1), (rest, size, 0), (rest, 0, size)))


# ---- the one-sided class-size equation --------------------------------------


@dataclass(frozen=True)
class SolutionPair:
    """Nonnegative solution of a*x + (a+1)*y = n: x small and y large classes."""

    x: int
    y: int

    @property
    def z(self) -> int:
        return self.x + self.y


def solve_linear(a: int, n: int) -> list[SolutionPair]:
    """All nonnegative integer solutions of a*x + (a+1)*y = n, ascending in x."""
    if a < 1:
        raise PreconditionError("solve_linear needs a >= 1")
    if n < 0:
        raise PreconditionError("solve_linear needs n >= 0")
    out = []
    for y in range(n // (a + 1), -1, -1):
        rem = n - (a + 1) * y
        if rem % a == 0:
            out.append(SolutionPair(rem // a, y))
    return out


def _pair_modulus(n: int, s: SolutionPair) -> int:
    """The unique a with a*s.x + (a+1)*s.y = n, or an error if none."""
    if s.x < 0 or s.y < 0 or s.z == 0:
        raise PreconditionError(f"({s.x}, {s.y}) is not a usable solution pair")
    num = n - s.y
    if num <= 0 or num % s.z:
        raise PreconditionError(
            f"({s.x}, {s.y}) solves a*x + (a+1)*y = {n} for no integer a >= 1"
        )
    return num // s.z


def two_solution_coloring(n: int, s1: SolutionPair,
                          s2: SolutionPair) -> TreeColoring:
    """One-sided classes sized per s1 on side X and per s2 on side Y.

    Both pairs must solve the class-size equation for the same a.  All
    classes are independent sets, so the coloring is valid for any caps.
    """
    _require_instance(n, 1)
    a1 = _pair_modulus(n, s1)
    a2 = _pair_modulus(n, s2)
    if a1 != a2:
        raise PreconditionError(
            f"pairs solve the equation for different moduli ({a1} vs {a2})"
        )
    return _layout(s1.z + s2.z, ((s1.x, a1, 0), (s1.y, a1 + 1, 0),
                                 (s2.x, 0, a1), (s2.y, 0, a1 + 1)))


# ---- closed-form class counts for odd q ------------------------------------


def odd_q_inf2_counts(n: int, q: int) -> ClassCountVector:
    """Case-split class counts for odd q with vainf2_upper(n) <= q < n.

    The three cases select on how q compares with 2r+1 and a+r-1.  As q
    is odd, a and r share parity, so the gap values 2r+2 and a+r are even
    (the split is exhaustive) and so is every numerator halved below.
    Raises InfeasibleVectorError when a case formula goes negative, which
    happens for some (n, q) near the lower bound; callers fall back to
    the exact feasibility scan.
    """
    _require_instance(n, q)
    low = vainf2_upper(n)
    if q % 2 == 0:
        raise PreconditionError("odd_q_inf2_counts needs odd q")
    if not low <= q < n:
        raise PreconditionError(
            f"odd_q_inf2_counts needs {low} <= q < {n}"
        )
    a = (2 * n) // q
    r = 2 * n - a * q
    if q <= 2 * r + 1:
        return make_class_counts(
            n, q,
            x1=(q - 1) // 2,
            y2=(2 * q - a - r) // 2,
            y1p=(2 * r + 1 - q) // 2,
            y2p=(a - r) // 2,
        )
    if q <= a + r - 1:
        return make_class_counts(
            n, q,
            x2p=(q + 1) // 2,
            y1=(a + r - 1 - q) // 2,
            y2=(q - 2 * r - 1) // 2,
            y1p=(q + r - a + 1) // 2,
        )
    return make_class_counts(
        n, q,
        x2=(q - 1) // 2,
        y2=(q - a - r + 1) // 2,
        y1p=r,
        y2p=(a - r) // 2,
    )


# ---- bounds and exact feasibility ------------------------------------------


def va11_upper(n: int) -> int:
    """Upper bound 2*floor((n+1)/3) for the strong (1,1) arboricity of K_{n,n}."""
    if n < 1:
        raise PreconditionError("va11_upper needs n >= 1")
    return 2 * ((n + 1) // 3)


def vainf2_upper(n: int) -> int:
    """Upper bound 2*floor(floor((-1+sqrt(8n+9))/2)/2), exact integer arithmetic."""
    if n < 1:
        raise PreconditionError("vainf2_upper needs n >= 1")
    return 2 * (((isqrt(8 * n + 9) - 1) // 2) // 2)


def infeasible_by_divisibility(n: int, t: int) -> bool:
    """Certified infeasibility of (t, inf, 2) when t is odd, t | 2n, 2n/t - t >= 2.

    With all q classes forced to the same size 2n/t, a star-decomposition
    count shows no assignment balances both sides.
    """
    _require_instance(n, t)
    return t % 2 == 1 and (2 * n) % t == 0 and (2 * n) // t - t >= 2


def _complementary_pair(n: int, q: int) -> tuple[SolutionPair, SolutionPair] | None:
    """The first pair of solve_linear(floor(2n/q), n) with z1 + z2 = q, or None."""
    pairs = solve_linear((2 * n) // q, n)
    by_z = {p.z: p for p in pairs}
    for p in pairs:
        other = by_z.get(q - p.z)
        if other is not None:
            return p, other
    return None


def feasible_11(n: int, q: int) -> bool:
    """Exact decision: does K_{n,n} admit an equitable (q,1,1)-tree-coloring?

    For a = floor(2n/q) >= 3 every class is one-sided, so feasibility is
    the existence of two solution pairs with z1 + z2 = q.  Every a <= 2
    works: q > 2n/3, so an odd q exceeds va11_upper(n) and takes the
    disjoint-edge construction, and an even q takes the side split.
    """
    _require_instance(n, q)
    return (2 * n) // q < 3 or _complementary_pair(n, q) is not None


def feasible_inf2(n: int, q: int) -> ClassCountVector | None:
    """Exact decision for (q, inf, 2), returning a witness vector when feasible.

    Scans the number sx of X-bulk classes from q downward.  For fixed sx
    the two consumption equations reduce to a single interval test on the
    count bx of large X-bulk classes; the first sx admitting a bx yields
    the canonical witness.  Returns None when no sx works.
    """
    _require_instance(n, q)
    a = (2 * n) // q
    r = 2 * n - a * q
    if a == 0:
        return make_class_counts(n, q, x1=n, y1=n, x2=q - 2 * n)
    for sx in range(q, -1, -1):
        sy = q - sx
        c = n - a * sx
        b_lo = max(0, r - sy, c - sy)
        b_hi = min(sx, r, c + sx)
        if b_lo > b_hi:
            continue
        bx = b_hi
        delta = bx - c
        ey = max(0, -delta)
        ex = delta + ey
        by = r - bx
        t3 = max(0, bx + ex - sx)
        u3 = max(0, by + ey - sy)
        return make_class_counts(
            n, q,
            x1=bx - t3, x2=sx - bx - ex + t3, x1p=t3, x2p=ex - t3,
            y1=by - u3, y2=sy - by - ey + u3, y1p=u3, y2p=ey - u3,
        )
    return None


def _last_feasible_suffix(n: int, start: int, feasible) -> int:
    s = max(1, start)
    while s > 1 and feasible(n, s - 1):
        s -= 1
    return s


def exact_va11(n: int) -> int:
    """Least t such that every t' >= t admits an equitable (t',1,1)-coloring."""
    return _last_feasible_suffix(n, va11_upper(n), feasible_11)


def exact_vainf2(n: int) -> int:
    """Least t such that every t' >= t admits an equitable (t',inf,2)-coloring."""
    return _last_feasible_suffix(
        n, vainf2_upper(n), lambda m, q: feasible_inf2(m, q) is not None
    )


# ---- construction drivers ---------------------------------------------------


def construct_knn_11(n: int, q: int) -> TreeColoring:
    """Build an equitable (q,1,1)-tree-coloring of K_{n,n} or raise.

    Even q uses the side split; odd q above va11_upper(n) the disjoint-edge
    construction.  A remaining odd q is at most 2n/3, so a >= 3, every class
    is one-sided, and a complementary pair of solution profiles decides it.
    Raises PreconditionError exactly when feasible_11(n, q) is false.
    """
    _require_instance(n, q)
    if q % 2 == 0:
        return even_t_coloring(n, q)
    if q > va11_upper(n):
        return odd_q_11_coloring(n, q)
    pair = _complementary_pair(n, q)
    if pair is None:
        raise PreconditionError(
            f"K_{{{n},{n}}} has no equitable ({q},1,1)-tree-coloring"
        )
    return two_solution_coloring(n, *pair)


def construct_knn_inf2(n: int, q: int) -> TreeColoring:
    """Build an equitable (q,inf,2)-tree-coloring of K_{n,n} or raise.

    Even q uses the side split.  Odd q tries the closed-form class counts
    first, then the disjoint-edge construction (its classes are edges and
    singletons, fine at diameter 2), then the exact feasibility witness.
    Raises PreconditionError exactly when feasible_inf2(n, q) is None.
    """
    _require_instance(n, q)
    if q % 2 == 0:
        return even_t_coloring(n, q)
    return _counts_coloring(n, q, edge_fallback=True)


def _counts_coloring(n: int, q: int, edge_fallback: bool = False) -> TreeColoring:
    """Realize the closed-form class counts of odd_q_inf2_counts, else the
    feasible_inf2 witness; with edge_fallback, odd q at or above the
    disjoint-edge bound takes that construction before the witness.
    """
    try:
        ccv = odd_q_inf2_counts(n, q)
    except PreconditionError:
        if edge_fallback and q > va11_upper(n):
            return odd_q_11_coloring(n, q)
        ccv = feasible_inf2(n, q)
        if ccv is None:
            raise PreconditionError(
                f"K_{{{n},{n}}} has no equitable ({q},inf,2)-tree-coloring"
            ) from None
    return realize_class_counts(n, q, ccv)


# ---- recognizing biclique inputs -------------------------------------------


def detect_balanced_biclique(g) -> tuple[list[int], list[int]] | None:
    """Return the two sides of g when it is some K_{n,n}, else None.

    The side containing vertex 0 comes first; both sides are sorted.  With
    every degree half the order, only an odd cycle can still fail: each
    component has half + 1 vertices or more, so there is one, and each side
    holds all half neighbours of a vertex on the other, so they balance.
    """
    total = g.n
    if total == 0 or total % 2:
        return None
    half = total // 2
    if any(g.degree(v) != half for v in range(total)):
        return None
    side = [-1] * total
    side[0] = 0
    queue = [0]
    for u in queue:
        for w in g.adjacency[u]:
            if side[w] < 0:
                side[w] = 1 - side[u]
                queue.append(w)
            elif side[w] == side[u]:
                return None
    xs = [v for v in range(total) if side[v] == 0]
    ys = [v for v in range(total) if side[v] == 1]
    return xs, ys


def relabel_for_sides(coloring: TreeColoring, xs: list[int],
                      ys: list[int]) -> TreeColoring:
    """Transport a canonical K_{n,n} coloring onto arbitrary side id lists."""
    n = len(xs)
    if len(ys) != n or coloring.n != 2 * n:
        raise PreconditionError("side lists do not match the coloring size")
    colors = [0] * (2 * n)
    for v, c in zip([*xs, *ys], coloring.colors):
        colors[v] = c
    return TreeColoring(tuple(colors), coloring.t)

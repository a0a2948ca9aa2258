"""Closed-form colorings and exact feasibility for balanced complete bipartite graphs.

Vertex convention for K_{n,n}: side X occupies ids 0..n-1, side Y occupies
ids n..2n-1.  For q color classes write a = floor(2n/q) and r = 2n - a*q;
an equitable coloring then has exactly r classes of size a+1 and q-r of
size a.

A class induces a forest in K_{n,n} exactly when it is one-sided or a star
whose lone vertex sits on the other side: the eight ClassCountVector shapes.
The caps (k, d) only decide whether stars of size a+1 and of size a are
allowed, so one decider, feasible_counts, decides every cap pair; feasible_11
(degree and diameter cap 1) and feasible_inf2 (diameter cap 2) are cases.

Every construction describes its coloring as a list of class shapes
(count, from X, from Y): count classes, each taking that many vertices from
side X and from side Y.  One function, _layout, turns the list into colors:
it consumes each side left to right and numbers the classes 1..q in shape
order; colors past the last shape are empty classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .coloring import TreeColoring, _check_bound
from .errors import InfeasibleVectorError, InputFormatError, PreconditionError
from .graph import UNBOUNDED, Graph, _check_type, _is_count, _unchecked


def _require_instance(n: int, q: int) -> None:
    for name, value in (("side size n", n), ("class count q", q)):
        if not _is_count(value, 1):
            raise PreconditionError(f"{name} must be an int >= 1")


def _layout(q: int, shapes) -> TreeColoring:
    """Color K_{n,n} from (count, from X, from Y) class shapes, in order.

    Every caller's counts are nonnegative ints, so each color is a block
    value in 1..color-1 and one test after the loop settles TreeColoring's
    rule that every color lies in 1..q.
    """
    xs: list[int] = []
    ys: list[int] = []
    color = 1
    for count, nx, ny in shapes:
        if not count:
            continue
        block = list(range(color, color + count))
        xs += block if nx == 1 else sorted(block * nx)
        ys += block if ny == 1 else sorted(block * ny)
        color += count
    if not (_is_count(q, 1) and color - 1 <= q):
        raise InputFormatError(
            f"q must be an int >= {max(color - 1, 1)} for these shapes, got {q!r}")
    return _unchecked(TreeColoring, colors=tuple(xs + ys), t=q)


# ---- class-count vectors ----------------------------------------------------


@dataclass(frozen=True)
class ClassCountVector:
    """Counts of the eight class shapes of an equitable tree-coloring of K_{n,n}.

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

    Callers, realize_class_counts and odd_q_inf2_counts build through it;
    the feasible_counts witness does not.  Raises InfeasibleVectorError for
    the first violated invariant: a count that is not a nonnegative int, a
    total other than q, a side consumption other than n, or an a-1 bulk
    shape when a = 0.
    """
    _require_instance(n, q)
    a, r = divmod(2 * n, q)
    vec = ClassCountVector(a, r, x1, x2, x1p, x2p, y1, y2, y1p, y2p)
    for name, value in zip(_SHAPE_NAMES, vec.counts()):
        if not _is_count(value, 0):
            raise InfeasibleVectorError(f"count {name} is negative or not an int ({value!r})")
    total = sum(vec.counts())
    if total != q:
        raise InfeasibleVectorError(f"counts sum to {total}, expected q={q}")
    if a == 0 and (x2p or y2p):
        raise InfeasibleVectorError(
            "shapes with a-1 bulk vertices are impossible when a=0"
        )
    shapes = vec._shapes()
    for side, i in (("X", 1), ("Y", 2)):
        used = sum(shape[0] * shape[i] for shape in shapes)
        if used != n:
            raise InfeasibleVectorError(
                f"{side}-side consumption is {used}, expected n={n}"
            )
    return vec


def realize_class_counts(n: int, q: int, ccv: ClassCountVector) -> TreeColoring:
    """Materialize a class-count vector on K_{n,n}, shapes in field order."""
    _check_type(ccv, ClassCountVector, "ccv")
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
    if not _is_count(a, 1):
        raise PreconditionError("solve_linear needs a >= 1")
    if not _is_count(n, 0):
        raise PreconditionError("solve_linear needs n >= 0")
    out = []
    for y in range(n // (a + 1), -1, -1):
        rem = n - (a + 1) * y
        if rem % a == 0:
            out.append(SolutionPair(rem // a, y))
    return out


def _pair_modulus(n: int, s: SolutionPair) -> int:
    """The unique a with a*s.x + (a+1)*s.y = n, or an error if none."""
    if not (_is_count(s.x, 0) and _is_count(s.y, 0)) or s.z == 0:
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
    _check_type(s1, SolutionPair, "s1")
    _check_type(s2, SolutionPair, "s2")
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
    happens for some (n, q) near the lower bound.
    """
    _require_instance(n, q)
    low = vainf2_upper(n)
    if q % 2 == 0:
        raise PreconditionError("odd_q_inf2_counts needs odd q")
    if not low <= q < n:
        raise PreconditionError(
            f"odd_q_inf2_counts needs {low} <= q < {n}"
        )
    a, r = divmod(2 * n, q)
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
    """Upper bound 2*floor((n+1)/3) for the strong (1,1) arboricity of K_{n,n}.

    At n = 1 the formula gives 0, below the least t of 1; exact_va11(1) is 1.
    """
    _require_instance(n, 1)
    return 2 * ((n + 1) // 3)


def vainf2_upper(n: int) -> int:
    """Upper bound 2*floor(floor((-1+sqrt(8n+9))/2)/2), exact integer arithmetic.

    At n = 1 the formula gives 0, below the least t of 1; exact_vainf2(1) is 1.
    """
    _require_instance(n, 1)
    return 2 * (((isqrt(8 * n + 9) - 1) // 2) // 2)


def infeasible_by_divisibility(n: int, t: int) -> bool:
    """Certified infeasibility of (t, inf, 2) when t is odd, t | 2n, 2n/t - t >= 2.

    With all q classes forced to the same size 2n/t, a star-decomposition
    count shows no assignment balances both sides.
    """
    _require_instance(n, t)
    return t % 2 == 1 and (2 * n) % t == 0 and (2 * n) // t - t >= 2


def _star_ok(size: int, k: int | float, d: int | float) -> bool:
    """Whether a star on size vertices meets the caps: its degree is size-1
    and its diameter min(size-1, 2)."""
    return size - 1 <= k and min(size - 1, 2) <= d


def _witness_counts(n: int, q: int, k: int | float,
                    d: int | float) -> tuple[int, ...] | None:
    """The eight feasible_counts witness counts, valid by construction, or None.

    With sx X-bulk classes, bx of them large and c = n - a*sx, both sides
    balance when X-bulk stars have bx - c more lone vertices than Y-bulk
    stars.  Stars fit in the small classes when es and in the large ones
    when eb; a large star implies a small one, so m = 1 - eb + es is 1 or 2
    and the balance is one interval test on bx.  Its ends are monotone in
    sx: sx <= q, c + es*sx >= 0 and r - sy <= (c + es*sx) // m bound sx
    above, the Y-side star term below.  That term never exceeds
    (c + es*sx) // m, since the numerators differ by es*(q-r) + eb*r >= 0,
    which is q - r >= 1 when m = 2.  So the largest sx under the upper
    bounds passes or none does; the witness takes it, then the largest bx
    and stars in the small classes first.
    """
    _require_instance(n, q)
    a, r = divmod(2 * n, q)
    if a == 0:
        return (n, q - 2 * n, 0, 0, n, 0, 0, 0)
    eb = int(_star_ok(a + 1, k, d))
    es = int(_star_ok(a, k, d))
    m = 1 - eb + es
    sx = min(q, (n + m * (q - r)) // (a + m - es),
             n // (a - es) if a > es else q)
    sy = q - sx
    c = n - a * sx
    bx = min(sx, r, (c + es * sx) // m)
    if bx < max(0, r - sy, -((es * (sy - r) + eb * r - c) // m)):
        return None
    by = r - bx
    ex = max(0, bx - c)
    ey = max(0, c - bx)
    x1p = max(0, ex - es * (sx - bx))
    y1p = max(0, ey - es * (sy - by))
    return (bx - x1p, sx - bx - ex + x1p, x1p, ex - x1p,
            by - y1p, sy - by - ey + y1p, y1p, ey - y1p)


def feasible_counts(n: int, q: int, k: int | float = UNBOUNDED,
                    d: int | float = UNBOUNDED) -> ClassCountVector | None:
    """Exact decision for (q, k, d) on K_{n,n}, returning a witness vector when feasible.

    Every forest class is one of the eight ClassCountVector shapes, and a
    star shape is used only where it meets the caps, so the witness
    realizes into an equitable (q, k, d)-tree-coloring.  It is the decider's
    vector as built, not re-checked.  Returns None when there is none.
    """
    _check_bound(k, "k")
    _check_bound(d, "d")
    counts = _witness_counts(n, q, k, d)
    return None if counts is None else ClassCountVector(*divmod(2 * n, q), *counts)


def feasible_11(n: int, q: int) -> bool:
    """Exact decision: does K_{n,n} admit an equitable (q,1,1)-tree-coloring?"""
    return _witness_counts(n, q, 1, 1) is not None


def feasible_inf2(n: int, q: int) -> ClassCountVector | None:
    """Exact decision for (q, inf, 2), returning a witness vector when feasible."""
    return feasible_counts(n, q, UNBOUNDED, 2)


def _threshold(n: int, k: int | float, d: int | float) -> int:
    """Least t with every t' >= t feasible for (t', k, d) on K_{n,n}, caps >= 1.

    From q = n on no class has more than 2 vertices, which meets every cap
    of at least 1, so the scan starts at q = n and stops at an infeasible q.
    """
    _require_instance(n, 1)
    t = n
    while t > 1 and _witness_counts(n, t - 1, k, d) is not None:
        t -= 1
    return t


def exact_va11(n: int) -> int:
    """Least t such that every t' >= t admits an equitable (t',1,1)-coloring."""
    return _threshold(n, 1, 1)


def exact_vainf2(n: int) -> int:
    """Least t such that every t' >= t admits an equitable (t',inf,2)-coloring."""
    return _threshold(n, UNBOUNDED, 2)


# ---- construction drivers ---------------------------------------------------


def construct_knn(n: int, q: int, k: int | float,
                  d: int | float) -> TreeColoring:
    """Build an equitable (q, k, d)-tree-coloring of K_{n,n} or raise.

    Even q uses the side split, whose one-sided classes meet any caps.  Odd
    q above va11_upper(n) with both caps at least 1 uses the disjoint-edge
    construction.  Any other q realizes the feasible_counts witness.
    Raises PreconditionError exactly when feasible_counts(n, q, k, d) is None.
    """
    _require_instance(n, q)
    _check_bound(k, "k")
    _check_bound(d, "d")
    if q % 2 == 0:
        return even_t_coloring(n, q)
    if q > va11_upper(n) and k >= 1 and d >= 1:
        return odd_q_11_coloring(n, q)
    witness = feasible_counts(n, q, k, d)
    if witness is None:
        raise PreconditionError(
            f"K_{{{n},{n}}} has no equitable ({q},{k},{d})-tree-coloring"
        )
    return _layout(q, witness._shapes())


def construct_knn_11(n: int, q: int) -> TreeColoring:
    """Build an equitable (q,1,1)-tree-coloring of K_{n,n} or raise."""
    return construct_knn(n, q, 1, 1)


def construct_knn_inf2(n: int, q: int) -> TreeColoring:
    """Build an equitable (q,inf,2)-tree-coloring of K_{n,n} or raise."""
    return construct_knn(n, q, UNBOUNDED, 2)


# ---- recognizing biclique inputs -------------------------------------------


def detect_balanced_biclique(g: Graph) -> tuple[list[int], list[int]] | None:
    """Return the two sides of g when it is some K_{n,n}, else None.

    The side containing vertex 0 comes first; both sides are sorted.  g is
    K_{n,n} exactly when vertex 0 has half the vertices as neighbors, ys,
    and every vertex's neighbor set is the side it is not on: ys for each
    vertex of xs, the rest, and xs for each vertex of ys.
    """
    _check_type(g, Graph, "graph")
    total = g.n
    adjacency = g.adjacency
    if total == 0 or len(adjacency[0]) * 2 != total:
        return None
    ys = adjacency[0]
    xs = frozenset(range(total)) - ys
    if not (all(adjacency[v] == ys for v in xs)
            and all(adjacency[v] == xs for v in ys)):
        return None
    return sorted(xs), sorted(ys)


def relabel_for_sides(coloring: TreeColoring, xs: list[int],
                      ys: list[int]) -> TreeColoring:
    """Transport a canonical K_{n,n} coloring onto sides that list 0..2n-1 once."""
    _check_type(coloring, TreeColoring, "coloring")
    _check_type(xs, list, "xs")
    _check_type(ys, list, "ys")
    n = len(xs)
    if len(ys) != n or coloring.n != 2 * n:
        raise PreconditionError("side lists do not match the coloring size")
    ids = [*xs, *ys]
    if not (all(_is_count(v, 0) for v in ids) and sorted(ids) == list(range(2 * n))):
        raise PreconditionError(f"side lists must hold each int id 0..{2 * n - 1} once")
    colors = [0] * (2 * n)
    for v, c in zip(ids, coloring.colors):
        colors[v] = c
    return TreeColoring(tuple(colors), coloring.t)

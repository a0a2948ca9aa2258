"""The exact decider for equitable tree-colorings of balanced complete bipartite graphs.

Vertex convention for K_{n,n}: side X occupies ids 0..n-1, side Y occupies
ids n..2n-1.  For q color classes write a = floor(2n/q) and r = 2n - a*q;
an equitable coloring then has exactly r classes of size a+1 and q-r of
size a.

A class induces a forest in K_{n,n} exactly when it is one-sided or a star
whose lone vertex sits on the other side: the eight ClassCountVector shapes.
The caps (k, d) only decide whether stars of size a+1 and of size a are
allowed, so one decider, feasible_counts, decides every cap pair; feasible_11
(degree and diameter cap 1) and feasible_inf2 (diameter cap 2) are cases.

It needs no graph and builds no coloring, so it imports only ``errors`` and
``values``; the constructions in ``bipartite`` realize its witness.
"""

from __future__ import annotations

from .errors import PreconditionError
from .values import UNBOUNDED, _check_bound, _is_count, _Value


def _require_instance(n: int, q: int) -> None:
    for name, value in (("side size n", n), ("class count q", q)):
        if not _is_count(value, 1):
            raise PreconditionError(f"{name} must be an int >= 1")


# ---- class-count vectors ----------------------------------------------------


class ClassCountVector(_Value):
    """Counts of the eight class shapes of an equitable tree-coloring of K_{n,n}.

    Shapes are keyed by bulk side and size: x1 counts classes of a+1
    X-vertices, x2 of a X-vertices, x1p of a X-vertices plus one Y-vertex,
    x2p of a-1 X-vertices plus one Y-vertex.  The y-fields mirror these
    with sides swapped.  Mixed classes induce stars centered on the lone
    opposite-side vertex.
    """

    a: int
    r: int
    x1: int
    x2: int
    x1p: int
    x2p: int
    y1: int
    y2: int
    y1p: int
    y2p: int

    def __init__(self, a: int, r: int, x1: int = 0, x2: int = 0, x1p: int = 0,
                 x2p: int = 0, y1: int = 0, y2: int = 0, y1p: int = 0,
                 y2p: int = 0) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "x1p", x1p)
        object.__setattr__(self, "x2p", x2p)
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "y2", y2)
        object.__setattr__(self, "y1p", y1p)
        object.__setattr__(self, "y2p", y2p)

    def counts(self) -> tuple[int, ...]:
        return (self.x1, self.x2, self.x1p, self.x2p,
                self.y1, self.y2, self.y1p, self.y2p)

    def _shapes(self) -> tuple[tuple[int, int, int], ...]:
        """The eight (count, from X, from Y) shapes, in field order."""
        a = self.a
        return ((self.x1, a + 1, 0), (self.x2, a, 0), (self.x1p, a, 1),
                (self.x2p, a - 1, 1), (self.y1, 0, a + 1), (self.y2, 0, a),
                (self.y1p, 1, a), (self.y2p, 1, a - 1))


# ---- exact feasibility ------------------------------------------------------


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

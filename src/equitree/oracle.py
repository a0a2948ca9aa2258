"""Exhaustive feasibility oracle for small instances.

A depth-first search assigns colors to vertices in descending degree
order, pruning on class-size caps (they imply that the uncolored
vertices can still fill every class), the structural checks (forest,
degree cap, diameter cap) restricted to the component the new vertex
joins, and optionally on color symmetry.  It is meant as ground truth
against the closed-form feasibility predicates, so the pruning is
deliberately conservative.  The search is one loop over an explicit
index, so its depth is not limited.  It keeps the vertices of each color
class as a set, so the new vertex's class neighbors are one set
intersection.  A vertex that joins only lone vertices makes a star, whose
degree and diameter are known; with no diameter cap, a vertex with one
class neighbor hangs a leaf on a tree; every other component it joins is
measured through verify's kernel, coloring._measure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .coloring import Params, TreeColoring, _check_args, _measure
from .errors import PreconditionError
from .graph import UNBOUNDED, Graph, _check_type, _is_count, complete_bipartite

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchBudget:
    """Caps on the exhaustive search: node count and wall-clock seconds."""

    max_nodes: int = 100_000_000
    time_cap: float = 60.0

    def __post_init__(self) -> None:
        # Written so that a NaN time cap fails too.
        cap = self.time_cap
        if (not _is_count(self.max_nodes, 1) or isinstance(cap, bool)
                or not isinstance(cap, (int, float)) or not cap > 0):
            raise PreconditionError(
                "search budget needs an int max_nodes >= 1 and a positive time_cap"
            )


@dataclass(frozen=True)
class SearchResult:
    status: str
    coloring: TreeColoring | None = None
    nodes: int = 0


def brute_force_search(g: Graph, params: Params,
                       budget: SearchBudget | None = None,
                       symmetry: bool = True) -> SearchResult:
    """Decide whether g has an equitable (t, k, d)-tree-coloring.

    With symmetry on, new colors are introduced in ascending order; this
    prunes relabelings of the same partition and never changes the
    verdict.  Turning it off explores the raw space, which the test
    suite uses to cross-check the pruned search on tiny graphs.  On the
    empty graph the loop never runs: feasible after 0 nodes.
    """
    _check_args(g, params)
    if budget is None:
        budget = SearchBudget()
    _check_type(budget, SearchBudget, "budget")
    n, t, k, d = g.n, params.t, params.k, params.d
    adjacency = g.adjacency
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    # No class passes hi and at most full classes reach it, so the classes
    # below n // t never lack more vertices than remain uncolored.  If t | n,
    # at_cap == full only once all are colored: no class is at hi - 1.
    hi = -(-n // t)
    full = n % t or t
    colors = [0] * n
    sizes = [0] * (t + 1)
    # members[c]: the vertices colored c.  same[v], while v is colored: the
    # colored neighbors of v in v's class.
    members: list[set[int]] = [set() for _ in range(t + 1)]
    same: list[set[int]] = [set() for _ in range(n)]
    # used[i]: the largest color among the first i vertices of the order.
    used = [0] * (n + 1)
    nodes, at_cap = 0, 0
    max_nodes, monotonic = budget.max_nodes, time.monotonic
    deadline = monotonic() + budget.time_cap
    index = 0
    while index < n:
        # The color counter of this index is the color its vertex holds;
        # take it back, then try the next one.
        v = order[index]
        c = colors[v]
        if c:
            for u in same[v]:
                same[u].remove(v)
            members[c].remove(v)
            if sizes[c] == hi:
                at_cap -= 1
            sizes[c] -= 1
            colors[v] = 0
        top = used[index] + 1 if symmetry and used[index] < t else t
        c += 1
        while c <= top and (sizes[c] >= hi or (
                sizes[c] == hi - 1 and at_cap == full)):
            c += 1
        if c > top:
            index -= 1
            if index < 0:
                return SearchResult(INFEASIBLE, None, nodes)
            continue
        nodes += 1
        if nodes > max_nodes or (
                nodes % 1024 == 0 and monotonic() > deadline):
            return SearchResult(BUDGET_EXCEEDED, None, nodes)
        colors[v] = c
        sizes[c] += 1
        if sizes[c] == hi:
            at_cap += 1
        # Every accepted partial coloring meets the caps, so only v and its
        # new class neighbors can break the degree cap, and only v's
        # component can hold a cycle or exceed the diameter cap.
        cls = members[c]
        mates = same[v] = cls & adjacency[v]
        cls.add(v)
        if mates:
            star = True
            for u in mates:
                if same[u]:
                    star = False
                same[u].add(v)
            if len(mates) > k:
                continue
            if star:
                # Every mate was alone: a star centred on v, of degree len(mates).
                diameter = 1 if len(mates) == 1 else 2
            elif any(len(same[u]) > k for u in mates):
                continue
            elif d == UNBOUNDED and len(mates) == 1:
                # Every accepted class is a forest, so one edge into it
                # hangs a leaf on a tree, whose diameter no cap bounds.
                diameter = 0
            else:
                diameter = _measure(same, v)[1]
            if diameter is None or diameter > d:
                continue
        used[index + 1] = max(used[index], c)
        index += 1
    return SearchResult(FEASIBLE, TreeColoring(tuple(colors), t), nodes)


@dataclass(frozen=True)
class Disagreement:
    n: int
    q: int
    variant: str
    oracle_status: str
    formula_feasible: bool


@dataclass(frozen=True)
class CrossCheckReport:
    checked: int
    disagreements: tuple[Disagreement, ...]

    @property
    def clean(self) -> bool:
        return not self.disagreements


def cross_check_bipartite(n_max: int, q_max: int,
                          budget: SearchBudget | None = None) -> CrossCheckReport:
    """Compare both feasibility formulas against the oracle on K_{n,n}.

    Runs every n <= n_max and q <= q_max for both the (q,1,1) and the
    (q,inf,2) variant.  A budget-exceeded search counts as a
    disagreement, so a clean report really means full agreement.
    A bound below 1 (an empty grid) or not an int raises PreconditionError.
    """
    if not (_is_count(n_max, 1) and _is_count(q_max, 1)):
        raise PreconditionError("cross-check needs int n_max >= 1 and q_max >= 1")
    from .bipartite import feasible_11, feasible_inf2

    checked = 0
    found: list[Disagreement] = []
    for n in range(1, n_max + 1):
        g = complete_bipartite(n)
        for q in range(1, q_max + 1):
            cases = (
                ("11", Params(q, 1, 1), feasible_11(n, q)),
                ("inf2", Params(q, UNBOUNDED, 2), feasible_inf2(n, q) is not None),
            )
            for variant, params, predicted in cases:
                result = brute_force_search(g, params, budget)
                checked += 1
                agreed = (
                    result.status != BUDGET_EXCEEDED
                    and (result.status == FEASIBLE) == predicted
                )
                if not agreed:
                    found.append(
                        Disagreement(n, q, variant, result.status, predicted)
                    )
    return CrossCheckReport(checked, tuple(found))

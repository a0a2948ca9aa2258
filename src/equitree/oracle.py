"""Exhaustive feasibility oracle for small instances.

A depth-first search assigns colors to vertices in descending degree
order, pruning on class-size caps, an unfillable-deficit bound, the
structural checks (forest, degree cap, diameter cap) restricted to the
component the new vertex joins, and optionally on color symmetry.  It is
meant as ground truth against the closed-form feasibility predicates, so
the pruning is deliberately conservative.  A tree component's diameter
comes from the two BFS sweeps verify uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bipartite import feasible_11, feasible_inf2
from .coloring import Params, TreeColoring, _sweep
from .errors import PreconditionError
from .graph import UNBOUNDED, Graph, complete_bipartite

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchBudget:
    """Caps on the exhaustive search: node count and wall-clock seconds."""

    max_nodes: int = 100_000_000
    time_cap: float = 60.0

    def __post_init__(self) -> None:
        if self.max_nodes < 1 or self.time_cap <= 0:
            raise PreconditionError("search budget must be positive")


@dataclass(frozen=True)
class SearchResult:
    status: str
    coloring: TreeColoring | None = None
    nodes: int = 0


class _BudgetExhausted(Exception):
    pass


def brute_force_search(g: Graph, params: Params,
                       budget: SearchBudget | None = None,
                       symmetry: bool = True) -> SearchResult:
    """Decide whether g has an equitable (t, k, d)-tree-coloring.

    With symmetry on, new colors are introduced in ascending order; this
    prunes relabelings of the same partition and never changes the
    verdict.  Turning it off explores the raw space, which the test
    suite uses to cross-check the pruned search on tiny graphs.
    """
    if budget is None:
        budget = SearchBudget()
    n, t = g.n, params.t
    if n == 0:
        return SearchResult(FEASIBLE, TreeColoring((), t), 0)
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    lo, hi = n // t, -(-n // t)
    full_allowed = n % t
    colors = [0] * n
    sizes = [0] * (t + 1)
    state = {"nodes": 0, "deficit": t * lo, "at_cap": 0}
    deadline = time.monotonic() + budget.time_cap

    def component_ok(v: int, c: int) -> bool:
        """Check the class-c component of v after the tentative assignment."""
        if not any(colors[u] == c for u in g.adjacency[v]):
            return True
        comp = [v]
        seen = {v}
        for u in comp:
            for w in g.adjacency[u]:
                if colors[w] == c and w not in seen:
                    seen.add(w)
                    comp.append(w)
        inside = {u: g.adjacency[u] & seen for u in comp}
        if sum(map(len, inside.values())) != 2 * (len(comp) - 1):
            return False
        if any(len(nb) > params.k for nb in inside.values()):
            return False
        # A tree: verify's two sweeps give its diameter.
        return _sweep(inside, _sweep(inside, v)[0][-1])[1] <= params.d

    def descend(index: int, max_used: int) -> bool:
        if index == n:
            return True
        v = order[index]
        top = t if not symmetry else min(t, max_used + 1)
        remaining_after = n - index - 1
        for c in range(1, top + 1):
            if sizes[c] >= hi:
                continue
            if full_allowed and sizes[c] == hi - 1 and state["at_cap"] == full_allowed:
                continue
            state["nodes"] += 1
            if state["nodes"] > budget.max_nodes:
                raise _BudgetExhausted
            if state["nodes"] % 1024 == 0 and time.monotonic() > deadline:
                raise _BudgetExhausted
            was_below = sizes[c] < lo
            colors[v] = c
            sizes[c] += 1
            if was_below:
                state["deficit"] -= 1
            if full_allowed and sizes[c] == hi:
                state["at_cap"] += 1
            ok = state["deficit"] <= remaining_after and component_ok(v, c)
            if ok and descend(index + 1, max(max_used, c)):
                return True
            if full_allowed and sizes[c] == hi:
                state["at_cap"] -= 1
            if was_below:
                state["deficit"] += 1
            sizes[c] -= 1
            colors[v] = 0
        return False

    try:
        found = descend(0, 0)
    except _BudgetExhausted:
        return SearchResult(BUDGET_EXCEEDED, None, state["nodes"])
    if not found:
        return SearchResult(INFEASIBLE, None, state["nodes"])
    return SearchResult(FEASIBLE, TreeColoring(tuple(colors), t), state["nodes"])


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
    """
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

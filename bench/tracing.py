"""Span tracing of equitree from outside the package.

The tracer replaces selected public functions with timing wrappers at every
module attribute they are reached through (``equitree.sparse.verify`` and
``equitree.cli.parse_edge_list`` as much as ``equitree.coloring.verify``),
so calls made inside the package are caught without editing ``src/``.
Private helpers and nested closures are not wrapped; their time counts as
self time of the nearest wrapped caller.

Each span records its function, start, end, parent span, the item it ran
for, whether it returned, and a work count.  Spans stay in memory until the
run ends.  A span's self time is its duration minus the durations of its
child spans.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> (module, functions).  A function belongs to exactly one layer.
LAYERS = {
    "graph.build": ("graph", ("graph_from_edges",)),
    "graph.parse_edge_list": ("graph", ("parse_edge_list",)),
    "graph.remove_vertices": ("graph", ("remove_vertices",)),
    "coloring.verify": ("coloring", ("verify",)),
    "coloring.certificate": ("coloring", ("certificate_from_coloring",
                                          "coloring_from_certificate")),
    "bipartite.feasible": ("bipartite", ("feasible_11", "feasible_inf2",
                                         "exact_va11", "exact_vainf2")),
    "bipartite.construct": ("bipartite", (
        "construct_knn_11", "construct_knn_inf2", "even_t_coloring",
        "odd_q_11_coloring", "two_solution_coloring", "realize_class_counts",
        "odd_q_inf2_counts", "relabel_for_sides", "detect_balanced_biclique")),
    "sparse.find": ("sparse", ("find_reducible_girth5", "find_reducible_girth6",
                               "find_reducible_outerplanar")),
    "sparse.fill": ("sparse", ("fill_sequence",)),
    "sparse.extend": ("sparse", ("extend_coloring",)),
    "sparse.color": ("sparse", ("color_girth5", "color_girth6",
                                "color_outerplanar")),
    "oracle.search": ("oracle", ("brute_force_search",)),
    "cli.main": ("cli", ("main",)),
    # Recorded by hand in the CLI child around ``import equitree.cli``.
    "cli.import": ("cli", ()),
}
LAYER_OF = {name: layer for layer, (_, names) in LAYERS.items() for name in names}
LAYER_OF["import"] = "cli.import"

MODULES = ("graph", "coloring", "bipartite", "sparse", "oracle", "cli")

# Field positions in a span record.
FUNC, START, END, PARENT, ITEM, OK, WORK = range(7)


def _work(func: str, args: tuple, result) -> int:
    """Work count of one call: vertices verified, or oracle nodes visited."""
    if func == "verify":
        return args[0].n
    if func == "brute_force_search":
        return result.nodes
    return 0


class Tracer:
    """Installs span wrappers into the loaded equitree modules and records spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [sys.modules["equitree"]] + [
            sys.modules[f"equitree.{m}"] for m in MODULES
            if f"equitree.{m}" in sys.modules
        ]
        wrappers = {}
        for module, names in LAYERS.values():
            home = sys.modules.get(f"equitree.{module}")
            if home is None:
                continue
            for name in names:
                original = getattr(home, name)
                wrappers[id(original)] = self._wrap(original, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, func: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [func, 0.0, 0.0, stack[-1] if stack else -1, self.item, False, 0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            record[OK] = True
            record[WORK] = _work(func, args, result)
            return result

        return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the time covered by its child spans."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_totals(spans: list[list], scale: list[float]) -> dict[str, dict]:
    """Self seconds (each multiplied by its scale), entry calls and work per layer.

    An entry call is a span whose parent is outside its layer, so a layer
    function calling another of the same layer counts once.
    """
    own = [t * k for t, k in zip(self_times(spans), scale)]
    totals = {layer: {"self_s": 0.0, "calls": 0, "work": 0} for layer in LAYERS}
    for i, s in enumerate(spans):
        layer = LAYER_OF[s[FUNC]]
        entry = totals[layer]
        entry["self_s"] += own[i]
        entry["work"] += s[WORK]
        parent = s[PARENT]
        if parent < 0 or LAYER_OF[spans[parent][FUNC]] != layer:
            entry["calls"] += 1
    return totals


def closed_form_counts(spans: list[list]) -> tuple[int, int]:
    """(returned, called) for odd_q_inf2_counts, the K_{n,n} closed form."""
    calls = [s for s in spans if s[FUNC] == "odd_q_inf2_counts"]
    return sum(1 for s in calls if s[OK]), len(calls)


def write_spans(path, spans: list[list]) -> None:
    """Write spans as tab-separated lines: function, start, end, parent, item, ok, work."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("func\tstart\tend\tparent\titem\tok\twork\n")
        for s in spans:
            out.write(f"{s[FUNC]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[PARENT]}"
                      f"\t{s[ITEM]}\t{int(s[OK])}\t{s[WORK]}\n")


def read_spans(path) -> list[list]:
    """Inverse of write_spans."""
    with open(path, encoding="utf-8") as src:
        next(src)
        return [[f, float(a), float(b), int(p), int(i), ok == "1", int(w)]
                for f, a, b, p, i, ok, w in (line.rstrip("\n").split("\t")
                                             for line in src)]

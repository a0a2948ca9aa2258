"""Host speed, measured with fixed pure-Python probes.

The machines this benchmark runs on are shared, and the same code can run
15-20% slower from one minute to the next.  A slice of breadth-first
searches over adjacency frozensets, the kind of work equitree does, slows
down with it, so timing probes between items tracks the host's speed.
Every timing the benchmark gates on is divided by the slowdown, which
turns it into seconds at the reference speed; the raw figures are
recorded next to them.

In-process workloads time the slice itself.  The CLI workload's time is
mostly interpreter start-up and imports, on whichever core is free, so
its probe is a fresh interpreter that imports the standard-library
modules equitree.cli uses and exits.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass


def _graph(n: int = 300) -> list[frozenset[int]]:
    rng = random.Random(5)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in rng.sample(range(n), 4):
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
    return [frozenset(a) for a in adj]


_GRAPH = _graph()


def slice_seconds() -> float:
    """Wall time of one fixed slice of BFS and set-intersection work."""
    adj = _GRAPH
    began = time.perf_counter()
    for s in range(0, len(adj), 30):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        {v: adj[v] & dist.keys() for v in queue}  # built and dropped, like verify's
    return time.perf_counter() - began


def process_seconds() -> float:
    """Wall time of a fresh interpreter that imports what equitree.cli imports."""
    began = time.perf_counter()
    # No timeout: with one, waiting polls in sleeps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import argparse, dataclasses, json, pathlib, typing"],
                   check=True)
    return time.perf_counter() - began


@dataclass(frozen=True)
class Probe:
    measure: object  # () -> seconds
    reference_s: float  # what one probe takes at the reference speed
    interval_s: float  # between items, one probe per this many seconds gone by

    def slowdown(self, samples: list[float]) -> float:
        """How much slower than the reference the host ran while these probes ran."""
        return statistics.median(samples) / self.reference_s


# Reference times: a 2-core Intel Xeon under CPython 3.11 runs a slice in
# 3.5 to 5.5 ms and the probe process in 80 to 100 ms.
SLICE = Probe(slice_seconds, 0.004, 0.1)
PROCESS = Probe(process_seconds, 0.085, 0.5)
# Probes timed at once after a long item, at most.
MAX_BURST = 10


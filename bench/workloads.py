"""The benchmark's four workloads.

Each workload turns a seed into a fixed list of items (one pass), runs one
item at a time against equitree as users call it, and checks every output
with the independent rules in checks.py.  Item counts and input sizes do
not depend on the seed; the seed picks orders, random graph structure and
query values, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import checks
import speed
import tracing
from checks import INF, VARIANT_CAPS


@dataclass
class Item:
    kind: str
    args: tuple
    too_deep: bool = False  # expected to fail today: a known defect kept in view


class Workload:
    """One closed loop, one item in flight, in this process."""

    name = ""
    why = ""
    imports = ("equitree",)
    measures_children = False
    probe = speed.SLICE

    def setup(self, eq, rng) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item) -> tuple[object, int]:
        """Run one item; return its output and the number of colorings delivered."""
        raise NotImplementedError

    def check(self, item: Item, output) -> str | None:
        """None when the output is right, else what is wrong with it."""
        raise NotImplementedError

    def trace_on(self, tracer) -> None:
        tracer.install()

    def trace_off(self, tracer) -> None:
        tracer.uninstall()


class KnnSweep(Workload):
    """One item per n: both thresholds, then every q <= 2n+2 in both variants."""

    name = "knn_sweep"
    why = ("K_{n,n} thresholds, feasibility and about 7,000 constructed and "
           "verified colorings: verify dominates, no sparse code runs")
    N_MAX = 60

    def __init__(self) -> None:
        self.thresholds: dict[int, tuple[int, int]] = {}
        self.feasible: dict[tuple[int, int, str], bool] = {}

    def setup(self, eq, rng):
        self.eq = eq
        ns = list(range(1, self.N_MAX + 1))
        rng.shuffle(ns)
        items = []
        for n in ns:
            qs = list(range(1, 2 * n + 3))
            rng.shuffle(qs)
            items.append(Item("n", (n, eq.complete_bipartite(n), qs)))
        return items

    def run(self, item):
        eq = self.eq
        n, g, qs = item.args
        thresholds = eq.exact_va11(n), eq.exact_vainf2(n)
        built = []
        for q in qs:
            per_q = {}
            if eq.feasible_11(n, q):
                coloring = eq.construct_knn_11(n, q)
                per_q["11"] = coloring, eq.verify(g, coloring, eq.Params(q, 1, 1)).verdict
            if eq.feasible_inf2(n, q) is not None:
                coloring = eq.construct_knn_inf2(n, q)
                per_q["inf2"] = coloring, eq.verify(g, coloring, eq.Params(q, eq.UNBOUNDED, 2)).verdict
            built.append(per_q)
        return (thresholds, built), sum(len(per_q) for per_q in built)

    def check(self, item, output):
        n, _, qs = item.args
        thresholds, built = output
        if n not in self.thresholds:
            self.thresholds[n] = tuple(checks.knn_threshold(n, *VARIANT_CAPS[v])
                                       for v in ("11", "inf2"))
        if thresholds != self.thresholds[n]:
            return f"thresholds {thresholds} for n={n}, expected {self.thresholds[n]}"
        for q, per_q in zip(qs, built):
            for variant, caps in VARIANT_CAPS.items():
                key = (n, q, variant)
                if key not in self.feasible:
                    self.feasible[key] = checks.knn_feasible(n, q, *caps)
                if (variant in per_q) != self.feasible[key]:
                    return (f"({q},{variant}) on K_{{{n},{n}}}: feasible is "
                            f"{self.feasible[key]}, program disagrees")
                if variant not in per_q:
                    continue
                coloring, verdict = per_q[variant]
                if not verdict:
                    return f"verify rejected the ({q},{variant}) coloring of K_{{{n},{n}}}"
                if coloring.t != q:
                    return f"coloring has t={coloring.t}, expected {q}"
                defect = checks.check_knn_coloring(n, list(coloring.colors), q, *caps)
                if defect:
                    return f"({q},{variant}) coloring of K_{{{n},{n}}}: {defect}"
        return None


class SparsePeel(Workload):
    name = "sparse_peel"
    why = ("outerplanar, hex-grid and dodecahedron colorings: peel levels, "
           "remove_vertices and verify on large forests; path(2100) is a counted failure")
    # Closely spaced sizes, so that neighbouring items in latency order are
    # close and a seed that reorders a few of them barely moves a quantile.
    OUTERPLANAR = (100, 140, 180, 220, 260, 300, 340)
    HEX = tuple(range(3, 17))
    # Deep enough to exhaust the interpreter's recursion limit in the
    # one-level-per-t-vertices recursion; it stays in as a visible failure.
    TOO_DEEP_PATH = 2100

    def setup(self, eq, rng):
        self.eq = eq
        items = []
        for n in self.OUTERPLANAR:
            g = eq.maximal_outerplanar_random(n, rng.randrange(2**31))
            items.extend(Item("outerplanar", (g, t)) for t in (2, 3, 7))
        for side in self.HEX:
            g = eq.hex_grid(side, side)
            items.extend(Item("girth6", (g, t)) for t in (2, 3))
        g = eq.dodecahedron()
        items.extend(Item("girth5", (g, t)) for t in range(3, 21))
        items.append(Item("outerplanar", (eq.path(self.TOO_DEEP_PATH), 2), too_deep=True))
        rng.shuffle(items)
        return items

    def run(self, item):
        g, t = item.args
        return getattr(self.eq, "color_" + item.kind)(g, t), 1

    def check(self, item, output):
        g, t = item.args
        if output.t != t:
            return f"coloring has t={output.t}, expected {t}"
        defect = checks.check_tree_coloring(g.adjacency, list(output.colors), t)
        return f"color_{item.kind} on {g.n} vertices, t={t}: {defect}" if defect else None


class OracleSearch(Workload):
    name = "oracle_search"
    why = ("exhaustive search on every K_{n,n} with n <= 8 and a few capped "
           "dodecahedron searches: DFS and component checks, nothing constructed")
    N_MAX = 8
    DODECAHEDRON = ((2, 1, 1), (2, INF, 2), (3, 1, 1), (3, 2, 2), (4, 0, 0), (5, 0, 0))
    DODECAHEDRON_NODES = 200_000

    def setup(self, eq, rng):
        self.eq = eq
        # Closed forms to compare verdicts with, taken before any tracing
        # wraps them so that checking adds no spans.
        self.closed_form = {
            "11": eq.feasible_11,
            "inf2": lambda n, q, f=eq.feasible_inf2: f(n, q) is not None,
        }
        items = []
        for n in range(1, self.N_MAX + 1):
            g = eq.complete_bipartite(n)
            for q in range(1, 2 * n + 3):
                for variant, caps in VARIANT_CAPS.items():
                    items.append(Item("knn", (g, eq.Params(q, *caps), n, variant)))
        g = eq.dodecahedron()
        budget = eq.SearchBudget(max_nodes=self.DODECAHEDRON_NODES, time_cap=600.0)
        for t, k, d in self.DODECAHEDRON:
            items.append(Item("dodecahedron", (g, eq.Params(t, k, d), budget)))
        rng.shuffle(items)
        return items

    def run(self, item):
        if item.kind == "knn":
            result = self.eq.brute_force_search(*item.args[:2])
        else:
            result = self.eq.brute_force_search(*item.args)
        return result, int(result.coloring is not None)

    def check(self, item, output):
        g, params = item.args[:2]
        t, k, d = params.t, params.k, params.d
        found = output.status == self.eq.FEASIBLE
        if item.kind == "dodecahedron":
            if not found:
                return f"dodecahedron ({t},{k},{d}): status {output.status}, expected feasible"
            defect = checks.check_tree_coloring(g.adjacency, list(output.coloring.colors), t, k, d)
            return f"dodecahedron ({t},{k},{d}): {defect}" if defect else None
        n, variant = item.args[2:]
        expected = checks.knn_feasible(n, t, k, d)
        if self.closed_form[variant](n, t) != expected:
            return f"closed form for ({t},{variant}) on K_{{{n},{n}}} disagrees with the reference"
        if output.status not in (self.eq.FEASIBLE, self.eq.INFEASIBLE) or found != expected:
            return f"({t},{variant}) on K_{{{n},{n}}}: status {output.status}, feasible is {expected}"
        if found:
            defect = checks.check_knn_coloring(n, list(output.coloring.colors), t, k, d)
            if defect:
                return f"({t},{variant}) coloring of K_{{{n},{n}}}: {defect}"
        return None


def _cap_flag(cap: float) -> str:
    return "inf" if cap == INF else str(cap)


class CliRoundtrip(Workload):
    """Seeded gen -> construct -> verify pipelines, one CLI process at a time.

    Every pipeline also verifies a tampered certificate (exit 1 expected)
    and asks feasible and exact-va.  An item is one CLI process.
    """

    name = "cli_roundtrip"
    why = ("gen, construct, verify, feasible and exact-va as processes: the "
           "only workload where start-up, parsing, Graph validation and JSON matter")
    imports = ("equitree", "equitree.cli")
    measures_children = True
    probe = speed.PROCESS
    # Graded sizes, so the slow end of the latency order is many similar
    # processes rather than a few that a seed can reorder.
    KNN = (50, 100, 150, 200, 250, 300)
    OUTERPLANAR = ((150, 3), (200, 2), (300, 7))
    STEPS = ("gen", "construct", "verify", "verify_tampered", "feasible", "exact_va")

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.graph = workdir / "graph.txt"
        self.cert = workdir / "cert.json"
        self.bad = workdir / "tampered.json"
        self.spans = workdir / "spans.tsv"
        self.tracer = None
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.adjacency: list[set[int]] = []

    def setup(self, eq, rng):
        pipelines = []
        for n in self.KNN:
            variant = rng.choice(tuple(VARIANT_CAPS))
            caps = VARIANT_CAPS[variant]
            # Classes of at least four vertices, so that a C4 can be planted.
            qs = []
            for q in range(8, n // 2 + 1):
                if len(qs) == 13:
                    break
                if checks.knn_feasible(n, q, *caps):
                    qs.append(q)
            pipelines.append(dict(family="knn", n=n, t=rng.choice(qs), caps=caps,
                                  variant=variant, q=rng.randrange(2, 41)))
        for n, t in self.OUTERPLANAR:
            pipelines.append(dict(family="outerplanar", n=n, t=t, caps=(INF, INF),
                                  seed=rng.randrange(2**31),
                                  variant=rng.choice(tuple(VARIANT_CAPS)),
                                  q=rng.randrange(2, 41)))
        rng.shuffle(pipelines)
        return [Item(step, (p,)) for p in pipelines for step in self.STEPS]

    def trace_on(self, tracer) -> None:
        self.tracer = tracer

    def trace_off(self, tracer) -> None:
        self.tracer = None

    def _argv(self, step: str, p: dict) -> list[str]:
        if step == "gen":
            argv = ["gen", "--family", p["family"], "--n", str(p["n"])]
            return argv + (["--seed", str(p["seed"])] if "seed" in p else [])
        if step == "construct":
            k, d = p["caps"]
            return ["construct", "--graph", str(self.graph), "--t", str(p["t"]),
                    "--k", _cap_flag(k), "--d", _cap_flag(d)]
        if step in ("verify", "verify_tampered"):
            cert = self.cert if step == "verify" else self.bad
            return ["verify", "--graph", str(self.graph), "--cert", str(cert)]
        if step == "feasible":
            return ["feasible", "--variant", p["variant"], "--knn", str(p["n"]),
                    "--q", str(p["q"])]
        return ["exact-va", "--variant", p["variant"], "--knn", str(p["n"])]

    def run(self, item):
        step, (p,) = item.kind, item.args
        if step == "gen":
            for stale in (self.graph, self.cert, self.bad):
                stale.unlink(missing_ok=True)
        argv = self._argv(step, p)
        if self.tracer is None:
            command = [sys.executable, "-m", "equitree.cli", *argv]
        else:
            command = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                       str(self.spans), *argv]
        target = {"gen": self.graph, "construct": self.cert}.get(step)
        if target is None:
            done = subprocess.run(command, env=self.env, cwd=self.root, timeout=120,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            output = done.stdout
        else:
            with open(target, "w", encoding="utf-8") as sink:
                done = subprocess.run(command, env=self.env, cwd=self.root, timeout=120,
                                      stdout=sink, stderr=subprocess.PIPE, text=True)
            output = None
        if self.tracer is not None:
            self._merge_spans()
        return (done.returncode, output, done.stderr), int(step == "construct" and done.returncode == 0)

    def _merge_spans(self) -> None:
        spans = self.tracer.spans
        offset = len(spans)
        for span in tracing.read_spans(self.spans):
            if span[tracing.PARENT] >= 0:
                span[tracing.PARENT] += offset
            span[tracing.ITEM] = self.tracer.item
            spans.append(span)

    def check(self, item, output):
        step, (p,) = item.kind, item.args
        code, stdout, stderr = output
        n = p["n"]
        if step == "gen":
            if code != 0:
                return f"gen exited {code}: {stderr.strip()}"
            text = self.graph.read_text(encoding="utf-8")
            if p["family"] == "knn":
                return checks.knn_edge_defect(n, text)
            defect, self.adjacency = checks.outerplanar_edge_defect(n, text)
            return defect
        if step == "construct":
            return self._check_certificate(code, stderr, p)
        if step == "verify":
            return None if (code, stdout) == (0, "valid\n") else f"verify gave {code} {stdout!r}"
        if step == "verify_tampered":
            ok = code == 1 and stdout.startswith("invalid: ")
            return None if ok else f"tampered certificate gave {code} {stdout!r}"
        caps = VARIANT_CAPS[p["variant"]]
        if step == "exact_va":
            want = checks.knn_threshold(n, *caps)
            return None if (code, stdout) == (0, f"{want}\n") else f"exact-va gave {code} {stdout!r}, expected {want}"
        q = p["q"]
        if not checks.knn_feasible(n, q, *caps):
            return None if (code, stdout) == (1, "infeasible\n") else f"feasible gave {code} {stdout!r}, expected infeasible"
        lines = stdout.splitlines()
        if code != 0 or not lines or lines[0] != "feasible":
            return f"feasible gave {code} {stdout!r}, expected feasible"
        if p["variant"] == "11":
            return None if len(lines) == 1 else f"unexpected output {stdout!r}"
        return checks.witness_defect(n, q, json.loads(lines[1]))

    def _check_certificate(self, code: int, stderr: str, p: dict) -> str | None:
        if code != 0:
            return f"construct exited {code}: {stderr.strip()}"
        cert = json.loads(self.cert.read_text(encoding="utf-8"))
        t, (k, d), n = p["t"], p["caps"], p["n"]
        header = {"t": t, "k": None if k == INF else k, "d": None if d == INF else d}
        if any(cert.get(key) != value for key, value in header.items()):
            return f"certificate header {dict((key, cert.get(key)) for key in header)}, expected {header}"
        colors = cert.get("colors")
        if p["family"] == "knn":
            if cert.get("n_vertices") != 2 * n:
                return f"certificate covers {cert.get('n_vertices')} vertices, expected {2 * n}"
            defect = checks.check_knn_coloring(n, colors, t, k, d)
            tampered = checks.plant_c4(colors, n)
            caught = checks.check_knn_coloring(n, tampered, t, k, d)
        else:
            if cert.get("n_vertices") != n:
                return f"certificate covers {cert.get('n_vertices')} vertices, expected {n}"
            defect = checks.check_tree_coloring(self.adjacency, colors, t)
            tampered = checks.break_equitability(colors, t)
            caught = checks.check_tree_coloring(self.adjacency, tampered, t)
        if defect:
            return f"certificate: {defect}"
        if caught is None:
            return "the checker accepted a tampered certificate"
        self.bad.write_text(json.dumps(dict(cert, colors=tampered)), encoding="utf-8")
        return None


def make(name: str, root: Path, workdir: Path) -> Workload:
    if name == CliRoundtrip.name:
        return CliRoundtrip(root, workdir)
    return {w.name: w for w in (KnnSweep, SparsePeel, OracleSearch)}[name]()


NAMES = (KnnSweep.name, SparsePeel.name, OracleSearch.name, CliRoundtrip.name)

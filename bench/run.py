"""Benchmark for equitree: one workload per run, checked end to end.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` with the interpreter's default flags, so the
constructors' ``__debug__`` self-checks stay on, as for users.

A run sets up the workload several times (fresh import of equitree plus
input generation, all from the seed) and reports the median as
``setup_s``.  It then runs whole passes over the item list, one item at a
time, until at least ``--seconds`` have gone by and at least two passes
are done.  Every output is checked by checks.py, never by equitree.verify.
Timings are divided by the host slowdown that speed.py measures during
each pass, and an item's latency is the median of its repetitions.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced, and the last line holds
the per-layer metrics of the traced passes, per pass.  The line before it
records the environment and the details behind the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_PASSES = 2


def fresh_import(names: tuple[str, ...]):
    """Import equitree from scratch, as a new process would."""
    for key in [k for k in sys.modules if k == "equitree" or k.startswith("equitree.")]:
        del sys.modules[key]
    for name in names:
        importlib.import_module(name)
    return sys.modules["equitree"]


def environment(seed: int) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), "")
    except OSError:
        cpu = ""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "equitree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or "unknown",
        "python": platform.python_version(),
        "optimize": sys.flags.optimize,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Pass:
    def __init__(self, traced: bool, probe: speed.Probe) -> None:
        self.traced = traced
        self.probe = probe
        self.latencies: list[float] = []  # seconds per attempted item
        self.busy = 0.0  # seconds inside the program, summed over items
        self.ok = 0
        self.delivered = 0
        self.probes: list[float] = []  # host-speed probes timed during the pass

    @property
    def slowdown(self) -> float:
        return self.probe.slowdown(self.probes)


def run_passes(workload, items, seconds: float, tracer):
    """Closed loop over whole passes; returns the passes and the failures."""
    passes: list[Pass] = []
    failures: list[tuple[object, str, bool]] = []  # item, reason, wrong answer
    clock = time.perf_counter
    start = clock()
    while len(passes) < MIN_PASSES or clock() - start < seconds:
        probe = workload.probe
        current = Pass(tracer is not None and len(passes) % 2 == 1, probe)
        passes.append(current)
        current.probes.append(probe.measure())
        last_probe = clock()
        if current.traced:
            workload.trace_on(tracer)
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.item = (len(passes) - 1) * len(items) + index
            began = clock()
            try:
                output, delivered = workload.run(item)
            except Exception as exc:  # a failed item is counted, not fatal
                latency = clock() - began
                failures.append((item, f"raised {type(exc).__name__}: {exc}", False))
                defect = None
                delivered = -1
            else:
                latency = clock() - began
                try:
                    defect = workload.check(item, output)
                except Exception as exc:  # malformed output the checker cannot read
                    defect = f"unreadable output: {type(exc).__name__}: {exc}"
                if defect:
                    failures.append((item, defect, True))
            current.latencies.append(latency)
            current.busy += latency
            if delivered >= 0 and not defect:
                current.ok += 1
                current.delivered += delivered
            # One probe per interval gone by, so that probes sample the
            # pass evenly in time even across long items.
            due = min(int((clock() - last_probe) / probe.interval_s), speed.MAX_BURST)
            if due:
                current.probes.extend(probe.measure() for _ in range(due))
                last_probe = clock()
        if current.traced:
            workload.trace_off(tracer)
    return passes, failures


def end_to_end(workload, items, passes, setup_s) -> tuple[dict, dict]:
    """End-to-end metrics at the reference speed, plus the raw figures.

    An item's latency is the median of its repetitions in the run, one per
    pass, so a pause that hits one repetition does not move it.  p50 and
    the tail are taken over those per-item latencies; the tail is the
    highest percentile with ten items above it.
    """
    attempted = sum(len(p.latencies) for p in passes)
    ok = sum(p.ok for p in passes)
    above = 10
    who = resource.RUSAGE_CHILDREN if workload.measures_children else resource.RUSAGE_SELF
    values, raw = {}, {}
    for out, scale in ((values, lambda p: p.slowdown), (raw, lambda p: 1.0)):
        per_item = sorted(statistics.median(p.latencies[i] / scale(p) for p in passes)
                          for i in range(len(items)))
        out.update({
            "items_per_s": statistics.median(p.ok / p.busy * scale(p) for p in passes),
            "item_p50_ms": 1000 * statistics.median(per_item),
            "item_tail_ms": 1000 * per_item[-1 - above],
        })
    values.update({
        "setup_s": setup_s["reference"],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ok_ratio": ok / attempted,
    })
    raw["setup_s"] = setup_s["raw"]
    details = {
        "tail_percentile": round(100 * (len(items) - above) / len(items), 4),
        "tail_samples_above": above,
        "samples": len(items),
        "repetitions": len(passes),
        "attempted": attempted,
        "error_rate": 1 - ok / attempted,
        "slowdown_per_pass": [round(p.slowdown, 4) for p in passes],
        "items_per_s_per_pass": [round(p.ok / p.busy * p.slowdown, 4) for p in passes],
        "raw": raw,
    }
    return values, details


def per_layer(tracer, passes, items_per_pass: int) -> dict:
    """Per-layer metrics of the traced passes, per pass, at the reference speed."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    scale = [1 / passes[s[tracing.ITEM] // items_per_pass].slowdown for s in tracer.spans]
    layers = tracing.layer_totals(tracer.spans, scale)
    returned, called = tracing.closed_form_counts(tracer.spans)
    delivered = sum(p.delivered for p in traced)
    verify, search = layers["coloring.verify"], layers["oracle.search"]
    values = {}
    for layer, total in layers.items():
        values[f"{layer}.self_s"] = total["self_s"] / n
        values[f"{layer}.calls"] = total["calls"] / n
    values.update({
        "coloring.verify.per_item": verify["calls"] / delivered if delivered else 0.0,
        "coloring.verify.vertices": verify["work"] / n,
        "bipartite.closed_form_hit_ratio": returned / called if called else 0.0,
        "oracle.nodes": search["work"] / n,
        "oracle.nodes_per_s": search["work"] / search["self_s"] if search["self_s"] else 0.0,
        "cli.import_s": layers["cli.import"]["self_s"] / n,
        "trace.overhead_ratio": (statistics.median(p.busy / p.slowdown for p in traced)
                                 / statistics.median(p.busy / p.slowdown for p in plain)),
    })
    return values


def set_up(workload, seed: int):
    """Set the workload up SETUP_REPEATS times; median seconds, raw and at reference speed."""
    times, slices = [], [speed.slice_seconds()]
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        eq = fresh_import(workload.imports)
        items = workload.setup(eq, random.Random(seed))
        times.append(time.perf_counter() - began)
        slices.append(speed.slice_seconds())
    raw = statistics.median(times)
    return eq, items, {"raw": raw, "reference": raw / speed.SLICE.slowdown(slices)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "equitree" / "__init__.py").is_file():
        print(f"error: no equitree package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, ROOT, workdir)
        eq, items, setup_s = set_up(workload, args.seed)
        if not eq.__file__.startswith(str(SRC)):
            print(f"error: equitree was imported from {eq.__file__}", file=sys.stderr)
            return 2
        missed = checks.negative_controls()
        tracer = tracing.Tracer() if args.trace else None
        passes, failures = run_passes(workload, items, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, details = end_to_end(workload, items, passes, setup_s)
    values = per_layer(tracer, passes, len(items)) if tracer else e2e
    if tracer:
        spans_file = WORK / f"spans-{args.workload}.tsv"
        tracing.write_spans(spans_file, tracer.spans)
        details["spans_file"] = str(spans_file.relative_to(ROOT))

    wrong = [f for f in failures if f[2]]
    for item, reason, _ in failures[:5]:
        print(f"failed {item.kind}{' (too deep, expected)' if item.too_deep else ''}: {reason}",
              file=sys.stderr)
    for name in missed:
        print(f"negative control not rejected: {name}", file=sys.stderr)
    attempted = details["attempted"]
    too_deep = sum(1 for item in items if item.too_deep) / len(items)
    details.update({
        "workload": workload.name,
        "why": workload.why,
        "trace": bool(args.trace),
        "passes": len(passes),
        "items_per_pass": len(items),
        "expected_error_rate": too_deep,
        "wrong_answers": len(wrong),
        "negative_controls_missed": missed,
        "end_to_end": e2e,
        "environment": environment(args.seed),
    })
    print(f"{workload.name} seed={args.seed}: {len(passes)} passes x {len(items)} items, "
          f"{attempted} attempted, {len(failures)} failed "
          f"(error_rate {details['error_rate']:.4f}, expected {too_deep:.4f})")
    print(f"  latency per item: median of {len(passes)} repetitions; tail at "
          f"p{details['tail_percentile']} with {details['tail_samples_above']} "
          f"of {details['samples']} items above")
    for metric in wanted:
        print(f"  {metric['name']:34} {values[metric['name']]:.6g} {metric['unit']}")
    print(json.dumps(details))
    print(json.dumps({
        "correct": not wrong and not missed,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

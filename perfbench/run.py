#!/usr/bin/env python3
"""locale-forge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: oracle-suites, kernel-ladder, cli-verbs (see README.md).  Run
from anywhere inside a checkout of the repository; the program is imported
from ``src/``.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, pass_s,
op_p50_ms, peak_rss_mb), measured untraced.  With ``--trace 1`` they are
the per-layer ones, from a traced pass that follows an untraced one; the
spans go to ``perfbench/out/``.  Lines before the JSON give reference
figures that are not metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
PROBE_REPEATS = 5
clock = time.perf_counter


class Measured:
    """What one sequence of whole passes gave."""

    def __init__(self):
        self.pass_times: list[float] = []
        self.by_position: dict[int, list[float]] = {}
        self.op_times: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def pass_s(self) -> float:
        """One pass with every operation at its median over the passes, so
        that a machine hiccup during one pass does not count."""
        return sum(statistics.median(times) for times in self.by_position.values())

    def run(self, op, position: int) -> float:
        """Run the operation at this position of a pass and record it;
        returns the time it took."""
        self.attempted += 1
        try:
            dt, problems = op.run()
        except Exception as exc:  # the program failed this operation
            self.failed += 1
            if self.failed <= 5:
                print(f"failed {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 0.0
        self.op_times.append(dt)
        self.by_position.setdefault(position, []).append(dt)
        self.by_label.setdefault(op.label, []).append(dt)
        self.problems += [f"{op.label}: {p}" for p in problems]
        return dt


def measure(workload, seconds: float) -> Measured:
    """Run whole passes over the workload's operations until ``seconds`` of
    wall time have gone by, at least one pass."""
    m = Measured()
    gc.collect()
    deadline = clock() + seconds
    while True:
        m.pass_times.append(sum(m.run(op, i) for i, op in enumerate(workload.operations)))
        if clock() >= deadline:
            return m


def measure_traced(workload, tracer, seconds: float) -> tuple[Measured, Measured]:
    """Whole passes in which every operation (or every part of one, where
    an operation has parts) runs twice, once untraced and once traced, in
    alternating order, so that the two halves see the same machine and
    their difference is the tracing overhead.  The untraced half still
    calls through the switched-off wrappers."""
    units = [part for op in workload.operations for part in getattr(op, "parts", [op])]
    plain, traced = Measured(), Measured()
    gc.collect()
    deadline = clock() + seconds
    while True:
        times = {False: 0.0, True: 0.0}
        for i, op in enumerate(units):
            for on in (False, True) if i % 2 == 0 else (True, False):
                tracer.on = on
                times[on] += (traced if on else plain).run(op, i)
        tracer.on = False
        plain.pass_times.append(times[False])
        traced.pass_times.append(times[True])
        if clock() >= deadline:
            return plain, traced


def tail_reference(times: list[float]) -> str:
    """The highest of a few round percentiles with at least ten samples
    beyond it; only given from forty samples up."""
    n = len(times)
    if n < 40:
        return f"{n} samples: median only"
    ordered = sorted(times)
    best = 50
    for q in (75, 90, 95, 99, 99.9):
        if n - nearest_rank(n, q) >= 10:
            best = q
    rank = nearest_rank(n, best)
    return f"p{best:g} {1000 * ordered[rank - 1]:.3f} ms ({n - rank} of {n} samples beyond it)"


def nearest_rank(n: int, q: float) -> int:
    return math.ceil(round(n * q / 100, 6))


def untraced_run(workload, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = clock()
        workload.setup()
        setups.append(clock() - t0)
    m = measure(workload, seconds)
    who = resource.RUSAGE_CHILDREN if workload.children else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    print(f"{workload.name}: {len(m.pass_times)} passes of {len(workload.operations)} operations")
    print(f"  summed operation times per pass: {' '.join(f'{t:.4f}' for t in m.pass_times)}")
    print(f"  setup_s per set-up: {' '.join(f'{t:.4f}' for t in setups)}")
    print(f"  operation time reference: {tail_reference(m.op_times)}")
    for label, times in m.by_label.items():
        print(f"  {label}: median {1000 * statistics.median(times):.3f} ms over {len(times)}")
    for line in getattr(workload, "references", lambda: [])():
        print(line)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (m.pass_s, "s"),
        "op_p50_ms": (1000 * statistics.median(m.op_times), "ms") if m.op_times else (0.0, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return result(m, metrics=metrics)


def probe_ms(args: list[str], read) -> float:
    """Median over a few fresh interpreters of read(completed process)."""
    env = {"PYTHONPATH": str(ROOT / "src")}
    values = []
    for _ in range(PROBE_REPEATS):
        t0 = clock()
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        wall = clock() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"probe {args} exited {proc.returncode}: {proc.stderr[:300]}")
        values.append(read(proc, wall))
    return statistics.median(values)


def locale_forge_import_ms(proc, wall) -> float:
    """Sum of the self times ``-X importtime`` gives the locale_forge modules."""
    total_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().startswith("locale_forge"):
            total_us += int(parts[0].rsplit(":", 1)[1])
    return total_us / 1000


def traced_run(workload, seconds: float) -> dict:
    from tracing import Tracer, layer_metrics

    workload.setup()
    tracer = Tracer()
    workload.tracer = tracer
    tracer.install()
    try:
        plain, traced = measure_traced(workload, tracer, seconds)
    finally:
        tracer.uninstall()
        workload.tracer = None
    metrics = layer_metrics(tracer, len(traced.pass_times))
    metrics["trace.overhead_s"] = (traced.pass_s - plain.pass_s, "s")
    metrics["cli.interpreter_ms"] = (probe_ms(["-c", "pass"], lambda p, wall: 1000 * wall), "ms")
    metrics["cli.import_ms"] = (
        probe_ms(["-X", "importtime", "-c", "import locale_forge.cli"], locale_forge_import_ms),
        "ms",
    )
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"trace-{workload.name}-seed{workload.seed}.spans.gz"
    tracer.dump(spans)
    print(f"{workload.name}: {len(traced.pass_times)} passes, each operation once untraced and once traced")
    print(f"  pass_s untraced {plain.pass_s:.4f}, traced {traced.pass_s:.4f}; {len(tracer.start)} spans in {spans}")
    return result(plain, traced, metrics=metrics)


def result(*parts: Measured, metrics: dict) -> dict:
    problems = [p for m in parts for p in m.problems]
    for p in problems[:20]:
        print(f"incorrect: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(m.attempted for m in parts),
        "failed": sum(m.failed for m in parts),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "locale_forge" / "__init__.py").is_file():
        print(f"no locale_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    run = traced_run if args.trace else untraced_run
    doc = run(workload, args.seconds)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fast self-test of the benchmark's own computations; needs no program.

    python3 perfbench/selftest.py

Checks the reference computations in ``outside`` against closed forms and
hand-made cases, the output checks against a transcribed ``eval`` output,
and that the metric names the benchmark prints are the ones
BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import outside  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# `locale-forge eval` on the real line without roundedness, grid 0,1
EVAL_0_1 = """\
frame carrier with 13 elements
  OI()
  OI(-inf,0)
  OI(0,1)
  OI(1,+inf)
  OI(-inf,0) | OI(0,1)
  OI(-inf,0) | OI(1,+inf)
  OI(0,1) | OI(1,+inf)
  OI(-inf,1)
  OI(-inf,0) | OI(0,1) | OI(1,+inf)
  OI(0,+inf)
  OI(-inf,1) | OI(1,+inf)
  OI(-inf,0) | OI(0,+inf)
  OI(-inf,+inf)
"""


def test_topology_counts():
    # the open sets of k grid points are counted by odd Fibonacci numbers
    assert [len(outside.topology_opens(k)) for k in range(2, 7)] == [13, 34, 89, 233, 610]
    for k in range(1, 5):
        assert len(outside.topology_opens(k)) == outside.fibonacci(2 * k + 3)


def test_cells():
    values = outside.grid_values(["1", "0"])
    assert len(values) == 4
    assert outside.key_cells("OI(-inf,+inf)", values) == 0b11111
    assert outside.key_cells("OI(0,1)", values) == 0b00100
    assert outside.key_cells("OI(-inf,1)", values) == 0b00111
    assert outside.key_cells("OI()", values) == 0
    assert outside.label_cells("OI(-inf,0) | OI(1,+inf)", values) == 0b10001
    # a point lies in an open set only with both of its gaps
    for u in outside.topology_opens(2):
        for point in (1, 3):
            if (u >> point) & 1:
                assert (u >> (point - 1)) & 1 and (u >> (point + 1)) & 1


def test_eval_check():
    assert workloads.check_eval_text(EVAL_0_1, ["0", "1"]) == []
    wrong_count = EVAL_0_1.replace("with 13", "with 14")
    assert workloads.check_eval_text(wrong_count, ["0", "1"])
    wrong_label = EVAL_0_1.replace("  OI(0,+inf)\n", "  OI(0,1)\n")
    assert workloads.check_eval_text(wrong_label, ["0", "1"])


def test_subset_labels():
    names = ["ab", "cd", "ef"]
    assert outside.subset_label_mask("{}", names) == 0
    assert outside.subset_label_mask("{ab,ef}", names) == 0b101


def test_closure_laws():
    # the 4-element Boolean lattice 0 < a, b < 1; up-masks over (0, a, b, 1)
    up = [0b1111, 0b1010, 0b1100, 0b1000]
    assert outside.least_upper_bounds(up)[1][2] == 3
    swap = [0, 2, 1, 3]
    closure = [0, 3, 3, 3]
    assert outside.closure_law_failures(up, swap, closure) == []
    assert outside.closure_law_failures(up, swap, [0, 1, 2, 3])
    assert "not inflationary" in outside.closure_law_failures(up, [0, 0, 0, 0], [0, 0, 0, 3])


def test_verify_check():
    doc = [{"suite": "kleene-closure", "total": 30, "passed": 30, "failures": []}]
    assert workloads.check_verify(json.dumps(doc), 1, 30) == []
    doc[0]["passed"] = 29
    assert workloads.check_verify(json.dumps(doc), 1, 30)


def test_tail_reference():
    assert "median only" in run.tail_reference([0.001] * 39)
    assert run.tail_reference([i / 1000 for i in range(1, 101)]).startswith("p90 90.000 ms (10 of 100")


def test_metric_names_match_benchmark_json():
    decl = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    printed = set(tracing.layer_metrics(tracing.Tracer(), 1))
    printed |= {"trace.overhead_s", "cli.interpreter_ms", "cli.import_ms"}
    assert printed == {m["name"] for m in decl["per_layer"]}
    assert {m["name"] for m in decl["end_to_end"]} == {"setup_s", "pass_s", "op_p50_ms", "peak_rss_mb"}
    assert {w["name"] for w in decl["workloads"]} == set(workloads.WORKLOADS)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

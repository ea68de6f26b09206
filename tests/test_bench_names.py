"""The benchmark in ``perfbench/`` reaches into the program by name: its
tracer patches the functions listed in ``tracing.TARGETS`` and its oracle
workload wraps the suite globals in ``workloads.Recorder.NAMES``.  These
checks fail as soon as one of those names is renamed or removed, instead of
the benchmark failing with a ``KeyError`` in a traced run."""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing():
    return load_bench("tracing")


def test_every_traced_name_resolves(tracing):
    missing = []
    for mod_name, path, _layer in tracing.TARGETS:
        holder = importlib.import_module(f"locale_forge.{mod_name}")
        owner, _, attr = path.rpartition(".")
        if owner:
            holder = vars(holder).get(owner)
        if holder is None or attr not in vars(holder):
            missing.append(f"{mod_name}.{path}")
    assert not missing


def test_recorded_suite_names_are_module_attributes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling ``outside``
    workloads = load_bench("workloads")
    suites = importlib.import_module("locale_forge.suites")
    for name in workloads.Recorder.NAMES:
        assert callable(vars(suites).get(name)), name


def test_suite_calls_to_present_are_traced(tracing):
    from locale_forge import suites
    from locale_forge.evaluate import eval_frame
    from locale_forge.lattice import QuotientMode

    rng = random.Random(3)
    p = suites.rand_sup_presentation(rng)
    parent = eval_frame(p)
    e = suites.rand_quotient_operator(rng, parent.carrier, QuotientMode.OPEN)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ok, why, _ = suites.check_equivalence(p, parent, e, QuotientMode.OPEN)
    finally:
        tracer.uninstall()
    assert ok, why
    assert tracer.self_times()["transform.present"][1] == 1

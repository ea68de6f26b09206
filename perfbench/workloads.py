"""The three benchmark workloads and the checks on their outputs.

Every workload builds a fixed list of operations from the seed in
``setup``; one pass runs that list once, and a run repeats whole passes.
An operation times only the program's work and checks its outputs outside
the timed region, against ``outside`` where the check needs a computation
made apart from the program.  ``Operation.run`` returns (seconds timed,
problems found); an exception from the program's work is a failed
operation.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import outside

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
GOLDEN = ROOT / "tests" / "golden"
clock = time.perf_counter


class OperationFailed(Exception):
    """The program reported failure: a suite verdict or a nonzero exit."""


def import_program(*modules: str) -> dict:
    """Import locale_forge afresh (dropping any earlier import), so that the
    import cost is paid inside every measured set-up."""
    for name in list(sys.modules):
        if name == "locale_forge" or name.startswith("locale_forge."):
            del sys.modules[name]
    importlib.import_module("locale_forge")
    return {m: importlib.import_module(f"locale_forge.{m}") for m in modules}


def checked(check, value, tracer) -> list[str]:
    """Run a check with tracing paused, so that the program calls a check
    makes stay out of the per-layer figures.  An exception while checking
    is a problem found, not a failed operation."""
    was_on = tracer is not None and tracer.on
    if was_on:
        tracer.on = False
    try:
        return check(value)
    except Exception as exc:  # a malformed output breaks the check itself
        return [f"check raised {type(exc).__name__}: {exc}"]
    finally:
        if was_on:
            tracer.on = True


class Operation:
    def __init__(self, owner, label: str, work, check, after=None):
        self.owner = owner  # the workload, whose ``tracer`` is set in a traced run
        self.label = label
        self.work = work
        self.check = check
        self.after = after  # untimed step before the check

    def run(self) -> tuple[float, list[str]]:
        t0 = clock()
        out = self.work()
        dt = clock() - t0
        if self.after is not None:
            self.after()
        return dt, checked(self.check, out, self.owner.tracer)


def seeded_points(rng: random.Random, k: int) -> list[Fraction]:
    """k distinct small rationals, sorted."""
    pts: set[Fraction] = set()
    while len(pts) < k:
        pts.add(Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
    return sorted(pts)


def grid_text(points) -> str:
    return ",".join(str(p) for p in points)


def real_line(m: dict):
    """The real line without its roundedness schema, plus ``OI() = 0``: on
    a finite grid it presents the topology of the grid's open intervals.
    ``m`` holds the program modules presentation, terms and intervals."""
    pres, terms = m["presentation"], m["terms"]
    real = m["intervals"].real_presentation()
    kept = tuple(
        r
        for r in real.relations
        if not (isinstance(r, pres.RelationSchema) and any(cl.bound for cl in r.rhs.clauses))
    )
    if len(kept) != len(real.relations) - 1:
        raise RuntimeError("expected exactly one roundedness schema in real_presentation")
    empty = pres.Relation(terms.gen_term("OI()"), terms.TERM_ZERO)
    return pres.Presentation(real.kind, real.domain, kept + (empty,))


def check_grid_frame(frame, points) -> list[str]:
    """A grid evaluation of the real line without roundedness is the finite
    topology of the grid's intervals: same size, same open sets (read off
    the element labels), generators ordered by inclusion of their cells."""
    values = outside.grid_values(points)
    opens = outside.topology_opens(len(points))
    problems = []
    carrier = frame.carrier
    if carrier.n != len(opens):
        problems.append(f"carrier has {carrier.n} elements, topology has {len(opens)} opens")
    cells = {outside.label_cells(e, values) for e in carrier.elements}
    if cells != opens:
        problems.append("element labels do not spell the open sets of the grid topology")
    gens = {g: outside.key_cells(g, values) for g in frame.interp}
    for g, cg in gens.items():
        for h, ch in gens.items():
            if carrier.leq(frame.interp[g], frame.interp[h]) != (cg & ~ch == 0):
                problems.append(f"order of {g} and {h} disagrees with their cells")
                return problems
    return problems


# ---------------------------------------------------------------------------
# oracle-suites

# The oracle suites of the semi-proper and proper modes fail on some seeds
# (a program fault, see CHANGES.md), which would make the failed share
# differ from run to run; they are left out of both workloads that run suites.
ORACLE_MODES = ("semi-open", "open", "semi-triquotient", "triquotient")


class Recorder:
    """Keeps what the suites hand to the oracle, so the benchmark can check
    each instance.  Wraps whatever ``suites`` currently calls (the plain
    function, or the tracer's wrapper) and restores it afterwards."""

    NAMES = ("check_equivalence", "verify_coverage", "kleene_closure")

    def __init__(self, suites):
        self.suites = suites
        self.records: list[tuple] = []
        self._saved: dict = {}

    def __enter__(self):
        for name in self.NAMES:
            inner = getattr(self.suites, name)
            self._saved[name] = inner
            setattr(self.suites, name, self._recording(name, inner))
        return self

    def __exit__(self, *exc):
        for name, inner in self._saved.items():
            setattr(self.suites, name, inner)

    def _recording(self, name, inner):
        records = self.records

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            records.append((name, args, result))
            return result

        return wrapper


class OracleSuites:
    """One operation is one seeded instance of a suite family, run through
    the suite function itself with count 1."""

    name = "oracle-suites"
    children = False
    per_family = 100

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None

    def setup(self) -> None:
        m = import_program("suites", "lattice", "presentation", "evaluate")
        self.suites, self.evaluate = m["suites"], m["evaluate"]
        QuotientMode = m["lattice"].QuotientMode
        Kind = m["presentation"].PresentationKind
        suites = self.suites
        families = [
            (f"oracle[{mode.cli_name}]", lambda s, mode=mode: suites.suite_oracle_equivalence(mode, s, 1))
            for mode in QuotientMode
            if mode.cli_name in ORACLE_MODES
        ]
        families.append(("oracle[cross-mode]", lambda s: suites.suite_cross_mode(s, 1)))
        families += [
            (f"coverage[{kind.value}]", lambda s, kind=kind: suites.suite_coverage(kind, s, 1))
            for kind in (Kind.SUP, Kind.PREFRAME, Kind.DCPO)
        ]
        families.append(("kleene", lambda s: suites.suite_kleene(s, 1)))
        self.evaluators = {
            Kind.SUP: self.evaluate.eval_suplattice,
            Kind.PREFRAME: self.evaluate.eval_preframe,
            Kind.DCPO: self.evaluate.eval_dcpo,
        }
        rng = random.Random(f"{self.name}/{self.seed}")
        self.recorder = Recorder(suites)
        self.checks: dict[str, int] = {}
        self.operations = [
            Operation(self, label, self._instance(fn, rng.randrange(1 << 31)), self.check)
            for _ in range(self.per_family)
            for label, fn in families
        ]
        # warm-up on fixed instances, so that set-up time does not vary with the seed
        for label, fn in families:
            self._instance(fn, 0)()
        self.recorder.records.clear()

    def references(self) -> list[str]:
        return [f"  outputs checked: {count} {name} results" for name, count in sorted(self.checks.items())]

    def _instance(self, fn, seed: int):
        def work():
            self.recorder.records.clear()
            with self.recorder:
                res = fn(seed)
            if res.total != 1 or not res.ok:
                raise OperationFailed(res.summary())
            return res

        return work

    def check(self, res) -> list[str]:
        problems = []
        for name, args, result in self.recorder.records:
            self.checks[name] = self.checks.get(name, 0) + 1
            if name == "check_equivalence":
                problems += self._check_equivalence(*args, *result)
            elif name == "verify_coverage":
                problems += self._check_coverage(args[0], result)
            else:
                j, c = args[0], result
                problems += outside.closure_law_failures(
                    list(j.source.poset.up), list(j.table), list(c.table)
                )
        self.recorder.records.clear()
        return problems

    def _check_equivalence(self, p, parent, e, mode, ok, why, out) -> list[str]:
        """The quotient frame has one element per fixed point of e and orders
        the generator images as e orders the parent's generators."""
        if not ok:
            return [f"check_equivalence failed: {why}"]
        q = self.evaluate.eval_frame(out)
        n = e.source.n
        fixed = sum(1 for x in range(n) if e.table[x] == x)
        if q.carrier.n != fixed:
            return [f"{mode.value}: quotient has {q.carrier.n} elements, operator {fixed} fixed points"]
        tag = out.domain.tag
        L = parent.carrier
        for g, gi in parent.interp.items():
            for h, hi in parent.interp.items():
                want = L.leq(e.table[gi], e.table[hi])
                got = q.carrier.leq(q.interp[f"{tag} {g}"], q.interp[f"{tag} {h}"])
                if want != got:
                    return [f"{mode.value}: images of {g}, {h} ordered unlike e's values"]
        return []

    def _check_coverage(self, p, report) -> list[str]:
        """The frame and the kind's own evaluation have equal carriers and
        agree on the order of the generators."""
        if not report.verdict:
            return [f"coverage verdict failed: {report.notes}"]
        frame = self.evaluate.eval_frame(p)
        other = self.evaluators[p.kind](p)
        a, b = frame.carrier_poset, other.carrier_poset
        if a.n != b.n:
            return [f"coverage[{p.kind.value}]: frame {a.n} elements, {other.category} {b.n}"]
        for g in frame.interp:
            for h in frame.interp:
                if a.leq(frame.interp[g], frame.interp[h]) != b.leq(other.interp[g], other.interp[h]):
                    return [f"coverage[{p.kind.value}]: generators {g}, {h} ordered differently"]
        return []


# ---------------------------------------------------------------------------
# kernel-ladder


class KernelLadder:
    """One operation is one climb through fixed rungs: the downset frames of
    4- to 8-element antichains (16..256 elements), then the real line
    without roundedness evaluated on seeded grids of 2..6 points
    (13..610 elements).  Each rung is timed alone and checked before the
    next; the climb's time is the sum of its rungs."""

    name = "kernel-ladder"
    children = False
    antichains = range(4, 9)
    grids = range(2, 7)

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.rung_times: dict[str, list[float]] = {}

    def setup(self) -> None:
        m = import_program("lattice", "presentation", "evaluate", "intervals", "terms", "rationals")
        self.lattice, self.presentation, self.evaluate = m["lattice"], m["presentation"], m["evaluate"]
        rng = random.Random(f"{self.name}/{self.seed}")
        letters = "abcdefghijklmnopqrstuvwxyz"
        names: list[str] = []
        while len(names) < max(self.antichains):
            name = rng.choice(letters) + rng.choice(letters)
            if name not in names:
                names.append(name)
        self.names = names
        self.points = {k: seeded_points(rng, k) for k in self.grids}
        self.grid_args = {
            k: [m["rationals"].parse_extrat(str(x)) for x in pts] for k, pts in self.points.items()
        }
        self.line = real_line(m)
        self.rungs = [
            SimpleNamespace(label=f"downsets[{1 << k}]", run=lambda k=k: self._antichain_rung(k))
            for k in self.antichains
        ] + [SimpleNamespace(label=f"grid[{k}]", run=lambda k=k: self._grid_rung(k)) for k in self.grids]
        # a traced run alternates traced and untraced runs rung by rung
        self.operations = [SimpleNamespace(label="climb", run=self.climb, parts=self.rungs)]
        # warm-up: the smallest rung of each kind
        self._antichain_rung(min(self.antichains))
        self._grid_rung(min(self.grids))
        self.rung_times.clear()

    def _rung(self, label, work, check) -> tuple[float, list[str]]:
        t0 = clock()
        out = work()
        dt = clock() - t0
        self.rung_times.setdefault(label, []).append(dt)
        return dt, checked(check, out, self.tracer)

    def _antichain_rung(self, k: int):
        names = self.names[:k]

        def work():
            return self.lattice.downsets(self.lattice.FinitePoset.from_pairs(names, []))

        def check(lat) -> list[str]:
            if lat.n != 1 << k:
                return [f"downsets of a {k}-antichain: {lat.n} elements, not {1 << k}"]
            masks = [outside.subset_label_mask(e, names) for e in lat.elements]
            if len(set(masks)) != lat.n:
                return [f"downsets of a {k}-antichain: repeated members"]
            for i in range(lat.n):
                for j in range(lat.n):
                    if masks[lat.meet(i, j)] != masks[i] & masks[j] or masks[lat.join(i, j)] != masks[i] | masks[j]:
                        return [f"downsets of a {k}-antichain: meet/join of {lat.elements[i]}, {lat.elements[j]}"]
            return []

        return self._rung(f"downsets[{1 << k}]", work, check)

    def _grid_rung(self, k: int):
        def work():
            return self.evaluate.eval_frame(self.presentation.instantiate_schemas(self.line, self.grid_args[k]))

        return self._rung(f"grid[{k}]", work, lambda frame: check_grid_frame(frame, self.points[k]))

    def climb(self) -> tuple[float, list[str]]:
        total, problems = 0.0, []
        for rung in self.rungs:
            dt, pr = rung.run()
            total, problems = total + dt, problems + pr
        return total, problems

    def references(self) -> list[str]:
        lines = []
        for label, times in self.rung_times.items():
            lines.append(f"  rung {label}: median {statistics.median(times):.4f} s over {len(times)}")
        return lines


# ---------------------------------------------------------------------------
# cli-verbs

LAUNCH = "import sys; from locale_forge.cli import main; sys.exit(main())"
VERIFY_COUNTS = {"oracle": 8, "coverage": 5, "kleene": 30}


class CliVerbs:
    """One operation is one fresh locale-forge process, run to completion
    before the next starts."""

    name = "cli-verbs"
    children = True
    eval_points = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None  # in a traced run the children write spans for it

    def setup(self) -> None:
        m = import_program("presentation", "terms", "intervals", "dsl")
        rng = random.Random(f"{self.name}/{self.seed}")
        work = OUT / "work"
        work.mkdir(parents=True, exist_ok=True)
        self.work_dir = work
        line = work / "real_line.pres"
        line.write_text(m["dsl"].print_presentation(real_line(m)))
        points = seeded_points(rng, self.eval_points)
        mode = rng.choice(ORACLE_MODES)
        seeds = [str(rng.randrange(1 << 31)) for _ in range(3)]
        golden = {name: (GOLDEN / name).read_text() for name in (
            "circle_open.txt",
            "circle_proper_raw.txt",
            "circle_proper_simplified.txt",
            "circle_proper_raw.json",
            "circle_proper_simplified.json",
        )}
        same = lambda name: lambda out: [] if out == golden[name] else [f"output differs from {name}"]
        verbs = [
            ("example circle-open", ["example", "circle-open"], same("circle_open.txt")),
            ("example circle-proper", ["example", "circle-proper"], same("circle_proper_raw.txt")),
            ("example circle-proper --simplify", ["example", "circle-proper", "--simplify"],
             same("circle_proper_simplified.txt")),
            ("example circle-proper json", ["example", "circle-proper", "--format", "json"],
             same("circle_proper_raw.json")),
            ("example circle-proper --simplify json",
             ["example", "circle-proper", "--simplify", "--format", "json"],
             same("circle_proper_simplified.json")),
            ("example z2-swap json", ["example", "z2-swap", "--format", "json"], check_z2),
            ("example nat-reverse", ["example", "nat-reverse"], check_nat),
            ("eval --grid", ["eval", str(line), f"--grid={grid_text(points)}"],
             lambda out: check_eval_text(out, points)),
            ("verify --oracle", ["verify", "--oracle", "--mode", mode, "--seed", seeds[0],
                                 "--count", str(VERIFY_COUNTS["oracle"]), "--format", "json"],
             lambda out: check_verify(out, 1, VERIFY_COUNTS["oracle"])),
            ("verify --coverage", ["verify", "--coverage", "--seed", seeds[1],
                                   "--count", str(VERIFY_COUNTS["coverage"]), "--format", "json"],
             lambda out: check_verify(out, 3, VERIFY_COUNTS["coverage"])),
            ("verify --kleene", ["verify", "--kleene", "--seed", seeds[2],
                                 "--count", str(VERIFY_COUNTS["kleene"]), "--format", "json"],
             lambda out: check_verify(out, 1, VERIFY_COUNTS["kleene"])),
        ]
        env = {k: v for k, v in os.environ.items() if k != "LOCALE_FORGE_SEED"}
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env
        self.spans = work / "child.spans"
        self.operations = [
            Operation(self, label, self._process(args), check, self._absorb_spans)
            for label, args, check in verbs
        ]
        self._process(["example", "nat-reverse"])()  # warm-up

    def _process(self, args: list[str]):
        def work():
            if self.tracer is None or not self.tracer.on:
                cmd = [sys.executable, "-c", LAUNCH, *args]
            else:
                cmd = [sys.executable, str(BENCH / "tracing.py"), str(self.spans), "--", *args]
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise OperationFailed(f"exit {proc.returncode}: {proc.stderr.strip()[:300]}")
            return proc.stdout

        return work

    def _absorb_spans(self) -> None:
        if self.tracer is not None and self.tracer.on:
            self.tracer.absorb(self.spans)
            self.spans.unlink()


def check_z2(out: str) -> list[str]:
    doc = json.loads(out)
    carrier = doc["quotientFrame"]["carrier"]
    chain = sorted(map(tuple, carrier["leq"])) == [(0, 0), (0, 1), (1, 1)]
    if not (doc["quotientIsTwoChain"] and doc["matchesFixedPoints"] and len(carrier["elements"]) == 2 and chain):
        return ["z2-swap quotient is not the 2-element chain"]
    return []


def check_nat(out: str) -> list[str]:
    if not out.startswith("gluing N along successor: counterexample established\n"):
        return ["nat-reverse counterexample not established"]
    return []


def check_eval_text(out: str, points) -> list[str]:
    lines = out.splitlines()
    m = re.fullmatch(r"frame carrier with (\d+) elements", lines[0])
    opens = outside.topology_opens(len(points))
    if not m or int(m.group(1)) != len(opens):
        return [f"eval reports {lines[0]!r}, the grid topology has {len(opens)} opens"]
    values = outside.grid_values(points)
    cells = [outside.label_cells(line.strip(), values) for line in lines[1:]]
    if len(cells) != len(opens) or set(cells) != opens:
        return ["eval element labels do not spell the open sets of the grid topology"]
    return []


def check_verify(out: str, suites: int, count: int) -> list[str]:
    doc = json.loads(out)
    if len(doc) != suites:
        return [f"verify ran {len(doc)} suites, expected {suites}"]
    for r in doc:
        if r["total"] != count or r["passed"] != count or r["failures"]:
            return [f"verify {r['suite']}: {r['passed']}/{r['total']}"]
    return []


WORKLOADS = {w.name: w for w in (OracleSuites, KernelLadder, CliVerbs)}

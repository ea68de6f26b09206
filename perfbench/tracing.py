"""Span tracing of locale-forge's public functions, from outside the program.

``Tracer.install`` replaces each traced function by a wrapper in every
``locale_forge`` module that holds it (module attributes and module-level
dispatch tables alike), so calls from ``suites`` into ``lattice`` or from
``transform`` into ``terms`` are seen too.  Each call records a span
(layer name, start, end, parent span) in flat in-memory arrays; a few
wrappers also add counts.  ``layer_metrics`` turns the spans into per-layer
self times (span time minus the time its child spans cover).

Run as a script, this module is the traced ``locale-forge`` process used by
the cli-verbs workload:

    python3 perfbench/tracing.py SPANS_FILE -- VERB ARGS...

It installs the tracer, runs the CLI with the given arguments under a
``cli.main`` span and writes the spans to SPANS_FILE.

A spans file is gzip: one JSON header line (layer names, span count,
counters), then the raw arrays ``name`` (uint16), ``parent`` (int32),
``start`` and ``end`` (float64, seconds of ``time.perf_counter``).
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

SERIALIZE_PUBLIC = (
    "term_to_jsonable",
    "relation_to_jsonable",
    "presentation_to_jsonable",
    "spec_to_jsonable",
    "poset_to_jsonable",
    "lattice_to_jsonable",
    "map_to_jsonable",
    "presented_to_jsonable",
    "report_to_jsonable",
    "stability_to_jsonable",
)

# (module, attribute path, layer name)
TARGETS = [
    ("lattice", "FiniteLattice.from_poset", "lattice.from_poset"),
    ("lattice", "FinitePoset.from_pairs", "lattice.from_pairs"),
    ("lattice", "downsets", "lattice.downsets"),
    ("lattice", "poset_isomorphism", "lattice.poset_isomorphism"),
    ("lattice", "check_laws", "lattice.check_laws"),
    ("lattice", "check_quotient_operator", "lattice.check_quotient_operator"),
    ("lattice", "fixed_points", "lattice.fixed_points"),
    ("lattice", "kleene_closure", "lattice.kleene_closure"),
    ("evaluate", "eval_frame", "evaluate.eval_frame"),
    ("evaluate", "eval_suplattice", "evaluate.eval_kind"),
    ("evaluate", "eval_preframe", "evaluate.eval_kind"),
    ("evaluate", "eval_dcpo", "evaluate.eval_kind"),
    ("evaluate", "verify_coverage", "evaluate.verify_coverage"),
    ("terms", "normalize", "terms.normalize"),
    ("presentation", "saturate", "presentation.saturate"),
    ("presentation", "check_kind", "presentation.check_kind"),
    ("presentation", "instantiate_schemas", "presentation.instantiate_schemas"),
    ("generators", "FiniteGeneratorDomain.__init__", "generators.domain_build"),
    ("transform", "present_semi_open", "transform.present"),
    ("transform", "present_open", "transform.present"),
    ("transform", "present_semi_proper", "transform.present"),
    ("transform", "present_proper", "transform.present"),
    ("transform", "present_semi_triquotient", "transform.present"),
    ("transform", "present_triquotient", "transform.present"),
    ("transform", "spec_from_operator", "transform.spec_from_operator"),
    ("suites", "rand_quotient_operator", "suites.rand_quotient_operator"),
    ("dsl", "print_presentation", "dsl.print"),
    ("dsl", "print_spec", "dsl.print"),
] + [("serialize", name, "serialize.to_jsonable") for name in SERIALIZE_PUBLIC]

COUNTERS = (
    "lattice.from_poset.n_max",
    "lattice.from_poset.sampled_calls",
    "lattice.from_pairs.pairs",
    "evaluate.eval_frame.carrier_elements",
    "presentation.instantiate_schemas.relations_out",
    "suites.operators_returned",
    "suites.candidates_checked",
    "suites.nondegenerate_operators",
)

# FiniteLattice.from_poset only samples distributivity above this size when
# a hint is passed (lattice.py); the count of such calls is a layer metric.
SAMPLED_ABOVE = 320


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.current = -1
        self.on = True  # off for untraced runs of an operation and for checks
        self._undo: list = []

    def name_id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.names)
            self.names.append(layer)
        return self._ids[layer]

    def span(self, layer: str, fn):
        """Call fn() inside a span of the given layer."""
        return self._wrap(fn, self.name_id(layer), None, None)()

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        import importlib

        for mod_name, path, layer in TARGETS:
            mod = importlib.import_module(f"locale_forge.{mod_name}")
            owner, _, attr = path.rpartition(".")
            holder = getattr(mod, owner) if owner else mod
            raw = holder.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            pre, post = _HOOKS.get(layer, (None, None))
            wrapper = self._wrap(fn, self.name_id(layer), pre, post)
            if owner:
                setattr(holder, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
                self._undo.append((setattr, holder, attr, raw))
            else:
                self._replace_everywhere(fn, wrapper)

    def _replace_everywhere(self, fn, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if not (name == "locale_forge" or name.startswith("locale_forge.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((setattr, mod, attr, fn))
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is fn:
                            value[key] = wrapper
                            self._undo.append((dict.__setitem__, value, key, fn))

    def uninstall(self) -> None:
        for setter, holder, key, original in reversed(self._undo):
            setter(holder, key, original)
        self._undo.clear()

    def _wrap(self, fn, nid: int, pre, post):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if pre is not None:
                args = pre(tracer, args, kwargs)
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer.current)
            tracer.end.append(0.0)
            tracer.current = idx
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.current = tracer.parent[idx]
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        header = {"names": self.names, "spans": len(self.start), "counters": self.counters}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                fh.write(arr.tobytes())

    def absorb(self, path) -> None:
        """Append the spans and counters of a spans file written by dump()."""
        with gzip.open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["spans"]
            arrays = []
            for code in ("H", "i", "d", "d"):
                arr = array(code)
                arr.frombytes(fh.read(n * arr.itemsize))
                arrays.append(arr)
        names, parents, starts, ends = arrays
        remap = [self.name_id(layer) for layer in header["names"]]
        offset = len(self.start)
        self.name.extend(remap[i] for i in names)
        self.parent.extend(p + offset if p >= 0 else -1 for p in parents)
        self.start.extend(starts)
        self.end.extend(ends)
        for key, value in header["counters"].items():
            if key == "lattice.from_poset.n_max":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value

    def self_times(self) -> dict[str, tuple[float, int, list[float]]]:
        """Per layer: (total self time, span count, span durations)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, tuple[float, int, list[float]]] = {}
        for i in range(n):
            layer = self.names[self.name[i]]
            total, calls, durations = out.get(layer, (0.0, 0, []))
            dur = self.end[i] - self.start[i]
            durations.append(dur)
            out[layer] = (total + dur - child[i], calls + 1, durations)
        return out


# -- counting hooks: pre(tracer, args, kwargs) -> args, post(tracer, args, kwargs, result)


def _from_poset_post(tr, args, kwargs, lat):
    c = tr.counters
    c["lattice.from_poset.n_max"] = max(c["lattice.from_poset.n_max"], lat.n)
    hint = args[1] if len(args) > 1 else kwargs.get("distributive_hint")
    if lat.n > SAMPLED_ABOVE and hint is not None:
        c["lattice.from_poset.sampled_calls"] += 1


def _from_pairs_pre(tr, args, kwargs):
    elements, pairs = args  # every caller passes both positionally
    if not hasattr(pairs, "__len__"):
        pairs = list(pairs)
    tr.counters["lattice.from_pairs.pairs"] += len(pairs)
    return elements, pairs


def _eval_frame_post(tr, args, kwargs, obj):
    tr.counters["evaluate.eval_frame.carrier_elements"] += obj.carrier.n


def _instantiate_post(tr, args, kwargs, p):
    tr.counters["presentation.instantiate_schemas.relations_out"] += len(p.relations)


def _check_operator_post(tr, args, kwargs, report):
    # a candidate law-checked by rand_quotient_operator itself
    if tr.current >= 0 and tr.names[tr.name[tr.current]] == "suites.rand_quotient_operator":
        tr.counters["suites.candidates_checked"] += 1


def _rand_operator_post(tr, args, kwargs, e):
    c = tr.counters
    c["suites.operators_returned"] += 1
    n = e.source.n
    if n > 2 and any(e.table[x] != x for x in range(n)):
        c["suites.nondegenerate_operators"] += 1


_HOOKS = {
    "lattice.from_poset": (None, _from_poset_post),
    "lattice.from_pairs": (_from_pairs_pre, None),
    "evaluate.eval_frame": (None, _eval_frame_post),
    "presentation.instantiate_schemas": (None, _instantiate_post),
    "lattice.check_quotient_operator": (None, _check_operator_post),
    "suites.rand_quotient_operator": (None, _rand_operator_post),
}

SELF_TIME_LAYERS = (
    "lattice.from_poset",
    "lattice.from_pairs",
    "lattice.downsets",
    "lattice.poset_isomorphism",
    "lattice.check_laws",
    "lattice.fixed_points",
    "lattice.kleene_closure",
    "evaluate.eval_frame",
    "evaluate.eval_kind",
    "evaluate.verify_coverage",
    "terms.normalize",
    "presentation.saturate",
    "presentation.check_kind",
    "presentation.instantiate_schemas",
    "generators.domain_build",
    "transform.present",
    "transform.spec_from_operator",
    "dsl.print",
    "serialize.to_jsonable",
)
CALL_LAYERS = (
    "lattice.from_poset",
    "lattice.poset_isomorphism",
    "lattice.check_laws",
    "evaluate.eval_frame",
    "terms.normalize",
    "transform.present",
)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one traced pass: totals divided by ``passes``.
    A layer that was never called reads 0."""
    times = tracer.self_times()
    c = tracer.counters
    out: dict[str, tuple[float, str]] = {}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = (times.get(layer, (0.0, 0, []))[0] / passes, "s")
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = (times.get(layer, (0.0, 0, []))[1] / passes, "count")
    out["lattice.from_poset.n_max"] = (c["lattice.from_poset.n_max"], "count")
    out["lattice.from_poset.sampled_calls"] = (c["lattice.from_poset.sampled_calls"] / passes, "count")
    out["lattice.from_pairs.pairs"] = (c["lattice.from_pairs.pairs"] / passes, "count")
    out["evaluate.eval_frame.carrier_elements"] = (
        c["evaluate.eval_frame.carrier_elements"] / passes,
        "count",
    )
    out["presentation.instantiate_schemas.relations_out"] = (
        c["presentation.instantiate_schemas.relations_out"] / passes,
        "count",
    )
    returned = c["suites.operators_returned"]
    checked = c["suites.candidates_checked"]
    out["suites.operator_accept_ratio"] = (returned / checked if checked else 0.0, "ratio")
    out["suites.nondegenerate_ratio"] = (
        c["suites.nondegenerate_operators"] / returned if returned else 0.0,
        "ratio",
    )
    verbs = sorted(times.get("cli.main", (0.0, 0, []))[2])
    out["cli.verb_ms"] = (1000 * verbs[len(verbs) // 2] if verbs else 0.0, "ms")
    return out


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS_FILE -- VERB ARGS...")
    from locale_forge import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.span("cli.main", lambda: cli.main(cli_args))
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

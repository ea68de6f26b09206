"""JSON forms of every serializable object.

JSON is the machine format: deterministic (sorted keys, canonical element
order) and round-trips bit-exactly for presentations and quotient specs.
"""

from __future__ import annotations

from typing import Any

from .generators import domain_from_descriptor
from .lattice import FiniteLattice, FinitePoset, MonotoneMap, OperatorReport, QuotientMode, _bits
from .presentation import (
    Presentation,
    PresentationKind,
    Relation,
    RelationSchema,
    StabilityReport,
)
from .rationals import parse_extrat
from .terms import (
    COND_OPS,
    Cond,
    EAtom,
    EExpr,
    EOp,
    GenPattern,
    Meet,
    SchemaClause,
    SchemaTerm,
    Term,
    TermError,
)


def _expr_to_jsonable(e: EExpr) -> Any:
    if isinstance(e, EOp):
        return {"op": e.op, "left": _expr_to_jsonable(e.left), "right": _expr_to_jsonable(e.right)}
    out: dict[str, Any] = {}
    if e.param is not None:
        out["param"] = e.param
    else:
        out["const"] = str(e.const)
    if e.with_index:
        out["index"] = True
    if e.offset:
        out["offset"] = e.offset
    return out


def _expr_from_jsonable(d: dict) -> EExpr:
    # a value of the wrong type or shape is a TypeError: a malformed document
    if "op" in d:
        if d["op"] not in ("max", "min"):
            raise TypeError(f"an endpoint 'op' is 'max' or 'min', not {d['op']!r}")
        return EOp(d["op"], _expr_from_jsonable(d["left"]), _expr_from_jsonable(d["right"]))
    if "param" in d:
        if not isinstance(d["param"], str):
            raise TypeError(f"a 'param' is a parameter name, not {d['param']!r}")
        return EAtom(d["param"], with_index=d.get("index", False), offset=d.get("offset", 0))
    return EAtom(None, parse_extrat(d["const"]), d.get("index", False), d.get("offset", 0))


def _pattern_to_jsonable(p: GenPattern) -> Any:
    out: dict[str, Any] = {"ctor": p.ctor, "args": [_expr_to_jsonable(a) for a in p.args]}
    if p.tags:
        out["tags"] = list(p.tags)
    return out


def _pattern_from_jsonable(d: dict) -> GenPattern:
    return GenPattern(d["ctor"], tuple(_expr_from_jsonable(a) for a in d["args"]), tuple(d.get("tags", ())))


def _cond_to_jsonable(c: Cond) -> Any:
    return {
        "op": c.op,
        "left": [_expr_to_jsonable(e) for e in c.left],
        "right": [_expr_to_jsonable(e) for e in c.right],
    }


def _cond_from_jsonable(d: dict) -> Cond:
    op = d["op"]
    if op not in COND_OPS:
        raise TypeError(f"a condition 'op' is one of {', '.join(COND_OPS)}, not {op!r}")
    left, right = (tuple(_expr_from_jsonable(e) for e in d[side]) for side in ("left", "right"))
    arity = 2 if op == "pairneq" else 1
    if len(left) != arity or len(right) != arity:
        raise TypeError(f"a condition {op!r} has {arity} expression(s) in 'left' and in 'right'")
    return Cond(op, left, right)


def term_to_jsonable(t: Term) -> Any:
    return {"join": [{"meet": list(c.gens)} for c in t.clauses]}


def term_from_jsonable(d: dict) -> Term:
    for c in d["join"]:
        if "meet" not in c:
            raise TypeError(
                f"a concrete term clause is a 'meet', not {sorted(c)}; write a Z-indexed "
                "family as a 'schema' relation with 'params': [] and an 'intVar' clause"
            )
    return Term(tuple(Meet(tuple(c["meet"])) for c in d["join"]))


def _schema_clause_to_jsonable(cl: SchemaClause) -> Any:
    out: dict[str, Any] = {"meet": [_pattern_to_jsonable(p) for p in cl.meet]}
    if cl.bound:
        out["bound"] = list(cl.bound)
    if cl.conds:
        out["conds"] = [_cond_to_jsonable(c) for c in cl.conds]
    if cl.int_var is not None:
        out["intVar"] = cl.int_var
    if cl.directed:
        out["directed"] = True
    return out


def _schema_clause_from_jsonable(d: dict) -> SchemaClause:
    return SchemaClause(
        tuple(_pattern_from_jsonable(p) for p in d["meet"]),
        tuple(d.get("bound", ())),
        tuple(_cond_from_jsonable(c) for c in d.get("conds", ())),
        d.get("intVar"),
        d.get("directed", False),
    )


def relation_to_jsonable(r) -> Any:
    if isinstance(r, Relation):
        return {
            "rel": {
                "lhs": term_to_jsonable(r.lhs),
                "rhs": term_to_jsonable(r.rhs),
                "op": r.op,
            }
        }
    return {
        "schema": {
            "params": list(r.params),
            "conds": [_cond_to_jsonable(c) for c in r.conds],
            "lhs": [_schema_clause_to_jsonable(c) for c in r.lhs.clauses],
            "rhs": [_schema_clause_to_jsonable(c) for c in r.rhs.clauses],
            "op": r.op,
        }
    }


def relation_from_jsonable(d: dict):
    if "rel" in d:
        r = d["rel"]
        return Relation(term_from_jsonable(r["lhs"]), term_from_jsonable(r["rhs"]), r["op"])
    s = d["schema"]
    params, conds = tuple(s["params"]), tuple(_cond_from_jsonable(c) for c in s["conds"])
    lhs, rhs = (tuple(_schema_clause_from_jsonable(c) for c in s[side]) for side in ("lhs", "rhs"))
    # a parameter that neither the schema nor its clause binds has no value
    # to instantiate at: a malformed document
    for scope, exprs in [(params, conds)] + [(params + cl.bound, cl.meet + cl.conds) for cl in lhs + rhs]:
        for x in exprs:
            undeclared = x.free_params().difference(scope)
            if undeclared:
                raise TypeError(f"schema parameter {min(undeclared)!r} is in neither 'params' nor its clause's 'bound'")
    return RelationSchema(params, conds, SchemaTerm(lhs), SchemaTerm(rhs), s["op"])


def presentation_to_jsonable(p: Presentation) -> Any:
    out = {
        "kind": p.kind.value,
        "domain": p.domain.descriptor(),
        "relations": [relation_to_jsonable(r) for r in p.relations],
    }
    prov = getattr(p, "provenance", None)
    if prov is not None:
        out["provenance"] = {
            "parentHash": prov.parent_hash,
            "mode": prov.mode,
            "imageTable": [list(x) for x in prov.image],
        }
    return out


def _require_gens(domain, gens) -> None:
    """The ``TermError`` that ``normalize`` raises, for the first of
    ``gens`` outside ``domain``."""
    for g in gens:
        if not domain.contains(g):
            raise TermError(f"generator {g!r} does not belong to domain {domain.name!r}")


def presentation_from_jsonable(d: dict) -> Presentation:
    kind = PresentationKind(d["kind"])
    domain = domain_from_descriptor(d["domain"])
    rels = tuple(relation_from_jsonable(r) for r in d["relations"])
    for r in rels:
        if isinstance(r, Relation):
            _require_gens(domain, [g for c in r.lhs.clauses + r.rhs.clauses for g in c.gens])
        elif domain.finite:
            # a TypeError, as for a family in a term: a malformed document
            raise TypeError(f"a finite domain takes no schemas: {r}")
    if "provenance" in d:
        from .transform import Provenance, TransformedPresentation

        pv = d["provenance"]
        prov = Provenance(pv["parentHash"], pv["mode"], tuple(tuple(x) for x in pv["imageTable"]))
        return TransformedPresentation(kind, domain, rels, prov)
    return Presentation(kind, domain, rels)


def spec_to_jsonable(spec) -> Any:
    from .transform import QuotientSpec

    out: dict[str, Any] = {
        "mode": spec.mode.value,
        "domain": spec.domain.descriptor(),
    }
    if spec.image:
        out["image"] = {g: term_to_jsonable(t) for g, t in spec.image}
    if spec.cases:
        out["cases"] = [
            {
                "pin": [[k, str(v)] for k, v in c.pin],
                "conds": [_cond_to_jsonable(x) for x in c.conds],
                "term": [_schema_clause_to_jsonable(cl) for cl in c.term.clauses],
            }
            for c in spec.cases
        ]
    return out


def spec_from_jsonable(d: dict):
    from .transform import QuotientSpec, SchematicCase

    domain = domain_from_descriptor(d["domain"])
    if domain.finite and d.get("cases"):
        raise TypeError("a finite domain takes no schematic cases")
    image = [(g, term_from_jsonable(t)) for g, t in d.get("image", {}).items()]
    _require_gens(domain, [g for key, t in image for g in (key, *[g for c in t.clauses for g in c.gens])])
    image = tuple(sorted(image, key=lambda kv: domain.sort_key(kv[0])))
    cases = tuple(
        SchematicCase(
            tuple((k, parse_extrat(v)) for k, v in c["pin"]),
            tuple(_cond_from_jsonable(x) for x in c["conds"]),
            SchemaTerm(tuple(_schema_clause_from_jsonable(cl) for cl in c["term"])),
        )
        for c in d.get("cases", ())
    )
    return QuotientSpec(QuotientMode(d["mode"]), domain, image, cases)


# ---------------------------------------------------------------------------
# finite lattices and maps


def poset_to_jsonable(p: FinitePoset) -> Any:
    pairs = sorted((i, j) for i in range(p.n) for j in _bits(p.up[i]))
    return {"elements": list(p.elements), "leq": [list(x) for x in pairs]}


def poset_from_jsonable(d: dict) -> FinitePoset:
    return FinitePoset.from_pairs(d["elements"], [tuple(x) for x in d["leq"]])


def lattice_to_jsonable(l: FiniteLattice) -> Any:
    out = poset_to_jsonable(l.poset)
    out["flags"] = {
        "hasAllMeets": True,
        "hasAllJoins": True,
        "distributive": l.distributive,
        "frame": l.frame,
    }
    return out


def lattice_from_jsonable(d: dict) -> FiniteLattice:
    return FiniteLattice.from_poset(poset_from_jsonable(d))


def map_to_jsonable(f: MonotoneMap) -> Any:
    return {"table": list(f.table)}


def presented_to_jsonable(obj) -> Any:
    if isinstance(obj.carrier, FiniteLattice):
        carrier = lattice_to_jsonable(obj.carrier)
    else:
        carrier = poset_to_jsonable(obj.carrier)
    return {
        "category": obj.category,
        "carrier": carrier,
        "interp": {g: i for g, i in sorted(obj.interp.items())},
    }


def report_to_jsonable(rep: OperatorReport) -> Any:
    return {
        "verdict": "pass" if rep.verdict else "fail",
        "witnesses": [{"law": law, "elements": list(els)} for law, els in rep.witnesses],
        "notes": list(rep.notes),
    }


def stability_to_jsonable(rep: StabilityReport) -> Any:
    return {
        "policy": rep.policy,
        "verdicts": [
            {
                "relation": v.relation_index,
                "verdict": v.verdict,
                **(
                    {
                        "witnessGenerator": v.witness_generator,
                        "missing": relation_to_jsonable(v.missing),
                    }
                    if v.verdict == "fail"
                    else {}
                ),
            }
            for v in rep.verdicts
        ],
    }

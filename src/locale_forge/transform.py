"""Presentation-to-presentation quotient transformers.

Given a presentation of a frame and the restriction of a quotient operator
to generators (a QuotientSpec), ``present`` emits the presentation of the
quotient frame over tagged generators: the unit and/or zero relation, one
meet and/or join relation per generator pair expanded through the chosen
representations, and the original relations transported.  Over a finite
domain the tagged generators share the parent's indices (one
``TaggedDomain`` per parent object and tag, ``tagged_domain``), so the
pair relations are built and deduped as sides, and the quotient is handed
its sides (``presentation.relation_sides``).  A schematic image, such as the
Z-indexed shift family of the circle, is a ``SchemaTerm`` and yields
``RelationSchema`` pair relations.  One engine serves all six modes; it
reads every difference between them (tag, parent kind, unit/zero
relations, pair family, image shape) from ``mode.info``.  The six
``present_<mode>`` functions are the same engine with the mode fixed.

``derive_spec_from_coinserter`` goes the other way: it computes the
quotient operator of a coinserter or coequaliser of finite frame maps,
verifies its laws, and reads the operator back off the generators.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from .generators import GeneratorDomain, TaggedDomain, memoized, tagged_domain
from .lattice import (
    MonotoneMap,
    QuotientMode,
    Role,
    _bits,
    check_quotient_operator,
    coequaliser_closure,
    compose,
    interior_from_pair,
    kleene_closure,
    left_adjoint,
    right_adjoint,
)
from .presentation import (
    AnyRelation,
    ONE,
    Presentation,
    PresentationError,
    PresentationKind,
    Relation,
    RelationSchema,
    _side_key,
    check_kind,
    hand_over_sides,
    instance_kernel,
    relation_sides,
)
from .rationals import ExtRat
from .records import Record
from .terms import (
    Cond,
    Meet,
    SchemaClause,
    SchemaTerm,
    Term,
    gen_term,
    join_of,
    rename_clause,
    rename_cond,
    rename_pattern,
    TERM_ONE,
    TERM_ZERO,
)

if TYPE_CHECKING:
    from .evaluate import PresentedObject


class TransformError(PresentationError):
    pass


class SchematicCase(Record):
    """One case of a schematic image: applies to the generic generator when
    ``pin`` fixes some of its parameters and ``conds`` hold; ``term`` is
    the image written over the (pinned) parameters."""

    __slots__ = ("pin", "conds", "term")

    def __init__(self, pin: tuple[tuple[str, ExtRat], ...], conds: tuple[Cond, ...], term: SchemaTerm):
        init = object.__setattr__
        init(self, "pin", pin)
        init(self, "conds", conds)
        init(self, "term", term)


class QuotientSpec(Record):
    """The generator-level data of a quotient operator.

    ``image`` lists the operator's value on each generator as a term over
    generators; the required shape depends on the mode (joins of
    generators for the open modes, joins of finite meets for the proper
    modes, single generators for the triquotient modes).  Symbolic domains
    use ``cases`` instead.
    """

    __slots__ = ("mode", "domain", "image", "cases")

    def __init__(
        self,
        mode: QuotientMode,
        domain: GeneratorDomain,
        image: tuple[tuple[str, Term], ...] = (),
        cases: tuple[SchematicCase, ...] = (),
    ):
        for g, t in image:
            if not domain.contains(g):
                raise TransformError(f"image key {g!r} not a generator")
            _check_image_shape(mode, t)
        init = object.__setattr__
        init(self, "mode", mode)
        init(self, "domain", domain)
        init(self, "image", image)
        init(self, "cases", cases)

    @property
    def schematic(self) -> bool:
        return bool(self.cases)

    def image_of(self, g: str) -> Term:
        for k, t in self.image:
            if k == g:
                return t
        raise TransformError(f"no image recorded for generator {g!r}")


def _check_image_shape(mode: QuotientMode, t: Term):
    role = mode.info.family.role
    if role is Role.INTERIOR_OP:
        return  # any join of finite meets
    for cl in t.clauses:
        if len(cl.gens) != 1:
            raise TransformError(
                f"{mode.value} image must be a join of generators, got meet {cl}"
            )
    if role is Role.DCPO_IDEMPOTENT and len(t.clauses) != 1:
        raise TransformError(
            f"{mode.value} image must be a single generator (finite directed join)"
        )


def identity_spec(domain: GeneratorDomain, mode: QuotientMode) -> QuotientSpec:
    image = tuple((g, gen_term(g)) for g in sorted(domain.enumerate_gens(), key=domain.sort_key))
    return QuotientSpec(mode, domain, image)


class Provenance(Record, compare=("parent_hash", "mode", "image")):
    """How a quotient was built: the transformer's ``mode``, the ``image``
    table of the spec, and ``parent_hash``, 16 hex digits of the SHA-256 of
    the parent's JSON form.  ``present`` hands over the parent itself, and
    the hash is computed (and memoized in the parent's ``memo``) when it is
    first read; a quotient read back from JSON carries the hash it was
    written with."""

    __slots__ = ("_parent", "mode", "image")

    def __init__(self, parent: Union[str, Presentation], mode: str, image: tuple[tuple[str, str], ...]):
        init = object.__setattr__
        init(self, "_parent", parent)
        init(self, "mode", mode)
        init(self, "image", image)

    @property
    def parent_hash(self) -> str:
        return self._parent if isinstance(self._parent, str) else _parent_hash(self._parent)


class TransformedPresentation(Presentation, compare=("kind", "domain", "relations", "provenance")):
    __slots__ = ("provenance",)

    def __init__(
        self,
        kind: PresentationKind,
        domain: GeneratorDomain,
        relations: tuple[AnyRelation, ...],
        provenance: Provenance = None,  # type: ignore[assignment]
    ):
        super().__init__(kind, domain, relations)
        object.__setattr__(self, "provenance", provenance)


def _transport_relation(rel, tagged: TaggedDomain):
    def wrap_term(t: Term) -> Term:
        return Term(tuple(Meet(tuple(tagged.wrap(g) for g in cl.gens)) for cl in t.clauses))

    if isinstance(rel, Relation):
        return Relation(wrap_term(rel.lhs), wrap_term(rel.rhs), rel.op)

    def wrap_clause(cl: SchemaClause) -> SchemaClause:
        return SchemaClause(
            tuple(p.tagged(tagged.tag) for p in cl.meet),
            cl.bound,
            cl.conds,
            cl.int_var,
            cl.directed,
        )

    return RelationSchema(
        rel.params,
        rel.conds,
        SchemaTerm(tuple(wrap_clause(c) for c in rel.lhs.clauses)),
        SchemaTerm(tuple(wrap_clause(c) for c in rel.rhs.clauses)),
        rel.op,
    )


def _parent_hash(p: Presentation) -> str:
    """The provenance hash of the parent, memoized on the parent object."""
    out = p.memo.get("parent hash")
    if out is None:
        import json

        # the interpreter's own SHA-256, as ``random`` takes its SHA-512:
        # ``hashlib`` would load OpenSSL into a process that needs one hash
        try:
            from _sha256 import sha256  # 3.10, 3.11
        except ImportError:
            try:
                from _sha2 import sha256  # 3.12 and later
            except ImportError:
                from hashlib import sha256

        from .serialize import presentation_to_jsonable

        blob = json.dumps(presentation_to_jsonable(p), sort_keys=True)
        out = p.memo["parent hash"] = sha256(blob.encode()).hexdigest()[:16]
    return out


def _finite_pair_sides(p: Presentation, spec: QuotientSpec):
    """The sides of the finite pair relations, on the parent's generator
    indices, which the tagged generators share.

    The semi relation families are symmetric and emitted once per
    unordered pair; the strict ones expand only the second slot, and
    dropping the mirrored relation loses forcing on small finite
    instances, so both orders are kept there.  Each relation equates the
    meet (join) of the pair with the join over the pair's image clauses
    a, b of the meet of x ^ y (x v y) for x in a, y in b, read off the
    kernel's meet (join) tables."""
    kernel = instance_kernel(p.domain)
    info = spec.mode.info
    # each image clause as its generator indices
    images = [[tuple(_bits(a)) for a in kernel.side(spec.image_of(g))] for g in kernel.names]
    n = len(images)
    # tables[y][x] is the mask of x ^ y (x v y)
    tables = [
        (op, [kernel.row(y, None) if op == "meet" else kernel.row(None, y) for y in range(n)])
        for op in info.family.ops
    ]
    for s in range(n):
        for t in range(s, n) if info.semi else range(n):
            left = images[s] if info.semi else [(s,)]
            right = images[t]
            for op, table in tables:
                lhs = (1 << s | 1 << t,) if op == "meet" else tuple(sorted({1 << s, 1 << t}))
                clauses = set()
                for a in left:
                    for b in right:
                        c = 0
                        for y in b:
                            row = table[y]
                            for x in a:
                                c |= row[x]
                        clauses.add(c)
                rhs = ONE if 0 in clauses else tuple(sorted(clauses))
                if lhs != rhs:
                    yield lhs, rhs, "="


def _transported(p: Presentation, tagged: TaggedDomain) -> list:
    """The parent's relations over the tagged generators, each with its
    dedupe key and its sides (None for a schema); once per parent object
    and tag, in ``p.memo``, for a mode's strict and semi quotients alike.
    A relation in normal form is keyed by its sides, which the tagged
    generators share; any other by ``Relation.key``, which no normal form
    shares, so two relations equal up to clause order both stay."""

    def transport():
        finite = p.domain.finite and not p.schematic
        kernel = instance_kernel(p.domain) if finite else None
        out = []
        for r, s in zip(p.relations, relation_sides(p, False) if finite else [None] * len(p.relations)):
            moved = _transport_relation(r, tagged)
            if s is None:
                key = ("schema", str(moved)) if isinstance(r, RelationSchema) else moved.key()
            else:
                key = _side_key(*s) if kernel.relation(*s) == r else moved.key()
            out.append((key, moved, s))
        return out

    return memoized(p, ("transported", tagged.tag), transport)


def _symbolic_pair_schemas(
    p: Presentation, spec: QuotientSpec, tagged: TaggedDomain
) -> list[RelationSchema]:
    domain = p.domain
    pp = domain.pattern_params
    info = spec.mode.info
    t_names = {name: name + "'" for name in pp}
    s_generic = domain.generic_pattern()
    s_pat = s_generic.tagged(tagged.tag)
    out = []

    if info.semi or len(info.family.ops) != 1:
        raise TransformError(
            "schematic images are supported for the open and proper transformers, "
            f"not {spec.mode.value}"
        )
    (op,) = info.family.ops
    combine = domain.meet_patterns if op == "meet" else domain.join_patterns

    for case in spec.cases:
        pin = {t_names[k]: v for k, v in case.pin}
        t_pat = rename_pattern(domain.generic_pattern(), t_names, pin).tagged(tagged.tag)
        conds = tuple(rename_cond(c, t_names, pin) for c in case.conds)
        rhs_clauses = []
        for cl in case.term.clauses:
            renamed = rename_clause(cl, t_names, pin)
            body = tuple(combine(s_generic, pat).tagged(tagged.tag) for pat in renamed.meet)
            rhs_clauses.append(
                SchemaClause(body, renamed.bound, renamed.conds, renamed.int_var, renamed.directed)
            )
        if op == "meet":
            lhs = SchemaTerm((SchemaClause((s_pat, t_pat)),))
        else:
            lhs = SchemaTerm((SchemaClause((s_pat,)), SchemaClause((t_pat,))))
        params = tuple(pp) + tuple(t_names[x] for x in pp if t_names[x] not in pin)
        out.append(RelationSchema(params, conds, lhs, SchemaTerm(tuple(rhs_clauses)), "="))
    return out


def _present(p: Presentation, spec: QuotientSpec, mode: QuotientMode, check: bool) -> TransformedPresentation:
    if spec.mode is not mode:
        raise TransformError(f"spec mode {spec.mode.value} does not match transformer {mode.value}")
    family = mode.info.family
    kind = PresentationKind.with_ops(family.ops)
    if p.kind is not kind:
        raise TransformError(f"{mode.value} transformer needs a {kind.value} presentation")
    if spec.domain != p.domain:
        raise TransformError("spec and presentation disagree on the generator domain")
    if check and not p.schematic and p.domain.finite:
        report = check_kind(p)
        if not report.ok:
            from .evaluate import KindCheckError

            raise KindCheckError(report)

    # one tagged domain per parent object and tag, so that a mode's strict
    # and semi quotients share its indices, kernel and meet carrier
    tagged = tagged_domain(family.tag, p.domain)
    rels: list = []
    if "meet" in family.ops:
        top = p.domain.top()
        if top is None:
            raise TransformError("domain top needed for the unit relation")
        rels.append(Relation(gen_term(tagged.wrap(top)), TERM_ONE))
    if "join" in family.ops:
        bottom = p.domain.bottom()
        if bottom is None:
            raise TransformError("domain bottom needed for the zero relation")
        rels.append(Relation(gen_term(tagged.wrap(bottom)), TERM_ZERO))

    # every relation with its dedupe key and, over a finite domain, its
    # sides, which the quotient is handed when it holds no schema
    if spec.schematic:
        entries = [(r.key(), r, None) for r in rels]
        entries += [(("schema", str(r)), r, None) for r in _symbolic_pair_schemas(p, spec, tagged)]
    else:
        pairs = list(_finite_pair_sides(p, spec))
        tk = instance_kernel(tagged)
        heads = [(tk.side(r.lhs), tk.side(r.rhs), "=") for r in rels]
        entries = [(_side_key(*s), r, s) for r, s in zip(rels, heads)]
        entries += [(_side_key(*s), None, s) for s in pairs]
    seen, uniq, sides = set(), [], []
    for key, r, s in entries + _transported(p, tagged):
        if key not in seen:
            seen.add(key)
            uniq.append(r or tk.relation(*s))
            sides.append(s)

    if spec.schematic:
        image = tuple((f"case{i}", str(c.term)) for i, c in enumerate(spec.cases))
    else:
        image = tuple((g, str(t)) for g, t in spec.image)
    prov = Provenance(p, mode.value, image)
    out = TransformedPresentation(PresentationKind.PLAIN, tagged, tuple(uniq), prov)
    if None not in sides:
        hand_over_sides(out, sides)
    return out


def present_semi_open(p: Presentation, spec: QuotientSpec, check: bool = True) -> TransformedPresentation:
    return _present(p, spec, QuotientMode.SEMI_OPEN, check)


def present_open(p: Presentation, spec: QuotientSpec, check: bool = True) -> TransformedPresentation:
    return _present(p, spec, QuotientMode.OPEN, check)


def present_semi_proper(p: Presentation, spec: QuotientSpec, check: bool = True) -> TransformedPresentation:
    return _present(p, spec, QuotientMode.SEMI_PROPER, check)


def present_proper(p: Presentation, spec: QuotientSpec, check: bool = True) -> TransformedPresentation:
    return _present(p, spec, QuotientMode.PROPER, check)


def present_semi_triquotient(p: Presentation, spec: QuotientSpec, check: bool = True) -> TransformedPresentation:
    return _present(p, spec, QuotientMode.SEMI_TRIQUOTIENT, check)


def present_triquotient(p: Presentation, spec: QuotientSpec, check: bool = True) -> TransformedPresentation:
    return _present(p, spec, QuotientMode.TRIQUOTIENT, check)


# ``present`` calls the entry point of the mode through this table, so that
# a wrapper put on a ``present_<mode>`` function sees every call.
_PRESENTERS = {mode: globals()[f"present_{mode.name.lower()}"] for mode in QuotientMode}


def present(p: Presentation, spec: QuotientSpec, check: bool = True) -> TransformedPresentation:
    """The presentation of the quotient that ``spec`` describes, built by
    the transformer of ``spec.mode``.  ``check`` runs the parent's kind
    check first (finite, non-schematic parents only)."""
    return _PRESENTERS[spec.mode](p, spec, check)


# ---------------------------------------------------------------------------
# operator derivation from coinserter / coequaliser data


def _readback(parent: PresentedObject, target: int, join: bool) -> Term:
    """target as a join of the generators below it (``join``) or as a meet
    of those above it.  Redundant members are pruned starting from the ones
    nearest to target, so a join keeps fine generators."""
    X = parent.carrier
    domain = parent.domain
    interp = parent.interp
    if join:
        cands = [g for g in interp if X.leq(interp[g], target)]
        combine = X.join_all
    else:
        cands = [g for g in interp if X.leq(target, interp[g])]
        combine = X.meet_all
    if combine(interp[g] for g in cands) != target:
        raise TransformError(f"carrier element is not a {'join' if join else 'meet'} of generators")
    down = X.poset.down
    sign = -1 if join else 1

    def height(g: str) -> int:
        return sign * bin(down[interp[g]]).count("1")

    kept = sorted(cands, key=lambda g: (height(g), domain.sort_key(g)))
    i = 0
    while i < len(kept):
        rest = kept[:i] + kept[i + 1:]
        if rest and combine(interp[g] for g in rest) == target:
            kept = rest
        else:
            i += 1
    kept.sort(key=domain.sort_key)
    return join_of(kept) if join else Term((Meet(tuple(kept)),))


def _readback_generator(parent: PresentedObject, target: int) -> Term:
    domain = parent.domain
    hits = sorted(
        (g for g, v in parent.interp.items() if v == target), key=domain.sort_key
    )
    if not hits:
        raise TransformError(
            "carrier element is not a generator image; no directed-join representation"
        )
    return gen_term(hits[0])


def derive_spec_from_coinserter(
    parent: PresentedObject,
    fstar: MonotoneMap,
    gstar: MonotoneMap,
    mode: QuotientMode,
    coequaliser: bool = False,
) -> QuotientSpec:
    """Compute the quotient operator of the (co)inserter of f, g out of the
    presented frame, verify its laws for the mode, and read its generator
    images back as terms.

    Open modes use the Kleene closure of f_! g* (joined with g_! f* for a
    coequaliser); proper modes use g_* f* ^ id (met with f_* g* for a
    coequaliser), whose idempotence is checked directly.
    """
    X = parent.carrier
    if fstar.source.elements != X.elements:
        raise TransformError("fstar must start at the parent carrier")
    if gstar.source.elements != X.elements:
        raise TransformError("gstar must start at the parent carrier")

    role = mode.info.family.role
    if role is Role.CLOSURE_OP:
        f_sh = left_adjoint(fstar)
        if f_sh is None:
            raise TransformError("missing adjoint: f* has no left adjoint")
        if coequaliser:
            g_sh = left_adjoint(gstar)
            if g_sh is None:
                raise TransformError("missing adjoint: g* has no left adjoint")
            op = coequaliser_closure(f_sh, gstar, g_sh, fstar)
        else:
            op = kleene_closure(compose(f_sh, gstar))
    elif role is Role.INTERIOR_OP:
        g_st = right_adjoint(gstar)
        if g_st is None:
            raise TransformError("missing adjoint: g* has no right adjoint")
        if coequaliser:
            f_st = right_adjoint(fstar)
            if f_st is None:
                raise TransformError("missing adjoint: f* has no right adjoint")
            a, b = compose(g_st, fstar), compose(f_st, gstar)
            table = tuple(X.meet(X.meet(a(x), b(x)), x) for x in range(X.n))
            op = MonotoneMap(X, X, table)
            check_quotient_operator(op, mode.semi_variant).require()
        else:
            op, rep = interior_from_pair(g_st, fstar)
            rep.require()
    else:
        raise TransformError(
            "triquotient specs are caller data; derivation covers the open and proper modes"
        )
    return spec_from_operator(parent, op, mode)


def spec_from_operator(parent: PresentedObject, op: MonotoneMap, mode: QuotientMode) -> QuotientSpec:
    """Read a quotient operator back off the generators, once it passes the
    mode's law suite."""
    check_quotient_operator(op, mode).require()
    domain = parent.domain
    family = mode.info.family
    fold = PresentationKind.with_ops(family.ops).folds_meets
    kernel = instance_kernel(domain)
    image = []
    for g in sorted(parent.interp, key=domain.sort_key):
        target = op(parent.interp[g])
        # a generator, itself or read back, is in normal form already
        if target == parent.interp[g]:
            term = gen_term(g)
        elif family.role is Role.DCPO_IDEMPOTENT:
            term = _readback_generator(parent, target)
        else:
            term = kernel.term(kernel.side(_readback(parent, target, join=family.role is Role.CLOSURE_OP), fold))
        image.append((g, term))
    return QuotientSpec(mode, domain, tuple(image))

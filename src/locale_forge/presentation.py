"""Presentations of frames by generators and relations.

A presentation carries a kind tag saying which coverage discipline its
relations follow:

* ``sup``      -- joins of generators over a meet-semilattice of generators,
                  stable under meets with generators;
* ``preframe`` -- directed joins of finite meets over a join-semilattice,
                  stable under joins with generators;
* ``dcpo``     -- directed joins of generators over a distributive lattice,
                  stable under both;
* ``plain``    -- no discipline (e.g. the output of a quotient transformer).

``check_kind`` verifies the discipline relation by relation; a missing
stability instance may still be accepted when it is derivable from the
others, which the brute-force oracle decides on finite carriers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Union

from .generators import FiniteGeneratorDomain, GeneratorDomain, TaggedDomain
from .lattice import FinitePoset, _bits, maximal, subset_poset, unions
from .rationals import ExtRat
from .terms import (
    Cond,
    FamilyJoin,
    Meet,
    SchemaClause,
    SchemaTerm,
    Term,
    TermError,
    normalize,
)


class PresentationError(Exception):
    pass


class PresentationKind(str, Enum):
    SUP = "sup"
    PREFRAME = "preframe"
    DCPO = "dcpo"
    PLAIN = "plain"

    @property
    def folds_meets(self) -> bool:
        """Whether meets of generators mean the domain's meet.  Preframe
        generators carry only join structure, so their meets stay formal."""
        return self is not PresentationKind.PREFRAME


@dataclass(frozen=True)
class Relation:
    lhs: Term
    rhs: Term
    op: str = "="  # "=" or "<="

    def __post_init__(self):
        if self.op not in ("=", "<="):
            raise PresentationError(f"bad relation operator {self.op!r}")

    def normalized(self, domain: GeneratorDomain, fold_meets: bool = True) -> "Relation":
        return Relation(
            normalize(self.lhs, domain, fold_meets),
            normalize(self.rhs, domain, fold_meets),
            self.op,
        )

    def key(self):
        if self.op == "=":
            return ("=", frozenset((self.lhs, self.rhs)))
        return ("<=", self.lhs, self.rhs)

    def trivial(self) -> bool:
        return self.lhs == self.rhs

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


@dataclass(frozen=True)
class RelationSchema:
    """A relation with rational parameters and a conjunction of comparisons
    as side condition."""

    params: tuple[str, ...]
    conds: tuple[Cond, ...]
    lhs: SchemaTerm
    rhs: SchemaTerm
    op: str = "="

    def __post_init__(self):
        if self.op not in ("=", "<="):
            raise PresentationError(f"bad relation operator {self.op!r}")
        used = set()
        for side in (self.lhs, self.rhs):
            for cl in side.clauses:
                for pat in cl.meet:
                    used |= pat.free_params()
                for c in cl.conds:
                    used |= c.free_params()
        for p in self.params:
            if p not in used:
                raise PresentationError(f"schema parameter {p!r} occurs in neither side")

    def __str__(self) -> str:
        head = "(" + ", ".join(self.params) + ")"
        cond = " where " + " & ".join(str(c) for c in self.conds) if self.conds else ""
        return f"schema {head}{cond} : {self.lhs} {self.op} {self.rhs}"


AnyRelation = Union[Relation, RelationSchema]


@dataclass(frozen=True)
class Presentation:
    """The kind's structural requirement on the domain (sup needs a meet
    semilattice, and so on) is enforced where the structure is consumed --
    evaluation, saturation, stability checking -- not at construction, so
    unsaturated inputs can be built first and saturated after."""

    kind: PresentationKind
    domain: GeneratorDomain
    relations: tuple[AnyRelation, ...]

    @property
    def schematic(self) -> bool:
        return any(isinstance(r, RelationSchema) for r in self.relations) or any(
            isinstance(r, Relation) and (r.lhs.has_family() or r.rhs.has_family())
            for r in self.relations
        )

    def concrete_relations(self) -> list[Relation]:
        return [r for r in self.relations if isinstance(r, Relation)]

    def schema_count(self) -> int:
        return sum(1 for r in self.relations if isinstance(r, RelationSchema))

    @cached_property
    def _kind_reports(self) -> dict[bool, "StabilityReport"]:
        """``check_kind``'s reports on this object, keyed by ``oracle``."""
        return {}


# ---------------------------------------------------------------------------
# stability checking


@dataclass(frozen=True)
class StabilityVerdict:
    relation_index: int
    verdict: str  # syntacticPass | oraclePass | fail
    witness_generator: Optional[str] = None
    missing: Optional[Relation] = None


@dataclass(frozen=True)
class StabilityReport:
    verdicts: tuple[StabilityVerdict, ...]
    policy: str  # "oracle-allowed" | "syntactic-only"

    @property
    def ok(self) -> bool:
        return all(v.verdict != "fail" for v in self.verdicts)

    def __str__(self) -> str:
        lines = [f"stability check ({self.policy}):"]
        for v in self.verdicts:
            line = f"  relation {v.relation_index}: {v.verdict}"
            if v.verdict == "fail":
                line += f"  [generator {v.witness_generator}: missing {v.missing}]"
            lines.append(line)
        return "\n".join(lines)


def _clause_free_leq(domain: GeneratorDomain, a: Meet, b: Meet) -> bool:
    """Meet(a) <= Meet(b) already in the free structure."""
    top = domain.top()
    for g in b.gens:
        if not a.gens:
            if top is None or not domain.leq(top, g):
                return False
        elif not any(domain.leq(h, g) for h in a.gens):
            return False
    return True


def term_free_leq(domain: GeneratorDomain, s: Term, t: Term) -> bool:
    """lhs <= rhs provable by order/absorption alone."""
    for c in s.clauses:
        if not isinstance(c, Meet):
            return False
        if not any(
            isinstance(d, Meet) and _clause_free_leq(domain, c, d) for d in t.clauses
        ):
            return False
    return True


def _relation_free(domain: GeneratorDomain, rel: Relation) -> bool:
    if rel.op == "<=":
        return term_free_leq(domain, rel.lhs, rel.rhs)
    return term_free_leq(domain, rel.lhs, rel.rhs) and term_free_leq(domain, rel.rhs, rel.lhs)


def _shape_ok(kind: PresentationKind, rel: Relation) -> bool:
    def clause_ok(c) -> bool:
        if isinstance(c, FamilyJoin):
            return kind == PresentationKind.PREFRAME or len(c.body) <= 1
        if kind in (PresentationKind.SUP, PresentationKind.DCPO):
            return len(c.gens) <= 1
        return True

    return all(clause_ok(c) for c in rel.lhs.clauses + rel.rhs.clauses)


def generator_polynomial(
    domain: GeneratorDomain, meet_with: Optional[str], join_with: Optional[str]
) -> Callable[[str], str]:
    """The map g -> (g ^ v) v u on the domain's generators, where v is
    ``meet_with`` and u is ``join_with`` (``None`` leaves that step out).
    Images are memoized per (v, u) in ``domain.memo``, the domain object's
    own memo, as they are first asked for."""
    table = domain.memo.setdefault(("polynomial", meet_with, join_with), {})

    def image(g: str) -> str:
        out = table.get(g)
        if out is None:
            out = g
            if meet_with is not None:
                out = domain.meet(out, meet_with)
            if join_with is not None:
                out = domain.join(out, join_with)
            table[g] = out
        return out

    return image


def _apply_polynomial(
    domain: GeneratorDomain,
    rel: Relation,
    meet_with: Optional[str],
    join_with: Optional[str],
    fold_meets: bool = True,
) -> Relation:
    """Send every generator g on both sides through (g ^ v) v u.

    One-step stability instances are u=None (meet only) / v=None (join
    only); the dcpo saturation family uses both.  The empty meet (term 1)
    counts as the domain top, empty joins stay empty.  Generator images
    come from ``generator_polynomial``, memoized on the domain object, and
    each side is normalized once, through the domain's normal-form memo.
    """
    image = generator_polynomial(domain, meet_with, join_with)

    def apply_term(t: Term) -> Term:
        out: list[Meet] = []
        for cl in t.clauses:
            if not isinstance(cl, Meet):
                raise PresentationError("stability instantiation over schematic clause")
            if not cl.gens:
                if meet_with is None:
                    # 1 v u = 1
                    out.append(cl)
                else:
                    # (1 ^ v) v u
                    v = meet_with if join_with is None else domain.join(meet_with, join_with)
                    out.append(Meet((v,)))
            else:
                out.append(Meet(tuple(map(image, cl.gens))))
        return normalize(Term(tuple(out)), domain, fold_meets)

    return Relation(apply_term(rel.lhs), apply_term(rel.rhs), rel.op)


def _stability_instances(
    domain: GeneratorDomain, rel: Relation, kind: PresentationKind
) -> Iterable[tuple[str, Relation]]:
    """One-step stability instances demanded by the kind, as (witness, relation)."""
    for c in domain.enumerate_gens():
        if kind == PresentationKind.SUP:
            yield c, _apply_polynomial(domain, rel, c, None)
        elif kind == PresentationKind.PREFRAME:
            yield c, _apply_polynomial(domain, rel, None, c, kind.folds_meets)
        else:
            yield f"{c} (meet)", _apply_polynomial(domain, rel, c, None)
            yield f"{c} (join)", _apply_polynomial(domain, rel, None, c)


def check_kind(
    p: Presentation,
    grid: Optional[Sequence[ExtRat]] = None,
    oracle: bool = True,
) -> StabilityReport:
    """Per-relation stability verdicts for the presentation's kind.

    Schematic presentations are first instantiated on the caller's grid.
    ``oracle=False`` restricts to the syntactic discipline, turning
    derivable-but-absent instances into failures.  The report of a
    non-schematic presentation is memoized on the presentation object,
    per ``oracle``, so each presentation is checked once.
    """
    if p.kind == PresentationKind.PLAIN:
        raise PresentationError("plain presentations have no kind discipline to check")
    if p.schematic:
        if grid is None:
            raise PresentationError("schematic presentation: supply a grid to check_kind")
        return _check_kind(instantiate_schemas(p, grid), oracle)
    reports = p._kind_reports
    if oracle not in reports:
        reports[oracle] = _check_kind(p, oracle)
    return reports[oracle]


def _check_kind(p: Presentation, oracle: bool) -> StabilityReport:
    policy = "oracle-allowed" if oracle else "syntactic-only"
    domain = p.domain
    fold = p.kind.folds_meets
    rels = [r.normalized(domain, fold) for r in p.concrete_relations()]
    present = {r.key() for r in rels}
    for r in rels:
        if r.op == "=":
            present.add(("<=", r.lhs, r.rhs))
            present.add(("<=", r.rhs, r.lhs))

    evaluated = None

    def oracle_holds(rel: Relation) -> bool:
        nonlocal evaluated
        if not oracle:
            return False
        if evaluated is None:
            from .evaluate import _EVALUATORS

            evaluated = _EVALUATORS[p.kind](p)
        return evaluated.relation_holds(rel)

    verdicts = []
    for idx, rel in enumerate(rels):
        if not _shape_ok(p.kind, rel):
            verdicts.append(StabilityVerdict(idx, "fail", None, rel))
            continue
        verdict = "syntacticPass"
        witness = None
        missing = None
        for c, inst in _stability_instances(domain, rel, p.kind):
            if inst.trivial() or _relation_free(domain, inst):
                continue
            if inst.key() in present:
                continue
            if oracle_holds(inst):
                verdict = "oraclePass"
                continue
            verdict = "fail"
            witness = c
            missing = inst
            break
        verdicts.append(StabilityVerdict(idx, verdict, witness, missing))
    return StabilityReport(tuple(verdicts), policy)


# ---------------------------------------------------------------------------
# saturation


def _completion(domain: FiniteGeneratorDomain, meets: bool) -> tuple[FiniteGeneratorDomain, dict[str, str]]:
    """Free meet-semilattice with top on the generator poset (``meets``):
    finitely generated upsets under reverse inclusion; otherwise the free
    join-semilattice with bottom: finitely generated downsets.  Each element
    is named by its minimal (maximal) generators."""
    poset = domain.poset
    principal = poset.up if meets else poset.down
    masks = unions(principal, 1 << 15, "free meet-semilattice" if meets else "free join-semilattice")

    def label(m: int) -> str:
        ends = sorted(poset.elements[i] for i in _bits(maximal(m, principal)))
        return ".".join(ends) or ("unit" if meets else "zero")

    completed = subset_poset(masks, label, reverse=meets)
    pos = {m: k for k, m in enumerate(masks)}
    mapping = {g: completed.elements[pos[principal[i]]] for i, g in enumerate(poset.elements)}
    return FiniteGeneratorDomain(completed), mapping


def _map_term(t: Term, mapping: dict[str, str]) -> Term:
    out = []
    for cl in t.clauses:
        if not isinstance(cl, Meet):
            raise PresentationError("cannot saturate schematic relations; instantiate first")
        out.append(Meet(tuple(mapping[g] for g in cl.gens)))
    return Term(tuple(out))


def saturate(p: Presentation, target: PresentationKind) -> Presentation:
    """Close the domain under the operations the target kind needs, reshape
    relations onto the completed generators and append the missing
    stability instances, so that ``check_kind`` passes syntactically."""
    if target == PresentationKind.PLAIN:
        raise PresentationError("cannot saturate toward a plain kind")
    if not p.domain.finite:
        if p.kind == target:
            return p  # builtin symbolic domains ship pre-saturated
        raise PresentationError("cannot saturate a non-finite domain")
    domain = p.domain
    mapping = {g: g for g in domain.enumerate_gens()}
    if target == PresentationKind.SUP and not domain.meet_semilattice:
        domain, mapping = _completion(domain, meets=True)
    elif target == PresentationKind.PREFRAME and not domain.join_semilattice:
        domain, mapping = _completion(domain, meets=False)
    elif target == PresentationKind.DCPO and not domain.distributive_lattice:
        if not domain.meet_semilattice:
            domain, m1 = _completion(domain, meets=True)
            mapping = {g: m1[g] for g in mapping}
        if not domain.join_semilattice or not domain.distributive_lattice:
            domain, m2 = _completion(domain, meets=False)
            mapping = {g: m2[v] for g, v in mapping.items()}
        if not domain.distributive_lattice:
            raise PresentationError("completion did not reach a distributive lattice")

    fold = target.folds_meets
    rels = [
        Relation(_map_term(r.lhs, mapping), _map_term(r.rhs, mapping), r.op).normalized(
            domain, fold
        )
        for r in p.concrete_relations()
    ]
    if any(isinstance(r, RelationSchema) for r in p.relations):
        raise PresentationError("cannot saturate schematic relations; instantiate first")

    seen = {r.key() for r in rels}
    out = list(rels)
    gens = domain.enumerate_gens()
    for rel in rels:
        if not _shape_ok(target, rel):
            raise PresentationError(f"relation {rel} cannot be reshaped to {target.value}")
        # Appending the closed instance family in one pass: instances of
        # meet-instances are meet-instances (dually for joins), and dcpo
        # polynomials (x ^ v) v u compose back into the same family.
        if target == PresentationKind.SUP:
            args = [(c, None) for c in gens]
        elif target == PresentationKind.PREFRAME:
            args = [(None, c) for c in gens]
        else:
            args = [(v, u) for v in gens for u in gens]
        for v, u in args:
            inst = _apply_polynomial(domain, rel, v, u, fold_meets=fold)
            if inst.trivial() or _relation_free(domain, inst):
                continue
            if inst.key() in seen:
                continue
            seen.add(inst.key())
            out.append(inst)
    return Presentation(target, domain, tuple(out))


# ---------------------------------------------------------------------------
# schema instantiation


def _bindings(
    params: Sequence[str],
    values: Sequence[ExtRat],
    conds: Iterable[Cond],
    env: Optional[dict[str, ExtRat]] = None,
) -> Iterable[dict[str, ExtRat]]:
    """Every extension of ``env`` that binds ``params`` to ``values`` and
    satisfies ``conds``, in the lexicographic order of ``values`` taken
    parameter by parameter (``itertools.product`` order).

    Parameters are bound in declaration order and each condition is checked
    once, as soon as the last of its free parameters is bound (a parameter
    listed again, or shadowing one of ``env``, counts from its last
    binding), so a partial binding that fails is never extended.  A
    condition that mentions a parameter bound nowhere is skipped.  Each
    yielded environment is a fresh dict.
    """
    env = dict(env or {})
    level = {name: 0 for name in env}
    level.update((name, i + 1) for i, name in enumerate(params))
    checks: list[list[Cond]] = [[] for _ in range(len(params) + 1)]
    for c in conds:
        free = c.free_params()
        if all(name in level for name in free):
            checks[max((level[name] for name in free), default=0)].append(c)
    if not all(c.holds(env) for c in checks[0]):
        return

    def extend(i: int):
        if i == len(params):
            yield dict(env)
            return
        name, tests = params[i], checks[i + 1]
        for v in values:
            env[name] = v
            if all(c.holds(env) for c in tests):
                yield from extend(i + 1)

    yield from extend(0)


def _family_window(values: list[ExtRat]) -> range:
    finite = [v.value for v in values if v.finite]
    if not finite:
        return range(0, 1)
    span = max(finite) - min(finite)
    k = int(span) + 2
    return range(-k, k + 1)


def _instantiate_clause(
    domain: GeneratorDomain,
    cl: SchemaClause,
    env: dict[str, ExtRat],
    values: list[ExtRat],
    window: range,
    pool_values: set[ExtRat],
) -> list[Meet]:
    out = []
    if cl.int_var is not None:
        for n in window:
            if not all(c.holds(env, n) for c in cl.conds):
                continue
            try:
                keys = [domain.instantiate_pattern(pat, env, n) for pat in cl.meet]
            except TermError:
                continue
            if all(_key_in_pool(domain, k, pool_values) for k in keys):
                out.append(Meet(tuple(keys)))
        return out
    if cl.bound:
        for sub_env in _bindings(cl.bound, values, cl.conds, env):
            keys = [domain.instantiate_pattern(pat, sub_env) for pat in cl.meet]
            out.append(Meet(tuple(keys)))
        return out
    if not all(c.holds(env) for c in cl.conds):
        return []
    return [Meet(tuple(domain.instantiate_pattern(pat, env) for pat in cl.meet))]


def _key_in_pool(domain: GeneratorDomain, key: str, pool_values: set[ExtRat]) -> bool:
    endpoints = getattr(domain, "key_endpoints", None)
    if endpoints is None:
        return True
    eps = endpoints(key)
    return eps is None or all(e in pool_values for e in eps)


def instantiate_schemas(p: Presentation, grid: Sequence[ExtRat]) -> Presentation:
    """Replace every schema by its instances with parameters drawn from the
    grid, over the finite restriction of the domain to the generators that
    the instances mention (closed under the domain's declared structure).

    Z-indexed families keep exactly the members whose endpoints fall in the
    instantiation pool, so refining the grid only adds members.
    """
    if not grid:
        raise PresentationError("empty instantiation grid")
    values = sorted(set(p.domain.grid_values(list(grid))))
    window = _family_window(values)
    pool_values = set(values)
    relations: list[Relation] = []
    mentioned: set[str] = set()

    fold = p.kind.folds_meets

    def emit(lhs_meets, rhs_meets, op):
        lhs = normalize(Term(tuple(lhs_meets)), p.domain, fold)
        rhs = normalize(Term(tuple(rhs_meets)), p.domain, fold)
        rel = Relation(lhs, rhs, op)
        if rel.trivial():
            return
        relations.append(rel)
        mentioned.update(lhs.gens_used() | rhs.gens_used())

    for r in p.relations:
        if isinstance(r, Relation):
            if r.lhs.has_family() or r.rhs.has_family():

                def expand(t: Term) -> list[Meet]:
                    meets: list[Meet] = []
                    for cl in t.clauses:
                        if isinstance(cl, Meet):
                            meets.append(cl)
                        else:
                            sc = SchemaClause(cl.body, conds=cl.conds, int_var=cl.var)
                            meets.extend(
                                _instantiate_clause(p.domain, sc, {}, values, window, pool_values)
                            )
                    return meets

                emit(expand(r.lhs), expand(r.rhs), r.op)
            else:
                rel = r.normalized(p.domain, fold)
                relations.append(rel)
                mentioned.update(rel.lhs.gens_used() | rel.rhs.gens_used())
            continue
        for env in _bindings(r.params, values, r.conds):
            lhs_meets = []
            for cl in r.lhs.clauses:
                lhs_meets.extend(_instantiate_clause(p.domain, cl, env, values, window, pool_values))
            rhs_meets = []
            for cl in r.rhs.clauses:
                rhs_meets.extend(_instantiate_clause(p.domain, cl, env, values, window, pool_values))
            emit(lhs_meets, rhs_meets, r.op)

    # dedupe, preserving first occurrence
    seen = set()
    uniq = []
    for r in relations:
        if r.key() not in seen:
            seen.add(r.key())
            uniq.append(r)

    restricted = _restrict_domain(p.domain, mentioned)
    return Presentation(p.kind, restricted, tuple(uniq))


def _restrict_domain(domain: GeneratorDomain, keys: set[str]) -> GeneratorDomain:
    if isinstance(domain, TaggedDomain):
        inner = {domain.unwrap(k) for k in keys}
        return TaggedDomain(domain.tag, _restrict_domain(domain.parent, inner))
    pool = set(keys)
    for extreme in (domain.top(), domain.bottom()):
        if extreme is not None:
            pool.add(extreme)
    # close under the declared operations: each key is combined once with
    # every key taken before it, so each pair of keys is combined once
    ops = [op for op_ok, op in ((domain.has_meet, domain.meet), (domain.has_join, domain.join)) if op_ok]
    work = sorted(pool)
    done: list[str] = []
    while work:
        a = work.pop()
        for op in ops:
            for b in done:
                c = op(a, b)
                if c not in pool:
                    pool.add(c)
                    work.append(c)
        done.append(a)
    ordered = sorted(pool, key=domain.sort_key)
    up = [sum(1 << j for j, b in enumerate(ordered) if domain.leq(a, b)) for a in ordered]
    # inherit exactly the parent's structure: accidental glbs/lubs of the
    # restricted poset are not generator operations
    restricted = FiniteGeneratorDomain(
        FinitePoset(tuple(ordered), tuple(up)),
        use_meet=domain.has_meet,
        use_join=domain.has_join,
    )
    for op_ok, parent_op, own_op in (
        (domain.has_meet, domain.meet, restricted.meet),
        (domain.has_join, domain.join, restricted.join),
    ):
        if op_ok:
            for a, b in itertools.combinations(ordered, 2):
                if parent_op(a, b) != own_op(a, b):
                    raise PresentationError(
                        f"restriction pool not closed compatibly at {a!r},{b!r}"
                    )
    return restricted

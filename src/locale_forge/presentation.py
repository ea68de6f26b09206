"""Presentations of frames by generators and relations.

A presentation carries a kind saying which coverage discipline its
relations follow.  ``PresentationKind`` is the one table of the kinds, each
with the generator operations its relations are stable under (``ops``):

* ``sup``      -- meet: joins of generators over a meet-semilattice of
                  generators, stable under meets with generators;
* ``preframe`` -- join: directed joins of finite meets over a
                  join-semilattice, stable under joins with generators;
* ``dcpo``     -- meet and join: directed joins of generators over a
                  distributive lattice, stable under both;
* ``plain``    -- none: no discipline (e.g. the output of a quotient
                  transformer).

Every switch on a kind reads ``ops``.  A quotient family's ``ops`` name
its parent kind (``PresentationKind.with_ops``), and ``evaluate.EVALUATORS``
holds each kind's own evaluator.

``check_kind`` verifies the discipline relation by relation; a missing
stability instance may still be accepted when it is derivable from the
others, which the brute-force oracle decides on finite carriers.  Over a
finite domain every layer reads a relation as two sides, each a sorted
tuple of clause bitmasks over ``sorted_poset`` indices, through the
domain's ``InstanceKernel`` (one per domain object, in ``domain.memo``).
``saturate`` and ``present`` hand the sides of what they build to the
next reader in its ``memo`` (``relation_sides``), and only the relations
kept become ``Relation``s.
A schematic presentation (one holding a ``RelationSchema``) or one over a
non-finite domain is checked and evaluated on its instantiation on a grid
(``on_grid``).  Schemas are the one form of rational parameters and of
Z-indexed families; a family without parameters is a schema with none.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import cached_property, reduce
from operator import and_, or_
from typing import Iterable, Optional, Sequence, Union

from .generators import FiniteGeneratorDomain, GeneratorDomain, TaggedDomain, memoized
from .lattice import FinitePoset, _bits, maximal, subset_poset, unions
from .rationals import ExtRat
from .records import Record
from .terms import (
    Cond,
    Meet,
    SchemaClause,
    SchemaTerm,
    Term,
    TermError,
    normal_form,
    normalize,
)


class PresentationError(Exception):
    pass


class PresentationKind(str, Enum):
    """A presentation's coverage discipline, with the generator operations
    its relations are stable under."""

    SUP = "sup", ("meet",)
    PREFRAME = "preframe", ("join",)
    DCPO = "dcpo", ("meet", "join")
    PLAIN = "plain", ()

    ops: tuple[str, ...]

    def __new__(cls, value: str, ops: tuple[str, ...]):
        kind = str.__new__(cls, value)
        kind._value_ = value
        kind.ops = ops
        return kind

    @classmethod
    def with_ops(cls, ops: Sequence[str]) -> "PresentationKind":
        """The kind whose generator operations are ``ops``."""
        return next(k for k in cls if k.ops == tuple(ops))

    def uses(self, op: str) -> bool:
        """Whether the domain's ``op`` (meet or join) is a generator
        operation here: one of the kind's own, or, for a kind without
        any, whichever the domain declares."""
        return op in self.ops or not self.ops

    @property
    def folds_meets(self) -> bool:
        """Whether meets of generators mean the domain's meet.  Preframe
        generators carry only join structure, so their meets stay formal."""
        return self.uses("meet")

    @property
    def structure(self) -> Optional[tuple[str, str]]:
        """The domain structure the kind's operations need, as the
        ``GeneratorDomain`` flag that says a domain has it and its name;
        None for plain."""
        return _STRUCTURE.get(self.ops)


# the domain structure that a set of generator operations needs
_STRUCTURE = {
    ("meet",): ("meet_semilattice", "a meet-semilattice with top"),
    ("join",): ("join_semilattice", "a join-semilattice with bottom"),
    ("meet", "join"): ("distributive_lattice", "a bounded distributive lattice"),
}


class Relation(Record):
    __slots__ = ("lhs", "rhs", "op")

    def __init__(self, lhs: Term, rhs: Term, op: str = "="):
        if op not in ("=", "<="):
            raise PresentationError(f"bad relation operator {op!r}")
        init = object.__setattr__
        init(self, "lhs", lhs)
        init(self, "rhs", rhs)
        init(self, "op", op)  # "=" or "<="

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

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


class RelationSchema(Record):
    """A relation with rational parameters and a conjunction of comparisons
    as side condition."""

    __slots__ = ("params", "conds", "lhs", "rhs", "op")

    def __init__(
        self, params: tuple[str, ...], conds: tuple[Cond, ...], lhs: SchemaTerm, rhs: SchemaTerm, op: str = "="
    ):
        if op not in ("=", "<="):
            raise PresentationError(f"bad relation operator {op!r}")
        used = set().union(*[_clause_params(cl, ()) for side in (lhs, rhs) for cl in side.clauses])
        for p in params:
            if p not in used:
                raise PresentationError(f"schema parameter {p!r} occurs in neither side")
        init = object.__setattr__
        init(self, "params", params)
        init(self, "conds", conds)
        init(self, "lhs", lhs)
        init(self, "rhs", rhs)
        init(self, "op", op)

    def __str__(self) -> str:
        head = "(" + ", ".join(self.params) + ")"
        cond = " where " + " & ".join(str(c) for c in self.conds) if self.conds else ""
        return f"schema {head}{cond} : {self.lhs} {self.op} {self.rhs}"


AnyRelation = Union[Relation, RelationSchema]


class Presentation(Record, compare=("kind", "domain", "relations")):
    """The kind's structural requirement on the domain (sup needs a meet
    semilattice, and so on) is enforced where the structure is consumed --
    evaluation, saturation, stability checking -- not at construction, so
    unsaturated inputs can be built first and saturated after."""

    # ``__dict__`` holds ``memo``
    __slots__ = ("kind", "domain", "relations", "__dict__")

    def __init__(self, kind: PresentationKind, domain: GeneratorDomain, relations: tuple[AnyRelation, ...]):
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "domain", domain)
        init(self, "relations", relations)

    @property
    def schematic(self) -> bool:
        return any(isinstance(r, RelationSchema) for r in self.relations)

    def concrete_relations(self) -> list[Relation]:
        return [r for r in self.relations if isinstance(r, Relation)]

    def schema_count(self) -> int:
        return sum(1 for r in self.relations if isinstance(r, RelationSchema))

    @cached_property
    def memo(self) -> dict:
        """Facts derived from this presentation object alone: ``check_kind``'s
        reports (under ``"kind reports"``, keyed by ``oracle``), its sides
        (``relation_sides``), and its relations as a quotient's parent
        transports them and the hash that quotient's provenance records
        (``transform``).  Created on first use; it belongs to the object,
        never to an equal presentation, and dies with it."""
        return {}


# ---------------------------------------------------------------------------
# stability checking


class StabilityVerdict(Record):
    __slots__ = ("relation_index", "verdict", "witness_generator", "missing")

    def __init__(
        self,
        relation_index: int,
        verdict: str,
        witness_generator: Optional[str] = None,
        missing: Optional[Relation] = None,
    ):
        init = object.__setattr__
        init(self, "relation_index", relation_index)
        init(self, "verdict", verdict)  # syntacticPass | oraclePass | fail
        init(self, "witness_generator", witness_generator)
        init(self, "missing", missing)


class StabilityReport(Record):
    __slots__ = ("verdicts", "policy")

    def __init__(self, verdicts: tuple[StabilityVerdict, ...], policy: str):
        init = object.__setattr__
        init(self, "verdicts", verdicts)
        init(self, "policy", policy)  # "oracle-allowed" | "syntactic-only"

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


def _shape_ok(kind: PresentationKind, lhs: "Side", rhs: "Side") -> bool:
    """Where meets fold, each clause is one generator; where they stay
    formal, any meet will do."""
    return not kind.folds_meets or not any(m & (m - 1) for m in lhs + rhs)


# A side: a term over a finite domain in normal form, as the sorted tuple of
# its clause masks over ``sorted_poset`` indices; 1 is (0,) and 0 is ().
Side = tuple[int, ...]
ONE: Side = (0,)


class InstanceKernel:
    """A finite domain's terms as sides, and the stability instances of its
    relations on them.

    The generators are indexed in ``sorted_poset`` order, the order of
    their keys as strings, which a tagged domain shares with its parent.
    ``side`` is ``normalize`` on clause masks, and ``term`` is the one place
    where a side turns back into its canonical ``Term``:
    ``term(side(t, fold)) == normalize(t, domain, fold)``.

    An instance sends every generator g through (g ^ v) v u, one lookup in
    the image table of the polynomial (``row``), built from the domain's
    own ``meet`` and ``join`` when first asked for, so a domain without the
    operation raises its own error at the first clause that needs it.
    Where meets fold, the clauses of a normalized relation are single
    generators and stay so.  Whether an instance holds in the free
    structure is read off the generators' up-masks.  Each instance is
    computed once per kernel, so ``check_kind`` on the output of
    ``saturate`` reuses the instances that ``saturate`` computed.
    """

    def __init__(self, domain: GeneratorDomain):
        P = domain.sorted_poset
        self.domain, self.names, self.up, self._down, self._glb = domain, P.elements, P.up, P.down, P.by_down
        self.index = {g: i for i, g in enumerate(self.names)}
        top = domain.top()
        # the generators above the empty meet
        self.top_up = 0 if top is None else P.up[self.index[top]]
        # image tables and the generators each fixes, by polynomial; terms
        # by side; instances by relation and polynomial
        self._rows, self._fixed, self._terms, self._instances = {}, {}, {}, {}

    def side(self, t: Term, fold: bool = False) -> Side:
        """The normal form of ``t``: each clause folded to the glb of its
        generators where ``fold`` and the domain has a meet, duplicates
        dropped, and 1 absorbing the whole join."""
        masks = set()
        for cl in t.clauses:
            m = 0
            for g in cl.gens:
                if g not in self.index:
                    raise TermError(f"generator {g!r} does not belong to domain {self.domain.name!r}")
                m |= 1 << self.index[g]
            if m & (m - 1) and fold and self.domain.has_meet:
                m = 1 << self._glb[reduce(and_, [self._down[i] for i in _bits(m)])]
            masks.add(m)
        return ONE if 0 in masks else tuple(sorted(masks))

    def term(self, side: Side) -> Term:
        """The canonical term of a side, built once: its clauses ordered by
        their generator indices, which is the order of their names."""
        out = self._terms.get(side)
        if out is None:
            names = self.names
            clauses = sorted(tuple(_bits(m)) for m in side)
            out = self._terms[side] = Term(tuple([Meet(tuple([names[i] for i in c])) for c in clauses]))
        return out

    def relation(self, lhs: Side, rhs: Side, op: str = "=") -> Relation:
        return Relation(self.term(lhs), self.term(rhs), op)

    def row(self, v: Optional[int], u: Optional[int]) -> tuple[int, ...]:
        """The image table of g -> (g ^ v) v u, each image as the mask of
        its generator; ``None`` leaves that step out."""
        out = self._rows.get((v, u))
        if out is None:
            if v is not None and u is not None:
                join = self.row(None, u)
                out = tuple([join[m.bit_length() - 1] for m in self.row(v, None)])
            else:
                op, c = (self.domain.meet, v) if u is None else (self.domain.join, u)
                out = tuple([1 << self.index[op(g, self.names[c])] for g in self.names])
            self._rows[(v, u)] = out
            self._fixed[(v, u)] = sum(m for g, m in enumerate(out) if m >> g == 1)
        return out

    def _image(self, side: Side, v: Optional[int], u: Optional[int]) -> Side:
        """The normal form of the side with every generator sent through
        (g ^ v) v u, once its table exists.  The empty meet counts as the
        domain top: 1 v u = 1 and (1 ^ v) v u = v v u; a normalized side
        holds it only as the term 1 itself."""
        if side == ONE:
            return side if v is None else (1 << v if u is None else self.row(None, u)[v],)
        row, out = self._rows.get((v, u)), set()
        for m in side:
            if m & (m - 1):
                c = 0
                for g in _bits(m):
                    c |= row[g]
                out.add(c)
            else:
                out.add(row[m.bit_length() - 1])
        return tuple(sorted(out))

    def free_leq(self, s: Side, t: Side) -> bool:
        """Every clause of s lies below a clause of t generator by
        generator, so s <= t holds by order and absorption alone."""
        for c in s:
            above = reduce(or_, [self.up[h] for h in _bits(c)], 0 if c else self.top_up)
            if all(d & ~above for d in t):
                return False
        return True

    def instances(self, lhs: Side, rhs: Side, op: str, polynomials: Iterable[tuple[Optional[int], Optional[int]]]):
        """The instances of a normalized relation under each polynomial
        (v, u) that are neither trivial nor free, as (polynomial, key, lhs,
        rhs), in the order of ``polynomials``; each is computed once.  One
        that fixes every generator of the relation, and does not send its
        side 1 to v, is the relation itself: it is skipped once the table of
        the polynomial exists, so a domain without the operation raises."""
        memo = self._instances.setdefault((lhs, rhs, op), {})
        gens = reduce(or_, lhs + rhs, 0)
        one = ONE in (lhs, rhs)
        for poly in polynomials:
            hit = memo.get(poly)
            if hit is None:
                v, u = poly
                if gens:
                    self.row(v, u)
                if gens and not gens & ~self._fixed[poly] and (v is None or not one):
                    hit = ()
                else:
                    l, r = self._image(lhs, v, u), self._image(rhs, v, u)
                    free = l == r or self.free_leq(l, r) and (op == "<=" or self.free_leq(r, l))
                    hit = () if free else (_side_key(l, r, op), l, r)
                memo[poly] = hit
            if hit:
                yield (poly, *hit)


def _side_key(lhs: Side, rhs: Side, op: str):
    """``Relation.key`` on sides."""
    return ("=", frozenset((lhs, rhs))) if op == "=" else ("<=", lhs, rhs)


def instance_kernel(domain: GeneratorDomain) -> InstanceKernel:
    """The domain object's instance kernel, built once, in ``domain.memo``."""
    return memoized(domain, InstanceKernel, lambda: InstanceKernel(domain))


def on_grid(p: Presentation, grid: Optional[Sequence[ExtRat]], verb: str) -> Presentation:
    """``p`` as checking and evaluation see it: itself over a finite domain
    without schemas, else its instantiation on ``grid``, for only a finite
    domain lists every generator.  Then a missing grid is an error, which
    names ``verb``."""
    if not p.schematic and p.domain.finite:
        return p
    if grid is None:
        what = "schematic presentation" if p.schematic else f"{p.domain.name} domain"
        raise PresentationError(f"{what}: supply a grid to {verb}")
    return instantiate_schemas(p, grid)


def check_kind(
    p: Presentation,
    grid: Optional[Sequence[ExtRat]] = None,
    oracle: bool = True,
) -> StabilityReport:
    """Per-relation stability verdicts for the presentation's kind, on
    ``on_grid(p, grid)``.

    ``oracle=False`` restricts to the syntactic discipline, turning
    derivable-but-absent instances into failures.  The report is memoized
    on the presentation object checked, per ``oracle``, so each
    presentation is checked once.
    """
    if not p.kind.ops:
        raise PresentationError("plain presentations have no kind discipline to check")
    p = on_grid(p, grid, "check_kind")
    reports = p.memo.setdefault("kind reports", {})
    if oracle not in reports:
        reports[oracle] = _check_kind(p, oracle)
    return reports[oracle]


def relation_sides(p: Presentation, fold: bool) -> list[tuple[Side, Side, str]]:
    """The sides of ``p``'s concrete relations, meets folded where ``fold``
    and the domain has a meet, in ``p.memo`` under ``("sides", fold)``:
    left there by ``saturate`` or ``present`` for what they build, else
    derived once through the domain's kernel."""
    fold = fold and p.domain.has_meet

    def derive():
        kernel = instance_kernel(p.domain)
        return [(kernel.side(r.lhs, fold), kernel.side(r.rhs, fold), r.op) for r in p.concrete_relations()]

    return memoized(p, ("sides", fold), derive)


def _check_kind(p: Presentation, oracle: bool) -> StabilityReport:
    """The verdicts on a finite domain.  The one-step instances the kind
    demands send each generator g to g ^ c for each generator c when its
    operations include meet, to g v c when they include join.  The oracle
    is asked about an instance as its sides, in the kind's own evaluation
    of ``p``.  Over a domain without the kind's structure (as ``eval_frame``
    requires it), or where that evaluation raises ``EvaluationError``, the
    oracle vouches for nothing, as under ``oracle=False``: so the two
    policies reach the same instances, and a domain without an operation
    they apply raises under both or neither.  Only the first missing
    instance of a relation becomes a ``Relation``."""
    policy = "oracle-allowed" if oracle else "syntactic-only"
    domain = p.domain
    kernel = instance_kernel(domain)
    sides = relation_sides(p, p.kind.folds_meets)
    present = set()
    for lhs, rhs, op in sides:
        present.add(_side_key(lhs, rhs, op))
        if op == "=":
            present.update((("<=", lhs, rhs), ("<=", rhs, lhs)))
    ops = p.kind.ops
    witnesses: dict[tuple[Optional[int], Optional[int]], str] = {}
    for c in domain.enumerate_gens():
        i = kernel.index[c]
        for op in ops:
            poly = (i, None) if op == "meet" else (None, i)
            witnesses[poly] = c if len(ops) == 1 else f"{c} ({op})"

    holds = None

    def oracle_holds(l: Side, r: Side, op: str) -> bool:
        # the kind's own evaluation, made once; without the kind's structure,
        # or where it raises, the oracle vouches for nothing
        nonlocal holds
        if holds is None:
            from .evaluate import EVALUATORS, EvaluationError, _require_kind_domain

            try:
                _require_kind_domain(p)
                holds = EVALUATORS[p.kind](p).holds
            except EvaluationError:
                holds = lambda *_: False
        return holds(l, r, op)

    verdicts = []
    for idx, (lhs, rhs, op) in enumerate(sides):
        if not _shape_ok(p.kind, lhs, rhs):
            verdicts.append(StabilityVerdict(idx, "fail", None, kernel.relation(lhs, rhs, op)))
            continue
        verdict = "syntacticPass"
        witness = None
        missing = None
        for poly, key, l, r in kernel.instances(lhs, rhs, op, witnesses):
            if key in present:
                continue
            if oracle and oracle_holds(l, r, op):
                verdict = "oraclePass"
                continue
            verdict = "fail"
            witness = witnesses[poly]
            missing = kernel.relation(l, r, op)
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
    masks = unions(principal, 1 << 12, "free meet-semilattice" if meets else "free join-semilattice")

    def label(m: int) -> str:
        ends = sorted(poset.elements[i] for i in _bits(maximal(m, principal)))
        return ".".join(ends) or ("unit" if meets else "zero")

    completed = subset_poset(masks, label, reverse=meets)
    pos = {m: k for k, m in enumerate(masks)}
    mapping = {g: completed.elements[pos[principal[i]]] for i, g in enumerate(poset.elements)}
    return FiniteGeneratorDomain(completed), mapping


def _map_term(t: Term, mapping: dict[str, str]) -> Term:
    return Term(tuple(Meet(tuple(mapping[g] for g in cl.gens)) for cl in t.clauses))


def saturate(p: Presentation, target: PresentationKind) -> Presentation:
    """Close the domain under the operations the target kind needs, reshape
    relations onto the completed generators and append the missing
    stability instances, so that ``check_kind`` passes syntactically."""
    if not target.ops:
        raise PresentationError("cannot saturate toward a plain kind")
    if not p.domain.finite:
        if p.kind == target:
            return p  # builtin symbolic domains ship pre-saturated
        raise PresentationError("cannot saturate a non-finite domain")
    domain = p.domain
    mapping = {g: g for g in domain.enumerate_gens()}

    def lacks(ops) -> bool:
        return not getattr(domain, _STRUCTURE[ops][0])

    # complete toward each operation the domain lacks; the last completion
    # is also taken where the domain has every operation but lacks the
    # kind's structure (a lattice that is not distributive)
    *first, last = target.ops
    for op in first:
        if lacks((op,)):
            domain, step = _completion(domain, meets=op == "meet")
            mapping = {g: step[v] for g, v in mapping.items()}
    if lacks(target.ops):
        domain, step = _completion(domain, meets=last == "meet")
        mapping = {g: step[v] for g, v in mapping.items()}
        if lacks(target.ops):
            raise PresentationError(f"completion did not reach {target.structure[1]}")

    fold = target.folds_meets
    kernel = instance_kernel(domain)
    sides = relation_sides(p, fold) if domain is p.domain else [
        (kernel.side(_map_term(r.lhs, mapping), fold), kernel.side(_map_term(r.rhs, mapping), fold), r.op)
        for r in p.concrete_relations()
    ]
    if p.schematic:
        raise PresentationError("cannot saturate schematic relations; instantiate first")

    seen = {_side_key(lhs, rhs, op) for lhs, rhs, op in sides}
    out = list(sides)
    gens = [kernel.index[g] for g in domain.enumerate_gens()]
    # Appending the closed instance family in one pass: instances of
    # meet-instances are meet-instances (dually for joins), and dcpo
    # polynomials (x ^ v) v u compose back into the same family.  The
    # polynomials (v, u) are drawn afresh for each relation, never listed:
    # toward dcpo there are n² of them.
    axes = [gens if op in target.ops else [None] for op in ("meet", "join")]
    for lhs, rhs, op in sides:
        if not _shape_ok(target, lhs, rhs):
            rel = kernel.relation(lhs, rhs, op)
            raise PresentationError(f"relation {rel} cannot be reshaped to {target.value}")
        for _, key, l, r in kernel.instances(lhs, rhs, op, itertools.product(*axes)):
            if key not in seen:
                seen.add(key)
                out.append((l, r, op))
    sat = Presentation(target, domain, tuple([kernel.relation(*s) for s in out]))
    # hand the sides over; folded clauses are single generators, so they
    # are the unfolded sides too
    sat.memo[("sides", fold and domain.has_meet)] = sat.memo[("sides", False)] = out
    return sat


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
    condition that mentions a parameter bound nowhere is skipped.  The
    conditions are compiled once per call (``Cond.compiled``).  Each
    yielded environment is a fresh dict.
    """
    env = dict(env or {})
    level = {name: 0 for name in env}
    level.update((name, i + 1) for i, name in enumerate(params))
    checks: list[list] = [[] for _ in range(len(params) + 1)]
    for c in conds:
        free = c.free_params()
        if all(name in level for name in free):
            checks[max((level[name] for name in free), default=0)].append(c.compiled())
    if not all(test(env, None) for test in checks[0]):
        return
    if not params:
        yield env
        return
    last = len(params) - 1

    def extend(i: int):
        name, tests = params[i], checks[i + 1]
        for v in values:
            env[name] = v
            for test in tests:
                if not test(env, None):
                    break
            else:
                if i == last:
                    yield dict(env)
                else:
                    yield from extend(i + 1)

    yield from extend(0)


def _family_window(values: list[ExtRat]) -> range:
    finite = [v.value for v in values if v.finite]
    if not finite:
        return range(0, 1)
    span = max(finite) - min(finite)
    k = int(span) + 2
    return range(-k, k + 1)


def _family_indices(
    cl: SchemaClause, env: dict[str, ExtRat], window: range, pool_values: set[ExtRat]
) -> list[int]:
    """The n of ``window``, ascending, at which the family clause ``cl``
    gives every member that any n of the window gives and keeps.

    Each endpoint and condition of the clause is built from atoms, and at a
    given ``env`` an atom is a constant ``a`` (no index, or an infinite
    base) or ``b + n`` with ``b`` finite.  Two atoms ``b + n`` compare
    alike at every n, and ``a`` against ``b + n`` alike for all n on one
    side of the cut ``a - b``.  So on the integers strictly between two
    cuts every max, min, condition, range check and emptiness test comes
    out the same: a member whose endpoints are all constants, or whose key
    has no endpoints, is the same member there, and one with an endpoint
    ``b + n`` lies in the pool only at an n where ``b + n`` is a pool value.
    The n kept are the integer cuts, the least integer past each cut, the
    window's start (together one n in each stretch between cuts) and the n
    that put some ``b + n`` on a pool value."""
    consts, bases = [], []
    for atom in itertools.chain(
        (a for pat in cl.meet for arg in pat.args for a in arg.atoms()),
        (a for c in cl.conds for e in c.left + c.right for a in e.atoms()),
    ):
        base = env[atom.param] if atom.param is not None else atom.const
        if not base.finite:
            continue
        num, den = base.value.numerator, base.value.denominator
        (bases if atom.with_index else consts).append((num + atom.offset * den, den))
    picked = {window.start}
    for bn, bd in set(bases):
        for an, ad in set(consts):
            # the cut (an*bd - bn*ad) / (ad*bd), floored, and the integer past it
            cut = (an * bd - bn * ad) // (ad * bd)
            picked.update((cut, cut + 1))
        for v in pool_values:
            if v.finite:
                vn, vd = v.value.numerator, v.value.denominator
                hit, rest = divmod(vn * bd - bn * vd, vd * bd)
                if not rest:
                    picked.add(hit)
    return sorted(n for n in picked if n in window)


def _instantiate_clause(
    domain: GeneratorDomain,
    cl: SchemaClause,
    env: dict[str, ExtRat],
    values: list[ExtRat],
    window: range,
    pool_values: set[ExtRat],
) -> list[tuple[str, ...]]:
    """The meets of one schema clause at ``env``: the clause itself, one per
    binding of its bound parameters, or the members of its Z-indexed family
    over ``window`` whose generators lie in the pool, each member once
    (``_family_indices``), each meet as the tuple of its generator keys.
    A relation reads its sides through ``normal_form``, so only the set of
    meets matters."""
    out = []
    if cl.int_var is not None:
        tests = [c.compiled() for c in cl.conds]
        seen = set()
        for n in _family_indices(cl, env, window, pool_values):
            if not all(test(env, n) for test in tests):
                continue
            # the endpoints decide, before any key is built, whether the
            # member is new and in the pool; the empty member has none
            try:
                ends = tuple([domain.pattern_ends(pat, env, n) for pat in cl.meet])
            except TermError:
                continue
            if ends not in seen and all(e is None or pool_values.issuperset(e) for e in ends):
                seen.add(ends)
                out.append(tuple([domain.ends_key(e) for e in ends]))
        return out
    if cl.bound:
        for sub_env in _bindings(cl.bound, values, cl.conds, env):
            out.append(tuple([domain.instantiate_pattern(pat, sub_env) for pat in cl.meet]))
        return out
    if not all(c.holds(env) for c in cl.conds):
        return []
    return [tuple([domain.instantiate_pattern(pat, env) for pat in cl.meet])]


def _clause_params(cl: SchemaClause, bound: Sequence[str]) -> set[str]:
    """The parameters that a clause's patterns and side conditions name,
    less ``bound``."""
    return set().union(*[x.free_params() for x in cl.meet + cl.conds]).difference(bound)


def instantiate_schemas(p: Presentation, grid: Sequence[ExtRat]) -> Presentation:
    """Replace every schema by its instances with parameters drawn from the
    grid, over the finite restriction of the domain to the generators that
    the instances mention (closed under the domain's declared structure).

    Z-indexed families keep exactly the members whose endpoints fall in the
    instantiation pool, so refining the grid only adds members; each family
    is tried only at the shifts that can give a member
    (``_family_indices``).  Side conditions are compiled once per clause
    pass (``Cond.compiled``).

    A clause's meets depend only on the schema parameters it reads, those
    its patterns and side conditions name less the ones it binds (a
    family's window and pool are fixed for the call).  So each clause is
    instantiated once per binding of those, in a memo keyed by the tuple of
    their values that lives in this call only.
    """
    if not grid:
        raise PresentationError("empty instantiation grid")
    values = sorted(set(p.domain.grid_values(list(grid))))
    window = _family_window(values)
    pool_values = set(values)
    fold = p.kind.folds_meets
    # the sides of each relation as (normal form, term), by the relation's
    # key on the normal forms, each kept at its first occurrence
    kept: dict = {}
    for r in p.relations:
        if isinstance(r, Relation):
            lhs, rhs = [normal_form(tuple([c.gens for c in t.clauses]), p.domain, fold) for t in (r.lhs, r.rhs)]
            kept.setdefault(_side_key(lhs[0], rhs[0], r.op), (lhs, rhs, r.op))
            continue
        # per side, each clause with the parameters it reads and its meets
        # by their values
        sides = [[(cl, sorted(_clause_params(cl, cl.bound)), {}) for cl in t.clauses] for t in (r.lhs, r.rhs)]
        for env in _bindings(r.params, values, r.conds):
            meets: tuple[list, list] = ([], [])
            for out, clauses in zip(meets, sides):
                for cl, names, memo in clauses:
                    key = tuple([env.get(name) for name in names])
                    if key not in memo:
                        memo[key] = _instantiate_clause(p.domain, cl, env, values, window, pool_values)
                    out.extend(memo[key])
            lhs, rhs = [normal_form(tuple(m), p.domain, fold) for m in meets]
            if lhs[0] != rhs[0]:
                kept.setdefault(_side_key(lhs[0], rhs[0], r.op), (lhs, rhs, r.op))
    mentioned = {g for lhs, rhs, _ in kept.values() for cl in lhs[0] + rhs[0] for g in cl}
    relations = tuple([Relation(lhs[1], rhs[1], op) for lhs, rhs, op in kept.values()])
    return Presentation(p.kind, _restrict_domain(p.domain, mentioned), relations)


def _restrict_domain(domain: GeneratorDomain, keys: set[str]) -> GeneratorDomain:
    if isinstance(domain, TaggedDomain):
        inner = {domain.unwrap(k) for k in keys}
        return TaggedDomain(domain.tag, _restrict_domain(domain.parent, inner))
    pool = set(keys)
    for extreme in (domain.top(), domain.bottom()):
        if extreme is not None:
            pool.add(extreme)
    # close under the declared operations: each key is combined once with
    # every key taken before it, so each pair of keys is combined once, and
    # each result is kept with its pair for the compatibility check below
    ops = [
        (name, getattr(domain, name), [])
        for name, op_ok in (("meet", domain.has_meet), ("join", domain.has_join))
        if op_ok
    ]
    work = sorted(pool)
    done: list[str] = []
    while work:
        a = work.pop()
        for _, op, made in ops:
            for b in done:
                c = op(a, b)
                made.append((a, b, c))
                if c not in pool:
                    pool.add(c)
                    work.append(c)
        done.append(a)
    ordered = sorted(pool, key=domain.sort_key)
    up = domain.up_masks(ordered)
    # inherit exactly the parent's structure: accidental glbs/lubs of the
    # restricted poset are not generator operations
    restricted = FiniteGeneratorDomain(
        FinitePoset(tuple(ordered), tuple(up)),
        use_meet=domain.has_meet,
        use_join=domain.has_join,
    )
    # the restriction's glbs/lubs must be the parent's operations on every
    # pair; a failure names the first pair in sort order
    for name, _, made in ops:
        own_op = getattr(restricted, name)
        bad = [(a, b) for a, b, c in made if own_op(a, b) != c]
        if bad:
            position = {k: i for i, k in enumerate(ordered)}
            i, j = min(sorted((position[a], position[b])) for a, b in bad)
            raise PresentationError(
                f"restriction pool not closed compatibly at {ordered[i]!r},{ordered[j]!r}"
            )
    return restricted

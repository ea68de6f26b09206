"""Brute-force evaluation of finite presentations.

``eval_frame`` builds the presented frame as the closed subsets of a
finite meet-semilattice of generator meets (``_MeetCarrier``, one per
domain object and reading of its meets), each a mask over the generators
with meet ``&``: the generators' down-masks when the domain's meets are
semantic, the complements of the finitely generated upsets when they are
formal.  A relation is read as its two sides, sorted tuples of clause
masks (``presentation.relation_sides``), handed over by ``saturate`` or
``present`` when they built it; each clause is one AND over generator
masks.  Relations become covering rules ``a <| B`` (a is covered by the
joins of B), the rules are stabilised under meets with generators, and the
carrier is the family of downsets closed under all rules, i.e. the fixed
points of the least nucleus forcing the relations.  The closure engine
(``_FrameEngine``) works on class masks: the meet equations collapse the
formal meets into classes, and every set of classes is a mask over class
positions.  Fixed sets are downsets, so ``a <| B`` is the same rule as
``a <| ↓B ∩ ↓a``, and each rule is the integer pair of its conclusion
class and that downset: meeting a rule with a generator is one AND, and
rules whose premises have the same downset are one rule.  The rules are
kept as a set; the order in which they fire does not change a least fixed
point, so output does not depend on it.  The frame is held as the downsets
of its join-irreducible fixed sets J (``FiniteLattice.of_downsets``): order,
meet and join are inclusion, ``&`` and ``|`` of masks over J, and no order
over the elements is built unless a caller reads ``carrier.poset``.

``eval_suplattice`` / ``eval_preframe`` / ``eval_dcpo`` present the same
data in the weaker categories: downsets / upsets (one body, union being
the join of downsets and the meet of upsets) / the generator poset itself,
quotiented by the least congruence containing the relations.  They too
read a relation only as its sides: meets fold where the domain has them,
except over upsets, whose unions are formal meets.  ``EVALUATORS`` holds
the one of each kind that has a discipline, and ``verify_coverage``
asserts the canonical comparison with the frame is an order isomorphism.
Every evaluation reads the generator order from the domain's
``sorted_poset`` and returns a frozen ``PresentedObject`` holding its
side->value function, through which terms and relations are valued.

Everything here is oracle-scale: carriers are capped (default 2**12) and
the algorithms favour being obviously exhaustive over being clever.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_, or_
from typing import Callable, Optional, Sequence, Union

from .generators import GeneratorDomain, memoized
from .lattice import (
    FiniteLattice,
    FinitePoset,
    LatticeError,
    OperatorReport,
    _bits,
    _transitive_closure,
    maximal,
    poset_isomorphism,
    subset_lattice,
    subset_poset,
    unions,
)
from .presentation import (
    ONE,
    Presentation,
    PresentationError,
    PresentationKind,
    Relation,
    Side,
    check_kind,
    instance_kernel,
    relation_sides,
)
from .records import Record
from .terms import Term


class EvaluationError(PresentationError):
    pass


class KindCheckError(EvaluationError):
    def __init__(self, report):
        super().__init__("presentation failed its kind check")
        self.report = report


class PresentedObject(Record, show=("category", "carrier", "interp", "domain")):
    """A presentation evaluated in some category.

    ``carrier`` is a FiniteLattice except for dcpo results, which may be a
    bare FinitePoset.  ``interp`` maps generator keys to carrier indices.
    ``side_value`` is all an evaluator hands over: it maps a side, as
    ``relation_sides`` reads it with meets folded where ``fold``, to its
    carrier index, or to None where the side has no value (a dcpo side
    that is not a directed family of generators with a greatest element).
    Terms and relations are read through it, as sides of the domain's
    ``InstanceKernel``.
    """

    __slots__ = ("category", "carrier", "interp", "domain", "fold", "side_value")

    def __init__(
        self,
        category: str,
        carrier: Union[FiniteLattice, FinitePoset],
        interp: dict[str, int],
        domain: GeneratorDomain,
        fold: bool,
        side_value: Callable[[Side], Optional[int]],
    ):
        init = object.__setattr__
        init(self, "category", category)
        init(self, "carrier", carrier)
        init(self, "interp", interp)
        init(self, "domain", domain)
        init(self, "fold", fold)
        init(self, "side_value", side_value)

    @property
    def carrier_poset(self) -> FinitePoset:
        return self.carrier.poset if isinstance(self.carrier, FiniteLattice) else self.carrier

    def term_value(self, t: Term) -> Optional[int]:
        return self.side_value(instance_kernel(self.domain).side(t, self.fold))

    def holds(self, lhs: Side, rhs: Side, op: str) -> bool:
        l, r = self.side_value(lhs), self.side_value(rhs)
        if l is None or r is None:
            return False
        if op == "=":
            return l == r
        return self.carrier.leq(l, r)

    def relation_holds(self, rel: Relation) -> bool:
        kernel = instance_kernel(self.domain)
        return self.holds(kernel.side(rel.lhs, self.fold), kernel.side(rel.rhs, self.fold), rel.op)


# ---------------------------------------------------------------------------
# the meet-semilattice of formal generator meets


class _MeetCarrier:
    """The meets of the generators, each held as a mask over the
    generators (in ``sort_key`` order): meet is ``&`` and the order is
    inclusion.  When the domain's meets are semantic for the evaluation
    (``fold``) the elements are the generators themselves, as their
    down-masks; otherwise they are the finitely generated upsets of the
    generator poset, whose unions are formal meets, as the complements of
    those upsets.  One carrier serves every evaluation over its domain
    object (``_meet_carrier``)."""

    def __init__(self, domain: GeneratorDomain, fold: bool):
        P = domain.sorted_poset
        self.fold = fold
        self.gen_keys = P.elements
        full = (1 << P.n) - 1
        if fold:
            # the generators' down-masks: ordered by inclusion, they are P
            self.masks = self.gen_masks = P.down
            self.poset = P
        else:
            upsets = unions(P.up, 1 << 15, "formal meet semilattice")
            self.masks = [full & ~u for u in upsets]
            self.gen_masks = [full & ~u for u in P.up]
            # a formal meet is named by the minimal generators of its upset
            labels = {
                full & ~u: "^".join(sorted(P.elements[i] for i in _bits(maximal(u, P.up)))) or "1"
                for u in upsets
            }
            self.poset = subset_poset(self.masks, labels.__getitem__)
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.labels = self.poset.elements
        self.n = len(self.masks)
        # the element of each generator, by its position
        self.gen_elems = [self.index[m] for m in self.gen_masks]
        self.full, self._clauses = full, {}

    def meet(self, i: int, j: int) -> int:
        return self.index[self.masks[i] & self.masks[j]]

    def clause(self, mask: int) -> int:
        """The element a clause mask meets to (the top for none): one AND
        over the masks of its generators, kept per clause."""
        out = self._clauses.get(mask)
        if out is None:
            out = self._clauses[mask] = self.index[reduce(and_, [self.gen_masks[i] for i in _bits(mask)], self.full)]
        return out


def _meet_carrier(domain: GeneratorDomain, use_domain_meets: bool) -> _MeetCarrier:
    """The domain object's meet carrier, one per reading of its meets."""
    fold = use_domain_meets and domain.meet_semilattice
    return memoized(domain, (_MeetCarrier, fold), lambda: _MeetCarrier(domain, fold))


# ---------------------------------------------------------------------------
# the covering engine


def _congruence(n: int, pairs, forced) -> list[int]:
    """The least equivalence on ``range(n)`` holding ``pairs`` in which
    ``x ~ y`` forces ``forced(x)[k] ~ forced(y)[k]`` for each ``k``, as
    the least member of each element's class."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = list(pairs)
    while work:
        x, y = work.pop()
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
            work.extend(zip(forced(rx), forced(ry)))
    return [find(x) for x in range(n)]


class _FrameEngine:
    """The least nucleus of a set of covering rules, on the classes of the
    meet congruence of a ``_MeetCarrier``, with every set of classes held
    as a mask over class positions.

    ``cls`` gives the position of each formal meet's class; classes are
    numbered in the order of their least members.  ``down`` holds each
    class's downset, and ``down[a ^ b]`` is ``down[a] & down[b]``.

    A rule ``a <| B`` is the pair of the class ``a`` and the downset
    ``d = ↓B ∩ ↓a``: every fixed set is a downset, so it contains ``B``
    exactly when it contains ``d``, and the premises met with ``a`` have
    that same downset.  The rule is trivial when ``a`` lies in ``d``.
    Meeting it with a generator ``g`` gives ``a ^ g <| d & down[a ^ g]``,
    so the rules are stabilised as a set of integer pairs, one AND per
    rule and generator, and two rules whose premises have the same downset
    are one.  ``close`` indexes each rule by the maximal members of ``d``
    only and fires the rules by premise, in an order that does not change
    its result; ``enumerate_carrier`` builds the fixed sets from the
    join-irreducible ones.
    """

    def __init__(
        self,
        M: _MeetCarrier,
        covers: list[tuple[int, Sequence[int]]],
        meet_eqs: list[tuple[int, int]],
        max_carrier: int,
    ):
        self.max_carrier = max_carrier
        gen_idxs = sorted(set(M.gen_elems))

        # 1. meet-congruence pre-collapse (pure meet equations); each class
        # is numbered by the order of its least member
        rep = _congruence(M.n, meet_eqs, lambda x: [M.meet(x, g) for g in gen_idxs])
        reps = sorted(set(rep))
        number = {r: k for k, r in enumerate(reps)}
        self.cls = cls = [number[r] for r in rep]
        self.n = len(reps)

        # labels: smallest original label in the class
        best: list[Optional[str]] = [None] * self.n
        for c, label in zip(cls, M.labels):
            if best[c] is None or (len(label), label) < (len(best[c]), best[c]):
                best[c] = label
        self.labels = best

        # 2. downward closure masks on the classes: class j lies below
        # class i (their class meet is j) exactly when some member of j
        # lies below the representative of i, for the meet of the two
        # representatives is one, and any such m has r_i ^ r_j ~ r_i ^ m = m
        self.down = down = []
        for r in reps:
            m = 0
            for j in _bits(M.poset.down[r]):
                m |= 1 << cls[j]
            down.append(m)

        # 3. covers onto classes, each as its conclusion a and the downset
        # d = ↓B ∩ ↓a of its premises met with a; one with a in d is trivial
        seen: set[tuple[int, int]] = set()
        for a, B in covers:
            a = cls[a]
            d = 0
            for b in B:
                d |= down[cls[b]]
            d &= down[a]
            if not d >> a & 1:
                seen.add((a, d))

        # 4. closure of the rule set under meets with generators: a <| d
        # met with g is a ^ g <| d ∩ ↓(a ^ g), with the class meets of each
        # generator read off the representatives' masks
        masks = [M.masks[r] for r in reps]
        gen_rows = [[cls[M.index[masks[g] & m]] for m in masks] for g in sorted({cls[g] for g in gen_idxs})]
        queue = list(seen)
        while queue:
            a, d = queue.pop()
            for meet_g in gen_rows:
                a2 = meet_g[a]
                d2 = d & down[a2]
                if d2 >> a2 & 1:
                    continue
                inst = (a2, d2)
                if inst not in seen:
                    seen.add(inst)
                    queue.append(inst)

        # 5. trigger index for the closure operator: each rule as the mask
        # of the maximal members of its premises and the downset of its
        # conclusion
        self.by_elem: list[list[int]] = [[] for _ in range(self.n)]
        self.premises = []
        self.conclusion = []
        self.always = 0
        for k, (a, d) in enumerate(seen):
            tops = maximal(d, down)
            self.premises.append(tops)
            self.conclusion.append(down[a])
            if not d:
                self.always |= down[a]
            for b in _bits(tops):
                self.by_elem[b].append(k)

    def close(self, mask: int, base: int = 0) -> int:
        """The least fixed set containing ``base | mask``, where ``base``
        is a fixed set itself (or 0).  A rule whose premises all lie in
        ``base`` already holds there, so only the elements outside it are
        queued, and the queue is a mask.  A rule is looked at whenever one
        of the maximal members of its premises leaves the queue; once it
        has fired, it adds nothing more."""
        down, by_elem, premises, conclusion = self.down, self.by_elem, self.premises, self.conclusion
        u = base | self.always
        mask &= ~base
        while mask:
            low = mask & -mask
            u |= down[low.bit_length() - 1]
            mask ^= low
        queue = u & ~base
        while queue:
            low = queue & -queue
            queue ^= low
            for k in by_elem[low.bit_length() - 1]:
                if premises[k] & ~u == 0:
                    add = conclusion[k] & ~u
                    if add:
                        u |= add
                        queue |= add
        return u

    def enumerate_carrier(self) -> list[int]:
        """All fixed sets of ``close``, sorted by size then mask, built from
        the join-irreducible ones (Birkhoff duality).

        Every fixed set is the join of the principal closures below it, so
        the join-irreducible fixed sets ``J`` are the principal closures
        that are not the closure of the union of the principal closures
        strictly inside them.  Each fixed set ``x`` is the join of
        ``J ∩ ↓x``, so closing the union of each downset ``D`` of ``J``
        reaches every fixed set; each ``D`` is closed once, as its
        largest member joined to the closure of the rest, and a union that
        is already a known fixed set needs no closing.  The fixed sets form
        a distributive lattice exactly when the join-irreducibles below the
        closure of every ``D`` are ``D`` itself, that is, when no two
        downsets close to the same set; the first repeat fails the frame
        check.  More than ``max_carrier`` downsets of ``J`` is an
        oracle-scale overrun.  The principal closures are kept, by
        element, in ``principal``.

        Once no repeat is found, each fixed set ``c`` is the closure of
        exactly one downset ``D`` of ``J``, and ``J ∩ ↓c`` is ``D``: a
        member ``j`` of ``J`` inside ``c`` but outside ``D`` would give the
        larger downset ``D ∪ ↓j`` the same closure, a repeat.  So
        ``c ⊆ c'`` exactly when ``D ⊆ D'``, and ``downset_of`` keeps ``D``,
        as a mask over positions in ``J``, for each fixed set ``c``."""
        bottom = self.close(0)
        self.principal = [self.close(1 << i) for i in range(self.n)]
        principals = sorted(set(self.principal), key=lambda m: (m.bit_count(), m))
        known = {bottom, *principals}
        # a closure strictly inside another comes before it, so J comes in
        # an order where the highest member of a downset of J is maximal in
        # it; ``jdown`` holds the principal downsets of J as masks over
        # positions in J
        irreducible, jdown, position = [], [], {}
        for k, c in enumerate(principals):
            below = inner = bottom
            d = 0
            for p in principals[:k]:
                if p & ~c == 0:
                    below |= p
                    inner = p
                    d |= position.get(p, 0)
            if (below if below in known else self.close(below, inner)) != c:
                position[c] = 1 << len(irreducible)
                irreducible.append(c)
                jdown.append(d | position[c])
        self.jdown = jdown
        closure = {0: bottom}
        self.downset_of = {bottom: 0}
        for d in unions(jdown, self.max_carrier, "presented frame")[1:]:
            top = d.bit_length() - 1
            rest = closure[d ^ (1 << top)]
            c = rest | irreducible[top]
            if c not in known:
                c = self.close(irreducible[top], rest)
            if c in self.downset_of:
                raise EvaluationError("presented carrier failed the frame check")
            closure[d] = c
            self.downset_of[c] = d
        return sorted(self.downset_of, key=lambda m: (m.bit_count(), m))


def _structural_rules(p: Presentation, M: _MeetCarrier):
    """Covering rules that force the domain's joins where the kind reads
    them: each binary join covered by its two generators, and the bottom
    by nothing."""
    domain = p.domain
    covers: list[tuple[int, tuple[int, ...]]] = []
    if p.kind.uses("join") and domain.has_join:
        P, elem = domain.sorted_poset, M.gen_elems
        for a, b in itertools.combinations(range(P.n), 2):
            j = P.by_up[P.up[a] & P.up[b]]
            covers.append((elem[j], (elem[a], elem[b])))
        if domain.bottom() is not None:
            # the bottom is the generator below every generator
            covers.append((elem[P.by_up[(1 << P.n) - 1]], ()))
    return covers


def _relation_rules(p: Presentation, M: _MeetCarrier):
    """The relations' rules on their sides (``relation_sides``), each
    clause one element of ``M``.  An equation between two sides of one
    clause each collapses their meets; any other relation gives covering
    rules.  So a relation and its normal form give the same rules."""
    covers: list[tuple[int, tuple[int, ...]]] = []
    meet_eqs: list[tuple[int, int]] = []
    for l, r, op in relation_sides(p, M.fold):
        lhs, rhs = tuple(map(M.clause, l)), tuple(map(M.clause, r))
        if op == "=" and len(lhs) == len(rhs) == 1:
            meet_eqs.append((lhs[0], rhs[0]))
            continue
        for a in lhs:
            covers.append((a, rhs))
        if op == "=":
            for b in rhs:
                covers.append((b, lhs))
    return covers, meet_eqs


def _require_instantiated(p: Presentation):
    """Evaluation reads concrete relations over a finite domain; a schema
    would otherwise be dropped."""
    if p.schematic:
        raise EvaluationError("presentation has schematic content; instantiate on a grid first")
    if not p.domain.finite:
        raise EvaluationError("evaluation needs a finite domain; instantiate first")


def _require_kind_domain(p: Presentation):
    _require_instantiated(p)
    need = p.kind.structure
    if need and not getattr(p.domain, need[0]):
        raise EvaluationError(f"{p.kind.value} evaluation needs {need[1]}")


def _frame_engine(p: Presentation, max_carrier: int) -> tuple[_MeetCarrier, _FrameEngine]:
    """The formal meets of ``p``'s generators and the closure engine whose
    fixed sets are the presented frame."""
    _require_kind_domain(p)
    M = _meet_carrier(p.domain, p.kind.folds_meets)
    covers, meet_eqs = _relation_rules(p, M)
    covers.extend(_structural_rules(p, M))
    return M, _FrameEngine(M, covers, meet_eqs, max_carrier)


def eval_frame(p: Presentation, max_carrier: int = 1 << 12) -> PresentedObject:
    """The presented frame: formal meets of generators, quotiented by the
    least nucleus forcing the relations and the kind's structure.

    Generator meets are semantic exactly when the domain declares meet
    structure; preframe generators only carry join structure, so their
    meets stay formal.

    The carrier is held as the downsets of the join-irreducible fixed sets
    ``J`` (``FiniteLattice.of_downsets``): ``enumerate_carrier`` has checked
    that each fixed set is the closure of exactly one downset of ``J``, the
    members of ``J`` inside it, so inclusion of fixed sets is inclusion of
    those downsets, on |J| points instead of one per element.  Labels are
    the ones the class masks give."""
    M, eng = _frame_engine(p, max_carrier)
    masks = eng.enumerate_carrier()
    index = {m: i for i, m in enumerate(masks)}
    downsets = [eng.downset_of[m] for m in masks]
    fixed_set = dict(zip(downsets, masks))

    def elem_label(d: int) -> str:
        maxs = _bits(maximal(fixed_set[d], eng.down))
        return " | ".join(sorted(eng.labels[e] for e in maxs)) or "0"

    try:
        carrier = FiniteLattice.of_downsets(eng.jdown, downsets, elem_label)
    except LatticeError:
        raise EvaluationError("presented carrier failed the frame check") from None

    principal, cls = eng.principal, eng.cls
    interp = {g: index[principal[cls[e]]] for g, e in zip(M.gen_keys, M.gen_elems)}

    def side_value(side) -> int:
        # the join of the clauses' principal closures and the least fixed
        # set: their union when that is fixed, else its closure from the
        # largest of them
        u = base = masks[0]
        for m in side:
            c = principal[cls[M.clause(m)]]
            u |= c
            if c.bit_count() > base.bit_count():
                base = c
        return index[u] if u in index else index[eng.close(u, base)]

    obj = PresentedObject("frame", carrier, interp, p.domain, M.fold, side_value)
    for rel, sides in zip(p.concrete_relations(), relation_sides(p, M.fold)):
        if not obj.holds(*sides):
            raise EvaluationError(f"internal: relation {rel} fails in its own frame")
    return obj


# ---------------------------------------------------------------------------
# suplattice / preframe / dcpo evaluations


def _gen_poset(p: Presentation) -> FinitePoset:
    _require_instantiated(p)
    P = p.domain.sorted_poset
    if P.n > 16:
        raise EvaluationError("generator poset exceeds oracle scale for this category")
    return P


def _eval_union_quotient(p: Presentation, upsets: bool) -> PresentedObject:
    """Downsets of the generator poset under inclusion, or upsets under
    reverse inclusion, modulo the least congruence containing the
    relations that respects union with the principal ones.

    Union is the join of downsets and the meet of upsets, and each
    relation is read as its sides (``relation_sides``), so a side's mask is
    one OR over the principal masks.  Over downsets a side must join single
    generators: its meets are folded where the domain has them, since
    ``↓a ∩ ↓b = ↓(a ^ b)``.  Over upsets meets stay formal, each clause the
    union of its generators' upsets, and the join is an intersection."""
    category = "preframe" if upsets else "suplattice"
    P = _gen_poset(p)
    seeds = P.up if upsets else P.down
    family = unions(seeds, 1 << 12, f"free {category}")
    index = {m: i for i, m in enumerate(family)}
    full = (1 << P.n) - 1
    top, bottom = (0, full) if upsets else (full, 0)

    def side_mask(side: Side) -> int:
        acc = bottom
        for m in side:
            if m & (m - 1) and not upsets:
                raise EvaluationError("suplattice evaluation needs joins of generators")
            u = reduce(or_, [seeds[i] for i in _bits(m)]) if m else top
            acc = (acc & u) if upsets else (acc | u)
        return acc

    pairs = []
    for l, r, op in relation_sides(p, not upsets):
        l, r = side_mask(l), side_mask(r)
        if op == "<=":
            # l <= r says that the union of l and r is r over downsets
            # (their join) and l over upsets (their meet)
            l, r = l | r, (l if upsets else r)
        pairs.append((index[l], index[r]))
    rep = _congruence(len(family), pairs, lambda x: [index[family[x] | s] for s in seeds])

    def label_of(mask: int) -> str:
        # the maximal generators of a downset, the minimal ones of an upset
        ends = sorted(P.elements[i] for i in _bits(maximal(mask, seeds)))
        return (" & " if upsets else " | ").join(ends) or ("1" if upsets else "0")

    # each class is named by the union of its members
    cls: dict[int, int] = {}
    for m, r in zip(family, rep):
        cls[r] = cls.get(r, 0) | m
    fixed = sorted(set(cls.values()), key=lambda m: (m.bit_count(), m))
    pos = {m: i for i, m in enumerate(fixed)}
    carrier = subset_lattice(fixed, label_of, reverse=upsets)

    def value(mask: int) -> int:
        return pos[cls[rep[index[mask]]]]

    interp = {g: value(m) for g, m in zip(P.elements, seeds)}
    return PresentedObject(category, carrier, interp, p.domain, not upsets, lambda s: value(side_mask(s)))


def eval_suplattice(p: Presentation) -> PresentedObject:
    """Downsets of the generator poset modulo the least join-congruence
    containing the relations.  A bare poset of generators suffices."""
    return _eval_union_quotient(p, upsets=False)


def eval_preframe(p: Presentation) -> PresentedObject:
    """Upsets of the generator poset under reverse inclusion, modulo the
    least finite-meet congruence containing the relations."""
    return _eval_union_quotient(p, upsets=True)


def eval_dcpo(p: Presentation) -> PresentedObject:
    """The generator poset modulo the preorder collapse generated by the
    relations, read as their sides with meets folded where the domain has
    them.  Each side is a directed family of single generators (1 the top,
    0 the bottom), valued at its greatest element, recomputed as the
    preorder grows."""
    P = _gen_poset(p)
    n = P.n
    reach = list(P.up)  # reach[i] holds j when i <= j
    index = instance_kernel(p.domain).index
    # the generators that are the empty join and the empty meet
    ends = {(): ("0", "bottom", p.domain.bottom()), ONE: ("1", "top", p.domain.top())}

    def members(side: Side) -> list[int]:
        if side in ends:
            term, what, g = ends[side]
            if g is None:
                raise EvaluationError(f"term {term} needs a domain {what} in dcpo evaluation")
            return [index[g]]
        if any(m & (m - 1) for m in side):
            raise EvaluationError("dcpo evaluation needs directed joins of generators")
        return [m.bit_length() - 1 for m in side]

    def greatest(idxs: list[int]) -> Optional[int]:
        for m in idxs:
            if all((reach[a] >> m) & 1 for a in idxs):
                return m
        return None

    rels = [(members(l), members(r), op) for l, r, op in relation_sides(p, True)]
    changed = True
    rounds = 0
    while changed:
        rounds += 1
        if rounds > 2 * n * max(1, len(rels)) + 4:
            raise EvaluationError("dcpo preorder saturation failed to stabilise")
        changed = False
        for lhs, rhs, op in rels:
            for a_side, b_side in ((lhs, rhs),) + (((rhs, lhs),) if op == "=" else ()):
                mb = greatest(b_side)
                if mb is None:
                    continue
                for a in a_side:
                    if not (reach[a] >> mb) & 1:
                        reach[a] |= 1 << mb
                        changed = True
        if changed:
            _transitive_closure(reach)
    for lhs, rhs, op in rels:
        if greatest(rhs) is None or (op == "=" and greatest(lhs) is None):
            raise EvaluationError(
                "a directed-join side has no greatest element; the presentation "
                "is not interpretable at oracle scale"
            )

    # the class of i is the mask of the j with i <= j <= i; classes are
    # numbered by their least members
    cls = [sum(1 << j for j in _bits(reach[i]) if (reach[j] >> i) & 1) for i in range(n)]
    leaders = [i for i in range(n) if cls[i] & -cls[i] == 1 << i]
    number = {i: k for k, i in enumerate(leaders)}
    assigned = [number[(c & -c).bit_length() - 1] for c in cls]
    labels = [" ~ ".join(sorted(P.elements[j] for j in _bits(cls[i]))) for i in leaders]
    # reach is a transitive preorder, so its quotient is the class order
    reach_q = []
    for i in leaders:
        m = 0
        for j in _bits(reach[i]):
            m |= 1 << assigned[j]
        reach_q.append(m)
    poset = FinitePoset(tuple(labels), tuple(reach_q))
    interp = {g: assigned[i] for i, g in enumerate(P.elements)}

    def side_value(side: Side) -> Optional[int]:
        """The class of the side's greatest generator, if it has one."""
        try:
            m = greatest(members(side))
        except EvaluationError:
            return None
        return None if m is None else assigned[m]

    return PresentedObject("dcpo", poset, interp, p.domain, True, side_value)


# each kind's own evaluation, which ``verify_coverage`` compares with the
# frame; the kinds here are the ones with a coverage theorem
EVALUATORS = {
    PresentationKind.SUP: eval_suplattice,
    PresentationKind.PREFRAME: eval_preframe,
    PresentationKind.DCPO: eval_dcpo,
}


def verify_coverage(p: Presentation) -> OperatorReport:
    """Check that the frame evaluation of ``p`` and the kind's own
    evaluation are order isomorphic over an isomorphism matching generator
    images.  A schematic ``p``, or one over a non-finite domain, raises
    ``EvaluationError``: instantiate it on a grid first."""
    if p.kind not in EVALUATORS:
        raise PresentationError("coverage applies to sup/preframe/dcpo presentations")
    _require_instantiated(p)
    report = check_kind(p)
    if not report.ok:
        raise KindCheckError(report)
    frame = eval_frame(p)
    other = EVALUATORS[p.kind](p)
    pa, pb = frame.carrier_poset, other.carrier_poset
    pinned = [(frame.interp[g], other.interp[g]) for g in frame.interp]
    iso = poset_isomorphism(pa, pb, pinned)
    notes = (
        f"frame carrier {pa.n} elements",
        f"{other.category} carrier {pb.n} elements",
    )
    if iso is None:
        return OperatorReport(False, (("coverage-isomorphism", ()),), notes)
    return OperatorReport(True, (), notes)

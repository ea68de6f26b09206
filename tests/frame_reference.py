"""The closure engine that evaluated presented frames before ``eval_frame``
read them by their points, kept as the reference that ``eval_frame`` is
compared against.

It builds the presented frame as the closed subsets of the meet carrier
(``evaluate._MeetCarrier``).  Relations become covering rules ``a <| B``
(a is covered by the joins of B), the rules are stabilised under meets with
generators, and the carrier is the family of downsets closed under all
rules, i.e. the fixed points of the least nucleus forcing the relations.
The engine works on class masks: the meet equations collapse the formal
meets into classes (``evaluate._congruence``), and every set of classes is
a mask over class positions.  Fixed sets are downsets, so ``a <| B`` is the
same rule as ``a <| ↓B ∩ ↓a``, and each rule is the integer pair of its
conclusion class and that downset: meeting a rule with a generator is one
AND, and rules whose premises have the same downset are one rule.  The
rules are kept as a set; the order in which they fire does not change a
least fixed point.  The frame is held as the downsets of its
join-irreducible fixed sets J (``FiniteLattice.of_downsets``).

Nothing here shares the points reading: no models, no extents.  Only the
meet carrier, the meet congruence and the carrier's own frame check are
common to both.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from locale_forge.evaluate import (
    EvaluationError,
    PresentedObject,
    _congruence,
    _meet_carrier,
    _MeetCarrier,
    _require_kind_domain,
)
from locale_forge.lattice import FiniteLattice, LatticeError, _bits, maximal, unions
from locale_forge.presentation import Presentation, relation_sides


class FrameEngine:
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
        element, in ``principal``, and in ``below`` each fixed set's classes
        below some member: its parts' where closing added nothing.

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
        # a fixed set is a downset: the classes below its maximal ones
        self.below = below = {c: c ^ maximal(c, self.down) for c in [bottom, *irreducible]}
        for d in unions(jdown, self.max_carrier, "presented frame")[1:]:
            top = d.bit_length() - 1
            rest = closure[d ^ (1 << top)]
            u = rest | irreducible[top]
            c = u if u in known else self.close(irreducible[top], rest)
            if c in self.downset_of:
                raise EvaluationError("presented carrier failed the frame check")
            closure[d] = c
            self.downset_of[c] = d
            if c not in below:
                below[c] = below[rest] | below[irreducible[top]] if c == u else c ^ maximal(c, self.down)
        return sorted(self.downset_of, key=lambda m: (m.bit_count(), m))


def structural_rules(p: Presentation, M: _MeetCarrier):
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


def relation_rules(p: Presentation, M: _MeetCarrier):
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


def frame_engine(p: Presentation, max_carrier: int) -> tuple[_MeetCarrier, FrameEngine]:
    """The formal meets of ``p``'s generators and the closure engine whose
    fixed sets are the presented frame."""
    _require_kind_domain(p)
    M = _meet_carrier(p.domain, p.kind.folds_meets)
    covers, meet_eqs = relation_rules(p, M)
    covers.extend(structural_rules(p, M))
    return M, FrameEngine(M, covers, meet_eqs, max_carrier)


def reference_eval_frame(p: Presentation, max_carrier: int = 1 << 12) -> PresentedObject:
    """The presented frame as ``eval_frame`` gives it, computed apart from
    its models: formal meets of generators, quotiented by the least nucleus
    forcing the relations and the kind's structure.

    Generator meets are semantic exactly when the domain declares meet
    structure; preframe generators only carry join structure, so their
    meets stay formal.

    The carrier is held as the downsets of the join-irreducible fixed sets
    ``J`` (``FiniteLattice.of_downsets``): ``enumerate_carrier`` has checked
    that each fixed set is the closure of exactly one downset of ``J``, the
    members of ``J`` inside it, so inclusion of fixed sets is inclusion of
    those downsets, on |J| points instead of one per element.  Labels are
    the ones the class masks give."""
    M, eng = frame_engine(p, max_carrier)
    masks = eng.enumerate_carrier()
    index = {m: i for i, m in enumerate(masks)}
    downsets = [eng.downset_of[m] for m in masks]
    fixed_set = dict(zip(downsets, masks))

    def elem_label(d: int) -> str:
        c = fixed_set[d]
        tops = c & ~eng.below[c]
        if tops & (tops - 1):
            return " | ".join(sorted([eng.labels[e] for e in _bits(tops)]))
        return eng.labels[tops.bit_length() - 1] if tops else "0"

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

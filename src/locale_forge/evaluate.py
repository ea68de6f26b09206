"""Brute-force evaluation of finite presentations.

``eval_frame`` reads the presented frame off its points.  A finite frame
is spatial, so the frame a finite presentation presents is the frame of
opens of its models, all the downsets of the models in their order.  The
models are principal filters of a finite meet-semilattice of generator
meets (``_MeetCarrier``, one per domain object and reading of its meets),
each a mask over the generators with meet ``&``: the generators'
down-masks when the domain's meets are semantic, the complements of the
finitely generated upsets when they are formal.  A relation is read as its
two sides, sorted tuples of clause masks (``presentation.relation_sides``),
handed over by ``saturate`` or ``present`` when they built it; each clause
is one AND over generator masks, and the models where a side holds are one
OR of down-masks.  The frame is held as the downsets of its models
(``FiniteLattice.of_downsets``): order, meet and join are inclusion, ``&``
and ``|`` of masks over the models, and no order over the elements is built
unless a caller reads ``carrier.poset``.  Its elements are numbered and
labelled by the meet-congruence classes below them, as the closed sets of
the least nucleus forcing the relations would be; the closure engine that
computes those closed sets is kept with the tests, as the reference that
``eval_frame`` is compared against.

``eval_suplattice`` / ``eval_preframe`` / ``eval_dcpo`` present the same
data in the weaker categories, all three through one closure
(``_separation``): the sets of generators that no relation separates,
where ``l <= r`` says that a closed set holding ``r`` holds ``l``.  The
suplattice is the closed downsets, the preframe the closed upsets (one
body, union being the join of downsets and the meet of upsets, and over
upsets a relation read in reverse), and the dcpo the generator poset
preordered by ``i <= j`` when the closure of ``↓j`` holds ``i``.  They too
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
# the frame of the models


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


def eval_frame(p: Presentation, max_carrier: int = 1 << 12) -> PresentedObject:
    """The presented frame, read off the models of ``p``.

    A finite frame is spatial, so the frame that ``p`` presents is the
    frame of opens of its points, and the points of a presented locale are
    the models of the theory it presents (Johnstone, *Stone Spaces*, 1982;
    Vickers, *Topology via Logic*, 1989).  Each model is a principal filter
    ``↑s`` of the meet carrier M: a generator where meets fold, a finitely
    generated upset of generators where they are formal.  A clause holds
    at ``↑s`` when ``s`` lies below its meet, so the models where a side
    holds are one OR of down-masks of M.  A model satisfies each relation
    (both sides of an equation or neither; the right side of ``l <= r``
    wherever the left) and, where the kind reads the domain's joins, is
    prime for its binary joins and misses its bottom.  Generator meets are
    semantic exactly when the domain declares meet structure; preframe
    generators only carry join structure, so their meets stay formal.

    The frame is every downset of the models Q, ordered as in M, held as
    masks over Q (``FiniteLattice.of_downsets``, whose frame check fails
    an enumeration that is not exactly those downsets).  A side's value is
    the union of its clauses' extents, the models where they hold.

    Elements are numbered and labelled as the closed sets of the least
    nucleus forcing the relations would be: each element's fixed set holds
    the meet-congruence classes (``_congruence`` of the single-clause
    equations) whose extent lies in it; elements come in the order of their
    fixed sets, by size then mask, and each is labelled by the maximal
    classes of its fixed set.  More than ``max_carrier`` elements is an
    oracle-scale overrun."""
    _require_kind_domain(p)
    domain = p.domain
    M = _meet_carrier(domain, p.kind.folds_meets)
    down, up = M.poset.down, M.poset.up
    sides = relation_sides(p, M.fold)

    def holds_at(side: Side) -> int:
        # the elements of M below some clause of the side
        out = 0
        for c in side:
            out |= down[M.clause(c)]
        return out

    # the models, each as the element of M that generates it
    models = (1 << M.n) - 1
    meet_eqs = []
    for l, r, op in sides:
        tl, tr = holds_at(l), holds_at(r)
        models &= ~(tl ^ tr) if op == "=" else ~tl | tr
        if op == "=" and len(l) == len(r) == 1:
            meet_eqs.append((M.clause(l[0]), M.clause(r[0])))
    if p.kind.uses("join") and domain.has_join:
        P, elem = domain.sorted_poset, M.gen_elems
        for a, b in itertools.combinations(range(P.n), 2):
            models &= ~down[elem[P.by_up[P.up[a] & P.up[b]]]] | down[elem[a]] | down[elem[b]]
        if domain.bottom() is not None:
            models &= ~down[elem[P.by_up[(1 << P.n) - 1]]]

    # the meet-congruence classes, numbered by their least members, each
    # named by its shortest label and holding the classes strictly below it
    gen_idxs = sorted(set(M.gen_elems))
    rep = _congruence(M.n, meet_eqs, lambda x: [M.meet(x, g) for g in gen_idxs])
    reps = sorted(set(rep))
    number = {r: k for k, r in enumerate(reps)}
    cls = [number[r] for r in rep]
    names: list[Optional[str]] = [None] * len(reps)
    for c, label in zip(cls, M.labels):
        if names[c] is None or (len(label), label) < (len(names[c]), names[c]):
            names[c] = label
    strict = []
    for k, r in enumerate(reps):
        m = 0
        for j in _bits(down[r]):
            m |= 1 << cls[j]
        strict.append(m ^ 1 << k)

    # the models as points, each after those below it, and the extent of
    # each element of M as a mask over them
    Q = sorted(_bits(models), key=lambda q: down[q].bit_count())
    extent = [0] * M.n
    for k, q in enumerate(Q):
        for x in _bits(up[q]):
            extent[x] |= 1 << k
    q_down = [extent[q] for q in Q]

    # each downset d of Q with its fixed set and the classes below some
    # member of that: the classes in d's fixed set and not in that of d
    # less its top point are those whose extent has that point on top
    fixed, below = {0: 0}, {0: 0}
    on_top: list[list[tuple[int, int]]] = [[] for _ in Q]
    for a, r in enumerate(reps):
        if extent[r]:
            on_top[extent[r].bit_length() - 1].append((a, extent[r]))
        else:
            fixed[0] |= 1 << a
            below[0] |= strict[a]
    enumerated = unions(q_down, max_carrier, "presented frame")
    for d in enumerated[1:]:
        top = d.bit_length() - 1
        rest = d ^ 1 << top
        c, b = fixed[rest], below[rest]
        for a, ext in on_top[top]:
            if not ext & ~d:
                c |= 1 << a
                b |= strict[a]
        fixed[d], below[d] = c, b
    downsets = sorted(enumerated, key=lambda d: (fixed[d].bit_count(), fixed[d]))

    def elem_label(d: int) -> str:
        tops = fixed[d] & ~below[d]
        if tops & (tops - 1):
            return " | ".join(sorted([names[e] for e in _bits(tops)]))
        return names[tops.bit_length() - 1] if tops else "0"

    try:
        carrier = FiniteLattice.of_downsets(q_down, downsets, elem_label)
    except LatticeError:
        raise EvaluationError("presented carrier failed the frame check") from None
    index = {d: i for i, d in enumerate(downsets)}

    def side_value(side: Side) -> int:
        d = 0
        for c in side:
            d |= extent[M.clause(c)]
        return index[d]

    interp = {g: index[extent[e]] for g, e in zip(M.gen_keys, M.gen_elems)}
    obj = PresentedObject("frame", carrier, interp, domain, M.fold, side_value)
    for rel, (l, r, op) in zip(p.concrete_relations(), sides):
        if not obj.holds(l, r, op):
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


def _separation(sides: Sequence[tuple[int, int, str]]) -> Callable[[int], int]:
    """The closure whose closed sets are the sets of generators that no
    relation separates, each relation given as the masks of its sides:
    ``l <= r`` says that a closed set holding ``r`` holds ``l``, and an
    equation says both.  Each round adds every ``l`` whose ``r`` the set
    holds, until a round adds nothing.  When every side is a downset (an
    upset), so is the closure of one."""
    pairs = [(l, r) for l, r, _ in sides] + [(r, l) for l, r, op in sides if op == "="]

    def close(x: int) -> int:
        before = None
        while before != x:
            before, x = x, reduce(or_, [l for l, r in pairs if not r & ~x], x)
        return x

    return close


def _eval_union_quotient(p: Presentation, upsets: bool) -> PresentedObject:
    """The downsets of the generator poset under inclusion, or its upsets
    under reverse inclusion, that no relation separates (``_separation``),
    each side valued at its closure: the greatest member of its class under
    the least congruence that holds the relations and respects union.

    Union is the join of downsets and the meet of upsets, and each
    relation is read as its sides (``relation_sides``), so a side's mask is
    one OR over the principal masks.  Over downsets a side must join single
    generators: its meets are folded where the domain has them, since
    ``↓a ∩ ↓b = ↓(a ^ b)``.  Over upsets meets stay formal, each clause the
    union of its generators' upsets, the join is an intersection, and
    ``l <= r`` says that a closed upset holding ``l`` holds ``r``."""
    category = "preframe" if upsets else "suplattice"
    P = _gen_poset(p)
    seeds = P.up if upsets else P.down
    family = unions(seeds, 1 << 12, f"free {category}")
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

    sides = [(side_mask(l), side_mask(r), op) for l, r, op in relation_sides(p, not upsets)]
    close = _separation([(r, l, op) for l, r, op in sides] if upsets else sides)

    def label_of(mask: int) -> str:
        # the maximal generators of a downset, the minimal ones of an upset
        ends = sorted(P.elements[i] for i in _bits(maximal(mask, seeds)))
        return (" & " if upsets else " | ").join(ends) or ("1" if upsets else "0")

    fixed = [m for m in family if close(m) == m]
    pos = {m: i for i, m in enumerate(fixed)}
    carrier = subset_lattice(fixed, label_of, reverse=upsets)

    def value(mask: int) -> int:
        return pos[close(mask)]

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
    """The generator poset under the preorder the relations generate,
    modulo its collapse.  The relations are read as their sides with meets
    folded where the domain has them, each side a directed family of single
    generators (1 the top, 0 the bottom) held as its downset.  ``i <= j``
    holds when the closure of ``↓j`` that no relation separates
    (``_separation``, ``l <= r`` as over downsets) holds ``i``, and each
    side is valued at its greatest element in that preorder."""
    P = _gen_poset(p)
    n = P.n
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

    def down(idxs: list[int]) -> int:
        return reduce(or_, [P.down[i] for i in idxs])

    close = _separation([(down(l), down(r), op) for l, r, op in rels])
    reach = [0] * n  # reach[i] holds j when i <= j
    for j, d in enumerate(P.down):
        for i in _bits(close(d)):
            reach[i] |= 1 << j
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

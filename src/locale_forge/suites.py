"""Seeded random verification suites.

Each suite draws random finite presentations and quotient operators,
pushes them through the symbolic transformers and compares the result
against the exact kernel: the presented frame of the transformed
presentation must be order isomorphic (matching generator images) to the
fixed points of the operator on the parent frame.  Coverage suites settle
the frame-vs-suplattice/preframe/dcpo comparisons the same way.

All randomness comes from an explicit seed; results are deterministic.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from .evaluate import PresentedObject, eval_frame, verify_coverage
from .generators import FiniteGeneratorDomain, finite_domain
from .lattice import (
    CLOSURE_LAWS,
    FiniteLattice,
    FinitePoset,
    LatticeError,
    MonotoneMap,
    QuotientMode,
    Role,
    check_laws,
    check_quotient_operator,
    fixed_points,
    join_irreducibles,
    kleene_closure,
    poset_isomorphism,
    subset_poset,
    unions,
)
from .presentation import (
    Presentation,
    PresentationKind,
    Relation,
    saturate,
)
from .terms import Meet, Term, TERM_ONE, TERM_ZERO, gen_term

if TYPE_CHECKING:
    from .transform import TransformedPresentation

DEFAULT_SEED = 271828


class SuiteResult:
    """The running tally of one suite; mutable, so compared but not hashed."""

    __slots__ = ("name", "total", "passed", "failures")
    __hash__ = None

    def __init__(self, name: str, total: int = 0, passed: int = 0, failures: Optional[list[str]] = None):
        self.name = name
        self.total = total
        self.passed = passed
        self.failures = [] if failures is None else failures

    def _fields(self) -> tuple:
        return (self.name, self.total, self.passed, self.failures)

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return "SuiteResult(name={!r}, total={!r}, passed={!r}, failures={!r})".format(*self._fields())

    @property
    def ok(self) -> bool:
        return self.passed == self.total and not self.failures

    def record(self, instance: int, ok: bool, detail: str = ""):
        self.total += 1
        if ok:
            self.passed += 1
        else:
            self.failures.append(f"instance {instance}: {detail}")

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        lines = [f"{self.name}: {self.passed}/{self.total} {status}"]
        lines.extend("  " + f for f in self.failures[:10])
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# random structures


def rand_poset(rng: random.Random, n: int) -> FinitePoset:
    labels = [f"g{i}" for i in range(n)]
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
    ]
    return FinitePoset.from_pairs(labels, pairs)


def _subset_domain(rng: random.Random, closed_under: str) -> FiniteGeneratorDomain:
    """Subsets of three points closed under union (``"join"``) or under
    intersection (``"meet"``), at most five of them.  The intersection
    closure is the complements of the union closure of the complements."""
    meet = closed_under == "meet"
    flip = 0b111 if meet else 0  # complements within the three points, or none
    for _ in range(64):
        draws = [0b111]
        for _ in range(rng.randint(1, 3)):
            draws.append(sum(1 << x for x in range(3) if rng.random() < 0.5))
        masks = [flip ^ m for m in unions([flip ^ m for m in draws], 8, "subsets")]
        if len(masks) <= 5:
            break
    # by size, then as sets of points, which for three points is the mask order
    masks.sort(key=lambda m: (m.bit_count(), m))
    poset = subset_poset(masks, lambda m: f"g{masks.index(m)}")
    return finite_domain(poset, use_meet=meet, use_join=not meet)


def rand_meet_semilattice_domain(rng: random.Random) -> FiniteGeneratorDomain:
    return _subset_domain(rng, "meet")


def rand_join_semilattice_domain(rng: random.Random) -> FiniteGeneratorDomain:
    return _subset_domain(rng, "join")


def rand_distributive_domain(rng: random.Random) -> FiniteGeneratorDomain:
    for _ in range(64):
        base = rand_poset(rng, rng.randint(1, 3))
        # every downset of a poset with n elements: never more than 2**n
        masks = unions(base.down, 1 << base.n, "random distributive domain")
        if len(masks) <= 8:
            break
    poset = subset_poset(masks, lambda m: f"g{masks.index(m)}")
    return finite_domain(poset, use_meet=True, use_join=True)


def _rand_join_term(rng: random.Random, gens: list[str]) -> Term:
    k = rng.randint(0, 2)
    if k == 0:
        return TERM_ZERO
    picks = rng.sample(gens, min(k, len(gens)))
    return Term(tuple(Meet((g,)) for g in sorted(set(picks))))


def rand_sup_presentation(rng: random.Random) -> Presentation:
    domain = rand_meet_semilattice_domain(rng)
    gens = domain.enumerate_gens()
    rels = []
    for _ in range(rng.randint(0, 4)):
        op = rng.choice(["=", "<="])
        rels.append(Relation(_rand_join_term(rng, gens), _rand_join_term(rng, gens), op))
    p = Presentation(PresentationKind.SUP, domain, tuple(rels))
    return saturate(p, PresentationKind.SUP)


def rand_preframe_presentation(rng: random.Random) -> Presentation:
    domain = rand_join_semilattice_domain(rng)
    gens = domain.enumerate_gens()

    def meets_term() -> Term:
        clauses = []
        for _ in range(rng.randint(0, 2)):
            size = rng.randint(1, 2)
            clauses.append(Meet(tuple(sorted(rng.sample(gens, min(size, len(gens)))))))
        return Term(tuple(clauses))

    rels = []
    for _ in range(rng.randint(0, 3)):
        rels.append(Relation(meets_term(), meets_term(), rng.choice(["=", "<="])))
    p = Presentation(PresentationKind.PREFRAME, domain, tuple(rels))
    return saturate(p, PresentationKind.PREFRAME)


def rand_dcpo_presentation(rng: random.Random) -> Presentation:
    domain = rand_distributive_domain(rng)
    gens = domain.enumerate_gens()

    def chain_term() -> Term:
        # a chain in the domain order, so the directed join is interpretable
        g = rng.choice(gens)
        chain = {g}
        for h in rng.sample(gens, len(gens)):
            if all(domain.leq(h, x) or domain.leq(x, h) for x in chain):
                chain.add(h)
            if len(chain) >= 3:
                break
        return Term(tuple(Meet((x,)) for x in sorted(chain)))

    rels = []
    for _ in range(rng.randint(0, 3)):
        rels.append(Relation(chain_term(), chain_term(), rng.choice(["=", "<="])))
    p = Presentation(PresentationKind.DCPO, domain, tuple(rels))
    return saturate(p, PresentationKind.DCPO)


_RAND_BY_KIND = {
    PresentationKind.SUP: rand_sup_presentation,
    PresentationKind.PREFRAME: rand_preframe_presentation,
    PresentationKind.DCPO: rand_dcpo_presentation,
}


# ---------------------------------------------------------------------------
# random operators


def rand_join_endo(rng: random.Random, L: FiniteLattice) -> MonotoneMap:
    ji = join_irreducibles(L.poset)
    target = {x: rng.randrange(L.n) for x in ji}
    table = tuple(
        L.join_all(target[x] for x in ji if L.leq(x, u)) for u in range(L.n)
    )
    return MonotoneMap(L, L, table)


def rand_sublattice(rng: random.Random, L: FiniteLattice) -> list[int]:
    """The 0,1-sublattice generated by a random half of the elements of
    the frame ``L``, ascending.  In a distributive lattice that is the
    joins of the meets of the chosen elements, each closure taken by set
    doubling; ``L`` must be a frame, else ``LatticeError``."""
    if not L.frame:
        raise LatticeError("rand_sublattice needs a frame")
    keep = {L.top, L.bottom}
    for x in range(L.n):
        if rng.random() < 0.5:
            keep.add(x)
    meets = {L.top}
    for s in keep:
        meets |= {L.meet(m, s) for m in meets}
    joins = {L.bottom}
    for s in meets:
        joins |= {L.join(m, s) for m in joins}
    return sorted(joins)


def closure_onto_sublattice(L: FiniteLattice, keep: list[int]) -> MonotoneMap:
    table = tuple(
        L.meet_all(s for s in keep if L.leq(x, s)) for x in range(L.n)
    )
    return MonotoneMap(L, L, table)


def interior_onto_sublattice(L: FiniteLattice, keep: list[int]) -> MonotoneMap:
    table = tuple(
        L.join_all(s for s in keep if L.leq(s, x)) for x in range(L.n)
    )
    return MonotoneMap(L, L, table)


def rand_monotone_idempotent(rng: random.Random, L: FiniteLattice) -> Optional[MonotoneMap]:
    """A random monotone retraction fixing a random sublattice pointwise.

    Off the sublattice the value may land above or below the argument, so
    these are genuinely mixed idempotents (neither closures nor
    interiors), yet the weak quotient laws hold: the image is closed under
    meets and joins, so re-applying the operator to a meet or join of
    values is the identity."""
    keep = set(rand_sublattice(rng, L))
    table: list[int] = []
    for x in range(L.n):
        if x in keep:
            table.append(x)
            continue
        floor = L.join_all(table[j] for j in range(x) if L.leq(j, x))
        cands = [s for s in keep if L.leq(floor, s)]
        # bias toward the tightest retracts but allow wild values
        cands.sort(key=lambda s: bin(L.poset.down[s]).count("1"))
        table.append(cands[0] if rng.random() < 0.6 else rng.choice(cands))
    try:
        return MonotoneMap(L, L, tuple(table))
    except LatticeError:  # the table is not monotone
        return None


# draws of ``rand_quotient_operator`` before it falls back to a retraction
_OPERATOR_TRIES = 40


def rand_quotient_operator(rng: random.Random, L: FiniteLattice, mode: QuotientMode) -> MonotoneMap:
    """A random operator passing the mode's law suite; falls back to the
    retraction onto a random sublattice, and where that fails the mode's
    laws (the proper ones need not hold for it), to the identity, which
    passes every mode's.

    The triquotient modes also draw bare monotone idempotents, so the suite
    sees operators that are neither inflationary nor deflationary."""
    role = mode.info.family.role
    for _ in range(_OPERATOR_TRIES):
        style = rng.randrange(3)
        if role is Role.CLOSURE_OP:
            cand = (
                kleene_closure(rand_join_endo(rng, L))
                if style == 0
                else closure_onto_sublattice(L, rand_sublattice(rng, L))
            )
        elif role is Role.INTERIOR_OP:
            cand = interior_onto_sublattice(L, rand_sublattice(rng, L))
        elif style >= 1:
            cand = rand_monotone_idempotent(rng, L)
            if cand is None:
                continue
        else:
            keep = rand_sublattice(rng, L)
            cand = (
                closure_onto_sublattice(L, keep)
                if rng.random() < 0.5
                else interior_onto_sublattice(L, keep)
            )
        if check_quotient_operator(cand, mode):
            return cand
    keep = rand_sublattice(rng, L)
    cand = (
        closure_onto_sublattice(L, keep)
        if role is Role.CLOSURE_OP
        else interior_onto_sublattice(L, keep)
    )
    return cand if check_quotient_operator(cand, mode) else MonotoneMap(L, L, tuple(range(L.n)))


def check_equivalence(
    p: Presentation, parent: PresentedObject, e: MonotoneMap, mode: QuotientMode
) -> tuple[bool, str, Optional[TransformedPresentation]]:
    """The executable main theorem for one instance: transform then evaluate,
    against the fixed points of the operator."""
    # imported here, so that the suites that transform nothing (kleene,
    # coverage) do not load the transformers
    from .transform import present, spec_from_operator

    spec = spec_from_operator(parent, e, mode)
    out = present(p, spec)
    sub, retr = fixed_points(e)
    quotient = eval_frame(out)
    pinned = [
        (quotient.interp[out.domain.wrap(g)], retr(parent.interp[g])) for g in parent.interp
    ]
    iso = poset_isomorphism(quotient.carrier.poset, sub.poset, pinned)
    if iso is None:
        return (
            False,
            f"no interp-matching iso: quotient {quotient.carrier.n} elements, "
            f"fixed points {sub.n}",
            out,
        )
    return True, "", out


def suite_oracle_equivalence(mode: QuotientMode, seed: int, count: int) -> SuiteResult:
    rng = random.Random(seed)
    res = SuiteResult(f"oracle-equivalence[{mode.cli_name}]")
    for k in range(count):
        p = _RAND_BY_KIND[PresentationKind.with_ops(mode.info.family.ops)](rng)
        parent = eval_frame(p)
        e = rand_quotient_operator(rng, parent.carrier, mode)
        ok, why, _ = check_equivalence(p, parent, e, mode)
        # mode coherence: the semi variant of a strict mode presents the
        # same frame
        if ok and not mode.info.semi:
            ok2, why2, _ = check_equivalence(p, parent, e, mode.semi_variant)
            ok, why = ok and ok2, why2
        res.record(k, ok, why)
    return res


def suite_cross_mode(seed: int, count: int) -> SuiteResult:
    """Replay open and proper operators through the triquotient
    transformers over a distributive-lattice domain presented both ways."""
    rng = random.Random(seed)
    res = SuiteResult("oracle-equivalence[cross-mode]")
    for k in range(count):
        domain = rand_distributive_domain(rng)
        gens = domain.enumerate_gens()
        p_dcpo = Presentation(PresentationKind.DCPO, domain, ())
        frame_dcpo = eval_frame(p_dcpo)
        # each view: its strict mode and kind, the end generator and the
        # unit it equals, and the term of two generators with the domain
        # operation it equals
        views = (
            (QuotientMode.OPEN, PresentationKind.SUP, domain.bottom(), TERM_ZERO,
             lambda a, b: Term((Meet((a,)), Meet((b,)))), domain.join),
            (QuotientMode.PROPER, PresentationKind.PREFRAME, domain.top(), TERM_ONE,
             lambda a, b: Term((Meet((a, b)),)), domain.meet),
        )
        ok_all, why_all = True, ""
        for strict_mode, kind, end, unit, pair, op in views:
            rels = [Relation(gen_term(end), unit)]
            rels += [Relation(pair(a, b), gen_term(op(a, b)))
                     for i, a in enumerate(gens) for b in gens[i + 1:]]
            p_view = saturate(Presentation(kind, domain, tuple(rels)), kind)
            frame_view = eval_frame(p_view)
            pins = [(frame_view.interp[g], frame_dcpo.interp[g]) for g in gens]
            base = poset_isomorphism(frame_view.carrier.poset, frame_dcpo.carrier.poset, pins)
            if base is None:
                ok_all, why_all = False, "parent views disagree on the frame"
                break
            e = rand_quotient_operator(rng, frame_dcpo.carrier, strict_mode)
            view = frame_view.carrier
            e_view = MonotoneMap(view, view, tuple(base.index(e(base[x])) for x in range(view.n)))
            ok1, why1, _ = check_equivalence(p_view, frame_view, e_view, strict_mode)
            ok2, why2, _ = check_equivalence(
                p_dcpo, frame_dcpo, e, QuotientMode.TRIQUOTIENT
            )
            ok3, why3, _ = check_equivalence(
                p_dcpo, frame_dcpo, e, QuotientMode.SEMI_TRIQUOTIENT
            )
            ok_all = ok_all and ok1 and ok2 and ok3
            why_all = why_all or why1 or why2 or why3
        res.record(k, ok_all, why_all)
    return res


def suite_coverage(kind: PresentationKind, seed: int, count: int) -> SuiteResult:
    rng = random.Random(seed)
    res = SuiteResult(f"coverage[{kind.value}]")
    for k in range(count):
        p = _RAND_BY_KIND[kind](rng)
        rep = verify_coverage(p)
        res.record(k, rep.verdict, "; ".join(rep.notes) if not rep.verdict else "")
    return res


def suite_kleene(seed: int, count: int) -> SuiteResult:
    """Closure construction on random join-preserving endomorphisms of
    random downset frames: inflationary, idempotent, join-preserving, and
    fixed points equal the pre-fixed points of the input."""
    from .lattice import downsets

    rng = random.Random(seed)
    res = SuiteResult("kleene-closure")
    for k in range(count):
        L = downsets(rand_poset(rng, rng.randint(1, 5)))
        j = rand_join_endo(rng, L)
        c = kleene_closure(j)
        rep = check_laws(c, CLOSURE_LAWS)
        prefixed = {u for u in range(L.n) if L.leq(j(u), u)}
        fixed = {u for u in range(L.n) if c(u) == u}
        ok = rep.verdict and prefixed == fixed
        res.record(k, ok, "laws or fixed-point mismatch" if not ok else "")
    return res

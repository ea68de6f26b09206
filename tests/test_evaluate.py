import hashlib
import inspect
import itertools
import random
import textwrap
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest

from locale_forge import evaluate as evaluate_module
from locale_forge import lattice
from locale_forge.evaluate import (
    EVALUATORS,
    EvaluationError,
    KindCheckError,
    eval_dcpo,
    eval_frame,
    eval_preframe,
    eval_suplattice,
    verify_coverage,
)
from locale_forge.generators import FiniteGeneratorDomain
from locale_forge.lattice import (
    FinitePoset,
    LatticeError,
    QuotientMode,
    _bits,
    downsets,
    maximal,
    poset_isomorphism,
    subset_poset,
)
from locale_forge.presentation import (
    Presentation,
    PresentationError,
    PresentationKind,
    Relation,
    RelationSchema,
    saturate,
)
from locale_forge.suites import (
    rand_dcpo_presentation,
    rand_distributive_domain,
    rand_join_semilattice_domain,
    rand_meet_semilattice_domain,
    rand_preframe_presentation,
    rand_quotient_operator,
    rand_sup_presentation,
)
from locale_forge.terms import (
    GenPattern,
    Meet,
    SchemaClause,
    SchemaTerm,
    TERM_ONE,
    TERM_ZERO,
    Term,
    econst,
    gen_term,
    join_of,
)
from locale_forge.transform import present, spec_from_operator

from conftest import real_line_on_grid
from frame_reference import FrameEngine, frame_engine, reference_eval_frame


def diamond_domain():
    poset = FinitePoset.from_pairs(["z", "a", "b", "t"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    return FiniteGeneratorDomain(poset, use_meet=True, use_join=False)


def pins_by_label(obj, target, labels):
    """Generator ``g`` of ``obj`` pinned to the element of ``target``
    labelled ``labels[g]``."""
    return [(obj.interp[g], target.index(lab)) for g, lab in labels.items()]


# the diamond's generators on the atoms of the 4-element Boolean lattice
DIAMOND_ON_BOOLEAN = {"z": "{}", "a": "{a}", "b": "{b}", "t": "{a,b}"}


def two_point_presentation():
    dom = diamond_domain()
    return Presentation(
        PresentationKind.SUP,
        dom,
        (Relation(join_of(["a", "b"]), gen_term("t")), Relation(gen_term("z"), TERM_ZERO)),
    )


class TestEvalFrame:
    def test_free_frame_on_trivial_semilattice(self):
        dom = FiniteGeneratorDomain(FinitePoset.from_pairs(["u"], []))
        obj = eval_frame(Presentation(PresentationKind.SUP, dom, ()))
        assert obj.carrier.n == 2

    def test_discrete_two_point_is_four_boolean(self, four_boolean):
        obj = eval_frame(two_point_presentation())
        pinned = pins_by_label(obj, four_boolean.poset, DIAMOND_ON_BOOLEAN)
        assert poset_isomorphism(obj.carrier.poset, four_boolean.poset, pinned) is not None

    def test_without_cover_relation_five_elements(self):
        dom = diamond_domain()
        p = Presentation(PresentationKind.SUP, dom, (Relation(gen_term("z"), TERM_ZERO),))
        obj = eval_frame(p)
        assert obj.carrier.n == 5

    def test_relations_hold_in_carrier(self):
        obj = eval_frame(two_point_presentation())
        p = two_point_presentation()
        for rel in p.concrete_relations():
            assert obj.relation_holds(rel)

    def test_invariant_under_reordering_and_derivable_relations(self):
        p = two_point_presentation()
        obj1 = eval_frame(p)
        rels = tuple(reversed(p.relations))
        obj2 = eval_frame(Presentation(p.kind, p.domain, rels))
        assert obj1.carrier.poset.elements == obj2.carrier.poset.elements
        assert obj1.carrier.poset.up == obj2.carrier.poset.up
        # adding a derivable relation changes nothing up to iso
        extra = Relation(gen_term("z"), join_of(["a", "b"]), "<=")
        obj3 = eval_frame(Presentation(p.kind, p.domain, p.relations + (extra,)))
        pinned = [(obj1.interp[g], obj3.interp[g]) for g in obj1.interp]
        assert poset_isomorphism(obj1.carrier.poset, obj3.carrier.poset, pinned) is not None

    def test_needs_meet_structure(self):
        dom = FiniteGeneratorDomain(FinitePoset.from_pairs(["a", "b"], []))
        p = Presentation(PresentationKind.SUP, dom, ())
        with pytest.raises(PresentationError):
            eval_frame(p)


def antichain_domain(k: int) -> FiniteGeneratorDomain:
    return FiniteGeneratorDomain(FinitePoset.from_pairs([f"g{i}" for i in range(k)], []))


class TestScaleLimits:
    """Each oracle-scale cap raises a diagnostic at its value, before the
    enumeration behind it grows any further.  Carriers of a few thousand
    elements are built from their join-irreducibles in well under a second;
    an O(n²) pass over them takes many seconds, so a return to one shows in
    the suite's durations."""

    def test_formal_meets_of_sixteen_generators(self):
        p = Presentation(PresentationKind.PLAIN, antichain_domain(16), ())
        with pytest.raises(LatticeError, match="formal meet semilattice exceeds oracle scale"):
            eval_frame(p)

    @pytest.mark.parametrize(
        "kind, evaluate, category",
        [
            (PresentationKind.SUP, eval_suplattice, "suplattice"),
            (PresentationKind.PREFRAME, eval_preframe, "preframe"),
        ],
    )
    def test_free_suplattice_and_preframe(self, kind, evaluate, category):
        # 2**13 unions of 13 principal masks against a cap of 2**12
        with pytest.raises(LatticeError, match=f"free {category} exceeds oracle scale"):
            evaluate(Presentation(kind, antichain_domain(13), ()))

    @pytest.mark.parametrize("evaluate", [eval_suplattice, eval_preframe, eval_dcpo])
    def test_seventeen_generators(self, evaluate):
        p = Presentation(PresentationKind.PLAIN, antichain_domain(17), ())
        with pytest.raises(PresentationError, match="generator poset exceeds oracle scale"):
            evaluate(p)

    def test_presented_frame_cap_at_ladder_scale(self):
        # the grid 0..7 has 4,181 open sets (F(19)), past the default cap
        p = real_line_on_grid(list(range(8)), Relation(gen_term("OI()"), TERM_ZERO))
        with pytest.raises(LatticeError, match="presented frame exceeds oracle scale"):
            eval_frame(p)

    def test_presented_frame_cap(self):
        p = two_point_presentation()
        n = eval_frame(p).carrier.n
        assert eval_frame(p, max_carrier=n).carrier.n == n
        with pytest.raises(LatticeError, match="presented frame exceeds oracle scale"):
            eval_frame(p, max_carrier=n - 1)

    @pytest.mark.parametrize(
        "kind, evaluate",
        [(PresentationKind.SUP, eval_suplattice), (PresentationKind.PREFRAME, eval_preframe)],
    )
    def test_free_suplattice_and_preframe_just_under_the_cap(self, kind, evaluate):
        obj = evaluate(Presentation(kind, antichain_domain(12), ()))
        assert obj.carrier.n == 1 << 12 and obj.carrier.frame

    def test_downsets_of_a_twelve_antichain(self):
        lat = downsets(FinitePoset.from_pairs([f"a{i}" for i in range(12)], []))
        assert lat.n == 1 << 12 and lat.frame

    def test_seven_point_real_line_grid(self):
        # the grid topology on 2k + 1 cells (k points and the k + 1 open
        # intervals around them; an open set holding a point holds both
        # intervals beside it) has Fibonacci F(2k + 3) open sets:
        # F(17) = 1597 for k = 7, as F(7) = 13 for k = 2 and F(9) = 34 for k = 3
        p = real_line_on_grid(list(range(7)), Relation(gen_term("OI()"), TERM_ZERO))
        assert eval_frame(p).carrier.n == 1597


class TestEvalSuplattice:
    def test_free_on_singleton(self):
        dom = FiniteGeneratorDomain(FinitePoset.from_pairs(["g"], []))
        obj = eval_suplattice(Presentation(PresentationKind.SUP, dom, ()))
        assert obj.carrier.n == 2

    def test_collapsing_relation(self):
        dom = FiniteGeneratorDomain(FinitePoset.from_pairs(["a", "b"], []))
        p = Presentation(
            PresentationKind.SUP, dom, (Relation(gen_term("a"), gen_term("b"), "<="),)
        )
        obj = eval_suplattice(p)
        # downsets of the collapsed 2-chain: a 3-chain
        chain = FinitePoset.from_pairs(["0", "x", "y"], [(0, 1), (1, 2)])
        pinned = pins_by_label(obj, chain, {"a": "x", "b": "y"})
        assert poset_isomorphism(obj.carrier.poset, chain, pinned) is not None

    def test_discrete_two_point(self, four_boolean):
        obj = eval_suplattice(two_point_presentation())
        pinned = pins_by_label(obj, four_boolean.poset, DIAMOND_ON_BOOLEAN)
        assert poset_isomorphism(obj.carrier.poset, four_boolean.poset, pinned) is not None


class TestEvalPreframe:
    def test_free_on_singleton(self):
        dom = FiniteGeneratorDomain(FinitePoset.from_pairs(["g"], []))
        obj = eval_preframe(Presentation(PresentationKind.PREFRAME, dom, ()))
        assert obj.carrier.n == 2

    def test_two_antichain_upsets(self, four_boolean):
        dom = FiniteGeneratorDomain(FinitePoset.from_pairs(["a", "b"], []))
        obj = eval_preframe(Presentation(PresentationKind.PLAIN, dom, ()))
        assert obj.carrier.n == 4
        pinned = pins_by_label(obj, four_boolean.poset, {"a": "{a}", "b": "{b}"})
        assert poset_isomorphism(obj.carrier.poset, four_boolean.poset, pinned) is not None

    def test_collapse_cross_checked_against_frame(self):
        # one relation g <= 1 on a two-chain join-semilattice domain
        dom = FiniteGeneratorDomain(
            FinitePoset.from_pairs(["z", "g"], [(0, 1)]), use_join=True, use_meet=False
        )
        p = saturate(
            Presentation(
                PresentationKind.PREFRAME,
                dom,
                (Relation(TERM_ONE, gen_term("g"), "<="),),
            ),
            PresentationKind.PREFRAME,
        )
        rep = verify_coverage(p)
        assert rep.verdict


class TestEvalDcpo:
    def test_free_is_the_poset(self):
        dom = FiniteGeneratorDomain(
            FinitePoset.from_pairs(["z", "a", "b", "t"], [(0, 1), (0, 2), (1, 3), (2, 3)])
        )
        obj = eval_dcpo(Presentation(PresentationKind.PLAIN, dom, ()))
        assert obj.carrier.n == 4

    def test_equating_two_generators(self):
        dom = FiniteGeneratorDomain(FinitePoset.from_pairs(["a", "b"], []))
        p = Presentation(
            PresentationKind.PLAIN, dom, (Relation(gen_term("a"), gen_term("b")),)
        )
        obj = eval_dcpo(p)
        assert obj.carrier.n == 1

    def test_classes_are_numbered_by_least_member(self):
        dom = FiniteGeneratorDomain(FinitePoset.from_pairs(["a", "b", "c"], []))
        obj = eval_dcpo(Presentation(PresentationKind.PLAIN, dom, (Relation(gen_term("c"), gen_term("a")),)))
        assert obj.carrier.elements == ("a ~ c", "b")
        assert obj.interp == {"a": 0, "b": 1, "c": 0}

    def test_a_side_without_a_value(self):
        # an antichain has no top, no bottom and no greatest element of
        # a v b; a meet of two generators is no directed join
        dom = FiniteGeneratorDomain(FinitePoset.from_pairs(["a", "b"], []))
        obj = eval_dcpo(Presentation(PresentationKind.PLAIN, dom, ()))
        for t in (TERM_ONE, TERM_ZERO, join_of(["a", "b"]), Term((Meet(("a", "b")),))):
            assert obj.term_value(t) is None
        assert obj.term_value(gen_term("b")) == 1

    def test_dcpo_toy_cross_checked_against_frame(self):
        rng = random.Random(2)
        p = rand_dcpo_presentation(rng)
        assert verify_coverage(p).verdict


class TestRepeatedGenerator:
    """A side names each generator of a clause once, so every evaluator
    reads the clause ``a ^ a``, which a JSON document can write, as ``a``."""

    @pytest.mark.parametrize("evaluator", [eval_frame, eval_suplattice, eval_dcpo], ids=lambda f: f.__name__)
    def test_a_clause_repeating_a_generator_is_the_generator(self, evaluator):
        dom = diamond_domain()
        raw = Presentation(PresentationKind.SUP, dom, (Relation(Term((Meet(("a", "a")),)), gen_term("t")),))
        plain = Presentation(PresentationKind.SUP, dom, (Relation(gen_term("a"), gen_term("t")),))
        got, want = evaluator(raw), evaluator(plain)
        assert (got.carrier_poset, got.interp) == (want.carrier_poset, want.interp)
        assert got.interp["a"] == got.interp["t"] != got.interp["b"]
        assert got.relation_holds(raw.relations[0])


def chain_with_a_zero(schematic: bool) -> Presentation:
    """The chain z < a < t with the relation a = 0, or in its place a
    schema without parameters, ``OI(0,1) = 0``: every pattern has a
    constructor, which a finite domain lacks."""
    dom = FiniteGeneratorDomain(FinitePoset.from_pairs(["z", "a", "t"], [(0, 1), (1, 2)]))
    if schematic:
        oi_term = SchemaTerm((SchemaClause((GenPattern("OI", (econst(0), econst(1))),)),))
        rel = RelationSchema((), (), oi_term, SchemaTerm(()))
    else:
        rel = Relation(gen_term("a"), TERM_ZERO)
    return Presentation(PresentationKind.SUP, dom, (rel,))


class TestSchematicInput:
    @pytest.mark.parametrize(
        "evaluator", [eval_frame, eval_suplattice, eval_preframe, eval_dcpo], ids=lambda f: f.__name__
    )
    def test_evaluators_reject_schemas(self, evaluator):
        with pytest.raises(EvaluationError, match="instantiate on a grid first"):
            evaluator(chain_with_a_zero(schematic=True))

    @pytest.mark.parametrize("evaluator", [eval_frame, eval_suplattice], ids=lambda f: f.__name__)
    def test_the_relation_is_not_vacuous(self, evaluator):
        # dropping it would give the free 4-element carrier
        assert evaluator(chain_with_a_zero(schematic=False)).carrier.n == 2


class TestVerifyCoverage:
    def test_discrete_two_point_passes(self):
        p = saturate(two_point_presentation(), PresentationKind.SUP)
        rep = verify_coverage(p)
        assert rep.verdict

    def test_plain_kind_rejected(self):
        dom = diamond_domain()
        with pytest.raises(PresentationError):
            verify_coverage(Presentation(PresentationKind.PLAIN, dom, ()))

    def test_failed_kind_check_raises(self):
        dom = diamond_domain()
        p = Presentation(
            PresentationKind.SUP,
            dom,
            (Relation(gen_term("a"), gen_term("b"), "<="),),
        )
        # the instance a <= z (meet with a) is neither present nor derivable
        with pytest.raises(KindCheckError):
            verify_coverage(p)

    def test_random_stable_sup_presentations(self):
        rng = random.Random(42)
        for _ in range(10):
            assert verify_coverage(rand_sup_presentation(rng)).verdict

    def test_ten_atoms_over_a_thousand_elements(self):
        # z below ten atoms below t, z = 0: a frame of 2**10 + 1 elements,
        # compared through the generator images without any search
        atoms = [f"a{i}" for i in range(10)]
        pairs = [(0, i) for i in range(1, 11)] + [(i, 11) for i in range(1, 11)]
        dom = FiniteGeneratorDomain(
            FinitePoset.from_pairs(["z", *atoms, "t"], pairs), use_meet=True, use_join=False
        )
        rep = verify_coverage(
            Presentation(PresentationKind.SUP, dom, (Relation(gen_term("z"), TERM_ZERO),))
        )
        assert rep.verdict
        assert rep.notes == ("frame carrier 1025 elements", "suplattice carrier 1025 elements")

    def test_a_kind_evaluation_that_differs_fails_the_report(self, monkeypatch):
        # the suplattice with the relations dropped has six elements, the
        # frame four
        p = saturate(two_point_presentation(), PresentationKind.SUP)
        monkeypatch.setitem(
            EVALUATORS, PresentationKind.SUP, lambda q: eval_suplattice(Presentation(q.kind, q.domain, ()))
        )
        rep = verify_coverage(p)
        assert not rep.verdict
        assert rep.witnesses == (("coverage-isomorphism", ()),)
        assert rep.notes == ("frame carrier 4 elements", "suplattice carrier 6 elements")

    def test_random_stable_preframe_presentations(self):
        rng = random.Random(43)
        for _ in range(10):
            assert verify_coverage(rand_preframe_presentation(rng)).verdict


class FamilyEngine(FrameEngine):
    """A closure engine on ``n`` points whose fixed sets are a given family
    of subsets (bitmasks) closed under intersection and holding every
    point: ``close`` gives the least member containing its argument.  No
    point lies below another (``down``)."""

    def __init__(self, n: int, family: list[int], max_carrier: int = 1 << 12):
        self.n, self.family, self.max_carrier = n, family, max_carrier
        self.down = [1 << i for i in range(n)]

    def close(self, mask: int, base: int = 0) -> int:
        out = (1 << self.n) - 1
        for f in self.family:
            if (mask | base) & ~f == 0:
                out &= f
        return out


# fixed sets on the points a, b, c (bits 1, 2, 4)
M3 = [0, 0b001, 0b010, 0b100, 0b111]  # three atoms with a common join
N5 = [0, 0b001, 0b011, 0b100, 0b111]  # a < ab beside c
CHAIN_AND_SQUARE = [0, 0b001, 0b011, 0b101, 0b111]  # a below the square ab, ac, abc


def three_point_presentation():
    """The diamond widened to three atoms, each a model of its own: its
    frame is the 8-element Boolean lattice."""
    poset = FinitePoset.from_pairs(["z", "a", "b", "c", "t"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    dom = FiniteGeneratorDomain(poset, use_meet=True, use_join=False)
    rels = (Relation(join_of(["a", "b", "c"]), gen_term("t")), Relation(gen_term("z"), TERM_ZERO))
    return Presentation(PresentationKind.SUP, dom, rels)


class TestFrameCheckCanFail:
    """``enumerate_carrier`` fails the frame check on a closure whose fixed
    sets are not distributive, and builds the carrier of one that is; and
    ``eval_frame`` fails the carrier's frame check when its enumeration of
    the downsets of the models is not exactly those downsets."""

    @pytest.mark.parametrize("family", [M3, N5], ids=["M3", "N5"])
    def test_non_distributive_fixed_sets_fail(self, family):
        with pytest.raises(EvaluationError, match="presented carrier failed the frame check"):
            FamilyEngine(3, family).enumerate_carrier()

    @pytest.mark.parametrize("edit", [lambda ds: ds[:-1], lambda ds: ds[:2] + ds[1:]], ids=["drop", "repeat"])
    def test_through_eval_frame(self, edit, monkeypatch):
        """An enumeration that drops the last downset or repeats one."""
        monkeypatch.setattr("locale_forge.evaluate.unions", lambda *args: edit(lattice.unions(*args)))
        with pytest.raises(EvaluationError, match="presented carrier failed the frame check"):
            eval_frame(two_point_presentation())

    def test_distributive_fixed_sets_pass(self):
        assert FamilyEngine(3, CHAIN_AND_SQUARE).enumerate_carrier() == [0, 0b001, 0b011, 0b101, 0b111]

    def test_carrier_frame_check_through_eval_frame(self, monkeypatch):
        """An enumeration that hands ``eval_frame`` the family N5 over the
        three incomparable models of ``three_point_presentation`` fails the
        check, since it is not all of their downsets."""
        assert eval_frame(three_point_presentation()).carrier.n == 8
        monkeypatch.setattr("locale_forge.evaluate.unions", lambda *args: list(N5))
        with pytest.raises(EvaluationError, match="presented carrier failed the frame check"):
            eval_frame(three_point_presentation())


class TestDownsetCarrier:
    """The grid path builds no order over the carrier's elements: the
    frame is held as the downsets of its join-irreducibles, and
    ``downsets`` as the downsets of its poset."""

    def test_the_grid_path_builds_no_order(self, monkeypatch):
        p = real_line_on_grid(range(6), Relation(gen_term("OI()"), TERM_ZERO))
        calls = []
        inner = lattice.subset_poset
        monkeypatch.setattr(lattice, "subset_poset", lambda *args: calls.append(args) or inner(*args))
        carriers = [eval_frame(p).carrier, downsets(FinitePoset.from_pairs([f"a{i}" for i in range(8)], []))]
        assert [c.n for c in carriers] == [610, 256]
        ups = []
        for c in carriers:
            assert len(set(c.elements)) == c.n
            up = [0] * c.n
            for i, j in itertools.product(range(c.n), repeat=2):
                if c.leq(i, j):
                    up[i] |= 1 << j
                assert c.leq(c.meet(i, j), i) and c.leq(j, c.join(i, j))
            ups.append(tuple(up))
        assert calls == []
        for c, up in zip(carriers, ups):
            answered = FinitePoset(c.elements, up)
            assert c.poset == answered and c.poset.down == answered.down
        assert len(calls) == 2


class TestEnumerateCarrier:
    """The reference engine's enumerated carrier is exactly the set of
    closures of all subsets of its elements."""

    @staticmethod
    def carrier_and_all_closures(p):
        _, eng = frame_engine(p, 1 << 12)
        closures = {eng.close(s) for s in range(1 << eng.n)}
        return eng.enumerate_carrier(), sorted(closures, key=lambda m: (bin(m).count("1"), m))

    @pytest.mark.parametrize(
        "points, collapse_empty, size",
        [([0, 1], False, 14), ([0, 1], True, 13), ([-1, 0, 1], False, 35), ([-1, 0, 1], True, 34)],
    )
    def test_real_line_grids(self, points, collapse_empty, size):
        extra = (Relation(gen_term("OI()"), TERM_ZERO),) if collapse_empty else ()
        carrier, closures = self.carrier_and_all_closures(real_line_on_grid(points, *extra))
        assert carrier == closures
        assert len(carrier) == size

    def test_seeded_suite_presentations(self):
        rng = random.Random(4242)
        sizes = set()
        for _ in range(20):
            for p in (rand_sup_presentation(rng), rand_preframe_presentation(rng)):
                carrier, closures = self.carrier_and_all_closures(p)
                assert carrier == closures
                sizes.add(len(carrier))
        assert max(sizes) >= 5


class TestCarrierOrderOverJ:
    """The carrier ordered over the models (``eval_frame``) and over the
    reference engine's join-irreducible fixed sets (``reference_eval_frame``)
    each equal the reference's fixed sets ordered over all classes:
    ``subset_poset`` of the fixed sets as class masks, labelled by the
    classes maximal in each."""

    @staticmethod
    def class_ordered(p):
        _, eng = frame_engine(p, 1 << 12)

        def label(mask):
            return " | ".join(sorted(eng.labels[e] for e in _bits(maximal(mask, eng.down)))) or "0"

        return subset_poset(eng.enumerate_carrier(), label)

    def assert_same_order(self, p):
        want = self.class_ordered(p)
        for evaluate in (eval_frame, reference_eval_frame):
            got = evaluate(p).carrier_poset
            assert (got.elements, got.up, got.down) == (want.elements, want.up, want.down)
        return want.n

    @pytest.mark.parametrize("k", range(2, 7))
    def test_real_line_grids(self, k):
        points = [-2, -1, 0, 1, 2, 3][:k]
        sizes = [self.assert_same_order(real_line_on_grid(points, *extra))
                 for extra in ((), (Relation(gen_term("OI()"), TERM_ZERO),))]
        assert sizes[1] == [13, 34, 89, 233, 610][k - 2]

    def test_seeded_suite_presentations(self):
        kinds, largest = set(), 0
        for p in digest_presentations(range(12)):
            largest = max(largest, self.assert_same_order(p))
            kinds.add(p.kind)
        assert kinds == set(PresentationKind)
        assert largest >= 8


def kernel_ladder_grids(seed: int) -> dict[int, list]:
    """The grids of 2..6 points that the kernel-ladder benchmark draws from
    ``seed``: after its eight two-letter names, distinct rationals a/b with
    |a| <= 12 and 1 <= b <= 4, sorted."""
    rng = random.Random(f"kernel-ladder/{seed}")
    names: list[str] = []
    while len(names) < 8:
        name = rng.choice("abcdefghijklmnopqrstuvwxyz") + rng.choice("abcdefghijklmnopqrstuvwxyz")
        if name not in names:
            names.append(name)
    grids = {}
    for k in range(2, 7):
        points: set = set()
        while len(points) < k:
            points.add(Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
        grids[k] = sorted(points)
    return grids


class TestLabelsFromTheEnumeration:
    """The reference's ``enumerate_carrier`` keeps, for each fixed set, the
    mask of the classes strictly below some member, and
    ``reference_eval_frame`` reads each label's maximal classes off it, as
    ``eval_frame`` reads them off its own enumeration.  Every label of
    both equals the one rebuilt from scratch from the maximal classes of
    the reference's fixed set."""

    @staticmethod
    def check(p) -> tuple[int, int]:
        """After the checks, how many fixed sets other than the bottom and
        the join-irreducible ones are the union of the join-irreducible
        ones below them (whose mask is the union of its parts' masks), and
        how many are not (whose mask is read off the set)."""
        _, eng = frame_engine(p, 1 << 12)
        masks = eng.enumerate_carrier()
        for c in masks:
            below = reduce(or_, [eng.down[x] & ~(1 << x) for x in _bits(c)], 0)
            assert eng.below[c] == below and c & ~below == maximal(c, eng.down)

        def label(c: int) -> str:
            return " | ".join(sorted(eng.labels[e] for e in _bits(maximal(c, eng.down)))) or "0"

        for evaluate in (eval_frame, reference_eval_frame):
            assert evaluate(p).carrier.elements == lattice._labels(masks, label)
        by_downset = {d: c for c, d in eng.downset_of.items()}
        irreducible = [by_downset[d] for d in eng.jdown]
        rest = [d for c, d in eng.downset_of.items() if d & (d - 1) and d not in eng.jdown]
        unions = sum(by_downset[d] == reduce(or_, [irreducible[j] for j in _bits(d)]) for d in rest)
        return unions, len(rest) - unions

    @pytest.mark.parametrize("seed", [101, 202])
    def test_kernel_ladder_grids(self, seed):
        empty = Relation(gen_term("OI()"), TERM_ZERO)
        counts = [self.check(real_line_on_grid(points, empty)) for points in kernel_ladder_grids(seed).values()]
        assert [sum(c) for c in counts] == [13 - 6, 34 - 8, 89 - 10, 233 - 12, 610 - 14]
        assert all(unions and closed for unions, closed in counts[1:])

    def test_seeded_suite_frames(self):
        rng = random.Random(4343)
        unions = closed = 0
        for _ in range(40):
            for draw in (rand_sup_presentation, rand_preframe_presentation, rand_dcpo_presentation):
                u, c = self.check(draw(rng))
                unions, closed = unions + u, closed + c
        assert unions >= 5 and closed >= 20


def rand_meet_equations(rng: random.Random, kind: PresentationKind) -> Presentation:
    """Pure meet equations ``a ^ b = c`` over a random distributive domain."""
    domain = rand_distributive_domain(rng)
    gens = domain.enumerate_gens()
    rels = []
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(gens, 2) if len(gens) > 1 else (gens[0], gens[0])
        rels.append(Relation(Term((Meet(tuple(sorted({a, b}))),)), gen_term(rng.choice(gens))))
    return Presentation(kind, domain, tuple(rels))


_QUOTIENT_MODES = {
    PresentationKind.SUP: (rand_sup_presentation, (QuotientMode.OPEN, QuotientMode.SEMI_OPEN)),
    PresentationKind.PREFRAME: (rand_preframe_presentation, (QuotientMode.PROPER, QuotientMode.SEMI_PROPER)),
    PresentationKind.DCPO: (rand_dcpo_presentation, (QuotientMode.TRIQUOTIENT, QuotientMode.SEMI_TRIQUOTIENT)),
}


def seeded_presentations(rng: random.Random):
    """Seeded suite presentations of each kind, each followed by its
    quotients under a random operator of each mode of its family; then
    meet equations in the sup, preframe and plain kinds."""
    for draw, modes in _QUOTIENT_MODES.values():
        p = draw(rng)
        yield p
        parent = eval_frame(p)
        for mode in modes:
            e = rand_quotient_operator(rng, parent.carrier, mode)
            yield present(p, spec_from_operator(parent, e, mode))
    for kind in (PresentationKind.SUP, PresentationKind.PREFRAME, PresentationKind.PLAIN):
        yield rand_meet_equations(rng, kind)


def named_digest_presentations(seeds):
    """``seeded_presentations`` of each seed, each named by its seed and
    its index among them, then two real-line grids with and without
    ``OI() = 0``, named by their points."""
    for seed in seeds:
        for i, p in enumerate(seeded_presentations(random.Random(seed))):
            yield f"seed {seed}, presentation {i}", p
    for points in ([0, 1], [-1, 0, 1]):
        yield f"grid {points}", real_line_on_grid(points)
        yield f"grid {points} with OI() = 0", real_line_on_grid(points, Relation(gen_term("OI()"), TERM_ZERO))


def digest_presentations(seeds):
    """The presentations of ``named_digest_presentations``, in order."""
    for _, p in named_digest_presentations(seeds):
        yield p


class TestOutputDigest:
    """Every evaluator on every digest presentation, summarised as one
    SHA-256 over the carrier elements, up-masks, ``interp`` and the values
    of both sides of each relation (or the error raised).  The pinned value
    was taken from the evaluators before they moved onto the kernel's mask
    vocabulary, so any change in what they compute shows here.  It moved
    once since, when the kind evaluators came to read sides: 240 records
    that raised on a clause meeting several generators now give a value,
    and no value changed."""

    PINNED = (1936, "456b17974d708e17a98e7a04be5bd05f30afc0615e4cfee89d4470e1c78dd189")

    @staticmethod
    def record(evaluate, p):
        try:
            obj = evaluate(p)
        except Exception as exc:
            return (evaluate.__name__, type(exc).__name__, str(exc))
        poset = obj.carrier_poset
        values = [(obj.term_value(r.lhs), obj.term_value(r.rhs)) for r in p.concrete_relations()]
        return (evaluate.__name__, obj.category, poset.elements, poset.up, sorted(obj.interp.items()), values)

    def test_outputs_match_the_pinned_digest(self):
        h = hashlib.sha256()
        count = 0
        for p in digest_presentations(range(40)):
            for evaluate in (eval_frame, eval_suplattice, eval_preframe, eval_dcpo):
                h.update(repr(self.record(evaluate, p)).encode())
                count += 1
        assert (count, h.hexdigest()) == self.PINNED


def rand_raw_relations(rng: random.Random, kind: PresentationKind, domain) -> Presentation:
    """Unsaturated relations of ``kind`` over ``domain``: sides 0, 1, or
    joins of one to three clauses that need not form a chain, each clause
    one generator or the formal meet of two."""
    gens = domain.enumerate_gens()

    def side() -> Term:
        r = rng.random()
        if r < 0.1:
            return TERM_ZERO
        if r < 0.2:
            return TERM_ONE
        clauses = set()
        for _ in range(rng.randint(1, 3)):
            size = 2 if rng.random() < 0.25 else 1
            clauses.add(tuple(sorted(rng.sample(gens, min(size, len(gens))))))
        return Term(tuple(Meet(c) for c in sorted(clauses)))

    rels = tuple(Relation(side(), side(), rng.choice(("=", "<="))) for _ in range(rng.randint(1, 3)))
    return Presentation(kind, domain, rels)


def kind_digest_presentations(seeds):
    """Per seed, each kind's relations raw over a meet-, a join- and a
    distributive domain, then each kind's saturated suite draw."""
    domains = (rand_meet_semilattice_domain, rand_join_semilattice_domain, rand_distributive_domain)
    for seed in seeds:
        rng = random.Random(seed)
        for kind, (draw, _) in _QUOTIENT_MODES.items():
            for domain in domains:
                yield rand_raw_relations(rng, kind, domain(rng))
        for draw, _ in _QUOTIENT_MODES.values():
            yield draw(rng)


class TestKindEvaluatorDigest:
    """The sup, preframe and dcpo evaluators on every presentation of
    ``kind_digest_presentations(range(1000))``, summarised as one SHA-256
    over the carrier elements, up-masks, ``interp``, each relation's side
    values and whether it holds (or the error raised).  The raw
    presentations reach 0 and 1 sides, formal meets, joins that are not
    chains and domains without the kind's structure, so the errors are
    pinned with the values."""

    PINNED = (36000, "203052d8d4ea9745fe26929f9143de24585871aa8ae92a7b35fb3c964cd0b37d")

    @staticmethod
    def record(evaluate, p):
        try:
            obj = evaluate(p)
            poset = obj.carrier_poset
            values = [
                (obj.term_value(r.lhs), obj.term_value(r.rhs), obj.relation_holds(r)) for r in p.concrete_relations()
            ]
        except Exception as exc:
            return (evaluate.__name__, type(exc).__name__, str(exc))
        return (evaluate.__name__, obj.category, poset.elements, poset.up, sorted(obj.interp.items()), values)

    def test_outputs_match_the_pinned_digest(self):
        h = hashlib.sha256()
        count = 0
        for p in kind_digest_presentations(range(1000)):
            for evaluate in (eval_suplattice, eval_preframe, eval_dcpo):
                h.update(repr(self.record(evaluate, p)).encode())
                count += 1
        assert (count, h.hexdigest()) == self.PINNED


class TestEngineClasses:
    """The reference engine's class order and principal closures against
    their pairwise definitions, on presentations whose meet equations
    merge classes."""

    def test_down_masks_and_principal_closures(self):
        rng = random.Random(77)
        merged = 0
        for _ in range(40):
            for kind in (PresentationKind.SUP, PresentationKind.PREFRAME, PresentationKind.PLAIN):
                M, eng = frame_engine(rand_meet_equations(rng, kind), 1 << 12)
                # class j lies below class i when their meet, taken on the
                # least member of each class, is in class j
                reps = [eng.cls.index(i) for i in range(eng.n)]
                want = [sum(1 << j for j in range(eng.n) if eng.cls[M.meet(r, reps[j])] == j) for r in reps]
                assert eng.down == want
                eng.enumerate_carrier()
                assert eng.principal == [eng.close(1 << i) for i in range(eng.n)]
                merged += eng.n < M.n
        assert merged > 20


def first_difference(evaluate, named, max_carrier: int = 1 << 12):
    """The name of the first of the ``named`` presentations on which
    ``evaluate`` and the reference engine give different records (those of
    ``TestOutputDigest``, less the evaluator's name), or None."""

    def record(frame, p):
        return TestOutputDigest.record(lambda q: frame(q, max_carrier), p)[1:]

    for name, p in named:
        if record(evaluate, p) != record(reference_eval_frame, p):
            return name
    return None


# mutations of eval_frame's models step, each as a line of its source and
# what replaces it
MUTANTS = {
    "equation-as-inequation": ('models &= ~(tl ^ tr) if op == "=" else ~tl | tr', "models &= ~tl | tr"),
    "bottom-kept": ("models &= ~down[elem[P.by_up[(1 << P.n) - 1]]]", "pass"),
    "joins-not-prime": ("models &= ~down[elem[P.by_up[P.up[a] & P.up[b]]]] | down[elem[a]] | down[elem[b]]", "pass"),
    "no-meet-congruence": (
        "rep = _congruence(M.n, meet_eqs, lambda x: [M.meet(x, g) for g in gen_idxs])",
        "rep = list(range(M.n))",
    ),
}


def mutant(old: str, new: str):
    """``eval_frame`` compiled from its source with the one line ``old``
    replaced by ``new``, in a copy of its module's namespace."""
    source = textwrap.dedent(inspect.getsource(evaluate_module.eval_frame))
    assert source.count(old) == 1
    scope = dict(vars(evaluate_module))
    exec(compile(source.replace(old, new), evaluate_module.__file__, "exec"), scope)
    return scope["eval_frame"]


class TestAgainstTheReferenceEngine:
    """``eval_frame`` reads the frame off its models; the closure engine in
    ``frame_reference`` builds it as the fixed sets of the least nucleus
    forcing the relations.  They give the same elements, order, ``interp``
    and side values, or the same error; a failure names the first
    presentation on which they differ.  Each mutation of the models step
    differs from the engine somewhere, so the comparison can fail."""

    def test_digest_presentations(self):
        assert first_difference(eval_frame, named_digest_presentations(range(40))) is None

    @pytest.mark.parametrize("seed", [101, 202])
    def test_kernel_ladder_grids(self, seed):
        empty = Relation(gen_term("OI()"), TERM_ZERO)
        named = (
            (f"kernel-ladder seed {seed}, grid of {k} points", real_line_on_grid(points, empty))
            for k, points in kernel_ladder_grids(seed).items()
        )
        assert first_difference(eval_frame, named) is None

    def test_eight_point_grid_with_the_cap_raised(self):
        p = real_line_on_grid(list(range(8)), Relation(gen_term("OI()"), TERM_ZERO))
        assert first_difference(eval_frame, [("grid 0..7", p)], 1 << 13) is None
        assert eval_frame(p, 1 << 13).carrier.n == 4181

    @pytest.mark.parametrize("old, new", MUTANTS.values(), ids=MUTANTS)
    def test_each_mutant_differs(self, old, new):
        assert first_difference(mutant(old, new), named_digest_presentations(range(40))) is not None

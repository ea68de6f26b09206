import random
from fractions import Fraction

import pytest

from locale_forge.generators import FiniteGeneratorDomain, domain_from_descriptor
from locale_forge.intervals import real_presentation
from locale_forge.lattice import FinitePoset, LatticeError
from locale_forge.presentation import (
    Presentation,
    PresentationError,
    PresentationKind,
    Relation,
    check_kind,
    instantiate_schemas,
    saturate,
)
from locale_forge.rationals import rat
from locale_forge.serialize import presentation_from_jsonable, presentation_to_jsonable
from locale_forge.suites import _RAND_BY_KIND
from locale_forge.terms import Meet, Term, TERM_ZERO, gen_term, join_of, meet_of, normalize


def diamond_domain():
    poset = FinitePoset.from_pairs(["z", "a", "b", "t"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    return FiniteGeneratorDomain(poset, use_meet=True, use_join=False)


def with_meet_instances(domain, rel):
    """The relation plus all its meet-instantiated companions, by hand."""
    rels = [rel]
    for c in domain.enumerate_gens():
        lhs = Term(tuple(Meet((domain.meet(m.gens[0], c),)) for m in rel.lhs.clauses))
        rhs = Term(tuple(Meet((domain.meet(m.gens[0], c),)) for m in rel.rhs.clauses))
        rels.append(Relation(lhs, rhs, rel.op))
    return rels


class TestCheckKind:
    def test_fully_saturated_passes_syntactically(self):
        dom = diamond_domain()
        base = Relation(join_of(["a", "b"]), gen_term("t"))
        by_hand = Presentation(PresentationKind.SUP, dom, tuple(with_meet_instances(dom, base)))
        # saturate promises the same of every presentation it returns
        saturated = [make(random.Random(seed)) for make in _RAND_BY_KIND.values() for seed in range(100)]
        for p in [by_hand] + saturated:
            rep = check_kind(p, oracle=False)
            assert rep.ok
            assert all(v.verdict == "syntacticPass" for v in rep.verdicts), (p.kind, str(rep))

    def test_memos_match_a_fresh_structural_copy(self):
        """Kind reports and normal forms served from the memos equal those
        computed on a copy whose domain, rebuilt from its descriptor, shares
        no memo with the original."""
        for make in _RAND_BY_KIND.values():
            for seed in range(40):
                p = make(random.Random(seed))
                fold = p.kind is not PresentationKind.PREFRAME
                reports = {oracle: check_kind(p, oracle=oracle) for oracle in (False, True)}
                assert all(check_kind(p, oracle=o) is rep for o, rep in reports.items())
                raw = []
                for r in p.concrete_relations():
                    gens = sorted(r.lhs.gens_used() | r.rhs.gens_used(), reverse=True)
                    raw += [r.lhs, r.rhs, Term(tuple(reversed(r.lhs.clauses + r.rhs.clauses))), meet_of(gens)]
                queries = [(t, f) for t in raw for f in (fold, not fold)]
                first = [normalize(t, p.domain, f) for t, f in queries]
                served = [normalize(t, p.domain, f) for t, f in queries]

                fresh = domain_from_descriptor(p.domain.descriptor())
                assert fresh == p.domain and "memo" not in vars(fresh)
                copy = Presentation(p.kind, fresh, p.relations)
                # the other order on the copy, so a memo that mixed up the
                # oracle or the fold setting would disagree
                for oracle, rep in reversed(reports.items()):
                    assert check_kind(copy, oracle=oracle) == rep
                recomputed = [normalize(t, fresh, f) for t, f in reversed(queries)][::-1]
                assert served == first == recomputed

    def test_oracle_disabled_fails_with_witness(self):
        dom = diamond_domain()
        # t <= z is not meet-stable as given: the instance a <= z (meet
        # with a) is neither free nor present
        p = Presentation(
            PresentationKind.SUP,
            dom,
            (Relation(gen_term("t"), gen_term("z"), "<="),),
        )
        rep = check_kind(p, oracle=False)
        assert not rep.ok
        fail = [v for v in rep.verdicts if v.verdict == "fail"][0]
        assert fail.witness_generator == "a"
        assert fail.missing == Relation(gen_term("a"), gen_term("z"), "<=")

    def test_oracle_enabled_derives_it(self):
        dom = diamond_domain()
        p = Presentation(
            PresentationKind.SUP,
            dom,
            (Relation(gen_term("t"), gen_term("z"), "<="),),
        )
        rep = check_kind(p, oracle=True)
        # a <= z holds in the presented suplattice (everything collapses
        # below z), so the missing instance is derivable
        assert rep.ok
        assert any(v.verdict == "oraclePass" for v in rep.verdicts)

    def test_modified_reals_on_grid(self):
        grid = [rat(0), rat(Fraction(1, 2)), rat(1)]
        rep = check_kind(real_presentation(), grid=grid)
        assert rep.ok
        assert {v.verdict for v in rep.verdicts} <= {"syntacticPass", "oraclePass"}

    def test_schematic_without_grid_is_an_error(self):
        with pytest.raises(PresentationError):
            check_kind(real_presentation())


class TestSaturate:
    def test_free_completion_of_antichain(self):
        dom = FiniteGeneratorDomain(FinitePoset.from_pairs(["a", "b"], []))
        p = Presentation(PresentationKind.PLAIN, dom, ())
        sat = saturate(p, PresentationKind.SUP)
        assert set(sat.domain.poset.elements) == {"unit", "a", "b", "a.b"}
        assert sat.domain.meet_semilattice

    def test_saturate_appends_stability_instances(self):
        dom = diamond_domain()
        p = Presentation(
            PresentationKind.SUP, dom, (Relation(join_of(["a", "b"]), gen_term("t")),)
        )
        sat = saturate(p, PresentationKind.SUP)
        assert check_kind(sat, oracle=False).ok
        assert len(sat.relations) >= 1

    def test_idempotent(self):
        dom = diamond_domain()
        p = Presentation(
            PresentationKind.SUP, dom, (Relation(join_of(["a", "b"]), gen_term("t")),)
        )
        once = saturate(p, PresentationKind.SUP)
        twice = saturate(once, PresentationKind.SUP)
        assert once.domain == twice.domain
        assert tuple(once.relations) == tuple(twice.relations)

    @pytest.mark.parametrize(
        "target, what",
        [(PresentationKind.SUP, "meet"), (PresentationKind.PREFRAME, "join")],
    )
    def test_completion_cap(self, target, what):
        # 2**16 upsets or downsets of a 16-antichain against a cap of 2**15
        dom = FiniteGeneratorDomain(FinitePoset.from_pairs([f"g{i}" for i in range(16)], []))
        with pytest.raises(LatticeError, match=f"free {what}-semilattice exceeds oracle scale"):
            saturate(Presentation(PresentationKind.PLAIN, dom, ()), target)

    def test_symbolic_domains_ship_presaturated(self):
        rp = real_presentation()
        assert saturate(rp, PresentationKind.SUP) is rp
        with pytest.raises(PresentationError):
            saturate(rp, PresentationKind.PREFRAME)


class TestInstantiate:
    def test_interval_pair_meets_are_present(self):
        # the two half-line generators meet to the bounded interval
        dom = real_presentation().domain
        assert dom.meet("OI(0,+inf)", "OI(-inf,1)") == "OI(0,1)"

    def test_grid_monotone(self):
        # refining the grid only grows each instance: relations shared
        # verbatim, or the finer instance's join clauses contain the
        # coarser one's (bound joins pick up new members)
        g1 = [rat(0), rat(1)]
        g2 = [rat(0), rat(Fraction(1, 2)), rat(1)]
        p1 = instantiate_schemas(real_presentation(), g1)
        p2 = instantiate_schemas(real_presentation(), g2)
        keys2 = {r.key() for r in p2.concrete_relations()}
        by_lhs = {}
        for r in p2.concrete_relations():
            by_lhs.setdefault((r.lhs, r.op), []).append(r)
        for r in p1.concrete_relations():
            if r.key() in keys2:
                continue
            grown = [
                s
                for s in by_lhs.get((r.lhs, r.op), [])
                if set(r.rhs.clauses) <= set(s.rhs.clauses)
            ]
            assert grown, f"instance {r} neither kept nor refined"

    def test_unsatisfiable_schema_dropped(self):
        from locale_forge.terms import Cond, EAtom, GenPattern, SchemaClause, SchemaTerm, eparam
        from locale_forge.presentation import RelationSchema
        from locale_forge.intervals import OpenIntervalDomain

        dom = OpenIntervalDomain()
        p, q = eparam("p"), eparam("q")
        schema = RelationSchema(
            ("p", "q"),
            (Cond("<", (p,), (q,)), Cond("<", (q,), (p,))),  # unsatisfiable
            SchemaTerm((SchemaClause((GenPattern("OI", (p, q)),)),)),
            SchemaTerm((SchemaClause(()),)),
        )
        pres = Presentation(PresentationKind.SUP, dom, (schema,))
        inst = instantiate_schemas(pres, [rat(0), rat(1)])
        assert inst.relations == ()

    def test_empty_grid_rejected(self):
        with pytest.raises(PresentationError):
            instantiate_schemas(real_presentation(), [])

    def test_serialization_round_trip_bit_exact(self):
        import json

        p = instantiate_schemas(real_presentation(), [rat(0), rat(1)])
        blob = json.dumps(presentation_to_jsonable(p), sort_keys=True)
        back = presentation_from_jsonable(json.loads(blob))
        assert json.dumps(presentation_to_jsonable(back), sort_keys=True) == blob

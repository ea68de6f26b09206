import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from locale_forge.dsl import print_presentation
from locale_forge.generators import FiniteGeneratorDomain, GeneratorDomain, TaggedDomain, finite_domain
from locale_forge.intervals import (
    ClosedComplementDomain,
    OpenIntervalDomain,
    circle_open_presentation,
    circle_proper_presentation,
    real_presentation,
    unit_interval_presentation,
)
from locale_forge.lattice import FinitePoset, LatticeError, QuotientMode, downsets
from locale_forge.presentation import (
    Presentation,
    PresentationError,
    PresentationKind,
    Relation,
    _bindings,
    _restrict_domain,
    _family_indices,
    _family_window,
    _instantiate_clause,
    check_kind,
    instance_kernel,
    instantiate_schemas,
    saturate,
)
from locale_forge.rationals import NEG_INF, POS_INF, rat
from locale_forge.serialize import presentation_from_jsonable, presentation_to_jsonable
from locale_forge.suites import _RAND_BY_KIND, rand_distributive_domain
from locale_forge.terms import (
    Cond,
    EOp,
    GenPattern,
    Meet,
    SchemaClause,
    Term,
    TermError,
    TERM_ONE,
    TERM_ZERO,
    econst,
    eparam,
    gen_term,
    join_of,
    normalize,
)

from conftest import cc_shift_family


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
        computed on a copy whose domain, built by the plain constructor and
        so not interned, shares no memo with the original."""
        for make in _RAND_BY_KIND.values():
            for seed in range(40):
                p = make(random.Random(seed))
                fold = p.kind is not PresentationKind.PREFRAME
                reports = {oracle: check_kind(p, oracle=oracle) for oracle in (False, True)}
                assert all(check_kind(p, oracle=o) is rep for o, rep in reports.items())
                raw = []
                for r in p.concrete_relations():
                    gens = sorted({g for c in r.lhs.clauses + r.rhs.clauses for g in c.gens}, reverse=True)
                    raw += [r.lhs, r.rhs, Term(tuple(reversed(r.lhs.clauses + r.rhs.clauses))), Term((Meet(tuple(gens)),))]
                queries = [(t, f) for t in raw for f in (fold, not fold)]
                first = [normalize(t, p.domain, f) for t, f in queries]
                served = [normalize(t, p.domain, f) for t, f in queries]

                fresh = FiniteGeneratorDomain(p.domain.poset, use_meet=p.domain.has_meet, use_join=p.domain.has_join)
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

    def test_an_evaluation_that_fails_vouches_for_nothing(self):
        # relation 0 keeps a formal meet over a chain without meets, so the
        # kind's own evaluation raises; relation 1's missing instance is
        # then a failure, as under the syntactic policy
        chain = FiniteGeneratorDomain(
            FinitePoset.from_pairs(["g0", "g1", "g2"], [(0, 1), (1, 2), (0, 2)]), use_meet=False, use_join=True
        )
        rels = (
            Relation(Term((Meet(("g0", "g1")), Meet(("g0",)))), Term((Meet(("g2",)), Meet(())))),
            Relation(Term((Meet(()), Meet(()))), TERM_ZERO, "<="),
            Relation(TERM_ZERO, TERM_ZERO, "<="),
        )
        p = Presentation(PresentationKind.SUP, chain, rels)
        reports = [check_kind(p, oracle=oracle) for oracle in (True, False)]
        assert reports[0].verdicts == reports[1].verdicts
        assert [v.verdict for v in reports[0].verdicts] == ["fail", "fail", "syntacticPass"]
        assert reports[0].verdicts[1].missing == Relation(gen_term("g0"), TERM_ZERO, "<=")
        assert str(reports[0].verdicts[0].missing) == "g0 v g0 ^ g1 = 1"

    def test_both_policies_agree_over_a_domain_without_the_kinds_structure(self):
        """Over the chain g0 < g1 < g2 with meets and no joins, the dcpo
        relation g2 v g2 = 0 misses its instance g0 = 0 (meet with g0).
        The oracle vouches for nothing there, since the domain is no
        distributive lattice, so it does not go on to the join instances
        the domain cannot form: both policies report the same failure."""
        chain = FiniteGeneratorDomain(
            FinitePoset.from_pairs(["g0", "g1", "g2"], [(0, 1), (1, 2), (0, 2)]), use_meet=True, use_join=False
        )
        p = Presentation(PresentationKind.DCPO, chain, (Relation(join_of(["g2", "g2"]), TERM_ZERO),))
        reports = [check_kind(p, oracle=oracle) for oracle in (True, False)]
        assert reports[0].verdicts == reports[1].verdicts
        (verdict,) = reports[0].verdicts
        assert (verdict.verdict, verdict.witness_generator) == ("fail", "g0 (meet)")
        assert verdict.missing == Relation(gen_term("g0"), TERM_ZERO)

    @pytest.mark.parametrize("seed", [16, 20, 25, 26, 33])
    def test_the_symbolic_digest_seeds_agree_under_both_policies(self, seed):
        """The raw presentations of ``test_symbolic_digest`` at these seeds
        include a dcpo presentation over a domain without joins on which
        the oracle policy raised and the syntactic one reported.  Now both
        raise the same error or neither does, and over a domain without the
        kind's structure they give the same verdicts."""
        from test_symbolic_digest import KINDS, attempt, raw_relations

        agreed = 0
        for domain, rels in raw_relations(random.Random(seed)):
            for kind in KINDS:
                p = Presentation(kind, domain, rels)
                (with_oracle, err), (syntactic, err2) = (attempt(check_kind, p, oracle=o) for o in (True, False))
                assert err == err2
                if err is None and not getattr(domain, kind.structure[0]):
                    assert with_oracle.verdicts == syntactic.verdicts
                    agreed += 1
        assert agreed > 0

    def test_modified_reals_on_grid(self):
        grid = [rat(0), rat(Fraction(1, 2)), rat(1)]
        rep = check_kind(real_presentation(), grid=grid)
        assert rep.ok
        assert {v.verdict for v in rep.verdicts} <= {"syntacticPass", "oraclePass"}

    def test_schematic_without_grid_is_an_error(self):
        with pytest.raises(PresentationError):
            check_kind(real_presentation())

    def test_a_symbolic_domain_is_checked_on_a_grid(self):
        """The stability instances range over every generator, which a
        symbolic domain lists only on a grid: its default sample of 24
        intervals misses the witness here, OI(1/4,3/4)."""
        from locale_forge.evaluate import EvaluationError, KindCheckError, verify_coverage

        p = Presentation(
            PresentationKind.SUP,
            real_presentation().domain,
            (
                Relation(gen_term("OI(0,1)"), gen_term("OI(0,1/2)"), "<="),
                Relation(gen_term("OI(1/4,3/4)"), gen_term("OI(1/4,3/4)"), "<="),
            ),
        )
        with pytest.raises(PresentationError, match="supply a grid"):
            check_kind(p)
        grid = [rat(Fraction(k, 4)) for k in range(5)]
        for oracle in (True, False):
            rep = check_kind(p, grid=grid, oracle=oracle)
            assert [v.verdict for v in rep.verdicts] == ["fail", "syntacticPass"]
            assert rep.verdicts[0].witness_generator == "OI(1/4,3/4)"
            assert rep.verdicts[0].missing == Relation(gen_term("OI(1/4,3/4)"), gen_term("OI(1/4,1/2)"), "<=")
        with pytest.raises(EvaluationError, match="instantiate first"):
            verify_coverage(p)
        with pytest.raises(KindCheckError):
            verify_coverage(instantiate_schemas(p, grid))


class TestKindTable:
    """The kinds, their evaluators and their random presentations go
    together, and each quotient family's operations name the kind its
    transformer takes."""

    def test_tables_cover_the_same_kinds(self):
        from locale_forge.evaluate import EVALUATORS

        assert len({k.ops for k in PresentationKind}) == len(PresentationKind)
        disciplined = [k for k in PresentationKind if k.ops]
        assert list(EVALUATORS) == list(_RAND_BY_KIND) == disciplined
        assert [k for k in PresentationKind if not k.ops] == [PresentationKind.PLAIN]

    def test_each_family_names_its_parent_kind(self):
        parents = {m.info.family.name: PresentationKind.with_ops(m.info.family.ops) for m in QuotientMode}
        assert parents == {
            "open": PresentationKind.SUP,
            "proper": PresentationKind.PREFRAME,
            "triquotient": PresentationKind.DCPO,
        }


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
        # 2**16 upsets or downsets of a 16-antichain against a cap of 2**12
        dom = FiniteGeneratorDomain(FinitePoset.from_pairs([f"g{i}" for i in range(16)], []))
        with pytest.raises(LatticeError, match=f"free {what}-semilattice exceeds oracle scale"):
            saturate(Presentation(PresentationKind.PLAIN, dom, ()), target)

    @pytest.mark.parametrize("target", [PresentationKind.SUP, PresentationKind.PREFRAME])
    def test_the_first_size_over_the_cap_fails_promptly(self, target):
        # a 13-antichain has 2**13 upsets and downsets, the first count over
        # the cap; the count stops there, before any order is built
        dom = FiniteGeneratorDomain(FinitePoset.from_pairs([f"g{i}" for i in range(13)], []))
        start = time.perf_counter()
        with pytest.raises(LatticeError, match="exceeds oracle scale"):
            saturate(Presentation(PresentationKind.PLAIN, dom, ()), target)
        assert time.perf_counter() - start < 0.5

    def test_symbolic_domains_ship_presaturated(self):
        rp = real_presentation()
        assert saturate(rp, PresentationKind.SUP) is rp
        with pytest.raises(PresentationError):
            saturate(rp, PresentationKind.PREFRAME)


def domain_footprint(domain) -> int:
    """The entries of the domain's memo and of the tables that each object
    in it keeps."""
    tables = [getattr(obj, "__dict__", {}).values() for obj in domain.memo.values()]
    return len(domain.memo) + sum(len(t) for values in tables for t in values if isinstance(t, dict))


class TestSharedDomainMemo:
    def test_no_relation_keyed_memo_lives_in_a_shared_domain(self):
        """Saturating and checking more presentations over one interned
        domain, once each of its sides has been read, adds nothing to its
        memo: the stability instances of a presentation's relations live in
        the presentation's own memo."""
        dom = finite_domain(FinitePoset.from_pairs(list("zabt"), [(0, 1), (0, 2), (1, 3), (2, 3)]), True, False)
        terms = [join_of(c) for k in range(5) for c in itertools.combinations("zabt", k)] + [TERM_ONE]
        rng = random.Random(11)

        def check(relations):
            p = Presentation(PresentationKind.SUP, dom, tuple(relations))
            for q in (p, saturate(p, PresentationKind.SUP)):
                for oracle in (True, False):
                    check_kind(q, oracle=oracle)

        # every side once, and the oracle's evaluation built once
        check([Relation(t, t, "<=") for t in terms])
        check([Relation(gen_term("t"), gen_term("z"), "<=")])
        sizes = []
        for n in (10, 40):
            for _ in range(n):
                check([Relation(rng.choice(terms), rng.choice(terms), rng.choice(("=", "<="))) for _ in range(3)])
            sizes.append(domain_footprint(dom))
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize(
        "kind, use_meet, use_join", [(PresentationKind.SUP, True, False), (PresentationKind.PREFRAME, False, True)]
    )
    def test_a_shared_domain_memo_grows_only_with_new_sides(self, kind, use_meet, use_join):
        """With no side read beforehand: from one point to the next, the
        memo of an interned domain grows by at most the sides and clauses
        read over it for the first time, however many relations were
        checked, so it is bounded by the distinct terms read over the
        domain and not by the presentations."""
        dom = finite_domain(FinitePoset.from_pairs(list("zabt"), [(0, 1), (0, 2), (1, 3), (2, 3)]), use_meet, use_join)
        kernel, fold, gens = instance_kernel(dom), kind.folds_meets, dom.enumerate_gens()
        rng = random.Random(12)
        seen = set()

        def term():
            return Term(tuple(Meet(tuple(rng.sample(gens, rng.randint(1, 2)))) for _ in range(rng.randint(1, 3))))

        def check(relations):
            p = Presentation(kind, dom, tuple(relations))
            for q in (p, saturate(p, kind)):
                for r in q.concrete_relations():
                    for t in (r.lhs, r.rhs):
                        side = kernel.side(t, fold)
                        seen.add(side)
                        seen.update(side)
                for oracle in (True, False):
                    check_kind(q, oracle=oracle)

        check([Relation(gen_term("t"), gen_term("z"), "<=")])
        grown = []
        for n in (10, 40):
            before, known = domain_footprint(dom), len(seen)
            for _ in range(n):
                check([Relation(term(), term(), rng.choice(("=", "<="))) for _ in range(3)])
            grown.append((domain_footprint(dom) - before, len(seen) - known))
        assert all(memo <= new for memo, new in grown)


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


# ---------------------------------------------------------------------------
# the pruned schema enumerator against product-then-filter


def product_then_filter(params, values, conds, env=None):
    """Reference enumeration: every tuple of values, then every condition
    whose free parameters are all bound."""
    out = []
    for combo in itertools.product(values, repeat=len(params)):
        full = dict(env or {})
        full.update(zip(params, combo))
        if all(c.holds(full) for c in conds if c.free_params() <= set(full)):
            out.append(full)
    return out


NAMES = ("p", "q", "p'", "q'", "r")
OPS = ("<", "<=", "=", "!=", ">", ">=")
GRID = [NEG_INF, rat(-1), rat(Fraction(-1, 2)), rat(0), rat(Fraction(1, 3)), rat(1), POS_INF]


def rand_expr(rng, names):
    roll = rng.random()
    if roll < 0.15:
        return econst(rng.choice([NEG_INF, rat(0), rat(Fraction(1, 2)), POS_INF]), rng.randint(-1, 1))
    if roll < 0.3:
        return EOp(rng.choice(("max", "min")), rand_expr(rng, names), rand_expr(rng, names))
    # "z" is a parameter that no schema binds
    return eparam(rng.choice(names + ("z",)), rng.choice((0, 0, 0, -1, 1, 2)))


def rand_cond(rng, names):
    if rng.random() < 0.2:
        return Cond(
            "pairneq",
            (rand_expr(rng, names), rand_expr(rng, names)),
            (rand_expr(rng, names), rand_expr(rng, names)),
        )
    return Cond(rng.choice(OPS), (rand_expr(rng, names),), (rand_expr(rng, names),))


def rand_schema(rng):
    params = tuple(rng.sample(NAMES, rng.randint(0, 4)))
    conds = tuple(rand_cond(rng, NAMES) for _ in range(rng.randint(0, 4)))
    values = sorted(rng.sample(GRID, rng.randint(1, len(GRID))))
    return params, values, conds


class TestInstantiationMemo:
    """Instantiation keeps its normal forms in the domain's memo, under
    tuples of generator keys, and ``normalize`` reads the same memo."""

    @pytest.mark.parametrize(
        "make",
        [real_presentation, unit_interval_presentation, circle_open_presentation, circle_proper_presentation],
        ids=["real", "unit", "circle-open", "circle-proper"],
    )
    def test_a_second_instantiation_adds_no_memo_entries(self, make):
        p = make()
        grid = [rat(0), rat(Fraction(1, 3)), rat(1)]
        memos = [p.domain.memo] + ([p.domain.parent.memo] if isinstance(p.domain, TaggedDomain) else [])
        first = instantiate_schemas(p, grid)
        sizes = [len(m) for m in memos]
        assert sizes[0] > 0
        second = instantiate_schemas(p, grid)
        assert [len(m) for m in memos] == sizes
        assert second == first
        # each side is the very term that normalize serves from the memo
        fold = p.kind.folds_meets
        for r in second.relations:
            assert normalize(r.lhs, p.domain, fold) is r.lhs and normalize(r.rhs, p.domain, fold) is r.rhs
        assert [len(m) for m in memos] == sizes


class TestBindings:
    def test_matches_product_then_filter(self):
        """Schema parameters alone, and the ``bigvee (p', q') where ...``
        shape: bound names extending an outer environment, which they may
        shadow, under conditions that mix both."""
        emitted = 0
        for seed in range(800):
            rng = random.Random(seed)
            params, values, conds = rand_schema(rng)
            outer = {name: rng.choice(GRID) for name in rng.sample(NAMES, rng.choice((0, 0, 1, 2, 3)))}
            got = list(_bindings(params, values, conds, outer))
            assert got == product_then_filter(params, values, conds, outer), (seed, params, outer)
            emitted += len(got)
        assert emitted > 1000

    def test_each_condition_checked_once_per_partial_binding(self):
        class Counting(Cond):
            """Counts every test, made through ``holds`` or through the
            compiled form that ``_bindings`` builds once per call."""

            calls = 0

            def compiled(self):
                test = super().compiled()

                def counted(env, n=None):
                    Counting.calls += 1
                    return test(env, n)

                return counted

        p, q, p2, q2 = eparam("p"), eparam("q"), eparam("p'"), eparam("q'")
        conds = tuple(
            Counting(op, (a,), (b,)) for a, op, b in ((p, "<=", p2), (p2, "<", q), (q, "<=", q2))
        )
        values = GRID[1:-1]
        got = list(_bindings(("p", "q", "p'", "q'"), values, conds))
        pruned_calls = Counting.calls
        assert got == product_then_filter(("p", "q", "p'", "q'"), values, conds)
        # the product checks at least one condition on each of 5**4 tuples;
        # p <= p' and p' < q go once per (p, q, p'), q <= q' once per
        # survivor and value of q'
        assert pruned_calls < len(values) ** 4 <= Counting.calls - pruned_calls

    def test_bound_clause_instances(self):
        """The bound branch of clause instantiation emits one meet per
        binding, in product order."""
        dom = OpenIntervalDomain()
        p, q, p2, q2 = eparam("p"), eparam("q"), eparam("p'"), eparam("q'")
        for seed in range(200):
            rng = random.Random(seed)
            bound = tuple(rng.sample(("p'", "q'"), rng.randint(1, 2)))
            conds = tuple(rand_cond(rng, ("p", "q", "p'", "q'")) for _ in range(rng.randint(0, 3)))
            conds += (Cond("<", (p,), (p2,)), Cond("<", (q2,), (q,)))
            cl = SchemaClause((GenPattern("OI", (p2, q2)),), bound=bound, conds=conds)
            values = sorted(rng.sample(GRID, rng.randint(2, len(GRID))))
            env = {"p": rng.choice(values), "q": rng.choice(values), "p'": values[0], "q'": values[-1]}
            got = _instantiate_clause(dom, cl, env, values, _family_window(values), set(values))
            want = [
                (dom.instantiate_pattern(cl.meet[0], sub),)
                for sub in product_then_filter(bound, values, conds, env)
            ]
            assert got == want, seed

    def test_family_members_outside_the_domain_are_dropped(self):
        """A Z-indexed family over [0,1] whose members leave the interval
        keeps the members that exist."""
        (out,) = instantiate_schemas(cc_shift_family(), [rat(0), rat(1)]).relations
        assert str(out) == "CC(0,1) <= CC(0,1) v CC(1,1)"


def full_window_members(domain, cl, env, window, pool_values):
    """Reference for a Z-indexed family clause: every n of the window in
    turn, keeping the members whose generators all lie in the pool."""
    out = set()
    for n in window:
        if not all(c.holds(env, n) for c in cl.conds):
            continue
        try:
            keys = [domain.instantiate_pattern(pat, env, n) for pat in cl.meet]
        except TermError:
            continue
        if all(domain.key_endpoints(k) is None or set(domain.key_endpoints(k)) <= pool_values for k in keys):
            out.add(tuple(keys))
    return out


def rand_family_expr(rng, depth=0):
    if depth < 2 and rng.random() < 0.35:
        return EOp(rng.choice(("max", "min")), rand_family_expr(rng, depth + 1), rand_family_expr(rng, depth + 1))
    with_index = rng.random() < 0.5
    offset = rng.choice((0, 0, 0, -1, 1, 2))
    if rng.random() < 0.25:
        x = rng.choice([NEG_INF, POS_INF, rat(0), rat(1), rat(Fraction(1, 2)), rat(Fraction(-4, 3))])
        return econst(x, offset, with_index)
    return eparam(rng.choice(("p", "q", "p'", "q'")), offset, with_index)


class TestFamilyWindow:
    """A Z-indexed family visits only the n that can give a new member
    (``_family_indices``) and keeps exactly the members the whole window
    keeps."""

    DOMAINS = {
        "interval-R": (OpenIntervalDomain(), "OI", None),
        "interval-01": (ClosedComplementDomain(), "CC", None),
        "dia interval-R": (TaggedDomain("dia", OpenIntervalDomain()), "OI", "dia"),
    }

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_pruned_window_keeps_every_member(self, name):
        domain, ctor, tag = self.DOMAINS[name]
        rng = random.Random(name)
        kept = visited = full = 0
        for _ in range(400):
            pats = []
            for _ in range(rng.choice((1, 1, 2))):
                pat = GenPattern(ctor, (rand_family_expr(rng), rand_family_expr(rng)))
                pats.append(pat.tagged(tag) if tag else pat)
            conds = tuple(
                Cond(rng.choice(("<", "<=", "=", "!=", ">=")), (rand_family_expr(rng),), (rand_family_expr(rng),))
                for _ in range(rng.choice((0, 0, 1, 2)))
            )
            cl = SchemaClause(tuple(pats), conds=conds, int_var="n")
            unit = ctor == "CC"
            points = {Fraction(rng.randint(0 if unit else -9, 6 if unit else 9), rng.randint(1, 3) * (6 if unit else 1))
                      for _ in range(rng.randint(1, 5))}
            values = sorted(set(domain.grid_values([rat(x) for x in points if not unit or x <= 1])))
            pool = set(values)
            env = {name: rng.choice(values) for name in ("p", "q", "p'", "q'")}
            window = _family_window(values)
            want = full_window_members(domain, cl, env, window, pool)
            got = _instantiate_clause(domain, cl, env, values, window, pool)
            assert set(got) == want and len(got) == len(want), (str(cl), env)
            indices = _family_indices(cl, env, window, pool)
            assert indices == sorted(set(indices)) and set(indices) <= set(window)
            kept += len(want)
            visited += len(indices)
            full += len(window)
        assert kept > 80
        assert visited < full

    def test_circle_open_visits_fewer_shifts(self):
        """On the 6-point grid of the pair-meet schema, most of the window
        is skipped and the instances are unchanged (the digest test pins
        them)."""
        grid = [rat(Fraction(x)) for x in ("-8/3", "-3/2", "-6/5", "1/5", "1/3", "3/2")]
        p = circle_open_presentation()
        family = p.relations[1].rhs.clauses[0]
        values = sorted(set(p.domain.grid_values(grid)))
        window, pool = _family_window(values), set(values)
        visited = sum(
            len(_family_indices(family, dict(zip(("p", "q", "p'", "q'"), env)), window, pool))
            for env in itertools.product(values, repeat=4)
        )
        assert len(values) ** 4 == 4096 and len(window) == 13
        assert visited < 4096 * 13 // 2


def closed_pool_reference(domain, keys):
    """Close under the declared operations by rescanning all pairs until
    nothing new appears."""
    pool = set(keys) | {e for e in (domain.top(), domain.bottom()) if e is not None}
    ops = [op for ok, op in ((domain.has_meet, domain.meet), (domain.has_join, domain.join)) if ok]
    while True:
        new = {op(a, b) for op in ops for a, b in itertools.combinations(sorted(pool), 2)} - pool
        if not new:
            return pool
        pool |= new


class WrongMeetChain(FiniteGeneratorDomain):
    """The chain z < a < b < t, declaring a meet that agrees with the order
    except that a ^ b is z; a stub whose pool closes under its meet while
    the restriction's glbs differ from it."""

    def __init__(self):
        chain = FinitePoset.from_pairs(list("zabt"), [(0, 1), (1, 2), (2, 3)])
        super().__init__(chain, use_meet=True, use_join=False)

    def meet(self, a: str, b: str) -> str:
        return "z" if {a, b} == {"a", "b"} else super().meet(a, b)

    def grid_values(self, grid):
        return list(grid)


class TestRestrictDomain:
    def test_meets_of_meets_are_added(self):
        """In the subsets of {a,b,c,d}, the three 3-sets meet pairwise to
        {a,d}, {b,d}, {c,d}; their common meet {d} is a meet of meets."""
        boolean = FiniteGeneratorDomain(downsets(FinitePoset.from_pairs(list("abcd"), [])).poset)
        keys = {"{a,b,d}", "{a,c,d}", "{b,c,d}"}
        restricted = _restrict_domain(boolean, keys)
        assert set(restricted.poset.elements) == closed_pool_reference(boolean, keys)
        assert "{d}" in restricted.poset.elements

    def test_an_incompatible_meet_fails_the_check(self):
        """The compatibility check can fail: through ``instantiate_schemas``,
        the restriction of a domain whose declared meet disagrees with its
        order raises, naming the pair."""
        p = Presentation(PresentationKind.SUP, WrongMeetChain(), (Relation(gen_term("a"), gen_term("b"), "<="),))
        with pytest.raises(PresentationError, match=r"restriction pool not closed compatibly at 'a','b'"):
            instantiate_schemas(p, [rat(0)])

    def test_worklist_closure_matches_fixpoint(self):
        rng = random.Random(5)
        pts = [NEG_INF, rat(-1), rat(Fraction(-1, 2)), rat(0), rat(Fraction(1, 2)), rat(1), POS_INF]
        quarters = [rat(Fraction(a, 4)) for a in range(5)]
        for _ in range(60):
            oi, cc = OpenIntervalDomain(), ClosedComplementDomain()
            finite = rand_distributive_domain(rng)
            cases = (
                (oi, {oi.key(*rng.sample(pts, 2)) for _ in range(rng.randint(1, 8))}),
                (cc, {cc.key(rng.choice(quarters), rng.choice(quarters)) for _ in range(rng.randint(1, 8))}),
                (finite, set(rng.sample(finite.enumerate_gens(), rng.randint(1, min(5, finite.poset.n))))),
            )
            for dom, keys in cases:
                restricted = _restrict_domain(dom, keys)
                want = closed_pool_reference(dom, keys)
                assert list(restricted.poset.elements) == sorted(want, key=dom.sort_key)
                assert (restricted.has_meet, restricted.has_join) == (dom.has_meet, dom.has_join)

    def test_endpoint_up_masks_match_the_leq_loop(self):
        """The interval domains read ``up_masks`` off the endpoints; it is
        the default loop of one ``leq`` per pair, on random key sets in
        random order, with ``OI()`` among them and CC pairs with p > q."""
        rng = random.Random(23)
        pts = [NEG_INF, rat(-2), rat(Fraction(-1, 3)), rat(0), rat(Fraction(1, 2)), rat(1), POS_INF]
        quarters = [rat(Fraction(a, 4)) for a in range(5)]
        oi, cc = OpenIntervalDomain(), ClosedComplementDomain()
        with_bottom = 0
        for _ in range(200):
            draws = (
                (oi, lambda: oi.key(*rng.sample(pts, 2))),
                (cc, lambda: cc.key(rng.choice(quarters), rng.choice(quarters))),
            )
            for dom, draw in draws:
                keys = list({draw() for _ in range(rng.randint(1, 12))})
                rng.shuffle(keys)
                assert dom.up_masks(keys) == GeneratorDomain.up_masks(dom, keys), keys
                with_bottom += oi.BOTTOM in keys
        assert with_bottom > 50

    def test_an_endpoint_restriction_calls_no_leq(self, monkeypatch):
        def no_leq(self, a, b):
            raise AssertionError("leq called")

        for cls in (OpenIntervalDomain, ClosedComplementDomain):
            monkeypatch.setattr(cls, "leq", no_leq)
        for make, grid in ((real_presentation, [0, 1, 2]), (unit_interval_presentation, [0, Fraction(1, 2), 1])):
            assert instantiate_schemas(make(), [rat(x) for x in grid]).domain.poset.n > 5


# ---------------------------------------------------------------------------
# instantiation output, pinned by digests computed before the enumerator
# was pruned


def instantiation_digest(p) -> str:
    try:
        text = print_presentation(p)
    except PresentationError:
        text = json.dumps(presentation_to_jsonable(p), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_grid(name, n, unit):
    """n distinct rationals drawn by seed: inside (0,1) for the unit
    interval family, from [-8, 8] otherwise."""
    rng = random.Random(f"{name}/{n}")
    pool = sorted(
        {Fraction(a, b) for b in range(1, 7) for a in (range(1, b) if unit else range(-8, 9))}
    )
    return [rat(x) for x in sorted(rng.sample(pool, n))]


DIGEST_CASES = {
    "real": (real_presentation, False),
    "unit_interval": (unit_interval_presentation, True),
    "circle_open": (circle_open_presentation, False),
    "circle_proper_raw": (circle_proper_presentation, True),
    "circle_proper_simplified": (lambda: circle_proper_presentation(simplify=True), True),
}

INSTANTIATION_DIGESTS = {
    ("real", 1): "765067925eb45977",
    ("real", 2): "33a92abfbccdf1e5",
    ("real", 3): "dd31005f10b24379",
    ("real", 4): "d8852ed494ea2b3b",
    ("real", 5): "3638f90c0460f34f",
    ("real", 6): "8e8889d6845ac3f5",
    ("unit_interval", 1): "44f705636994b4d3",
    ("unit_interval", 2): "eb6e362161e76de2",
    ("unit_interval", 3): "4608d90b2bf2e8a3",
    ("unit_interval", 4): "adcfc46eafc7dab8",
    ("unit_interval", 5): "ed9045da6a7108c7",
    ("unit_interval", 6): "ff82516f14dd5e59",
    ("circle_open", 1): "2102fdc03f96bdec",
    ("circle_open", 2): "5fe1eeed31671a00",
    ("circle_open", 3): "91511b9eec224cf0",
    ("circle_open", 4): "76de98092c845331",
    ("circle_open", 5): "da4ba5f430f847cc",
    ("circle_open", 6): "ba88ba6bf4c45ae6",
    ("circle_proper_raw", 1): "71a73e616b63970d",
    ("circle_proper_raw", 2): "1a5ce2edbcd9e6d1",
    ("circle_proper_raw", 3): "6687d23befa28337",
    ("circle_proper_raw", 4): "8bc762becd33ca5d",
    ("circle_proper_raw", 5): "c165f7f53a4368f3",
    ("circle_proper_raw", 6): "c12a74c3fcb482fb",
    ("circle_proper_simplified", 1): "a355b648781a32b4",
    ("circle_proper_simplified", 2): "5ea8a4aff214e02c",
    ("circle_proper_simplified", 3): "73d9a353682b9cd0",
    ("circle_proper_simplified", 4): "06464a1f92cf0539",
    ("circle_proper_simplified", 5): "546d01f805b8e069",
    ("circle_proper_simplified", 6): "5991fa1362e30623",
}


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_instantiation_output_unchanged(name):
    make, unit = DIGEST_CASES[name]
    for n in range(1, 7):
        p = instantiate_schemas(make(), digest_grid(name, n, unit))
        assert instantiation_digest(p) == INSTANTIATION_DIGESTS[(name, n)], (name, n)

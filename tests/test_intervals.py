from fractions import Fraction
from typing import Optional, Union

import pytest
from hypothesis import given, settings, strategies as st

from locale_forge.evaluate import eval_frame
from locale_forge.intervals import (
    ClosedComplementDomain,
    OpenIntervalDomain,
    _nat_rank,
    circle_open_presentation,
    circle_open_spec,
    circle_proper_presentation,
    circle_proper_spec,
    nat_reverse_counterexample,
    point_map_right_adjoint,
    real_presentation,
    successor_pullback,
    unit_interval_presentation,
)
from locale_forge.lattice import poset_isomorphism
from locale_forge.presentation import Relation, check_kind, instantiate_schemas
from locale_forge.rationals import NEG_INF, POS_INF, rat
from locale_forge.generators import DomainError, TaggedDomain
from locale_forge.terms import (
    GenPattern,
    Meet,
    SchemaClause,
    Term,
    TermError,
    TERM_ONE,
    TERM_ZERO,
    cmp_cond,
    econst,
    gen_term,
)

from conftest import real_line_on_grid

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def expand_family_meet(
    s: str, fam: SchemaClause, domain: Optional[OpenIntervalDomain] = None
) -> Union[Term, SchemaClause]:
    """The tests' own oracle of family expansion, kept apart from the
    instantiation path (``presentation._instantiate_clause``) it checks.

    Materialise the meet of a concrete generator with a Z-indexed family,
    a ``SchemaClause`` whose ``int_var`` is bound and whose patterns have
    constant endpoints.

    Bounded generators meet only finitely many shifts, returned as a plain
    join; an unbounded generator leaves a family, returned as a
    ``SchemaClause`` with the non-emptiness condition attached.
    """
    domain = domain or OpenIntervalDomain()
    if s == domain.BOTTOM:
        return TERM_ZERO
    lo, hi = domain.key_endpoints(s)
    s_pat = GenPattern("OI", (econst(lo), econst(hi)))
    meets = [domain.meet_patterns(s_pat, b) for b in fam.meet]
    if not any(
        a.with_index for m in meets for arg in m.args for a in arg.atoms()
    ):
        keys = [domain.instantiate_pattern(m, {}, None) for m in meets]
        keys = [k for k in keys if k != domain.BOTTOM]
        return Term(tuple(Meet((k,)) for k in sorted(set(keys))))
    consts = [
        a.const + a.offset
        for m in fam.meet
        for arg in m.args
        for a in arg.atoms()
        if a.param is None and (a.const + a.offset).finite
    ]
    if lo.finite and hi.finite:
        span_lo = min([lo.value] + [c.value for c in consts])
        span_hi = max([hi.value] + [c.value for c in consts])
        width = int(span_hi - span_lo) + 2
        keys = []
        for n in range(-width, width + 1):
            if not all(c.holds({}, n) for c in fam.conds):
                continue
            for m in meets:
                k = domain.instantiate_pattern(m, {}, n)
                if k != domain.BOTTOM:
                    keys.append(k)
        return Term(tuple(Meet((k,)) for k in sorted(set(keys), key=domain.sort_key)))
    conds = list(fam.conds)
    for m in meets:
        conds.append(cmp_cond(m.args[0], "<", m.args[1]))
    return SchemaClause(tuple(meets), conds=tuple(conds), int_var=fam.int_var)


class TestOpenIntervalDomain:
    def test_empty_intervals_collapse(self):
        dom = OpenIntervalDomain()
        assert dom.key(rat(1), rat(0)) == dom.BOTTOM
        assert dom.key(rat(1), rat(1)) == dom.BOTTOM

    def test_meet_rule(self):
        dom = OpenIntervalDomain()
        assert dom.meet("OI(0,1)", "OI(1/2,2)") == "OI(1/2,1)"
        assert dom.meet("OI(0,1)", "OI(2,3)") == dom.BOTTOM

    @given(rationals, rationals, rationals, rationals, rationals, rationals)
    @settings(max_examples=120, deadline=None)
    def test_meet_laws(self, a, b, c, d, e, f):
        dom = OpenIntervalDomain()
        x = dom.key(rat(a), rat(b))
        y = dom.key(rat(c), rat(d))
        z = dom.key(rat(e), rat(f))
        assert dom.meet(x, y) == dom.meet(y, x)
        assert dom.meet(x, x) == x
        assert dom.meet(dom.meet(x, y), z) == dom.meet(x, dom.meet(y, z))
        assert dom.meet(x, dom.top()) == x
        assert dom.meet(x, dom.bottom()) == dom.bottom()

    def test_half_lines_meet_to_bounded(self):
        dom = OpenIntervalDomain()
        assert dom.meet("OI(0,+inf)", "OI(-inf,1)") == "OI(0,1)"


class TestOneEndpointBody:
    """Both interval domains are one endpoint body: each interval has one
    spelling, and the order, the up-masks, the bounds and the intersection
    agree."""

    @pytest.mark.parametrize(
        "make, key",
        [(OpenIntervalDomain, k) for k in ("OI(0,2/2)", "OI(-inf,inf)", "OI( 0,1)", "OI(0,1.0)")]
        + [(ClosedComplementDomain, "CC(0,2/4)")],
    )
    def test_only_the_canonical_spelling_is_a_generator(self, make, key):
        dom = make()
        canonical = dom.key(*dom.key_endpoints(key))
        assert canonical != key
        assert not dom.contains(key) and dom.contains(canonical)

    ENDS = {
        OpenIntervalDomain: st.one_of(st.just(NEG_INF), st.just(POS_INF), rationals.map(rat)),
        ClosedComplementDomain: st.fractions(min_value=0, max_value=1, max_denominator=4).map(rat),
    }

    @pytest.mark.parametrize("make", list(ENDS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_order(self, make, data):
        """``leq`` is the order ``up_masks`` reads off the ranks, and the
        intersection is the glb of interval-R and the lub of interval-01."""
        dom = make()
        ends = self.ENDS[make]
        drawn = data.draw(st.lists(st.builds(dom.key, ends, ends), min_size=1, max_size=8))
        keys = list(dict.fromkeys(drawn + [dom.top(), dom.bottom()]))
        masks = dom.up_masks(keys)
        if dom.has_meet:
            op, below = dom.meet, dom.leq
        else:
            op, below = dom.join, lambda x, y: dom.leq(y, x)
        for i, a in enumerate(keys):
            assert dom.contains(a)
            assert dom.leq(dom.bottom(), a) and dom.leq(a, dom.top())
            for j, b in enumerate(keys):
                assert bool(masks[i] >> j & 1) == dom.leq(a, b)
                c = op(a, b)
                assert dom.contains(c) and below(c, a) and below(c, b)
                assert all(below(d, c) for d in keys if below(d, a) and below(d, b))


class TestEndpointMemo:
    """Both interval domains parse a generator key once per domain object."""

    DOMAINS = {
        OpenIntervalDomain: ["OI(0,1)", "OI(-inf,1/2)", "OI(-3/4,+inf)", "OI(2,1)"],
        ClosedComplementDomain: ["CC(0,1)", "CC(1/3,1/2)", "CC(1,0)", "CC(2,-1)"],
    }
    @pytest.mark.parametrize("make", list(DOMAINS))
    def test_malformed_keys_raise_every_time_and_stay_out(self, make):
        dom = make()
        other = "CC" if make is OpenIntervalDomain else "OI"
        malformed = [f"{dom.ctor}(0)", f"{dom.ctor}(0,1)x", f"{other}(0,1)", "N(<=1)", ""]
        bad_numbers = [f"{dom.ctor}(a,1)", f"{dom.ctor}(0,1/0)"]
        for keys, error in ((malformed, TermError), (bad_numbers, ValueError)):
            for key in keys:
                for _ in range(3):
                    with pytest.raises(error):
                        dom.key_endpoints(key)
                    assert not dom.contains(key)
                assert key not in dom.memo

    @pytest.mark.parametrize("make", list(DOMAINS))
    def test_memoized_endpoints_match_a_fresh_domain(self, make):
        dom = make()
        keys = self.DOMAINS[make]
        first = [dom.key_endpoints(k) for k in keys]
        assert all(dom.memo[k] == eps for k, eps in zip(keys, first))
        served = [dom.key_endpoints(k) for k in keys]
        fresh = make()
        assert "memo" not in vars(fresh)
        assert served == first == [fresh.key_endpoints(k) for k in keys]
        assert [dom.sort_key(k) for k in keys] == [fresh.sort_key(k) for k in keys]

    def test_bottom_has_no_endpoints(self):
        dom = OpenIntervalDomain()
        assert dom.key_endpoints(dom.BOTTOM) is None
        assert dom.BOTTOM not in dom.memo

    def test_tagged_domain_reads_its_parents_memo(self):
        parent = ClosedComplementDomain()
        tagged = TaggedDomain("box", parent)
        assert tagged.key_endpoints("box CC(1/4,1/2)") == (rat(Fraction(1, 4)), rat(Fraction(1, 2)))
        assert "CC(1/4,1/2)" in parent.memo
        assert "box CC(1/4,1/2)" not in tagged.memo and "CC(1/4,1/2)" not in tagged.memo
        with pytest.raises(TermError):
            tagged.key_endpoints("dia CC(1/4,1/2)")
        with pytest.raises(TermError):
            tagged.key_endpoints("box CC(1/4)")
        assert "CC(1/4)" not in parent.memo


class TestRealPresentation:
    def test_top_relation_present(self):
        rp = real_presentation()
        assert rp.relations[0].lhs == gen_term("OI(-inf,+inf)")
        assert rp.relations[0].rhs == TERM_ONE

    def test_no_explicit_zero_collapse_relation(self):
        # kept without one: the circle presentations are built from it
        rp = real_presentation()
        for r in rp.concrete_relations():
            assert r.lhs != gen_term("OI()")

    def test_empty_interval_needs_its_own_collapse(self):
        # without refinement, grid {0,1}: OI() stays an atom above 0 until
        # OI() = 0 is added, which leaves the 13 open sets of the grid topology
        kept = eval_frame(real_line_on_grid([0, 1])).carrier
        assert kept.n == 14 and kept.elements[1] == "OI()"
        collapsed = eval_frame(real_line_on_grid([0, 1], Relation(gen_term("OI()"), TERM_ZERO)))
        assert collapsed.carrier.n == 13

    def test_grid_instantiation_checks(self):
        grid = [rat(0), rat(Fraction(1, 2)), rat(1)]
        rep = check_kind(real_presentation(), grid=grid)
        assert rep.ok


class TestCircleOpenSpec:
    def test_image_is_a_shift_family(self):
        spec = circle_open_spec()
        (case,) = spec.cases
        (clause,) = case.term.clauses
        assert clause.int_var == "n"
        (pat,) = clause.meet
        assert pat.ctor == "OI"
        assert all(a.with_index for a in pat.args)

    def test_image_fixes_top_and_bottom(self):
        dom = OpenIntervalDomain()
        spec = circle_open_spec()
        (case,) = spec.cases
        (clause,) = case.term.clauses
        (pat,) = clause.meet
        # shifting the whole line or the empty interval does nothing
        env_top = {"p": NEG_INF, "q": POS_INF}
        keys = {dom.instantiate_pattern(pat, env_top, n) for n in range(-3, 4)}
        assert keys == {"OI(-inf,+inf)"}
        env_bot = {"p": rat(1), "q": rat(0)}
        keys = {dom.instantiate_pattern(pat, env_bot, n) for n in range(-3, 4)}
        assert keys == {dom.BOTTOM}

    @staticmethod
    def shift_family_of(dom, key):
        from locale_forge.terms import EAtom, GenPattern

        lo, hi = dom.key_endpoints(key)
        body = GenPattern("OI", (EAtom(None, lo, True, 0), EAtom(None, hi, True, 0)))
        return SchemaClause((body,), int_var="n")

    def test_shift_twice_equals_shift_once(self):
        # Z + Z = Z at the level of offsets: meeting a bounded generator
        # with its shift family, then meeting each disjunct with its own
        # shift family, yields the same set of generators
        dom = OpenIntervalDomain()
        start = "OI(0,1)"
        once = expand_family_meet(start, self.shift_family_of(dom, start), dom)
        again = set()
        for cl in once.clauses:
            inner = expand_family_meet(cl.gens[0], self.shift_family_of(dom, start), dom)
            again.update(c.gens[0] for c in inner.clauses)
        assert {c.gens[0] for c in once.clauses} == again


class TestExpandFamilyMeet:
    def fam(self):
        spec = circle_open_spec()
        (case,) = spec.cases
        (clause,) = case.term.clauses
        return clause

    def test_bounded_overlap(self):
        dom = OpenIntervalDomain()
        from locale_forge.terms import EAtom, GenPattern

        body = GenPattern(
            "OI",
            (
                EAtom(None, rat(Fraction(1, 2)), True, 0),
                EAtom(None, rat(Fraction(3, 2)), True, 0),
            ),
        )
        fam = SchemaClause((body,), int_var="n")
        out = expand_family_meet("OI(0,1)", fam, dom)
        # oracle: scan a wide window of shifts directly
        expected = set()
        for n in range(-10, 11):
            lo = max(Fraction(0), Fraction(1, 2) + n)
            hi = min(Fraction(1), Fraction(3, 2) + n)
            if lo < hi:
                expected.add(dom.key(rat(lo), rat(hi)))
        assert {c.gens[0] for c in out.clauses} == expected == {"OI(0,1/2)", "OI(1/2,1)"}

    def test_bottom_gives_zero(self):
        dom = OpenIntervalDomain()
        assert expand_family_meet(dom.BOTTOM, self.fam(), dom) == TERM_ZERO

    def test_unbounded_leaves_schematic_residue(self):
        dom = OpenIntervalDomain()
        out = expand_family_meet("OI(-inf,0)", self.fam(), dom)
        assert isinstance(out, SchemaClause) and out.int_var == "n"
        assert out.conds  # the non-emptiness condition was attached


class TestCircleOpenPresentation:
    def test_four_relation_families(self):
        out = circle_open_presentation()
        assert len(out.relations) == 4

    def test_matches_golden_text(self):
        import pathlib

        from locale_forge.dsl import print_presentation

        golden = pathlib.Path(__file__).parent / "golden" / "circle_open.txt"
        assert print_presentation(circle_open_presentation()) == golden.read_text()

    def test_bullet_two_is_the_shift_meet_family(self):
        out = circle_open_presentation()
        schema = out.relations[1]
        assert str(schema.rhs) == "bigvee n in Z . dia OI(p v (p'+n), q ^ (q'+n))"

    def test_grid_instances_of_bullet_two(self):
        # every grid instance of the meet family is the exact expansion
        # clipped to the instantiation pool
        grid = [rat(0), rat(Fraction(1, 2)), rat(1)]
        inst = instantiate_schemas(circle_open_presentation(), grid)
        dom = OpenIntervalDomain()
        fam_rels = [
            r
            for r in inst.concrete_relations()
            if len(r.lhs.clauses) == 1
            and isinstance(r.lhs.clauses[0], Meet)
            and len(r.lhs.clauses[0].gens) == 2
        ]
        assert fam_rels
        for r in fam_rels[:16]:
            s_key, t_key = (g[len("dia ") :] for g in r.lhs.clauses[0].gens)
            if s_key == dom.BOTTOM or t_key == dom.BOTTOM:
                continue
            lo, hi = dom.key_endpoints(t_key)
            if not (lo.finite or hi.finite):
                continue
            exact = expand_family_meet(
                s_key, TestCircleOpenSpec.shift_family_of(dom, t_key), dom
            )
            if isinstance(exact, SchemaClause):
                continue  # unbounded residue; the instance clips it
            got = {g[len("dia ") :] for cl in r.rhs.clauses for g in cl.gens}
            exact_keys = {cl.gens[0] for cl in exact.clauses}
            assert got <= exact_keys

    def test_grid_refinement_gives_surjective_comparisons(self):
        grids = (
            [rat(0), rat(Fraction(1, 2)), rat(1)],
            [rat(0), rat(Fraction(1, 4)), rat(Fraction(1, 2)), rat(1)],
            [rat(0), rat(Fraction(1, 4)), rat(Fraction(1, 2)), rat(Fraction(3, 4)), rat(1)],
        )
        frames = [eval_frame(instantiate_schemas(circle_open_presentation(), g)) for g in grids]
        for coarse, fine in zip(frames, frames[1:]):
            # the canonical comparison sends a generator class to the class
            # of the same generator; surjectivity is checked on carriers
            image = set()
            for g, idx in coarse.interp.items():
                image.add(fine.interp.get(g))
            closure = set(image) - {None}
            # close under joins in the finer frame
            changed = True
            while changed:
                changed = False
                for a in list(closure):
                    for b in list(closure):
                        j = fine.carrier.join(a, b)
                        if j not in closure:
                            closure.add(j)
                            changed = True
            assert closure == set(range(fine.carrier.n))


class TestClosedComplementDomain:
    def test_join_rule(self):
        dom = ClosedComplementDomain()
        assert dom.join("CC(0,1/2)", "CC(1/4,1)") == "CC(1/4,1/2)"

    def test_empty_complement_is_kept_formal(self):
        dom = ClosedComplementDomain()
        assert dom.contains("CC(3/4,1/4)")  # p > q stays a generator

    @pytest.mark.parametrize("grid", [[-1, Fraction(5, 2)], [Fraction(5, 2), -1]], ids=["-1,5/2", "5/2,-1"])
    def test_the_smallest_point_outside_is_named(self, grid):
        """Of several grid points outside [0,1], the smallest is reported,
        whatever the order the grid lists them in."""
        with pytest.raises(DomainError, match=r"^interval-01 grid value -1 outside \[0,1\]$"):
            ClosedComplementDomain().grid_values([rat(x) for x in grid])

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=8),
        st.fractions(min_value=0, max_value=1, max_denominator=8),
        st.fractions(min_value=0, max_value=1, max_denominator=8),
        st.fractions(min_value=0, max_value=1, max_denominator=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_join_laws(self, a, b, c, d):
        dom = ClosedComplementDomain()
        x, y = dom.key(rat(a), rat(b)), dom.key(rat(c), rat(d))
        assert dom.join(x, y) == dom.join(y, x)
        assert dom.join(x, x) == x
        assert dom.join(x, dom.bottom()) == x


class TestCircleProperSpec:
    def test_paper_cases(self):
        dom = ClosedComplementDomain()
        spec = circle_proper_spec()
        quarter = {"p": rat(Fraction(1, 4)), "q": rat(Fraction(3, 4))}

        def image_of(p, q):
            env = {"p": rat(p), "q": rat(q)}
            for case in spec.cases:
                pins = {k: v for k, v in case.pin}
                if any(env[k] != v for k, v in pins.items()):
                    continue
                if not all(c.holds(env) for c in case.conds):
                    continue
                (clause,) = case.term.clauses
                return tuple(dom.instantiate_pattern(pat, env) for pat in clause.meet)
            raise AssertionError("no case matched")

        assert image_of(Fraction(1, 4), Fraction(3, 4)) == ("CC(1/4,3/4)",)
        assert image_of(0, Fraction(1, 2)) == ("CC(0,1/2)", "CC(1,1)")
        assert image_of(Fraction(1, 2), 1) == ("CC(1/2,1)", "CC(0,0)")
        assert image_of(0, 1) == ("CC(0,1)",)

    def test_deflationary_and_idempotent_on_generators(self):
        dom = ClosedComplementDomain()
        spec = circle_proper_spec()

        def image_of(env):
            for case in spec.cases:
                pins = {k: v for k, v in case.pin}
                if any(env[k] != v for k, v in pins.items()):
                    continue
                if not all(c.holds(env) for c in case.conds):
                    continue
                (clause,) = case.term.clauses
                return [dom.instantiate_pattern(pat, env) for pat in clause.meet]
            raise AssertionError

        pts = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
        for p in pts:
            for q in pts:
                env = {"p": rat(p), "q": rat(q)}
                m1 = image_of(env)
                g = dom.key(env["p"], env["q"])
                # deflationary: the generator itself is always a meetand
                assert g in m1
                # idempotent: re-applying the case split to every meetand
                # only adds members that already dominate some meetand
                m2 = set(m1)
                for h in m1:
                    hp, hq = dom.key_endpoints(h)
                    m2.update(image_of({"p": hp, "q": hq}))
                for h2 in m2:
                    assert any(dom.leq(h1, h2) for h1 in m1)


class TestCircleProperPresentation:
    def test_raw_matches_golden(self):
        import pathlib

        from locale_forge.dsl import print_presentation

        golden = pathlib.Path(__file__).parent / "golden" / "circle_proper_raw.txt"
        assert print_presentation(circle_proper_presentation()) == golden.read_text()

    def test_simplified_matches_golden(self):
        import pathlib

        from locale_forge.dsl import print_presentation

        golden = pathlib.Path(__file__).parent / "golden" / "circle_proper_simplified.txt"
        assert print_presentation(circle_proper_presentation(simplify=True)) == golden.read_text()

    def test_raw_and_simplified_grid_frames_isomorphic(self):
        grid = [rat(0), rat(Fraction(1, 4)), rat(Fraction(1, 2)), rat(Fraction(3, 4)), rat(1)]
        raw = eval_frame(instantiate_schemas(circle_proper_presentation(), grid))
        simp = eval_frame(instantiate_schemas(circle_proper_presentation(simplify=True), grid))
        assert raw.interp.keys() == simp.interp.keys()
        pinned = [(raw.interp[g], simp.interp[g]) for g in raw.interp]
        assert poset_isomorphism(raw.carrier.poset, simp.carrier.poset, pinned) is not None

    def test_unit_interval_grid_checks(self):
        grid = [rat(0), rat(Fraction(1, 2)), rat(1)]
        rep = check_kind(unit_interval_presentation(), grid=grid)
        assert rep.ok


def test_only_finite_domains_list_their_generators():
    for dom in (OpenIntervalDomain(), ClosedComplementDomain()):
        for d in (dom, TaggedDomain("dia", dom)):
            with pytest.raises(DomainError, match="is not finite"):
                d.enumerate_gens()


class TestNatReverse:
    def test_successor_pullback(self):
        assert successor_pullback("N(<=3)") == "N(<=2)"
        assert successor_pullback("N(<=0)") == "N()"
        assert successor_pullback("N(all)") == "N(all)"
        assert successor_pullback("N()") == "N()"

    def test_point_map_right_adjoint(self):
        assert point_map_right_adjoint("N(all)") == "1"
        assert point_map_right_adjoint("N(<=7)") == "0"

    def test_counterexample_report(self):
        rep = nat_reverse_counterexample()
        assert rep.verdict
        assert any("size 2" in n for n in rep.notes)
        assert any(law == "scott-continuity-failure" for law, _ in rep.witnesses)

    def test_domain_is_a_chain(self):
        # the opens of N in normal form, written in their order, rank in it
        keys = ["N()"] + [f"N(<={k})" for k in (0, 1, 2, 10)] + ["N(all)"]
        ranks = [_nat_rank(k) for k in keys]
        assert ranks == sorted(set(ranks))
        for key in ("N(<=-1)", "N(<= 1)", "N", "OI(0,1)"):
            with pytest.raises(TermError, match="not an open of N"):
                _nat_rank(key)

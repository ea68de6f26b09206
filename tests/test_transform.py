import random
import re

import pytest

from locale_forge.evaluate import eval_frame
from locale_forge.generators import FiniteGeneratorDomain, TaggedDomain
from locale_forge.lattice import (
    FinitePoset,
    MonotoneMap,
    OperatorLawError,
    QuotientMode,
    as_frame_hom,
    downsets,
    fixed_points,
    kleene_closure,
    left_adjoint,
    poset_isomorphism,
    right_adjoint,
)
from locale_forge.presentation import (
    Presentation,
    PresentationKind,
    Relation,
    RelationSchema,
    saturate,
)
from locale_forge.suites import check_equivalence, rand_sup_presentation
from locale_forge.terms import Meet, TERM_ONE, TERM_ZERO, Term, TermError, gen_term, join_of, normalize
from locale_forge.transform import (
    QuotientSpec,
    TransformError,
    derive_spec_from_coinserter,
    identity_spec,
    present,
    present_open,
    present_proper,
    present_semi_open,
    present_semi_proper,
    present_semi_triquotient,
    present_triquotient,
    spec_from_operator,
)


def diamond_domain():
    poset = FinitePoset.from_pairs(["z", "a", "b", "t"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    return FiniteGeneratorDomain(poset, use_meet=True, use_join=False)


def two_point_presentation():
    dom = diamond_domain()
    return Presentation(
        PresentationKind.SUP,
        dom,
        (Relation(join_of(["a", "b"]), gen_term("t")), Relation(gen_term("z"), TERM_ZERO)),
    )


def sierpinski_preframe():
    dom = FiniteGeneratorDomain(
        FinitePoset.from_pairs(["z", "m", "u"], [(0, 1), (1, 2)]),
        use_join=True,
        use_meet=False,
    )
    p = Presentation(
        PresentationKind.PREFRAME, dom, (Relation(TERM_ONE, gen_term("u"), "<="),)
    )
    return saturate(p, PresentationKind.PREFRAME)


def swap_closure_on(frame):
    X = frame.carrier
    lab = {e: i for i, e in enumerate(X.elements)}
    table = []
    for e in X.elements:
        table.append(lab[{"z": "z", "a": "b", "b": "a"}.get(e, e)] if e in ("a", "b") else lab[e])
    return kleene_closure(MonotoneMap(X, X, tuple(table)))


def diamond_dcpo():
    dom = FiniteGeneratorDomain(
        FinitePoset.from_pairs(["z", "a", "b", "t"], [(0, 1), (0, 2), (1, 3), (2, 3)]),
        use_meet=True,
        use_join=True,
    )
    return Presentation(PresentationKind.DCPO, dom, ())


class TestFiniteTransformers:
    def test_identity_spec_presents_the_same_frame(self):
        # mode, its CLI name, its generator tag, a parent of the kind it
        # needs.  The tagged generators of a quotient form a bare poset, so
        # the unit relation, the zero relation and the pair relations each
        # decide the presented frame here.
        cases = [
            (QuotientMode.SEMI_OPEN, "semi-open", "dia", two_point_presentation),
            (QuotientMode.OPEN, "open", "dia", two_point_presentation),
            (QuotientMode.SEMI_PROPER, "semi-proper", "box", sierpinski_preframe),
            (QuotientMode.PROPER, "proper", "box", sierpinski_preframe),
            (QuotientMode.SEMI_TRIQUOTIENT, "semi-triquotient", "boxtimes", diamond_dcpo),
            (QuotientMode.TRIQUOTIENT, "triquotient", "boxtimes", diamond_dcpo),
        ]
        assert [c[0] for c in cases] == list(QuotientMode)
        for mode, cli_name, tag, make in cases:
            assert mode.cli_name == cli_name
            assert QuotientMode.parse(mode.value) is mode
            assert QuotientMode.parse(cli_name) is mode
            p = make()
            parent = eval_frame(p)
            assert parent.carrier.n > 2
            out = present(p, identity_spec(p.domain, mode))
            assert out.domain.tag == tag
            quotient = eval_frame(out)
            pinned = [(quotient.interp[f"{tag} {g}"], parent.interp[g]) for g in parent.interp]
            iso = poset_isomorphism(quotient.carrier.poset, parent.carrier.poset, pinned)
            assert iso is not None, mode

    def test_swap_presents_the_two_chain(self):
        p = two_point_presentation()
        parent = eval_frame(p)
        e = swap_closure_on(parent)
        ok, why, out = check_equivalence(p, parent, e, QuotientMode.OPEN)
        assert ok, why
        assert eval_frame(out).carrier.n == 2

    def test_open_and_semi_open_agree_when_frobenius_holds(self):
        p = two_point_presentation()
        parent = eval_frame(p)
        e = swap_closure_on(parent)
        spec = spec_from_operator(parent, e, QuotientMode.OPEN)
        spec_semi = spec_from_operator(parent, e, QuotientMode.SEMI_OPEN)
        a = eval_frame(present_open(p, spec))
        b = eval_frame(present_semi_open(p, spec_semi))
        pinned = [(a.interp[g], b.interp[g]) for g in a.interp]
        assert poset_isomorphism(a.carrier.poset, b.carrier.poset, pinned) is not None

    def test_sierpinski_interior_presents_the_point(self):
        p = sierpinski_preframe()
        parent = eval_frame(p)
        X = parent.carrier
        assert X.n == 3
        # the interior collapsing the middle open
        mid = [i for i, e in enumerate(X.elements) if parent.interp["m"] == i]
        table = tuple(X.bottom if i == parent.interp["m"] else i for i in range(X.n))
        e = MonotoneMap(X, X, table)
        for mode in (QuotientMode.SEMI_PROPER, QuotientMode.PROPER):
            ok, why, out = check_equivalence(p, parent, e, mode)
            assert ok, why
            assert eval_frame(out).carrier.n == 2

    def test_triquotient_identity_is_a_renaming(self):
        p = diamond_dcpo()
        parent = eval_frame(p)
        out = present_semi_triquotient(p, identity_spec(p.domain, QuotientMode.SEMI_TRIQUOTIENT))
        quotient = eval_frame(out)
        pinned = [(quotient.interp[f"boxtimes {g}"], parent.interp[g]) for g in parent.interp]
        assert poset_isomorphism(quotient.carrier.poset, parent.carrier.poset, pinned) is not None

    def test_mode_mismatch_rejected(self):
        p = two_point_presentation()
        with pytest.raises(TransformError):
            present_open(p, identity_spec(p.domain, QuotientMode.SEMI_OPEN))

    def test_wrong_kind_rejected(self):
        p = sierpinski_preframe()
        with pytest.raises(TransformError):
            present_open(p, identity_spec(p.domain, QuotientMode.OPEN))

    def test_a_foreign_generator_in_an_image_is_a_term_error(self):
        p = two_point_presentation()
        identity = identity_spec(p.domain, QuotientMode.OPEN).image
        image = tuple((g, join_of(["a", "zz"]) if g == "a" else t) for g, t in identity)
        with pytest.raises(TermError, match="zz"):
            present_open(p, QuotientSpec(QuotientMode.OPEN, p.domain, image), check=False)

    def test_image_shape_enforced(self):
        dom = diamond_domain()
        with pytest.raises(TransformError, match="open image must be a join of generators, got meet a \\^ b"):
            QuotientSpec(
                QuotientMode.OPEN, dom, (("a", Term((Meet(("a", "b")),))),)
            )
        with pytest.raises(TransformError, match="triquotient image must be a single generator"):
            QuotientSpec(QuotientMode.TRIQUOTIENT, dom, (("a", join_of(["a", "b"])),))

    def test_an_image_key_outside_the_domain_is_named(self):
        with pytest.raises(TransformError, match="image key 'zz' not a generator"):
            QuotientSpec(QuotientMode.OPEN, diamond_domain(), (("zz", gen_term("a")),))

    def test_a_generator_without_an_image_is_named(self):
        spec = QuotientSpec(QuotientMode.OPEN, diamond_domain(), (("a", gen_term("a")),))
        assert spec.image_of("a") == gen_term("a")
        with pytest.raises(TransformError, match="no image recorded for generator 'b'"):
            spec.image_of("b")


class TestTransportFidelity:
    def test_unnormalized_parent_output_unchanged(self):
        """Two parent relations equal up to clause order are two relations
        to ``Relation.key``, and both are transported verbatim; a relation
        in normal form that a pair relation repeats, here ``t = 1``, is
        kept once."""
        dom = diamond_domain()
        p = Presentation(
            PresentationKind.SUP,
            dom,
            (
                Relation(join_of(["b", "a"]), gen_term("t")),
                Relation(join_of(["a", "b"]), gen_term("t")),
                Relation(Term((Meet(("a", "a")),)), gen_term("a"), "<="),
                Relation(gen_term("t"), TERM_ONE),
            ),
        )
        for mode in (QuotientMode.OPEN, QuotientMode.SEMI_OPEN):
            out = present(p, identity_spec(dom, mode), check=False)
            assert [str(r) for r in out.relations] == [
                "dia t = 1",
                "dia a ^ dia b = dia z",
                "dia a ^ dia t = dia a",
                "dia a ^ dia z = dia z",
                "dia b ^ dia t = dia b",
                "dia b ^ dia z = dia z",
                "dia t ^ dia z = dia z",
                "dia b v dia a = dia t",
                "dia a v dia b = dia t",
                "dia a ^ dia a <= dia a",
            ]
            frame = eval_frame(out)
            assert frame.carrier.elements == ("0", "dia z", "dia a", "dia b", "1")

    def test_stripping_tags_recovers_parent_relations(self):
        p = two_point_presentation()
        parent = eval_frame(p)
        e = swap_closure_on(parent)
        ok, why, out = check_equivalence(p, parent, e, QuotientMode.OPEN)
        assert ok
        tagged = out.domain
        assert isinstance(tagged, TaggedDomain)

        def strip(term):
            return Term(
                tuple(Meet(tuple(tagged.unwrap(g) for g in cl.gens)) for cl in term.clauses)
            )

        stripped = {
            Relation(strip(r.lhs), strip(r.rhs), r.op).key() for r in out.relations
        }
        parent_keys = {Relation(normalize(r.lhs, p.domain), normalize(r.rhs, p.domain), r.op).key() for r in p.relations}
        assert parent_keys <= stripped
        # everything else is a unit relation or a pair meet relation
        for r in out.relations:
            k = Relation(strip(r.lhs), strip(r.rhs), r.op).key()
            if k in parent_keys:
                continue
            is_unit = r.rhs == TERM_ONE and len(r.lhs.clauses) == 1
            lhs_meet_pair = (
                len(r.lhs.clauses) == 1 and len(r.lhs.clauses[0].gens) <= 2
            )
            assert is_unit or lhs_meet_pair

    def test_generator_and_schema_counts(self):
        p = two_point_presentation()
        parent = eval_frame(p)
        e = swap_closure_on(parent)
        spec = spec_from_operator(parent, e, QuotientMode.OPEN)
        out = present_open(p, spec)
        assert len(out.domain.enumerate_gens()) == len(p.domain.enumerate_gens())
        assert out.schema_count() <= p.schema_count() + 3

    def test_provenance_recorded(self):
        p = two_point_presentation()
        out = present_open(p, identity_spec(p.domain, QuotientMode.OPEN))
        assert out.provenance.mode == "open"
        assert len(out.provenance.parent_hash) == 16
        assert dict(out.provenance.image)["a"] == "a"
        # memoized on the parent object, and the same for an equal parent
        assert p.memo["parent hash"] == out.provenance.parent_hash
        copy = Presentation(p.kind, p.domain, p.relations)
        assert present_open(copy, identity_spec(p.domain, QuotientMode.OPEN)).provenance == out.provenance

    def test_the_parent_hash_is_computed_when_first_read(self):
        from locale_forge.serialize import presentation_from_jsonable, presentation_to_jsonable

        p = two_point_presentation()
        out = present_open(p, identity_spec(p.domain, QuotientMode.OPEN))
        assert "parent hash" not in p.memo
        digest = out.provenance.parent_hash
        assert p.memo["parent hash"] == digest
        back = presentation_from_jsonable(presentation_to_jsonable(out))
        assert back.provenance.parent_hash == digest
        assert back.provenance == out.provenance and hash(back.provenance) == hash(out.provenance)
        assert back == out


class TestDerive:
    def test_identity_coinserter(self):
        p = two_point_presentation()
        parent = eval_frame(p)
        i = as_frame_hom(MonotoneMap(parent.carrier, parent.carrier, tuple(range(parent.carrier.n))))
        spec = derive_spec_from_coinserter(parent, i, i, QuotientMode.SEMI_OPEN)
        for g, t in spec.image:
            assert t == gen_term(g)

    def test_swap_coequaliser_gives_join_spec(self):
        p = two_point_presentation()
        parent = eval_frame(p)
        X = parent.carrier
        lab = {e: i for i, e in enumerate(X.elements)}
        swap = as_frame_hom(
            MonotoneMap(X, X, tuple(lab[{"a": "b", "b": "a"}.get(e, e)] for e in X.elements))
        )
        ident = as_frame_hom(MonotoneMap(X, X, tuple(range(X.n))))
        spec = derive_spec_from_coinserter(
            parent, ident, swap, QuotientMode.OPEN, coequaliser=True
        )
        images = dict(spec.image)
        assert images["a"] == join_of(["a", "b"])
        assert images["b"] == join_of(["a", "b"])

    def test_gluing_coinserter_gives_interior_spec(self):
        p = sierpinski_preframe()
        parent = eval_frame(p)
        X = parent.carrier
        pt = eval_frame(
            Presentation(
                PresentationKind.SUP,
                FiniteGeneratorDomain(FinitePoset.from_pairs(["one"], [])),
                (),
            )
        ).carrier
        m = parent.interp["m"]
        # f the closed point, g the open point
        fstar = as_frame_hom(
            MonotoneMap(X, pt, tuple(0 if i in (X.bottom, m) else 1 for i in range(X.n)))
        )
        gstar = as_frame_hom(
            MonotoneMap(X, pt, tuple(0 if i == X.bottom else 1 for i in range(X.n)))
        )
        spec = derive_spec_from_coinserter(parent, fstar, gstar, QuotientMode.SEMI_PROPER)
        images = dict(spec.image)
        assert images["m"] == gen_term("z")

    @staticmethod
    def chain_coequaliser(f, g):
        """The saturated preframe chain g0 < g1 < g2, its frame (carrier
        g0, g1, g2, 1) and the frame maps with tables ``f`` and ``g`` into
        the downsets {}, {a}, {a,b} of a 2-chain."""
        dom = FiniteGeneratorDomain(
            FinitePoset.from_pairs(["g0", "g1", "g2"], [(0, 1), (1, 2)]), use_join=True, use_meet=False
        )
        p = saturate(Presentation(PresentationKind.PREFRAME, dom, ()), PresentationKind.PREFRAME)
        parent = eval_frame(p)
        X, T = parent.carrier, downsets(FinitePoset.from_pairs(["a", "b"], [(0, 1)]))
        assert X.elements == ("g0", "g1", "g2", "1") and T.elements == ("{}", "{a}", "{a,b}")
        return p, parent, as_frame_hom(MonotoneMap(X, T, f)), as_frame_hom(MonotoneMap(X, T, g))

    def test_proper_coequaliser(self):
        # the one-step interior (g_* f*) ^ (f_* g*) ^ id, idempotent here;
        # a coequaliser does not depend on the order of its two maps
        p, parent, fstar, gstar = self.chain_coequaliser((0, 0, 0, 2), (0, 0, 1, 2))
        spec = derive_spec_from_coinserter(parent, fstar, gstar, QuotientMode.PROPER, coequaliser=True)
        assert dict(spec.image) == {"g0": gen_term("g0"), "g1": gen_term("g1"), "g2": gen_term("g1")}
        assert eval_frame(present(p, spec)).carrier.n == 3
        assert derive_spec_from_coinserter(parent, gstar, fstar, QuotientMode.PROPER, coequaliser=True) == spec

    def test_proper_coequaliser_that_is_not_idempotent(self):
        # the one-step interior is the procedure under the paper's side
        # condition; where it is not idempotent it is refused, not iterated
        _, parent, fstar, gstar = self.chain_coequaliser((0, 0, 1, 2), (0, 1, 2, 2))
        with pytest.raises(OperatorLawError) as exc:
            derive_spec_from_coinserter(parent, fstar, gstar, QuotientMode.PROPER, coequaliser=True)
        assert exc.value.report.witnesses == (("idempotent", ("g2",)),)

    def test_derived_fixed_points_match_coinserter_subframe(self):
        # the fixed points of the derived operator are exactly
        # {u : g*(u) <= f*(u)}, checked exhaustively on random spatial maps
        rng = random.Random(99)
        checked = 0
        for _ in range(40):
            p = rand_sup_presentation(rng)
            parent = eval_frame(p)
            X = parent.carrier
            if X.n > 24:
                continue
            q = rand_sup_presentation(rng)
            R = eval_frame(q).carrier
            # frame homs via preimages of random monotone point maps between
            # the posets of join-irreducibles are fiddly; instead sample
            # frame homs directly and keep the ones with both adjoints
            def rand_hom():
                for _ in range(30):
                    try:
                        tab = []
                        for i in range(X.n):
                            floor = R.join_all(tab[j] for j in range(i) if X.leq(j, i))
                            ups = [x for x in range(R.n) if R.leq(floor, x)]
                            tab.append(rng.choice(ups))
                        return as_frame_hom(MonotoneMap(X, R, tuple(tab)))
                    except Exception:
                        continue
                return None

            fstar, gstar = rand_hom(), rand_hom()
            if fstar is None or gstar is None:
                continue
            if left_adjoint(fstar) is None:
                continue
            try:
                spec = derive_spec_from_coinserter(parent, fstar, gstar, QuotientMode.SEMI_OPEN)
            except TransformError:
                continue
            shriek = left_adjoint(fstar)
            j = MonotoneMap(X, X, tuple(shriek(gstar(x)) for x in range(X.n)))
            c = kleene_closure(j)
            fixed = {u for u in range(X.n) if c(u) == u}
            coinserter = {u for u in range(X.n) if R.leq(gstar(u), fstar(u))}
            assert fixed == coinserter
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize(
        "mode, coequaliser, which, constant, missing",
        [
            (QuotientMode.OPEN, False, "fstar", "bottom", "f* has no left adjoint"),
            (QuotientMode.OPEN, True, "gstar", "bottom", "g* has no left adjoint"),
            (QuotientMode.PROPER, False, "gstar", "top", "g* has no right adjoint"),
            (QuotientMode.PROPER, True, "fstar", "top", "f* has no right adjoint"),
        ],
    )
    def test_a_missing_adjoint_is_named(self, mode, coequaliser, which, constant, missing):
        # the constant bottom map has no left adjoint, the constant top map
        # no right one; the other map is the identity, which has both
        parent = eval_frame(two_point_presentation())
        X = parent.carrier
        maps = {"fstar": MonotoneMap(X, X, tuple(range(X.n))), "gstar": MonotoneMap(X, X, tuple(range(X.n)))}
        maps[which] = MonotoneMap(X, X, (getattr(X, constant),) * X.n)
        with pytest.raises(TransformError, match=re.escape(f"missing adjoint: {missing}")):
            derive_spec_from_coinserter(parent, maps["fstar"], maps["gstar"], mode, coequaliser=coequaliser)

    def test_triquotient_mode_is_caller_data(self):
        p = two_point_presentation()
        parent = eval_frame(p)
        i = as_frame_hom(MonotoneMap(parent.carrier, parent.carrier, tuple(range(parent.carrier.n))))
        with pytest.raises(TransformError):
            derive_spec_from_coinserter(parent, i, i, QuotientMode.TRIQUOTIENT)


class TestMixedTriquotient:
    def test_mixed_idempotent_through_both_tri_transformers(self):
        # a retraction that deflates one chain element and inflates another:
        # neither a closure nor an interior, yet a valid triquotiency
        # assignment
        from locale_forge.lattice import check_laws
        from locale_forge.suites import check_equivalence

        dom = FiniteGeneratorDomain(
            FinitePoset.from_pairs(["z", "x", "y", "u"], [(0, 1), (1, 2), (2, 3)]),
            use_meet=True,
            use_join=True,
        )
        p = Presentation(PresentationKind.DCPO, dom, ())
        parent = eval_frame(p)
        X = parent.carrier
        z, x, y, u = (parent.interp[g] for g in ("z", "x", "y", "u"))
        table = [0] * X.n
        table[z], table[x], table[y], table[u] = z, z, u, u
        e = MonotoneMap(X, X, tuple(table))
        assert not check_laws(e, ["inflationary"]).verdict
        assert not check_laws(e, ["deflationary"]).verdict
        for mode in (QuotientMode.SEMI_TRIQUOTIENT, QuotientMode.TRIQUOTIENT):
            ok, why, out = check_equivalence(p, parent, e, mode)
            assert ok, why
            assert eval_frame(out).carrier.n == 2

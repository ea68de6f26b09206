import json

import pytest
from hypothesis import given, settings, strategies as st

from locale_forge.dsl import ParseError, parse, print_presentation, print_spec
from locale_forge.generators import FiniteGeneratorDomain
from locale_forge.intervals import (
    circle_open_presentation,
    circle_proper_presentation,
    real_presentation,
    unit_interval_presentation,
)
from locale_forge.lattice import FinitePoset, QuotientMode
from locale_forge.presentation import Presentation, PresentationError, PresentationKind, Relation
from locale_forge.terms import Meet, Term
from locale_forge.transform import QuotientSpec

from conftest import cc_shift_family


class TestParseExamples:
    def test_two_generator_presentation(self):
        p = parse("domain finite { gens a, b; } kind sup rel join(a, b) = 1")
        assert p.kind is PresentationKind.SUP
        assert p.domain.poset.elements == ("a", "b")
        assert len(p.relations) == 1
        assert str(p.relations[0]) == "a v b = 1"

    def test_include_standard_equals_builtin(self):
        assert parse("domain interval-R\nkind sup\ninclude standard\n") == real_presentation()
        assert (
            parse("domain interval-01\nkind preframe\ninclude standard\n")
            == unit_interval_presentation()
        )

    def test_malformed_relation_diagnostic(self):
        with pytest.raises(ParseError) as exc:
            parse("domain finite { gens a, b; } kind sup\nrel join(a")
        err = exc.value
        assert err.line == 2
        assert err.col >= 9  # inside the argument list of the open parenthesis
        assert err.expected

    def test_unknown_domain_diagnostic(self):
        with pytest.raises(ParseError) as exc:
            parse("domain interval-Q\nkind sup\n")
        assert "builtin" in " ".join(exc.value.expected)

    def test_terms_distribute(self):
        p = parse(
            "domain finite { gens a, b, c; leq a <= c; leq b <= c; }\n"
            "kind plain\n"
            "rel (a v b) ^ c = a v b\n"
        )
        (rel,) = p.relations
        assert rel.lhs == Term((Meet(("a", "c")), Meet(("b", "c"))))

    def test_ops_poset_suppresses_structure(self):
        p = parse("domain finite { gens a, b, t; leq a <= t; leq b <= t; ops poset }\nkind plain\n")
        assert not p.domain.has_meet and not p.domain.has_join


class TestRoundTrips:
    BUILTINS = [
        real_presentation,
        unit_interval_presentation,
        circle_open_presentation,
        circle_proper_presentation,
        lambda: circle_proper_presentation(simplify=True),
        cc_shift_family,
    ]

    @pytest.mark.parametrize("make", BUILTINS)
    def test_builtin_text_round_trip(self, make):
        obj = make()
        back = parse(print_presentation(obj))
        assert back.kind == obj.kind
        assert back.domain == obj.domain
        assert tuple(back.relations) == tuple(obj.relations)

    def test_spec_round_trip(self):
        src = (
            "domain finite { gens a, b, c; leq a <= c; leq b <= c; }\n"
            "quotient semi-open\n"
            "image a = a v b\nimage b = a v b\nimage c = c\n"
        )
        spec = parse(src)
        assert isinstance(spec, QuotientSpec)
        assert parse(print_spec(spec)) == spec

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_presentation_round_trip(self, seed):
        import random

        from locale_forge.suites import rand_sup_presentation

        rng = random.Random(seed)
        p = rand_sup_presentation(rng)
        back = parse(print_presentation(p))
        assert back.kind == p.kind
        assert back.domain == p.domain
        assert tuple(back.relations) == tuple(p.relations)

    def test_unprintable_label_is_rejected(self):
        dom = FiniteGeneratorDomain(FinitePoset.from_pairs(["0", "x"], [(0, 1)]))
        p = Presentation(PresentationKind.PLAIN, dom, ())
        with pytest.raises(PresentationError):
            print_presentation(p)


class TestSketchLines:
    def test_schema_sketch_line_parses(self):
        # the documented schema shape, verbatim
        p = parse(
            "domain interval-R\nkind sup\n"
            "schema (p, q, p', q') where p <= p' & p' < q & q <= q' : "
            "OI(p, q) v OI(p', q') = OI(p, q')\n"
        )
        (schema,) = p.relations
        assert schema.params == ("p", "q", "p'", "q'")
        assert len(schema.conds) == 3

    def test_nat_reverse_domain_parses(self):
        p = parse("domain nat-reverse\nkind plain\nrel N(<=3) <= N(all)\n")
        (rel,) = p.relations
        assert str(rel) == "N(<=3) <= N(all)"

    def test_preframe_round_trip_random(self):
        import random

        from locale_forge.suites import rand_dcpo_presentation, rand_preframe_presentation

        rng = random.Random(17)
        for make in (rand_preframe_presentation, rand_dcpo_presentation):
            for _ in range(5):
                p = make(rng)
                back = parse(print_presentation(p))
                assert back.kind == p.kind
                assert back.domain == p.domain
                assert tuple(back.relations) == tuple(p.relations)


DIAMOND = "gens z, a, b, t; leq z <= a; leq z <= b; leq a <= t; leq b <= t"


class TestFiniteDeclarations:
    """The finite block's declared operations, top and bottom are checked
    against the order they are declared over."""

    def test_declarations_that_hold_parse(self):
        p = parse(f"domain finite {{ {DIAMOND}; meet a b = z; join a b = t; top t; bottom z }}\nkind plain\n")
        d = p.domain
        assert (d.meet("a", "b"), d.join("a", "b"), d.top(), d.bottom()) == ("z", "t", "t", "z")

    @pytest.mark.parametrize(
        "decl, message",
        [
            ("top a", "declared top 'a' is not the greatest element"),
            ("bottom t", "declared bottom 't' is not the least element"),
        ],
    )
    def test_a_wrong_top_or_bottom_is_refused(self, decl, message):
        with pytest.raises(PresentationError, match=message):
            parse(f"domain finite {{ {DIAMOND}; {decl} }}\nkind plain\n")

    def test_the_meet_call_syntax(self):
        # over a bare poset the meet stays formal; over a meet-semilattice
        # it folds to the glb
        bare = parse("domain finite { gens a, b, c; ops poset }\nkind plain\nrel meet(a v b, c) <= a\n")
        assert bare.relations[0].lhs == Term((Meet(("a", "c")), Meet(("b", "c"))))
        folded = parse(f"domain finite {{ {DIAMOND}; ops meet }}\nkind sup\nrel meet(a, b) = 0\n")
        assert str(folded.relations[0]) == "z = 0"


class TestOffsetsAndNatReverse:
    OFFSETS = (
        "domain interval-R\nkind sup\n"
        "schema (p, q) where p < q : OI(p+1, q-1) <= bigvee n in Z . OI(p+n-1, q+n+2)\n"
        "schema () : OI(0+1, 2) <= bigvee n in Z . OI(0+n, 1+n)\n"
    )
    NAT = (
        "domain nat-reverse\nkind plain\n"
        "rel N(<=1) v N(<=3) = N(<=3)\nrel N(all) = 1\nrel N() = 0\nrel N(<=2) v N(all) <= N(<=5)\n"
    )

    @pytest.mark.parametrize("text", [OFFSETS, NAT], ids=["offsets", "nat-reverse"])
    def test_text_and_json_round_trips(self, text):
        from locale_forge import serialize

        p = parse(text)
        assert print_presentation(p) == text
        assert parse(text) == p
        assert serialize.presentation_from_jsonable(json.loads(json.dumps(serialize.presentation_to_jsonable(p)))) == p

    def test_the_offsets_are_read(self):
        schema = parse(self.OFFSETS).relations[0]
        (lhs,) = schema.lhs.clauses[0].meet
        (rhs,) = schema.rhs.clauses[0].meet
        assert [(e.param, e.with_index, e.offset) for e in lhs.args + rhs.args] == [
            ("p", False, 1),
            ("q", False, -1),
            ("p", True, -1),
            ("q", True, 2),
        ]

    def test_the_nat_reverse_operations(self):
        from locale_forge.intervals import NatReverseDomain

        d = NatReverseDomain()
        assert (d.meet("N(<=2)", "N(all)"), d.join("N(<=2)", "N(<=5)")) == ("N(<=2)", "N(<=5)")
        assert (d.top(), d.bottom()) == ("N(all)", "N()")
        keys = ["N(all)", "N(<=10)", "N()", "N(<=2)"]
        assert sorted(keys, key=d.sort_key) == ["N()", "N(<=2)", "N(<=10)", "N(all)"]
        assert d.descriptor() == {"type": "nat-reverse"}

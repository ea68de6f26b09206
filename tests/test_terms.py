from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from locale_forge.generators import FiniteGeneratorDomain
from locale_forge.intervals import OpenIntervalDomain
from locale_forge.lattice import FinitePoset
from locale_forge.presentation import instance_kernel
from locale_forge.terms import (
    Meet,
    Term,
    TERM_ONE,
    TERM_ZERO,
    TermError,
    gen_term,
    join_of,
    meet_of,
    normalize,
)


@pytest.fixture
def diamond():
    poset = FinitePoset.from_pairs(["z", "a", "b", "t"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    return FiniteGeneratorDomain(poset, use_meet=True, use_join=False)


class TestNormalize:
    def test_idempotent_join(self, diamond):
        t = normalize(Term((Meet(("a",)), Meet(("a",)))), diamond)
        assert t == gen_term("a")

    def test_unit_absorption(self, diamond):
        # (a ^ 1) v 0 -> a
        raw = Term((Meet(("a",)) , ))
        t = normalize(Term((Meet(("a",)),)), diamond)
        assert t == gen_term("a")
        t2 = normalize(Term((Meet(()),) ), diamond)
        assert t2 == TERM_ONE
        t3 = normalize(Term(()), diamond)
        assert t3 == TERM_ZERO

    def test_meet_folds_through_domain(self, diamond):
        t = normalize(meet_of(["a", "b"]), diamond)
        assert t == gen_term("z")

    def test_interval_meet_folds(self):
        dom = OpenIntervalDomain()
        t = normalize(meet_of(["OI(0,1)", "OI(1/2,2)"]), dom)
        assert t == gen_term("OI(1/2,1)")

    def test_no_fold_keeps_formal_meets(self, diamond):
        t = normalize(meet_of(["a", "b"]), diamond, fold_meets=False)
        assert t == Term((Meet(("a", "b")),))

    def test_foreign_generator_rejected(self, diamond):
        with pytest.raises(TermError):
            normalize(gen_term("nope"), diamond)

    def test_one_clause_absorbs_join(self, diamond):
        t = normalize(Term((Meet(("a",)), Meet(()))), diamond)
        assert t == TERM_ONE

    @given(
        st.lists(
            st.lists(st.sampled_from(["z", "a", "b", "t"]), min_size=0, max_size=3),
            min_size=0,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_normalize_idempotent(self, meets):
        poset = FinitePoset.from_pairs(["z", "a", "b", "t"], [(0, 1), (0, 2), (1, 3), (2, 3)])
        dom = FiniteGeneratorDomain(poset, use_meet=True, use_join=False)
        t = Term(tuple(Meet(tuple(m)) for m in meets))
        for fold in (True, False):
            once = normalize(t, dom, fold)
            assert normalize(once, dom, fold) == once

    def test_order_respecting(self, diamond):
        # a v z dominates a syntactically, and both normalized forms keep that
        s = normalize(join_of(["a", "z"]), diamond)
        t = normalize(join_of(["a", "b"]), diamond)
        kernel = instance_kernel(diamond)
        assert kernel.free_leq(kernel.side(s), kernel.side(t))

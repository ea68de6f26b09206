import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from locale_forge.generators import FiniteGeneratorDomain
from locale_forge.intervals import OpenIntervalDomain
from locale_forge.lattice import FinitePoset, subset_poset, unions
from locale_forge.presentation import instance_kernel
from locale_forge.terms import (
    Meet,
    Term,
    TERM_ONE,
    TERM_ZERO,
    TermError,
    gen_term,
    join_of,
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
        t = normalize(Term((Meet(("a", "b")),)), diamond)
        assert t == gen_term("z")

    def test_interval_meet_folds(self):
        dom = OpenIntervalDomain()
        t = normalize(Term((Meet(("OI(0,1)", "OI(1/2,2)")),)), dom)
        assert t == gen_term("OI(1/2,1)")

    def test_no_fold_keeps_formal_meets(self, diamond):
        t = normalize(Term((Meet(("a", "b")),)), diamond, fold_meets=False)
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


def sixteen_generators(use_meet: bool) -> FiniteGeneratorDomain:
    """The downsets of a 4-antichain named g0..g15, so that g10 sorts
    before g2: a distributive lattice, with its meet declared or not."""
    masks = unions([1, 2, 4, 8], 16, "test lattice")
    return FiniteGeneratorDomain(subset_poset(masks, lambda m: f"g{masks.index(m)}"), use_meet=use_meet)


SIXTEEN = [f"g{i}" for i in range(16)]


class TestKernelSides:
    """A side is ``normalize`` on clause masks, and ``term`` turns it back
    into the same canonical term, over names whose string order is not
    their numeric order."""

    @given(st.lists(st.lists(st.sampled_from(SIXTEEN), max_size=3), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_term_of_side_is_the_normal_form(self, clauses):
        t = Term(tuple(Meet(tuple(c)) for c in clauses))
        for use_meet in (True, False):
            dom = sixteen_generators(use_meet)
            kernel = instance_kernel(dom)
            for fold in (True, False):
                assert kernel.term(kernel.side(t, fold)) == normalize(t, dom, fold)

    def test_formal_meets_keep_their_generators(self):
        dom = sixteen_generators(use_meet=True)
        kernel = instance_kernel(dom)
        t = Term((Meet(("g2", "g10")), Meet(("g3",)), Meet(("g10", "g2", "g10"))))
        assert kernel.term(kernel.side(t)) == normalize(t, dom, False)
        assert str(kernel.term(kernel.side(t))) == "g10 ^ g2 v g3"
        assert str(kernel.term(kernel.side(t, fold=True))) == str(normalize(t, dom, True))

    def test_zero_and_one(self):
        kernel = instance_kernel(sixteen_generators(use_meet=True))
        assert kernel.side(TERM_ZERO) == () and kernel.term(()) == TERM_ZERO
        assert kernel.side(TERM_ONE) == (0,) and kernel.term((0,)) == TERM_ONE
        assert kernel.side(Term((Meet(("g10",)), Meet(())))) == (0,)

    def test_a_foreign_generator_is_a_term_error(self, diamond):
        with pytest.raises(TermError, match="generator 'nope' does not belong"):
            instance_kernel(diamond).side(gen_term("nope"))


# ---------------------------------------------------------------------------
# compiled side conditions against a Fraction reference


from locale_forge.rationals import NEG_INF, POS_INF, rat
from locale_forge.terms import Cond, EAtom, EOp, econst, eparam

COND_PARAMS = ("p", "q", "p'", "q'")
COND_OPS = ("<", "<=", "=", "!=", ">", ">=")
COND_VALUES = [NEG_INF, POS_INF] + [rat(Fraction(a, b)) for a in range(-4, 5) for b in (1, 2, 3)]


def ref_value(e, env, n):
    """An endpoint expression as (sign, Fraction), which orders as the
    extended rationals do; raises where the family index is needed and
    missing."""
    if isinstance(e, EOp):
        l, r = ref_value(e.left, env, n), ref_value(e.right, env, n)
        return max(l, r) if e.op == "max" else min(l, r)
    x = env[e.param] if e.param is not None else e.const
    sign, value = x.sign, x.value
    if e.with_index and n is None:
        raise TermError("family index not bound")
    shift = e.offset + (n if e.with_index else 0)
    return (sign, value + shift) if sign == 0 else (sign, Fraction(0))


def ref_holds(c, env, n):
    left = [ref_value(e, env, n) for e in c.left]
    right = [ref_value(e, env, n) for e in c.right]
    if c.op == "pairneq":
        return left != right
    a, b = left[0], right[0]
    return {"<": a < b, "<=": a <= b, "=": a == b, "!=": a != b, ">": a > b, ">=": a >= b}[c.op]


def rand_atom(rng):
    with_index = rng.random() < 0.25
    offset = rng.choice((0, 0, 0, -2, -1, 1, 3))
    if rng.random() < 0.3:
        return econst(rng.choice(COND_VALUES), offset, with_index)
    return eparam(rng.choice(COND_PARAMS), offset, with_index)


def rand_endpoint(rng, depth=0):
    if depth < 2 and rng.random() < 0.3:
        return EOp(rng.choice(("max", "min")), rand_endpoint(rng, depth + 1), rand_endpoint(rng, depth + 1))
    return rand_atom(rng)


def rand_condition(rng):
    if rng.random() < 0.2:
        return Cond("pairneq", (rand_endpoint(rng), rand_endpoint(rng)), (rand_endpoint(rng), rand_endpoint(rng)))
    return Cond(rng.choice(COND_OPS), (rand_endpoint(rng),), (rand_endpoint(rng),))


class TestCompiledConditions:
    def test_against_the_fraction_reference(self):
        """Each condition, through ``holds`` and through one compiled form
        used for many environments, agrees with the reference, including
        where both raise for a missing family index."""
        rng = random.Random(2024)
        verdicts, errors = set(), 0
        for _ in range(600):
            c = rand_condition(rng)
            test = c.compiled()
            for _ in range(8):
                env = {name: rng.choice(COND_VALUES) for name in COND_PARAMS}
                n = rng.choice((None, -3, -1, 0, 1, 2))
                try:
                    want = ref_holds(c, env, n)
                except TermError as exc:
                    assert str(exc) == "family index not bound"
                    for run in (test, c.holds):
                        with pytest.raises(TermError, match="family index not bound"):
                            run(env, n)
                    errors += 1
                    continue
                assert test(env, n) is want and c.holds(env, n) is want, (str(c), env, n)
                verdicts.add((c.op, want))
        assert errors > 100
        assert verdicts == {(op, v) for op in COND_OPS + ("pairneq",) for v in (True, False)}

    def test_compiled_endpoints_match_evaluate(self):
        rng = random.Random(7)
        for _ in range(400):
            e = rand_endpoint(rng)
            env = {name: rng.choice(COND_VALUES) for name in COND_PARAMS}
            n = rng.choice((-2, 0, 1, 5))
            got = e.compiled()(env, n)
            assert got == e.evaluate(env, n)
            assert (got.sign, got.value) == ref_value(e, env, n)

    def test_an_unshifted_atom_is_its_base(self):
        env = {"p": rat(Fraction(1, 3)), "q": POS_INF}
        assert eparam("p").evaluate(env) is env["p"]
        assert eparam("q", 2).evaluate(env) is POS_INF
        assert eparam("p", with_index=True).evaluate(env, 0) is env["p"]
        const = EAtom(None, rat(2))
        assert const.evaluate({}) is const.const

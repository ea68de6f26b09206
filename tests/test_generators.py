import itertools
import random

import pytest

from locale_forge.dsl import parse
from locale_forge.generators import (
    DomainError,
    FiniteGeneratorDomain,
    TaggedDomain,
    _intern,
    domain_from_descriptor,
    finite_domain,
)
from locale_forge.lattice import FinitePoset, QuotientMode
from locale_forge.presentation import PresentationError, _restrict_domain
from locale_forge.suites import (
    rand_distributive_domain,
    rand_join_semilattice_domain,
    rand_meet_semilattice_domain,
)

from test_presentation import WrongMeetChain


def lattice_domain(elements, pairs):
    return FiniteGeneratorDomain(FinitePoset.from_pairs(elements, pairs), use_meet=True, use_join=True)


def distributive_by_strings(dom) -> bool:
    """All-triples check through the string-level meet and join."""
    els = dom.poset.elements
    return all(
        dom.meet(a, dom.join(b, c)) == dom.join(dom.meet(a, b), dom.meet(a, c))
        for a, b, c in itertools.product(els, repeat=3)
    )


def subset_lattice_domain(family):
    """The subsets in ``family`` ordered by inclusion; the family must make
    a lattice."""
    ordered = sorted(family, key=lambda m: (bin(m).count("1"), m))
    pairs = [(i, j) for i, a in enumerate(ordered) for j, b in enumerate(ordered) if a & ~b == 0]
    return lattice_domain([f"s{m}" for m in ordered], pairs)


def rand_lattice_domain(rng: random.Random):
    """Random intersection-closed families on a 4-point set with the empty
    and the full set: lattices, distributive or not."""
    full = (1 << 4) - 1
    family = {0, full} | {rng.randrange(full + 1) for _ in range(rng.randint(1, 5))}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(family), 2):
            if a & b not in family:
                family.add(a & b)
                changed = True
    return subset_lattice_domain(family)


class TestDistributiveLattice:
    def test_m3_and_n5_are_not_distributive(self):
        m3 = lattice_domain(["0", "a", "b", "c", "1"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        n5 = lattice_domain(["0", "a", "b", "c", "1"], [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
        assert m3.meet_semilattice and m3.join_semilattice
        assert n5.meet_semilattice and n5.join_semilattice
        assert m3.distributive_lattice is False
        assert n5.distributive_lattice is False

    @pytest.mark.parametrize("k", range(5))
    def test_powersets_and_chains_are_distributive(self, k):
        assert subset_lattice_domain(range(1 << k)).distributive_lattice is True
        n = k + 1
        chain = lattice_domain([f"c{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
        assert chain.distributive_lattice is True

    def test_agrees_with_string_level_oracle(self):
        verdicts = []
        for seed in range(150):
            for dom in (rand_distributive_domain(random.Random(seed)), rand_lattice_domain(random.Random(seed))):
                want = distributive_by_strings(dom)
                assert dom.distributive_lattice is want, (seed, dom.descriptor())
                verdicts.append(want)
        assert True in verdicts and False in verdicts


def sorted_up_masks(domain):
    """The reference for ``sorted_poset``: the generators in ``sort_key``
    order and each one's up-mask, by a ``leq`` call on every pair."""
    gens = sorted(domain.enumerate_gens(), key=domain.sort_key)
    return gens, [sum(1 << j for j, b in enumerate(gens) if domain.leq(a, b)) for a in gens]


def rand_labelled_domain(rng: random.Random) -> FiniteGeneratorDomain:
    """A random poset whose labels are not listed in sorted order."""
    n = rng.randint(1, 9)
    labels = rng.sample([f"x{i}" for i in range(12)], n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    return FiniteGeneratorDomain(FinitePoset.from_pairs(labels, pairs))


class TestSortedPoset:
    def test_agrees_with_leq_on_every_pair(self):
        reordered = 0
        for seed in range(60):
            rng = random.Random(seed)
            draws = (rand_distributive_domain, rand_meet_semilattice_domain, rand_join_semilattice_domain, rand_labelled_domain)
            for base in (draw(rng) for draw in draws):
                for dom in (base, TaggedDomain("dia", base), TaggedDomain("box", base)):
                    P = dom.sorted_poset
                    gens, up = sorted_up_masks(dom)
                    assert P.elements == tuple(gens) and P.up == tuple(up), (seed, dom.descriptor())
                    assert P.down == FinitePoset(P.elements, P.up).down
                reordered += base.sorted_poset.elements != base.poset.elements
        assert reordered > 0

    def test_cached_per_object(self):
        dom = rand_labelled_domain(random.Random(5))
        assert dom.sorted_poset is dom.sorted_poset


class TestTaggedDomainTags:
    @pytest.mark.parametrize("mode", list(QuotientMode), ids=lambda m: m.value)
    def test_each_mode_tag_is_accepted(self, mode):
        dom = TaggedDomain(mode.info.family.tag, lattice_domain(["a"], []))
        assert dom.enumerate_gens() == [f"{mode.info.family.tag} a"]

    @pytest.mark.parametrize("tag", ["", "open", "Dia", "diamond", "box "])
    def test_any_other_tag_is_rejected(self, tag):
        with pytest.raises(DomainError, match="unknown generator tag"):
            TaggedDomain(tag, lattice_domain(["a"], []))


class TestDomainEquality:
    def test_a_domain_equals_itself_without_building_a_descriptor(self, monkeypatch):
        dom = lattice_domain(["z", "a", "t"], [(0, 1), (1, 2)])
        built = []
        descriptor = FiniteGeneratorDomain.descriptor
        monkeypatch.setattr(FiniteGeneratorDomain, "descriptor", lambda self: built.append(self) or descriptor(self))
        assert dom == dom and not dom != dom
        assert built == []
        # a distinct but equal domain still compares by descriptor
        twin = lattice_domain(["z", "a", "t"], [(0, 1), (1, 2)])
        assert dom == twin and built == [dom, twin]
        assert dom != lattice_domain(["z", "a", "t"], [(0, 2), (2, 1)])


# the structure is named, as a descriptor names it, so the text and the
# descriptor ask for the same domain
DIAMOND = "domain finite { gens z, a, b, t; leq z <= a; leq z <= b; leq a <= t; leq b <= t; ops meet }\nkind sup\n"


class TestIntern:
    """``finite_domain`` hands out one object per domain value, at every
    site that builds one, and keeps a bounded number of them."""

    @pytest.mark.parametrize(
        "draw", [rand_meet_semilattice_domain, rand_join_semilattice_domain, rand_distributive_domain]
    )
    def test_equal_random_draws_are_one_object(self, draw):
        for seed in range(20):
            first = draw(random.Random(seed))
            assert draw(random.Random(seed)) is first
            assert domain_from_descriptor(first.descriptor()) is first

    def test_equal_restrictions_are_one_object(self):
        for seed in range(20):
            dom = rand_distributive_domain(random.Random(seed))
            pool = set(random.Random(seed).sample(dom.enumerate_gens(), 1))
            restricted = _restrict_domain(dom, pool)
            assert _restrict_domain(dom, set(pool)) is restricted
            assert _restrict_domain(TaggedDomain("dia", dom), {f"dia {g}" for g in pool}).parent is restricted

    def test_equal_texts_parse_to_one_domain(self):
        first = parse(DIAMOND).domain
        assert parse(DIAMOND).domain is first
        assert domain_from_descriptor(first.descriptor()) is first
        tagged = parse(DIAMOND.replace("domain finite", "domain tagged dia finite")).domain
        assert tagged.parent is first
        assert parse(DIAMOND.replace("domain finite", "domain tagged dia finite")).domain is tagged

    def test_declared_operations_are_never_merged_with_a_plain_domain(self):
        declared = parse(DIAMOND.replace("ops meet", "meet a b = z; ops meet")).domain
        plain = parse(DIAMOND).domain
        assert declared == plain and declared is not plain
        assert parse(DIAMOND.replace("ops meet", "meet a b = z; ops meet")).domain is declared
        # a conflicting declaration is checked at every call
        for _ in range(2):
            with pytest.raises(DomainError, match="declared meet a b = a conflicts"):
                parse(DIAMOND.replace("ops meet", "meet a b = a; ops meet"))

    def test_a_subclass_is_never_merged_with_a_plain_domain(self):
        wrong = WrongMeetChain()
        plain = finite_domain(wrong.poset, True, False)
        assert type(plain) is FiniteGeneratorDomain and plain is not wrong
        assert (wrong.meet("a", "b"), plain.meet("a", "b")) == ("z", "a")
        assert finite_domain(WrongMeetChain().poset, True, False) is plain
        # the restriction of the subclass is checked against its own meet,
        # although the plain chain that the restriction builds is interned
        for _ in range(2):
            with pytest.raises(PresentationError, match="not closed compatibly at 'a','b'"):
                _restrict_domain(WrongMeetChain(), {"a", "b"})

    def test_the_least_recently_used_domain_is_evicted_past_the_bound(self):
        bound = _intern.cache_parameters()["maxsize"]
        fresh = iter(FinitePoset((f"lru{i}",), (1,)) for i in itertools.count())
        kept = finite_domain(next(fresh))
        for _ in range(bound - 1):
            finite_domain(next(fresh))
        # the table is full with ``kept`` least recent; using it again saves
        # it from the next eviction
        assert finite_domain(kept.poset) is kept
        finite_domain(next(fresh))
        assert finite_domain(kept.poset) is kept
        assert _intern.cache_info().currsize == bound
        for _ in range(bound):
            finite_domain(next(fresh))
        back = finite_domain(kept.poset)
        assert back is not kept and back == kept

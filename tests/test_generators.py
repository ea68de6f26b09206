import itertools
import random

import pytest

from locale_forge.generators import DomainError, FiniteGeneratorDomain, TaggedDomain
from locale_forge.lattice import FinitePoset, QuotientMode
from locale_forge.suites import (
    rand_distributive_domain,
    rand_join_semilattice_domain,
    rand_meet_semilattice_domain,
)


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

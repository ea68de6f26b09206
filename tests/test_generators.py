import itertools
import random

import pytest

from locale_forge.generators import FiniteGeneratorDomain
from locale_forge.lattice import FinitePoset
from locale_forge.suites import rand_distributive_domain


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

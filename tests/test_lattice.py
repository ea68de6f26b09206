import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from locale_forge.lattice import (
    FiniteLattice,
    FinitePoset,
    InvalidPosetError,
    LatticeError,
    MonotoneMap,
    NotALatticeError,
    OperatorLawError,
    as_frame_hom,
    classify_open,
    classify_proper,
    downsets,
    is_distributive_lattice,
    join_irreducibles,
    left_adjoint,
    maximal,
    missing_bound,
    poset_isomorphism,
    recheck_witness,
    right_adjoint,
    subset_lattice,
    unions,
)

from conftest import assert_held_as_its_subset_lattice, galois_left_oracle, galois_right_oracle


def rand_poset(seed: int, n: int) -> FinitePoset:
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return FinitePoset.from_pairs([f"e{i}" for i in range(n)], pairs)


def reachability(n: int, pairs) -> list[set[int]]:
    """For each element, every element a path of ``pairs`` reaches from
    it, itself included, by breadth-first search."""
    succ = [[] for _ in range(n)]
    for i, j in pairs:
        succ[i].append(j)
    out = []
    for start in range(n):
        seen, queue = {start}, deque([start])
        while queue:
            for j in succ[queue.popleft()]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        out.append(seen)
    return out


def bits_of(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class TestPoset:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvalidPosetError):
            FinitePoset.from_pairs(["a", "a"], [])

    def test_rejects_cycles(self):
        with pytest.raises(InvalidPosetError):
            FinitePoset.from_pairs(["a", "b"], [(0, 1), (1, 0)])

    def test_transitive_closure_taken(self):
        p = FinitePoset.from_pairs(["a", "b", "c"], [(0, 1), (1, 2)])
        assert p.leq(0, 2)

    def test_the_closure_is_reachability(self):
        """``from_pairs`` against breadth-first reachability, on chains,
        reversed chains and random relations of 50-200 elements, with and
        without cycles; a cyclic input names the first pair, by index, of
        distinct elements each reachable from the other."""
        outcomes = []
        for seed in range(48):
            rng = random.Random(seed)
            n, shape = rng.randint(50, 200), seed % 4
            if shape < 2:
                pairs = [(i, i + 1) if shape == 0 else (i + 1, i) for i in range(n - 1)]
            else:
                pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(n // 2, 2 * n))]
                if shape == 2:  # every pair upward: no cycle
                    pairs = [(min(p), max(p)) for p in pairs]
            rng.shuffle(pairs)
            reach = reachability(n, pairs)
            labels = [f"x{i}" for i in range(n)]
            cycle = next(((i, j) for i in range(n) for j in sorted(reach[i]) if i != j and i in reach[j]), None)
            if cycle is None:
                assert [set(bits_of(m)) for m in FinitePoset.from_pairs(labels, pairs).up] == reach
            else:
                with pytest.raises(InvalidPosetError) as info:
                    FinitePoset.from_pairs(labels, pairs)
                assert str(info.value) == f"antisymmetry fails: {labels[cycle[0]]!r} and {labels[cycle[1]]!r}"
            outcomes.append((shape, cycle is None))
        assert {(0, True), (1, True), (2, True), (3, False)} <= set(outcomes)

    def test_not_a_lattice(self):
        # two maximal elements: no top
        p = FinitePoset.from_pairs(["a", "b"], [])
        with pytest.raises(NotALatticeError):
            FiniteLattice.from_poset(p)


class TestDownsets:
    def test_antichain_gives_boolean(self):
        lat = downsets(FinitePoset.from_pairs(["a", "b"], []))
        assert lat.elements == ("{}", "{a}", "{b}", "{a,b}")
        assert lat.frame

    def test_chain_gives_chain(self):
        lat = downsets(FinitePoset.from_pairs(["a", "b"], [(0, 1)]))
        assert lat.elements == ("{}", "{a}", "{a,b}")

    def test_vee_poset(self):
        # derived by enumerating down-closed subsets directly
        p = FinitePoset.from_pairs(["a", "b", "c"], [(0, 2), (1, 2)])
        expected = set()
        for k in range(4):
            for sub in itertools.combinations(range(3), k):
                s = set(sub)
                if all(j in s for i in s for j in range(3) if p.leq(j, i)):
                    expected.add(frozenset(s))
        lat = downsets(p)
        assert lat.n == len(expected) == 5

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_downsets_always_a_frame(self, seed):
        lat = downsets(rand_poset(seed, 1 + seed % 5))
        assert lat.frame

    def test_cap_counts_every_downset(self):
        antichain = FinitePoset.from_pairs([f"a{i}" for i in range(4)], [])
        assert downsets(antichain, cap=1 << 4).n == 1 << 4
        with pytest.raises(LatticeError, match="downset lattice exceeds oracle scale"):
            downsets(antichain, cap=(1 << 4) - 1)


class TestOfDownsets:
    """``FiniteLattice.of_downsets`` holds a downset frame as its downsets;
    its frame check is exact and can fail."""

    @pytest.mark.parametrize("seed", range(35))
    def test_random_posets_are_held_as_their_subset_lattices(self, seed):
        q = rand_poset(seed, seed % 7)
        masks = unions(q.down, 1 << 7, "downsets")
        # a label by size only, so that the shared prime rule names them
        assert_held_as_its_subset_lattice(q.down, masks, lambda m: f"d{m.bit_count()}")

    @pytest.mark.parametrize(
        "q_down, masks",
        [
            ([0b001, 0b010, 0b100], [0, 0b001, 0b010, 0b100, 0b111]),  # M3: 5 of the 3-antichain's 8 downsets
            ([0b01, 0b10], [0, 0b01, 0b10, 0b11, 0b11]),
            ([0b011, 0b110, 0b100], [0, 0b100, 0b011, 0b110, 0b111]),  # 2 <= 1 <= 0 without 2 <= 0
            ([0b10, 0b10], [0, 0b10]),  # point 0 is not in its own downset
            ([0b11], [0, 0b11]),  # a downset holding a point that Q lacks
        ],
        ids=["M3", "repeated-mask", "not-transitive", "not-reflexive", "out-of-range"],
    )
    def test_a_family_that_is_not_the_downsets_of_an_order_fails_the_frame_check(self, q_down, masks):
        with pytest.raises(LatticeError, match="downset lattice failed the frame check"):
            FiniteLattice.of_downsets(q_down, masks, str)

    def test_the_unions_of_a_relation_that_is_no_order_need_not_be_distributive(self):
        # the not-transitive case above: its unions, under inclusion, are N5
        assert not subset_lattice([0, 0b100, 0b011, 0b110, 0b111], str).distributive


def subset_poset(masks: list[int]) -> FinitePoset:
    """A family of sets (bitmasks) ordered by inclusion."""
    return FinitePoset.from_pairs(
        [f"s{m}" for m in masks],
        [(i, j) for i, a in enumerate(masks) for j, b in enumerate(masks) if a & ~b == 0],
    )


def brute_force_lattice(masks: list[int]):
    """Meet and join tables of a family of sets under inclusion, read off
    the common lower and upper bounds, and distributivity by the cubic
    a∧(b∨c) = (a∧b)∨(a∧c) scan; ``None`` when some meet or join is missing."""
    n = len(masks)
    sub = lambda x, y: masks[x] & ~masks[y] == 0

    def extreme(cands, above):
        # the candidate every other candidate lies below (above=True) or over
        for c in cands:
            if all(sub(d, c) if above else sub(c, d) for d in cands):
                return c
        return None

    meet, join = {}, {}
    for a in range(n):
        for b in range(n):
            meet[a, b] = extreme([x for x in range(n) if sub(x, a) and sub(x, b)], True)
            join[a, b] = extreme([x for x in range(n) if sub(a, x) and sub(b, x)], False)
            if meet[a, b] is None or join[a, b] is None:
                return None
    distributive = all(
        meet[a, join[b, c]] == join[meet[a, b], meet[a, c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )
    return meet, join, distributive


def rand_family(rng: random.Random) -> list[int]:
    k = rng.randint(2, 5)
    fam = {rng.getrandbits(k) for _ in range(rng.randint(1, 12))}
    if rng.random() < 0.5:
        # closed under intersection, plus the whole set: always a lattice
        fam.add((1 << k) - 1)
        while True:
            extra = {a & b for a in fam for b in fam} - fam
            if not extra:
                break
            fam |= extra
    return sorted(fam)


def m3_on_powerset(k: int, tail: list[tuple[int, int]]) -> FinitePoset:
    """The 2**k powerset, then three elements a, b, c above the full set
    (ordered among themselves by ``tail``, pairs of indices 0..2), then a
    new top: the ordinal sum 2**k ⊕ (a, b, c) ⊕ 1."""
    full = (1 << k) - 1
    labels = [f"s{m}" for m in range(1 << k)] + ["a", "b", "c", "top"]
    a = 1 << k
    pairs = [(m, m | (1 << i)) for m in range(1 << k) for i in range(k) if not m >> i & 1]
    pairs += [(full, a + x) for x in range(3)] + [(a + x, a + 3) for x in range(3)]
    pairs += [(a + x, a + y) for x, y in tail]
    return FinitePoset.from_pairs(labels, pairs)


class TestExactKernel:
    def test_agrees_with_brute_force_on_random_families(self):
        rng = random.Random(20240611)
        outcomes = {"distributive": 0, "not distributive": 0, "not a lattice": 0}
        for _ in range(300):
            masks = rand_family(rng)
            expected = brute_force_lattice(masks)
            if expected is None:
                with pytest.raises(NotALatticeError):
                    FiniteLattice.from_poset(subset_poset(masks))
                outcomes["not a lattice"] += 1
                continue
            meet, join, distributive = expected
            lat = FiniteLattice.from_poset(subset_poset(masks))
            assert lat.distributive is distributive, masks
            for (a, b), m in meet.items():
                assert lat.meet(a, b) == m and lat.join(a, b) == join[a, b], masks
            outcomes["distributive" if distributive else "not distributive"] += 1
        # the sample reaches every verdict
        assert min(outcomes.values()) >= 20, outcomes

    def test_m3_and_n5_are_not_distributive(self):
        m3 = FinitePoset.from_pairs(list("0abc1"), [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        n5 = FinitePoset.from_pairs(list("0acb1"), [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
        for p in (m3, n5):
            lat = FiniteLattice.from_poset(p)
            assert not lat.distributive and not lat.frame

    @pytest.mark.parametrize("k", range(6))
    def test_powersets_and_chains_are_distributive(self, k):
        power = FiniteLattice.from_poset(subset_poset(list(range(1 << k))))
        chain = FiniteLattice.from_poset(subset_poset([(1 << i) - 1 for i in range(k + 1)]))
        assert power.distributive and chain.distributive
        assert join_irreducibles(power.poset) == [power.poset.index(f"s{1 << i}") for i in range(k)]
        assert join_irreducibles(chain.poset) == list(range(1, k + 1))

    def test_m3_above_a_large_powerset_is_caught(self):
        # 516 elements whose only distributivity failures involve a, b, c at
        # indices 512..514: a check that samples triples can miss them all
        lat = FiniteLattice.from_poset(m3_on_powerset(9, []))
        assert lat.n == 516
        assert lat.distributive is False
        a, b, c = (lat.poset.index(x) for x in "abc")
        assert lat.meet(a, lat.join(b, c)) == a
        assert lat.join(lat.meet(a, b), lat.meet(a, c)) == lat.poset.index("s511")

    def test_chain_above_a_large_powerset_is_distributive(self):
        lat = FiniteLattice.from_poset(m3_on_powerset(9, [(0, 1), (1, 2)]))
        assert lat.n == 516 and lat.distributive


class TestMaskVocabulary:
    """``unions``, ``maximal`` and ``mask_table`` against their quadratic or
    exponential definitions, on seeded random posets."""

    def test_unions_of_principal_downsets_are_the_downsets(self):
        for seed in range(60):
            p = rand_poset(seed, 1 + seed % 7)
            closed = [
                m
                for m in range(1 << p.n)
                if all(p.down[i] & ~m == 0 for i in range(p.n) if m >> i & 1)
            ]
            assert unions(p.down, 1 << p.n, "test") == sorted(
                closed, key=lambda m: (bin(m).count("1"), m)
            )

    def test_maximal_and_minimal_elements(self):
        for seed in range(60):
            p = rand_poset(seed, 1 + seed % 7)
            for mask in range(1 << p.n):
                members = [i for i in range(p.n) if mask >> i & 1]
                tops = sum(1 << i for i in members if not any(j != i and p.leq(i, j) for j in members))
                bottoms = sum(1 << i for i in members if not any(j != i and p.leq(j, i) for j in members))
                assert maximal(mask, p.down) == tops
                assert maximal(mask, p.up) == bottoms

    def test_mask_table_gives_glb_and_lub_or_none(self):
        """The reference ``mask_table`` below and the kernel's mask lookups
        (``by_down`` / ``by_up``, and ``missing_bound`` for the first
        element lacking one) both give the glb and lub, or ``None``."""
        seen_missing = 0
        for seed in range(60):
            p = rand_poset(seed, 1 + seed % 7)

            def greatest(cands, below):
                # the candidate that every other candidate lies below
                # (below=True) or above
                for c in cands:
                    if all(p.leq(d, c) if below else p.leq(c, d) for d in cands):
                        return c
                return None

            meets, joins = mask_table(p.down), mask_table(p.up)
            lacks_glb, lacks_lub = set(), set()
            for a in range(p.n):
                for b in range(p.n):
                    lower = [x for x in range(p.n) if p.leq(x, a) and p.leq(x, b)]
                    upper = [x for x in range(p.n) if p.leq(a, x) and p.leq(b, x)]
                    glb, lub = greatest(lower, True), greatest(upper, False)
                    assert meets[a * p.n + b] == glb == p.by_down.get(p.down[a] & p.down[b])
                    assert joins[a * p.n + b] == lub == p.by_up.get(p.up[a] & p.up[b])
                    if glb is None:
                        lacks_glb.add(a)
                    if lub is None:
                        lacks_lub.add(a)
            assert missing_bound(p.down, p.by_down) == min(lacks_glb, default=None)
            assert missing_bound(p.up, p.by_up) == min(lacks_lub, default=None)
            seen_missing += None in meets
        # the sample has posets with and without every glb
        assert 0 < seen_missing < 60


# ---------------------------------------------------------------------------
# reference copy of the O(n²) kernel that ``FiniteLattice.from_poset``
# replaced: meet and join tables by mask lookup, and distributivity by
# Birkhoff's criterion φ(x∨y) = φ(x) ∪ φ(y) over all pairs


def mask_table(masks):
    """Row-major table of the element whose mask is ``masks[i] & masks[j]``,
    ``None`` where no element has it."""
    get = {m: i for i, m in enumerate(masks)}.get
    return [get(a & b) for a in masks for b in masks]


def reference_lattice(poset: FinitePoset):
    """``(distributive, meet table, join table)`` of a bounded lattice, or
    the ``NotALatticeError`` message the kernel must raise."""
    n = poset.n
    up, down = poset.up, poset.down
    meet, join = mask_table(down), mask_table(up)
    if None in meet or None in join:
        i = min(t.index(None) for t in (meet, join) if None in t) // n
        return f"missing meet or join involving {poset.elements[i]!r}"
    full = (1 << n) - 1
    if [d for d in down if d == full] != [full] or [u for u in up if u == full] != [full]:
        return "lattice must be bounded"
    principal = set(down)
    irreducible = [x for x in range(n) if down[x] ^ (1 << x) in principal]
    phi = [0] * n
    for k, x in enumerate(irreducible):
        for y in range(n):
            if poset.leq(x, y):
                phi[y] |= 1 << k
    distributive = all(phi[join[i * n + j]] == phi[i] | phi[j] for i in range(n) for j in range(n))
    return distributive, meet, join


def bounded_rand_poset(rng: random.Random) -> FinitePoset:
    """A random poset on 0..6 elements, often over a bowtie (0 and 1 both
    below 2 and 3), and half the time with a new bottom and top added,
    which makes lattices, non-distributive ones and bounded non-lattices
    all common."""
    n = rng.randint(0, 6)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    if n >= 4 and rng.random() < 0.5:
        pairs += [(0, 2), (0, 3), (1, 2), (1, 3)]
    labels = [f"e{i}" for i in range(n)]
    if rng.random() < 0.5:
        labels += ["bot", "top"]
        pairs += [(n, i) for i in range(n)] + [(i, n + 1) for i in range(n)] + [(n, n + 1)]
    return FinitePoset.from_pairs(labels, pairs)


class TestAgreementWithReference:
    """Birkhoff's O(n·|J|) test plus the existence pass only on failure
    gives the same verdicts, meets, joins and error messages as the
    reference O(n²) criterion, on seeded subset families and random posets."""

    def test_same_lattice_or_same_error(self):
        rng = random.Random(20261018)
        posets = [FinitePoset((), ())]
        for _ in range(1500):
            masks = set(rand_family(rng))
            if rng.random() < 0.5:
                # the empty and the whole set bound the family, which need
                # not be a lattice yet
                whole = 0
                for m in masks:
                    whole |= m
                masks |= {0, whole}
            posets.append(subset_poset(sorted(masks)))
        posets += [bounded_rand_poset(rng) for _ in range(1500)]
        outcomes = dict.fromkeys(("distributive", "not distributive", "not a lattice", "unbounded"), 0)
        for p in posets:
            expected = reference_lattice(p)
            if isinstance(expected, str):
                with pytest.raises(NotALatticeError) as err:
                    FiniteLattice.from_poset(p)
                assert str(err.value) == expected, p
                assert not is_distributive_lattice(p)
                full = (1 << p.n) - 1
                bounded = full in p.down and full in p.up
                outcomes["not a lattice" if bounded else "unbounded"] += 1
                continue
            distributive, meet, join = expected
            lat = FiniteLattice.from_poset(p)
            assert lat.distributive is distributive is is_distributive_lattice(p), p
            for a in range(p.n):
                for b in range(p.n):
                    assert lat.meet(a, b) == meet[a * p.n + b], p
                    assert lat.join(a, b) == join[a * p.n + b], p
            outcomes["distributive" if distributive else "not distributive"] += 1
        # the sample reaches every verdict
        assert min(outcomes.values()) >= 50, outcomes

    def test_each_clause_of_the_birkhoff_test_can_fail(self):
        # M3: φ embeds the order, but its three atoms have 8 downsets, not 5
        m3 = FinitePoset.from_pairs(list("0abc1"), [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        # the powerset of {u, v, j} without ``uv <= uvj``: φ is the same
        # bijection onto the 8 downsets of J = {u, v, j} as in the
        # powerset, but φ(uv) ⊆ φ(uvj) no longer means uv <= uvj
        cube = subset_poset(list(range(8)))
        broken = FinitePoset.from_pairs(
            cube.elements, [(i, j) for i in range(8) for j in range(8) if cube.leq(i, j) and (i, j) != (3, 7)]
        )
        for p in (m3, broken):
            assert not is_distributive_lattice(p)
        assert not FiniteLattice.from_poset(m3).distributive
        with pytest.raises(NotALatticeError, match="missing meet or join involving 's1'"):
            FiniteLattice.from_poset(broken)

    def test_the_empty_poset_is_unbounded(self):
        with pytest.raises(NotALatticeError, match="lattice must be bounded"):
            FiniteLattice.from_poset(FinitePoset((), ()))


class TestAdjoints:
    def test_identity(self, two_chain):
        f = MonotoneMap(two_chain, two_chain, (0, 1))
        assert left_adjoint(f).table == (0, 1)
        assert right_adjoint(f).table == (0, 1)

    def test_left_adjoint_of_collapse(self, three_chain, two_chain):
        f = MonotoneMap(three_chain, two_chain, (0, 1, 1))
        l = left_adjoint(f)
        oracle = galois_left_oracle(f)
        assert l.table == oracle.table == (0, 1)  # l(0)=0, l(1)=m

    def test_right_adjoint_of_inclusion(self, two_chain, three_chain):
        inc = MonotoneMap(two_chain, three_chain, (0, 2))
        r = right_adjoint(inc)
        oracle = galois_right_oracle(inc)
        assert r.table == oracle.table == (0, 0, 1)

    def test_constant_one_has_left_but_no_right(self, two_chain):
        c1 = MonotoneMap(two_chain, two_chain, (1, 1))
        assert right_adjoint(c1) is None  # fails the empty join
        assert left_adjoint(c1) is not None
        assert galois_right_oracle(c1) is None

    def test_constant_zero_has_right_but_no_left(self, two_chain):
        c0 = MonotoneMap(two_chain, two_chain, (0, 0))
        assert left_adjoint(c0) is None  # fails the empty meet
        assert right_adjoint(c0) is not None

    def test_boolean_to_two_chain(self, four_boolean, two_chain):
        # f(x) = 1 iff x = top
        f = MonotoneMap(four_boolean, two_chain, (0, 0, 0, 1))
        l = left_adjoint(f)
        assert l is not None
        assert l.table == galois_left_oracle(f).table
        assert four_boolean.label(l(0)) == "{}"
        assert four_boolean.label(l(1)) == "{a,b}"

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_full_galois_law_whenever_granted(self, seed):
        rng = random.Random(seed)
        src = downsets(rand_poset(seed, 1 + seed % 4))
        tgt = downsets(rand_poset(seed + 1, 1 + (seed // 7) % 4))
        table = []
        cur = 0
        for i in range(src.n):
            below = [table[j] for j in range(i) if src.leq(j, i)]
            floor = tgt.join_all(below)
            above = [x for x in range(tgt.n) if tgt.leq(floor, x)]
            table.append(rng.choice(above))
        try:
            f = MonotoneMap(src, tgt, tuple(table))
        except Exception:
            return
        l = left_adjoint(f)
        if l is not None:
            for a in range(src.n):
                for b in range(tgt.n):
                    assert src.leq(l(b), a) == tgt.leq(b, f(a))
        r = right_adjoint(f)
        if r is not None:
            for a in range(src.n):
                for b in range(tgt.n):
                    assert src.leq(a, r(b)) == tgt.leq(f(a), b)


class TestClassification:
    def test_identity_frame_hom_is_open_and_proper(self, four_boolean):
        f = as_frame_hom(MonotoneMap(four_boolean, four_boolean, tuple(range(4))))
        assert classify_open(f).verdict
        assert classify_proper(f).verdict

    @pytest.mark.parametrize("classify", [classify_open, classify_proper], ids=["open", "proper"])
    def test_a_map_is_checked_not_trusted(self, two_chain, four_boolean, classify):
        """A frame homomorphism built directly is classified; a map that
        is none is refused with the law it breaks, whatever built it."""
        assert classify(MonotoneMap(two_chain, four_boolean, (0, 3))).verdict
        for table, law in (((1, 3), "preserves-empty-join"), ((0, 1), "preserves-empty-meet")):
            with pytest.raises(OperatorLawError) as exc:
                classify(MonotoneMap(two_chain, four_boolean, table))
            assert [name for name, _ in exc.value.report.witnesses] == [law]
        # monotone and bounded, but the join of the atoms is not preserved
        with pytest.raises(OperatorLawError) as exc:
            classify(MonotoneMap(four_boolean, four_boolean, (0, 1, 1, 3)))
        assert "preserves-binary-join" in {name for name, _ in exc.value.report.witnesses}

    def test_point_inclusion_into_boolean_is_open(self, two_chain, four_boolean):
        # q*: 2-chain -> 4-Boolean, 0 |-> 0, 1 |-> top
        q = as_frame_hom(MonotoneMap(two_chain, four_boolean, (0, 3)))
        rep = classify_open(q)
        assert rep.verdict
        # the left adjoint sends the atoms to 1
        shriek = left_adjoint(q)
        assert shriek.table == (0, 1, 1, 1)

    def test_sierpinski_point_maps(self, two_chain, three_chain):
        # q*: 2-chain -> 3-chain with 0 |-> 0, 1 |-> 1: computed exhaustively
        q = as_frame_hom(MonotoneMap(two_chain, three_chain, (0, 2)))
        open_rep = classify_open(q)
        proper_rep = classify_proper(q)
        # oracle: scan the Frobenius laws directly
        shriek = galois_left_oracle(q)
        star = galois_right_oracle(q)
        X, Y = three_chain, two_chain
        frob = all(
            shriek(X.meet(a, q(b))) == Y.meet(shriek(a), b)
            for a in range(X.n)
            for b in range(Y.n)
        )
        cofrob = all(
            star(X.join(a, q(b))) == Y.join(star(a), b)
            for a in range(X.n)
            for b in range(Y.n)
        )
        assert open_rep.verdict == frob
        assert proper_rep.verdict == cofrob

    def test_closed_point_is_not_open(self, two_chain, three_chain):
        # the closed point of Sierpinski: 0 |-> 0, m |-> 0, 1 |-> 1
        f = as_frame_hom(MonotoneMap(three_chain, two_chain, (0, 0, 1)))
        rep = classify_open(f)
        assert not rep.verdict
        law, labels = rep.witnesses[0]
        assert law == "frobenius"
        assert recheck_witness(f, (law, labels))
        # but it is proper
        assert classify_proper(f).verdict


def pins(a: FiniteLattice, b: FiniteLattice, labels: dict[str, str]) -> list[tuple[int, int]]:
    """Each element of ``a`` named in ``labels`` pinned to the element of
    ``b`` it names."""
    return [(a.poset.index(x), b.poset.index(y)) for x, y in labels.items()]


class TestOrderIso:
    """``poset_isomorphism`` reads the map off the pins: on a Boolean
    lattice the two atoms fix it."""

    def test_self_iso_is_identity_seed(self, four_boolean):
        pinned = pins(four_boolean, four_boolean, {"{a}": "{a}", "{b}": "{b}"})
        assert poset_isomorphism(four_boolean.poset, four_boolean.poset, pinned) == (0, 1, 2, 3)

    def test_boolean_vs_chain_absent(self, four_boolean):
        chain = FiniteLattice.from_poset(
            FinitePoset.from_pairs(list("wxyz"), [(0, 1), (1, 2), (2, 3)])
        )
        for x, y in itertools.product(chain.elements, repeat=2):
            pinned = pins(four_boolean, chain, {"{a}": x, "{b}": y})
            assert poset_isomorphism(four_boolean.poset, chain.poset, pinned) is None

    def test_two_labelings_of_same_lattice(self):
        a = downsets(FinitePoset.from_pairs(["a", "b"], []))
        b = downsets(FinitePoset.from_pairs(["y", "x"], []))
        pinned = pins(a, b, {"{a}": "{y}", "{b}": "{x}"})
        iso = poset_isomorphism(a.poset, b.poset, pinned)
        assert iso is not None
        assert [b.label(iso[i]) for i in range(a.n)] == ["{}", "{y}", "{x}", "{y,x}"]
        for i in range(a.n):
            for j in range(a.n):
                assert a.leq(i, j) == b.leq(iso[i], iso[j])

    def test_deterministic(self, four_boolean):
        # the pins, not a search order, decide between the two automorphisms
        L = four_boolean
        swap = pins(L, L, {"{a}": "{b}", "{b}": "{a}"})
        assert poset_isomorphism(L.poset, L.poset, swap) == (0, 2, 1, 3)
        assert poset_isomorphism(L.poset, L.poset, swap) == poset_isomorphism(L.poset, L.poset, swap)

    @pytest.mark.parametrize(
        "labels",
        [
            {"{a}": "{a}", "{b}": "{b}", "{a,b}": "{a}"},
            {"{a}": "{}", "{b}": "{b}"},
            {"{a}": "{a}", "{b}": "{a,b}"},
        ],
    )
    def test_wrong_pin_gives_none(self, four_boolean, labels):
        L = four_boolean
        assert poset_isomorphism(L.poset, L.poset, pins(L, L, labels)) is None

    @pytest.mark.parametrize("labels", [{}, {"{a}": "{a}"}, {"{a,b}": "{a,b}", "{}": "{}"}])
    def test_pins_that_do_not_generate_the_source_raise(self, four_boolean, labels):
        L = four_boolean
        with pytest.raises(LatticeError, match="pins do not generate the source"):
            poset_isomorphism(L.poset, L.poset, pins(L, L, labels))

    def test_a_target_of_another_size(self, four_boolean):
        chain = downsets(FinitePoset.from_pairs(["x", "y"], [(0, 1)]))
        assert poset_isomorphism(four_boolean.poset, chain.poset, []) is None

    def test_images_that_collide(self, four_boolean):
        L = four_boolean
        assert poset_isomorphism(L.poset, L.poset, pins(L, L, {"{a}": "{a}", "{b}": "{a}"})) is None

    def test_a_pin_the_forced_map_breaks(self, three_chain):
        # the pins above m and 1 force the identity, which keeps 0 at 0
        L = three_chain
        assert poset_isomorphism(L.poset, L.poset, pins(L, L, {"m": "m", "1": "1", "0": "m"})) is None

    def test_a_bijection_that_does_not_reflect_the_order(self):
        # M3's atoms are all join-irreducible, so the pins force a bijection
        # onto the downsets of x0 < x1, x0 < x2, where a's image lies below
        # the images of b and c
        m3 = FiniteLattice.from_poset(
            FinitePoset.from_pairs(["0", "a", "b", "c", "1"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        )
        d5 = downsets(FinitePoset.from_pairs(["x0", "x1", "x2"], [(0, 1), (0, 2)]))
        pinned = pins(m3, d5, {"a": "{x0}", "b": "{x0,x1}", "c": "{x0,x2}"})
        assert poset_isomorphism(m3.poset, d5.poset, pinned) is None

    def test_a_source_that_is_no_lattice_raises(self):
        # a and b have two minimal upper bounds, so x is not the join of the
        # join-irreducibles below it, however it is pinned
        v = FinitePoset.from_pairs(["0", "a", "b", "x", "y"], [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
        with pytest.raises(LatticeError, match="pins do not generate the source"):
            poset_isomorphism(v, v, [(i, i) for i in range(v.n)])

    def test_pentagon_needs_its_middle_element_pinned(self):
        # N5: 0 < a < b < 1 and 0 < c < 1; a and c meet in 0 and join in 1,
        # so b is no lattice term in them
        n5 = FiniteLattice.from_poset(
            FinitePoset.from_pairs(["0", "a", "b", "c", "1"], [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
        )
        with pytest.raises(LatticeError, match="pins do not generate the source"):
            poset_isomorphism(n5.poset, n5.poset, pins(n5, n5, {"a": "a", "c": "c"}))
        pinned = pins(n5, n5, {"a": "a", "b": "b", "c": "c"})
        assert poset_isomorphism(n5.poset, n5.poset, pinned) == tuple(range(5))

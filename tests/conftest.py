import itertools

import pytest

from locale_forge.lattice import FiniteLattice, FinitePoset, MonotoneMap, downsets, subset_lattice


@pytest.fixture
def two_chain():
    return FiniteLattice.from_poset(FinitePoset.from_pairs(["0", "1"], [(0, 1)]))


@pytest.fixture
def three_chain():
    return FiniteLattice.from_poset(FinitePoset.from_pairs(["0", "m", "1"], [(0, 1), (1, 2)]))


@pytest.fixture
def four_boolean():
    return downsets(FinitePoset.from_pairs(["a", "b"], []))


@pytest.fixture
def swap_closure(four_boolean):
    """The closure generated by swapping the two atoms."""
    from locale_forge.lattice import kleene_closure

    L = four_boolean
    idx = {e: i for i, e in enumerate(L.elements)}
    swap = {"{}": "{}", "{a}": "{b}", "{b}": "{a}", "{a,b}": "{a,b}"}
    j = MonotoneMap(L, L, tuple(idx[swap[e]] for e in L.elements))
    return kleene_closure(j)


def all_monotone_maps(src: FiniteLattice, tgt: FiniteLattice):
    """Brute-force enumeration of every monotone map, for adjoint oracles."""
    for table in itertools.product(range(tgt.n), repeat=src.n):
        ok = all(
            tgt.leq(table[i], table[j])
            for i in range(src.n)
            for j in range(src.n)
            if src.leq(i, j)
        )
        if ok:
            yield MonotoneMap(src, tgt, table)


def galois_left_oracle(f: MonotoneMap):
    """The unique l with l(b) <= a iff b <= f(a), found by exhaustive scan."""
    hits = [
        l
        for l in all_monotone_maps(f.target, f.source)
        if all(
            f.source.leq(l(b), a) == f.target.leq(b, f(a))
            for a in range(f.source.n)
            for b in range(f.target.n)
        )
    ]
    assert len(hits) <= 1
    return hits[0] if hits else None


def galois_right_oracle(f: MonotoneMap):
    hits = [
        r
        for r in all_monotone_maps(f.target, f.source)
        if all(
            f.source.leq(a, r(b)) == f.target.leq(f(a), b)
            for a in range(f.source.n)
            for b in range(f.target.n)
        )
    ]
    assert len(hits) <= 1
    return hits[0] if hits else None


def real_line_on_grid(points, *extra):
    """``real_presentation`` without its refinement schema (the only one
    with a bound join), plus ``extra`` relations, instantiated on ``points``."""
    from locale_forge.intervals import real_presentation
    from locale_forge.presentation import Presentation, RelationSchema, instantiate_schemas
    from locale_forge.rationals import rat

    rp = real_presentation()
    kept = tuple(
        r
        for r in rp.relations
        if not (isinstance(r, RelationSchema) and any(cl.bound for cl in r.rhs.clauses))
    )
    assert len(kept) == len(rp.relations) - 1
    return instantiate_schemas(Presentation(rp.kind, rp.domain, kept + extra), [rat(x) for x in points])


def cc_shift_family():
    """The preframe presentation over [0,1] whose one relation is the
    Z-indexed family schema without parameters
    ``CC(0, 1) <= bigvee n in Z . CC(0+n, 1)``."""
    from locale_forge.intervals import ClosedComplementDomain
    from locale_forge.presentation import Presentation, PresentationKind, RelationSchema
    from locale_forge.terms import GenPattern, SchemaClause, SchemaTerm, econst

    start = SchemaClause((GenPattern("CC", (econst(0), econst(1))),))
    family = SchemaClause((GenPattern("CC", (econst(0, with_index=True), econst(1))),), int_var="n")
    rel = RelationSchema((), (), SchemaTerm((start,)), SchemaTerm((family,)), "<=")
    return Presentation(PresentationKind.PREFRAME, ClosedComplementDomain(), (rel,))


def assert_held_as_its_subset_lattice(q_down, masks, label):
    """``FiniteLattice.of_downsets(q_down, masks, label)`` answers as the
    lattice ``subset_lattice(masks, label)`` builds from its order, before
    and after its own order is read, and equals and hashes as it."""
    held, built = FiniteLattice.of_downsets(q_down, masks, label), subset_lattice(masks, label)
    n = built.n
    assert (held.n, held.elements, held.distributive) == (n, built.elements, built.distributive)
    assert (held.top, held.bottom) == (built.top, built.bottom)
    for _ in range(2):  # the second pass after ``held.poset`` is built
        for i, j in itertools.product(range(n), repeat=2):
            assert held.leq(i, j) == built.leq(i, j)
            assert (held.meet(i, j), held.join(i, j)) == (built.meet(i, j), built.join(i, j))
        assert (held.poset.up, held.poset.down) == (built.poset.up, built.poset.down)
    assert held == built and hash(held) == hash(built)

"""The oracle suites' own rejections.  Each failure a suite reports is made
to fire here, on an input that reaches it or, where no drawn input can, on
a tampered transformer, so no check of the suites is vacuous.  The
one-pass closures of the suites' random structures are checked against
the pairwise fixpoints they replaced."""

import random

import pytest

from locale_forge import suites, transform
from locale_forge.evaluate import eval_frame
from locale_forge.lattice import (
    FiniteLattice,
    FinitePoset,
    LatticeError,
    MonotoneMap,
    QuotientMode,
    downsets,
    fixed_points,
    subset_poset,
)
from locale_forge.presentation import Presentation, PresentationKind
from locale_forge.suites import (
    check_equivalence,
    rand_quotient_operator,
    rand_sup_presentation,
    suite_cross_mode,
    suite_oracle_equivalence,
)


def open_instance():
    """A seeded sup presentation with at least two generators, its frame and
    an open operator that fixes fewer elements than the frame has."""
    rng = random.Random(5)
    while True:
        p = rand_sup_presentation(rng)
        parent = eval_frame(p)
        e = rand_quotient_operator(rng, parent.carrier, QuotientMode.OPEN)
        if len(p.domain.enumerate_gens()) > 1 and fixed_points(e)[0].n < parent.carrier.n:
            return p, parent, e


class TestCheckEquivalence:
    def test_the_instance_passes_untampered(self):
        ok, why, _ = check_equivalence(*open_instance(), QuotientMode.OPEN)
        assert ok and why == ""

    def test_a_spec_read_off_another_operator(self, monkeypatch):
        # the identity's spec presents the parent frame again, larger than
        # the fixed points of the operator checked
        p, parent, e = open_instance()
        identity = MonotoneMap(parent.carrier, parent.carrier, tuple(range(parent.carrier.n)))
        real = transform.spec_from_operator
        monkeypatch.setattr(transform, "spec_from_operator", lambda parent, op, mode: real(parent, identity, mode))
        ok, why, _ = check_equivalence(p, parent, e, QuotientMode.OPEN)
        sizes = f"quotient {parent.carrier.n} elements, fixed points {fixed_points(e)[0].n}"
        assert (ok, why) == (False, f"no interp-matching iso: {sizes}")


def test_parent_views_that_disagree(monkeypatch):
    # without its relations the sup view keeps the domain's bottom above 0
    # and its joins formal, so it presents another frame than the dcpo view
    real = suites.saturate

    def bare_sup(p, kind):
        return real(Presentation(p.kind, p.domain, ()) if kind is PresentationKind.SUP else p, kind)

    monkeypatch.setattr(suites, "saturate", bare_sup)
    res = suite_cross_mode(3, 2)
    assert res.failures == [f"instance {k}: parent views disagree on the frame" for k in range(2)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the proper transport of non-directed joins")
@pytest.mark.parametrize("mode", [QuotientMode.PROPER, QuotientMode.SEMI_PROPER])
def test_the_proper_repro_passes(mode):
    assert suite_oracle_equivalence(mode, 35861150, 8).ok


# ---------------------------------------------------------------------------
# the one-pass closures of the draws, against the pairwise fixpoints they
# replaced, replayed from the same rng state


def fixpoint(family: set, ops) -> set:
    """``family`` closed under the binary ``ops`` by re-scanning every pair
    until a full pass adds nothing."""
    changed = True
    while changed:
        changed = False
        for a in list(family):
            for b in list(family):
                for c in (op(a, b) for op in ops):
                    if c not in family:
                        family.add(c)
                        changed = True
    return family


def reference_sublattice(rng: random.Random, L) -> list[int]:
    keep = {L.top, L.bottom} | {x for x in range(L.n) if rng.random() < 0.5}
    return sorted(fixpoint(keep, (L.meet, L.join)))


def reference_subset_masks(rng: random.Random, closed_under: str) -> list[int]:
    """The masks of the family ``_subset_domain`` draws, in its order."""
    universe = frozenset(range(3))
    for _ in range(64):
        fams = {universe, frozenset()} if closed_under == "join" else {universe}
        for _ in range(rng.randint(1, 3)):
            fams.add(frozenset(x for x in universe if rng.random() < 0.5))
        op = frozenset.__and__ if closed_under == "meet" else frozenset.__or__
        if len(fixpoint(fams, (op,))) <= 5:
            break
    return [sum(1 << x for x in s) for s in sorted(fams, key=lambda s: (len(s), sorted(s)))]


def twin_rngs(seed: int):
    rng = random.Random(seed)
    twin = random.Random()
    twin.setstate(rng.getstate())
    return rng, twin


class TestOnePassClosures:
    @pytest.mark.parametrize("points", range(1, 7))
    def test_rand_sublattice_is_the_pairwise_fixpoint(self, points):
        proper = False
        for seed in range(40):
            rng, twin = twin_rngs(seed)
            L = downsets(suites.rand_poset(random.Random(seed), points))
            keep = suites.rand_sublattice(rng, L)
            assert keep == reference_sublattice(twin, L)
            assert rng.getstate() == twin.getstate()
            proper = proper or len(keep) < L.n
        # with one point the frame is {0, 1}, which every draw keeps whole
        assert proper == (points > 1)

    def test_rand_sublattice_on_the_8_antichain_frame(self):
        L = downsets(FinitePoset.from_pairs([f"a{i}" for i in range(8)], []))
        for seed in range(3):
            rng, twin = twin_rngs(seed)
            assert suites.rand_sublattice(rng, L) == reference_sublattice(twin, L)

    @pytest.mark.parametrize("edges", [[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
                                       [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]], ids=["M3", "N5"])
    def test_rand_sublattice_needs_a_frame(self, edges):
        L = FiniteLattice.from_poset(FinitePoset.from_pairs([f"x{i}" for i in range(5)], edges))
        assert not L.frame
        with pytest.raises(LatticeError, match="needs a frame"):
            suites.rand_sublattice(random.Random(0), L)

    @pytest.mark.parametrize("closed_under", ["meet", "join"])
    def test_subset_domains_are_the_pairwise_fixpoint_of_their_draws(self, closed_under):
        draw = {"meet": suites.rand_meet_semilattice_domain, "join": suites.rand_join_semilattice_domain}[closed_under]
        for seed in range(300):
            rng, twin = twin_rngs(seed)
            domain = draw(rng)
            masks = reference_subset_masks(twin, closed_under)
            expected = subset_poset(masks, lambda m: f"g{masks.index(m)}")
            assert (domain.poset, domain.has_meet, domain.has_join) == (
                expected, closed_under == "meet", closed_under == "join",
            )
            assert rng.getstate() == twin.getstate()

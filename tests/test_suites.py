"""The oracle suites' own rejections.  Each failure a suite reports is made
to fire here, on an input that reaches it or, where no drawn input can, on
a tampered transformer, so no check of the suites is vacuous."""

import random

import pytest

from locale_forge import suites, transform
from locale_forge.evaluate import eval_frame
from locale_forge.lattice import MonotoneMap, QuotientMode, fixed_points
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

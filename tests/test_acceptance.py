"""Acceptance criteria, one test per criterion.

Every criterion is exact (order isomorphisms found, golden files matched
byte for byte, law suites exhaustive); the only tolerances are the stated
wall-clock budgets.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see one pass/fail line per criterion.
"""

import json
import pathlib
import random
import time
from fractions import Fraction

from locale_forge.dsl import print_presentation
from locale_forge.evaluate import eval_frame
from locale_forge.intervals import (
    circle_open_presentation,
    circle_proper_presentation,
    nat_reverse_counterexample,
)
from locale_forge.lattice import (
    FinitePoset,
    MonotoneMap,
    QuotientMode,
    as_frame_hom,
    downsets,
    fixed_points,
    interior_from_pair,
    kleene_closure,
    poset_isomorphism,
    right_adjoint,
)
from locale_forge.presentation import PresentationKind, instantiate_schemas
from locale_forge.rationals import rat
from locale_forge.serialize import presentation_to_jsonable
from locale_forge.suites import (
    suite_coverage,
    suite_cross_mode,
    suite_kleene,
    suite_oracle_equivalence,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
SEED = 271828


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def _size_bounds(parent, out):
    assert len(out.domain.enumerate_gens()) == len(parent.domain.enumerate_gens()) if parent.domain.finite else True
    assert out.schema_count() <= parent.schema_count() + 3


def test_criterion_1_circle_via_reals():
    """Open quotient of the reals: exactly the four displayed relation
    families, matched against the transcribed golden file; < 1 s."""
    t0 = time.time()
    out = circle_open_presentation()
    text = print_presentation(out)
    golden = (GOLDEN / "circle_open.txt").read_text()
    doc = json.dumps(presentation_to_jsonable(out), indent=2, sort_keys=True) + "\n"
    golden_json = (GOLDEN / "circle_open.json").read_text()
    elapsed = time.time() - t0
    from locale_forge.intervals import real_presentation

    _size_bounds(real_presentation(), out)
    ok = text == golden and doc == golden_json and len(out.relations) == 4 and elapsed < 1.0
    report("1 circle via R (open quotient): four families, exact golden match", ok, f"{elapsed:.2f}s")


def test_criterion_2_circle_via_unit_interval():
    """Proper quotient of [0,1]: raw emits the seven displayed relations,
    simplify emits the extended interior rule plus the merged endpoint
    rule; the two grid-instantiated frames are order isomorphic; < 5 s."""
    t0 = time.time()
    raw = circle_proper_presentation()
    simp = circle_proper_presentation(simplify=True)
    ok_raw = print_presentation(raw) == (GOLDEN / "circle_proper_raw.txt").read_text()
    ok_simp = print_presentation(simp) == (GOLDEN / "circle_proper_simplified.txt").read_text()
    grid = [rat(0), rat(Fraction(1, 4)), rat(Fraction(1, 2)), rat(Fraction(3, 4)), rat(1)]
    fr = eval_frame(instantiate_schemas(raw, grid))
    fs = eval_frame(instantiate_schemas(simp, grid))
    pinned = [(fr.interp[g], fs.interp[g]) for g in fr.interp]
    iso = fr.interp.keys() == fs.interp.keys() and (
        poset_isomorphism(fr.carrier.poset, fs.carrier.poset, pinned) is not None
    )
    from locale_forge.intervals import unit_interval_presentation

    _size_bounds(unit_interval_presentation(), raw)
    elapsed = time.time() - t0
    ok = ok_raw and ok_simp and iso and elapsed < 5.0
    report(
        "2 circle via [0,1] (proper quotient): raw (i)-(vii), simplified rules, grid frames isomorphic",
        ok,
        f"{elapsed:.2f}s",
    )


def test_criterion_3_oracle_equivalence_open_modes():
    """>= 100 seeded random sup-type presentations paired with random
    semi-open/open operators: the transformed presentation's frame is
    order isomorphic (matching generator images) to the operator's fixed
    points, 100%; < 5 min.  Size bounds asserted on every instance."""
    t0 = time.time()
    r1 = suite_oracle_equivalence(QuotientMode.SEMI_OPEN, SEED, 100)
    r2 = suite_oracle_equivalence(QuotientMode.OPEN, SEED + 1, 100)
    elapsed = time.time() - t0
    ok = r1.ok and r2.ok and elapsed < 300
    report(
        "3 oracle equivalence, open modes (100 semi-open + 100 open, exact iso)",
        ok,
        f"{r1.passed + r2.passed}/200, {elapsed:.1f}s",
    )


def test_criterion_4_oracle_equivalence_proper_and_triquotient():
    """Same protocol with interior operators and dcpo idempotents, plus
    open and proper operators replayed through the triquotient
    transformers with cross-mode isomorphism; 100% exact."""
    t0 = time.time()
    results = [
        suite_oracle_equivalence(QuotientMode.SEMI_PROPER, SEED + 2, 100),
        suite_oracle_equivalence(QuotientMode.PROPER, SEED + 3, 100),
        suite_oracle_equivalence(QuotientMode.SEMI_TRIQUOTIENT, SEED + 4, 100),
        suite_oracle_equivalence(QuotientMode.TRIQUOTIENT, SEED + 5, 100),
        suite_cross_mode(SEED + 6, 100),
    ]
    elapsed = time.time() - t0
    ok = all(r.ok for r in results) and elapsed < 300
    total = sum(r.passed for r in results)
    report(
        "4 oracle equivalence, proper and triquotient modes + cross-mode replay",
        ok,
        f"{total}/500, {elapsed:.1f}s",
    )


def test_criterion_5_coverage_theorems():
    """verify_coverage on >= 100 seeded random stable presentations per
    kind: exact order isomorphism matching generator interpretations."""
    t0 = time.time()
    results = [
        suite_coverage(PresentationKind.SUP, SEED + 7, 100),
        suite_coverage(PresentationKind.PREFRAME, SEED + 8, 100),
        suite_coverage(PresentationKind.DCPO, SEED + 9, 100),
    ]
    elapsed = time.time() - t0
    ok = all(r.ok for r in results)
    report(
        "5 coverage theorems at desk scale (100 per kind, generator-matched iso)",
        ok,
        f"{sum(r.passed for r in results)}/300, {elapsed:.1f}s",
    )


def test_criterion_6_operator_constructions():
    """kleene_closure on >= 1000 random join-preserving endomorphisms of
    random frames (<= 32 elements): inflationary, idempotent,
    join-preserving, fixed points = pre-fixed points, exhaustively; and
    the endpoint-gluing interior has fixed points {0, 1}."""
    t0 = time.time()
    r = suite_kleene(SEED + 10, 1000)
    S = downsets(FinitePoset.from_pairs(["pt"], []))
    S3 = downsets(FinitePoset.from_pairs(["m"], []))  # 2-chain; need Sierpinski
    from locale_forge.lattice import FiniteLattice

    sier = FiniteLattice.from_poset(
        FinitePoset.from_pairs(["0", "m", "1"], [(0, 1), (1, 2)])
    )
    pt = FiniteLattice.from_poset(FinitePoset.from_pairs(["0", "1"], [(0, 1)]))
    fstar = as_frame_hom(MonotoneMap(sier, pt, (0, 0, 1)))
    gstar = as_frame_hom(MonotoneMap(sier, pt, (0, 1, 1)))
    interior, rep = interior_from_pair(right_adjoint(gstar), fstar)
    fp, _ = fixed_points(interior)
    toy_ok = rep.verdict and fp.elements == ("0", "1")
    elapsed = time.time() - t0
    ok = r.ok and toy_ok
    report(
        "6 operator constructions (1000 closures exhaustive; gluing interior fixes {0,1})",
        ok,
        f"{r.passed}/1000, {elapsed:.1f}s",
    )


def test_criterion_7_z2_example():
    """The coequaliser-derived spec for the atom swap presents the
    one-point locale: the quotient frame is exactly a 2-chain."""
    from locale_forge.cli import _z2_swap_artifact

    doc, spec, out, quotient = _z2_swap_artifact()
    images = dict(spec.image)
    ok = (
        quotient.carrier.n == 2
        and doc["matchesFixedPoints"]
        and str(images["a"]) == "a v b"
        and str(images["b"]) == "a v b"
    )
    report("7 Z/2 example: swap coequaliser presents the two-chain", ok)


def test_criterion_8_nat_counterexample():
    """The successor gluing of N: coinserter carrier of size 2 and a
    concrete Scott-continuity failure witness; < 1 s."""
    t0 = time.time()
    rep = nat_reverse_counterexample()
    elapsed = time.time() - t0
    ok = (
        rep.verdict
        and any("size 2" in n for n in rep.notes)
        and any(law == "scott-continuity-failure" for law, _ in rep.witnesses)
        and elapsed < 1.0
    )
    report("8 N counterexample: terminal coinserter, Scott witness", ok, f"{elapsed:.2f}s")


def test_criterion_9_size_bounds():
    """Generator count preserved and schema count grows by at most 3 on
    every transformer run: checked on the circle artifacts (criteria 1-2),
    where the transformers add schemas, and on drawn finite instances."""
    from locale_forge.intervals import real_presentation, unit_interval_presentation

    checks = []
    co = circle_open_presentation()
    checks.append(co.schema_count() <= real_presentation().schema_count() + 3)
    cp = circle_proper_presentation()
    checks.append(cp.schema_count() <= unit_interval_presentation().schema_count() + 3)
    rng = random.Random(SEED + 11)
    from locale_forge.suites import check_equivalence, rand_quotient_operator, rand_sup_presentation

    for _ in range(10):
        p = rand_sup_presentation(rng)
        parent = eval_frame(p)
        e = rand_quotient_operator(rng, parent.carrier, QuotientMode.SEMI_OPEN)
        ok, why, out = check_equivalence(p, parent, e, QuotientMode.SEMI_OPEN)
        checks.append(ok and len(out.domain.enumerate_gens()) == len(p.domain.enumerate_gens()))
    report("9 size bounds: generators preserved, schemas grow by <= 3", all(checks))

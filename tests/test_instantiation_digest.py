"""A pinned digest of grid instantiation: for each interval or circle
presentation and grid below, the instantiated relations in order and the
descriptor of the restricted domain, hashed.  The pinned values were taken
before side conditions were compiled and the Z-family window was pruned,
so any change in what ``instantiate_schemas`` emits, or in its order,
shows here.  The 6-point real-line grid is the largest Z-family case:
the pair-meet schema of ``circle_open_presentation`` there has 4096
environments and a window of 13 shifts."""

import hashlib
import json
from fractions import Fraction

import pytest

from locale_forge.intervals import (
    circle_open_presentation,
    circle_proper_presentation,
    real_presentation,
    unit_interval_presentation,
)
from locale_forge import presentation
from locale_forge.presentation import Presentation, Relation, RelationSchema, instantiate_schemas
from locale_forge.rationals import rat
from locale_forge.terms import TERM_ZERO, gen_term


def real_line() -> Presentation:
    """``real_presentation`` without its roundedness schema, plus
    ``OI() = 0``: the grid topology of the line."""
    real = real_presentation()
    kept = tuple(
        r
        for r in real.relations
        if not (isinstance(r, RelationSchema) and any(cl.bound for cl in r.rhs.clauses))
    )
    return Presentation(real.kind, real.domain, kept + (Relation(gen_term("OI()"), TERM_ZERO),))


LINE_GRIDS = ("0,1", "-1/2,1/3,2", "-2,-1/4,1/2,3/2", "-5/2,-1,0,2/3,7/4", "-8/3,-3/2,-6/5,1/5,1/3,3/2")
UNIT_GRIDS = ("0,1", "0,1/2,1", "0,1/3,3/4,1", "1/5,1/3,1/2,4/5,1", "0,1/6,2/5,1/2,5/7,1")

CASES = {
    "real": (real_presentation, LINE_GRIDS),
    "real_line": (real_line, LINE_GRIDS),
    "unit_interval": (unit_interval_presentation, UNIT_GRIDS),
    "circle_open": (circle_open_presentation, LINE_GRIDS),
    "circle_proper": (circle_proper_presentation, UNIT_GRIDS),
    "circle_proper_simplified": (lambda: circle_proper_presentation(simplify=True), UNIT_GRIDS),
}

# (relations out, first 16 hex digits of the SHA-256 of the digest text)
PINNED = {
    ("real", "0,1"): (17, "f965df9ad9b9d6b0"),
    ("real", "-1/2,1/3,2"): (37, "6b8b19357f35d651"),
    ("real", "-2,-1/4,1/2,3/2"): (72, "03523cd1b379c168"),
    ("real", "-5/2,-1,0,2/3,7/4"): (128, "4b7fabfa318ff3cb"),
    ("real", "-8/3,-3/2,-6/5,1/5,1/3,3/2"): (212, "27d7079e38494345"),
    ("real_line", "0,1"): (11, "e1fc98f20772d856"),
    ("real_line", "-1/2,1/3,2"): (27, "e9c5b4ccc9f5a9c3"),
    ("real_line", "-2,-1/4,1/2,3/2"): (57, "658fb83fe895e40c"),
    ("real_line", "-5/2,-1,0,2/3,7/4"): (107, "ac38f73899e7962c"),
    ("real_line", "-8/3,-3/2,-6/5,1/5,1/3,3/2"): (184, "de7bb0fa47cb366b"),
    ("unit_interval", "0,1"): (6, "9fda0b1dcde39110"),
    ("unit_interval", "0,1/2,1"): (21, "1364539e92d0683b"),
    ("unit_interval", "0,1/3,3/4,1"): (50, "a41bbe77e7d7283e"),
    ("unit_interval", "1/5,1/3,1/2,4/5,1"): (171, "14c670393a5d849a"),
    ("unit_interval", "0,1/6,2/5,1/2,5/7,1"): (171, "ece5d7ea24fb8fcb"),
    ("circle_open", "0,1"): (49, "50deaa376f37f04a"),
    ("circle_open", "-1/2,1/3,2"): (112, "fdb28f047ee2aad2"),
    ("circle_open", "-2,-1/4,1/2,3/2"): (260, "c5bd95c9755b0098"),
    ("circle_open", "-5/2,-1,0,2/3,7/4"): (491, "2841759a884478d3"),
    ("circle_open", "-8/3,-3/2,-6/5,1/5,1/3,3/2"): (853, "2150f637f2da37de"),
    ("circle_proper", "0,1"): (19, "d4ca564e1a1fb2dd"),
    ("circle_proper", "0,1/2,1"): (89, "f40d3de96e365b80"),
    ("circle_proper", "0,1/3,3/4,1"): (257, "fb42d3ad9c37ab9c"),
    ("circle_proper", "1/5,1/3,1/2,4/5,1"): (1136, "a5ce9c62a36b20fa"),
    ("circle_proper", "0,1/6,2/5,1/2,5/7,1"): (1136, "ed569f5423682aa4"),
    ("circle_proper_simplified", "0,1"): (13, "3e70aa315e699655"),
    ("circle_proper_simplified", "0,1/2,1"): (58, "b64c4169bad939a5"),
    ("circle_proper_simplified", "0,1/3,3/4,1"): (171, "5019fa1aeeb3e519"),
    ("circle_proper_simplified", "1/5,1/3,1/2,4/5,1"): (802, "e7b4315882e58d9e"),
    ("circle_proper_simplified", "0,1/6,2/5,1/2,5/7,1"): (802, "6541638fcf425a0d"),
}


def digest(p: Presentation) -> tuple[int, str]:
    text = "\n".join(map(str, p.relations)) + "\n" + json.dumps(p.domain.descriptor(), sort_keys=True)
    return len(p.relations), hashlib.sha256(text.encode()).hexdigest()[:16]


def instantiated(name: str, grid: str) -> Presentation:
    make, _ = CASES[name]
    return instantiate_schemas(make(), [rat(Fraction(x)) for x in grid.split(",")])


@pytest.mark.parametrize("name", sorted(CASES))
def test_instantiation_matches_the_pinned_digest(name):
    for grid in CASES[name][1]:
        assert digest(instantiated(name, grid)) == PINNED[(name, grid)], (name, grid)


def test_the_cases_cover_two_to_six_points():
    sizes = {len(set(grid.split(","))) for _, grids in CASES.values() for grid in grids}
    assert sizes == {2, 3, 4, 5, 6}
    assert sorted(PINNED) == sorted((name, grid) for name, (_, grids) in CASES.items() for grid in grids)


class TestClauseMemo:
    """Each clause is instantiated once per binding of the schema
    parameters it reads (those its patterns and side conditions name, less
    the ones it binds), and the output is the pinned one."""

    @staticmethod
    def reads(cl) -> frozenset:
        names = set()
        for pat in cl.meet:
            names |= pat.free_params()
        for c in cl.conds:
            names |= c.free_params()
        return frozenset(names - set(cl.bound))

    @pytest.mark.parametrize(
        "name, grid",
        [
            # the overlap schema: each clause reads two of its four parameters
            ("real_line", LINE_GRIDS[3]),
            # the roundedness schema: a bound clause that reads p and q
            ("real", LINE_GRIDS[2]),
            # Z-family clauses
            ("circle_open", LINE_GRIDS[1]),
        ],
    )
    def test_each_clause_once_per_binding_of_what_it_reads(self, name, grid, monkeypatch):
        calls = []
        inner = presentation._instantiate_clause

        def counting(domain, cl, env, *rest):
            calls.append((id(cl), frozenset((k, env[k]) for k in self.reads(cl) if k in env)))
            return inner(domain, cl, env, *rest)

        monkeypatch.setattr(presentation, "_instantiate_clause", counting)
        p = CASES[name][0]()
        points = [rat(Fraction(x)) for x in grid.split(",")]
        assert digest(instantiate_schemas(p, points)) == PINNED[(name, grid)]
        assert len(calls) == len(set(calls))
        # every binding that some environment of the clause's schema gives
        values = sorted(set(p.domain.grid_values(points)))
        want, occurrences = set(), 0
        for r in p.relations:
            if isinstance(r, RelationSchema):
                for env in presentation._bindings(r.params, values, r.conds):
                    for cl in r.lhs.clauses + r.rhs.clauses:
                        want.add((id(cl), frozenset((k, env[k]) for k in self.reads(cl) if k in env)))
                        occurrences += 1
        assert set(calls) == want
        assert len(calls) < occurrences

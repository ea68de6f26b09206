import json
import random

import pytest

from locale_forge import intervals, serialize
from locale_forge.evaluate import eval_frame
from locale_forge.lattice import FiniteLattice, FinitePoset, MonotoneMap, downsets
from locale_forge.suites import rand_sup_presentation
from locale_forge.transform import identity_spec
from locale_forge.lattice import QuotientMode
from locale_forge.intervals import circle_open_spec, circle_proper_spec


def canon(doc) -> str:
    return json.dumps(doc, sort_keys=True)


class TestJsonRoundTrips:
    def test_poset(self):
        p = FinitePoset.from_pairs(["a", "b", "c"], [(0, 2), (1, 2)])
        doc = serialize.poset_to_jsonable(p)
        assert doc["elements"] == ["a", "b", "c"]
        assert [0, 2] in doc["leq"] and [0, 0] in doc["leq"]
        back = serialize.poset_from_jsonable(doc)
        assert back.elements == p.elements and back.up == p.up

    def test_lattice_and_map(self):
        L = downsets(FinitePoset.from_pairs(["a", "b"], []))
        doc = serialize.lattice_to_jsonable(L)
        assert doc["flags"]["frame"]
        back = serialize.lattice_from_jsonable(doc)
        assert back.poset.elements == L.poset.elements
        assert serialize.map_to_jsonable(MonotoneMap(L, L, (0, 1, 1, 3))) == {"table": [0, 1, 1, 3]}

    def test_presentation_bit_exact(self):
        rng = random.Random(5)
        for _ in range(8):
            p = rand_sup_presentation(rng)
            blob = canon(serialize.presentation_to_jsonable(p))
            back = serialize.presentation_from_jsonable(json.loads(blob))
            assert canon(serialize.presentation_to_jsonable(back)) == blob

    def test_specs(self):
        rng = random.Random(6)
        p = rand_sup_presentation(rng)
        spec = identity_spec(p.domain, QuotientMode.OPEN)
        blob = canon(serialize.spec_to_jsonable(spec))
        back = serialize.spec_from_jsonable(json.loads(blob))
        assert canon(serialize.spec_to_jsonable(back)) == blob
        for schematic in (circle_open_spec(), circle_proper_spec()):
            blob = canon(serialize.spec_to_jsonable(schematic))
            back = serialize.spec_from_jsonable(json.loads(blob))
            assert canon(serialize.spec_to_jsonable(back)) == blob

    @pytest.mark.parametrize(
        "make, transported",
        [
            (intervals.real_presentation, False),
            (intervals.unit_interval_presentation, False),
            (intervals.circle_open_presentation, True),
            (intervals.circle_proper_presentation, True),
            (lambda: intervals.circle_proper_presentation(simplify=True), True),
        ],
        ids=["real-line", "unit-interval", "circle-open", "circle-proper", "circle-proper-simplified"],
    )
    def test_the_builtin_presentations(self, make, transported):
        # the circles' transported schemas write max/min endpoints, which
        # only a read-back decodes
        p = make()
        blob = canon(serialize.presentation_to_jsonable(p))
        back = serialize.presentation_from_jsonable(json.loads(blob))
        assert back == p
        assert canon(serialize.presentation_to_jsonable(back)) == blob
        assert ('"op": "max"' in blob and '"op": "min"' in blob) == transported

    def test_presented_object(self):
        rng = random.Random(7)
        p = rand_sup_presentation(rng)
        obj = eval_frame(p)
        doc = serialize.presented_to_jsonable(obj)
        assert doc["category"] == "frame"
        assert set(doc["interp"]) == set(obj.interp)
        assert doc["carrier"]["flags"]["frame"]

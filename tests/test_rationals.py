"""``ExtRat`` against a reference kept here: each value as the pair
(sign, Fraction), ordered as a tuple, which puts -inf below every rational
and +inf above."""

import itertools
import operator
import pickle
import random
from fractions import Fraction

import pytest

from locale_forge.rationals import NEG_INF, POS_INF, ExtRat, emax, emin, parse_extrat, rat


def ref(x: ExtRat) -> tuple[int, Fraction]:
    return (x.sign, Fraction(x.value))


def ref_str(x: ExtRat) -> str:
    return {-1: "-inf", 1: "+inf"}.get(x.sign) or str(Fraction(x.value))


def seeded_values(seed: int) -> list[ExtRat]:
    """Both infinities, the same values built in different ways, and seeded
    rationals with small numerators and denominators of both signs."""
    rng = random.Random(seed)
    out = [
        NEG_INF,
        POS_INF,
        ExtRat(-1),
        ExtRat(1, Fraction(0)),
        parse_extrat("1/2"),
        parse_extrat("2/4"),
        ExtRat(0, Fraction(1, 2)),
        rat(Fraction(-3, 6)),
        parse_extrat("-1/2"),
        rat(0),
        parse_extrat("0/5"),
        ExtRat(0),
        rat(3),
        parse_extrat("6/2"),
        ExtRat(0, Fraction(3)),
    ]
    for _ in range(40):
        out.append(rat(Fraction(rng.randint(-20, 20), rng.randint(1, 9))))
    return out


COMPARISONS = [operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne]


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestAgainstFractions:
    def test_comparisons(self, seed):
        values = seeded_values(seed)
        for x, y in itertools.product(values, repeat=2):
            for cmp in COMPARISONS:
                assert cmp(x, y) == cmp(ref(x), ref(y)), (x, y, cmp.__name__)

    def test_hash(self, seed):
        values = seeded_values(seed)
        for x in values:
            assert hash(x) == hash((x.sign, x.value)) == hash(x)
        for x, y in itertools.product(values, repeat=2):
            if x == y:
                assert hash(x) == hash(y)
        assert len(set(values)) == len({ref(x) for x in values})

    def test_max_min_and_sorting(self, seed):
        values = seeded_values(seed)
        for x, y in itertools.product(values, repeat=2):
            assert ref(emax(x, y)) == max(ref(x), ref(y))
            assert ref(emin(x, y)) == min(ref(x), ref(y))
        assert [ref(x) for x in sorted(values)] == sorted(ref(x) for x in values)

    def test_integer_shift(self, seed):
        for x in seeded_values(seed):
            for n in range(-3, 4):
                want = ref(x) if x.sign else (0, x.value + n)
                assert ref(x + n) == want
                assert x + n == ExtRat(*want)

    def test_str(self, seed):
        for x in seeded_values(seed):
            assert str(x) == repr(x) == ref_str(x)
            assert parse_extrat(str(x)) == x


def test_equal_values_built_differently():
    halves = [parse_extrat("1/2"), parse_extrat("2/4"), ExtRat(0, Fraction(1, 2)), rat(Fraction(2, 4))]
    assert len(set(halves)) == 1
    assert all(a == b and a <= b and a >= b and not a < b for a, b in itertools.product(halves, repeat=2))
    assert ExtRat(-1) == NEG_INF and ExtRat(1) == POS_INF
    assert NEG_INF < rat(-(10**30)) and rat(10**30) < POS_INF
    assert not NEG_INF < NEG_INF and NEG_INF <= NEG_INF


def test_bad_constructors_raise():
    with pytest.raises(ValueError, match="bad infinity sign"):
        ExtRat(2)
    with pytest.raises(ValueError, match="bad infinity sign"):
        ExtRat(-2, Fraction(0))
    with pytest.raises(ValueError, match="infinite endpoint carries no finite part"):
        ExtRat(1, Fraction(1, 2))
    with pytest.raises(ValueError, match="infinite endpoint carries no finite part"):
        ExtRat(-1, Fraction(-3))


def test_immutable_and_picklable():
    x = parse_extrat("-7/3")
    with pytest.raises(AttributeError):
        x.value = Fraction(1)
    with pytest.raises(AttributeError):
        del x.sign
    for y in (x, NEG_INF, POS_INF):
        z = pickle.loads(pickle.dumps(y))
        assert z == y and hash(z) == hash(y) and str(z) == str(y)


def test_not_equal_to_other_types():
    assert rat(1) != 1
    assert rat(1) != (0, Fraction(1))
    assert rat(Fraction(1, 2)) != Fraction(1, 2)

"""Exact extended rationals: Fraction endpoints plus signed infinities.

Interval endpoints live in Q u {-oo, +oo}.  No floats anywhere; all
comparisons and lattice operations (max/min) are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction, "ExtRat"]


@dataclass(frozen=True, order=False)
class ExtRat:
    """A rational number or one of the two infinities.

    ``sign`` is -1 for -oo, +1 for +oo and 0 for a finite value.
    """

    sign: int
    value: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"bad infinity sign {self.sign!r}")
        if self.sign != 0 and self.value != 0:
            raise ValueError("infinite endpoint carries no finite part")

    @property
    def finite(self) -> bool:
        return self.sign == 0

    def __lt__(self, other: "ExtRat") -> bool:
        if self.sign != other.sign:
            return self.sign < other.sign
        return self.sign == 0 and self.value < other.value

    def __le__(self, other: "ExtRat") -> bool:
        return self == other or self < other

    def __gt__(self, other: "ExtRat") -> bool:
        return other < self

    def __ge__(self, other: "ExtRat") -> bool:
        return other <= self

    def __add__(self, shift: int) -> "ExtRat":
        # Shifting by an integer; infinities and a zero shift leave it as is.
        if self.sign != 0 or not shift:
            return self
        return ExtRat(0, self.value + shift)

    def __str__(self) -> str:
        if self.sign < 0:
            return "-inf"
        if self.sign > 0:
            return "+inf"
        v = self.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    __repr__ = __str__


NEG_INF = ExtRat(-1)
POS_INF = ExtRat(1)


def rat(x: RatLike) -> ExtRat:
    """Coerce an int/Fraction/ExtRat to an ExtRat."""
    if isinstance(x, ExtRat):
        return x
    return ExtRat(0, Fraction(x))


def emax(a: ExtRat, b: ExtRat) -> ExtRat:
    return a if b < a else b


def emin(a: ExtRat, b: ExtRat) -> ExtRat:
    return a if a < b else b


def parse_extrat(text: str) -> ExtRat:
    """Parse ``p``, ``p/q``, ``-inf`` or ``+inf``/``inf``."""
    t = text.strip()
    if t in ("-inf", "-oo"):
        return NEG_INF
    if t in ("+inf", "inf", "+oo", "oo"):
        return POS_INF
    try:
        return ExtRat(0, Fraction(t))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc

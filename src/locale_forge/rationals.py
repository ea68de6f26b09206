"""Exact extended rationals: Fraction endpoints plus signed infinities.

Interval endpoints live in Q u {-oo, +oo}.  No floats anywhere; all
comparisons and lattice operations (max/min) are exact.  Each value keeps
its numerator and denominator, read once from the ``Fraction`` when it is
built, and compares by integer cross-multiplication: the denominators are
positive, so ``a/b < c/d`` iff ``a*d < c*b``.  An infinity has value 0, so
two equal infinities compare as 0 against 0 once their signs agree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction, "ExtRat"]


class ExtRat:
    """A rational number or one of the two infinities.

    ``sign`` is -1 for -oo, +1 for +oo and 0 for a finite value.  Instances
    are immutable; equality is equality of ``(sign, value)`` and the hash
    is ``hash((sign, value))``, computed on first use and kept.
    """

    __slots__ = ("sign", "value", "_n", "_d", "_hash")

    def __init__(self, sign: int, value: Fraction = Fraction(0)) -> None:
        if sign not in (-1, 0, 1):
            raise ValueError(f"bad infinity sign {sign!r}")
        if sign != 0 and value != 0:
            raise ValueError("infinite endpoint carries no finite part")
        init = object.__setattr__
        init(self, "sign", sign)
        init(self, "value", value)
        init(self, "_n", value.numerator)
        init(self, "_d", value.denominator)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return ExtRat, (self.sign, self.value)

    @property
    def finite(self) -> bool:
        return self.sign == 0

    def __eq__(self, other) -> bool:
        if other.__class__ is not ExtRat:
            return NotImplemented
        return self.sign == other.sign and self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.sign, self.value))
            object.__setattr__(self, "_hash", h)
            return h

    def __lt__(self, other: "ExtRat") -> bool:
        if self.sign != other.sign:
            return self.sign < other.sign
        return self._n * other._d < other._n * self._d

    def __le__(self, other: "ExtRat") -> bool:
        if self.sign != other.sign:
            return self.sign < other.sign
        return self._n * other._d <= other._n * self._d

    def __gt__(self, other: "ExtRat") -> bool:
        if self.sign != other.sign:
            return self.sign > other.sign
        return self._n * other._d > other._n * self._d

    def __ge__(self, other: "ExtRat") -> bool:
        if self.sign != other.sign:
            return self.sign > other.sign
        return self._n * other._d >= other._n * self._d

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
        return str(self._n) if self._d == 1 else f"{self._n}/{self._d}"

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

"""Exact MV- and PMV-algebra arithmetic on the rational unit interval.

Values are plain ``fractions.Fraction`` objects; every operation here is
exact, so algebraic identities can be asserted with ``==`` rather than a
tolerance.  The dyadic constant algebra (the subalgebra generated by 1/2)
is represented by :class:`SConstant`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def fraction(text: str) -> Fraction:
    """An exact rational read from text such as ``3/8``, ``0.25`` or ``1``.

    Every malformed text is a ``ValueError``, a zero denominator too,
    where ``Fraction`` itself raises ``ZeroDivisionError``.
    """
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text}") from None


def unit(value) -> Fraction:
    """Coerce to an exact rational in [0, 1], rejecting anything outside."""
    v = Fraction(value)
    if not ZERO <= v <= ONE:
        raise ValueError(f"unit-interval value out of range: {v}")
    return v


def mv_oplus(x: Fraction, y: Fraction) -> Fraction:
    """Truncated sum: min(1, x + y)."""
    return min(ONE, x + y)


def mv_neg(x: Fraction) -> Fraction:
    return ONE - x


def mv_odot(x: Fraction, y: Fraction) -> Fraction:
    """Truncated difference-from-one: max(0, x + y - 1)."""
    return max(ZERO, x + y - ONE)


def mv_implies(x: Fraction, y: Fraction) -> Fraction:
    return min(ONE, ONE - x + y)


def mv_meet(x: Fraction, y: Fraction) -> Fraction:
    # Equal to x (.) (x -> y); asserted as a property test, used as min here.
    return min(x, y)


def mv_join(x: Fraction, y: Fraction) -> Fraction:
    return max(x, y)


def pmv_product(x: Fraction, y: Fraction) -> Fraction:
    """The monoid product of the unit-interval PMV structure (ordinary *)."""
    return x * y


def is_dyadic(value: Fraction) -> bool:
    """True iff the reduced denominator is a power of two."""
    d = Fraction(value).denominator
    return d & (d - 1) == 0


@dataclass(frozen=True)
class SConstant:
    """A dyadic rational ``numerator / 2**exponent`` in [0, 1].

    Normalised on construction: the numerator is odd unless the value is
    0 or 1, in which case the exponent is 0.
    """

    numerator: int
    exponent: int

    def __post_init__(self):
        num, exp = self.numerator, self.exponent
        if num < 0 or exp < 0:
            raise ValueError("negative components in dyadic constant")
        if num > (1 << exp):
            raise ValueError(
                f"dyadic constant {num}/2^{exp} exceeds 1"
            )
        while num and num % 2 == 0:
            num //= 2
            exp -= 1
        if num == 0:
            exp = 0
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "exponent", exp)

    @classmethod
    def from_fraction(cls, value) -> "SConstant":
        v = unit(value)
        if not is_dyadic(v):
            raise ValueError(f"not a dyadic rational: {v}")
        return cls(v.numerator, v.denominator.bit_length() - 1)

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    def __str__(self) -> str:
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/{1 << self.exponent}"

    # The constant algebra is closed under all four operations; each one
    # round-trips through Fraction and back to lowest dyadic terms.

    def oplus(self, other: "SConstant") -> "SConstant":
        return SConstant.from_fraction(mv_oplus(self.value, other.value))

    def odot(self, other: "SConstant") -> "SConstant":
        return SConstant.from_fraction(mv_odot(self.value, other.value))

    def neg(self) -> "SConstant":
        return SConstant.from_fraction(mv_neg(self.value))

    def implies(self, other: "SConstant") -> "SConstant":
        return SConstant.from_fraction(mv_implies(self.value, other.value))

    def product(self, other: "SConstant") -> "SConstant":
        return SConstant.from_fraction(pmv_product(self.value, other.value))


S_BOT = SConstant(0, 0)
S_TOP = SConstant(1, 0)
S_HALF = SConstant(1, 1)


def s_approximate(target, epsilon) -> SConstant:
    """A dyadic constant within ``epsilon`` of ``target``.

    Truncates the binary expansion of the target; the bit count is two
    more than needed for the bound, so the error is below epsilon/4.
    """
    t = unit(target)
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    bits = 2
    while (1 << (bits - 2)) * eps.numerator < eps.denominator:
        bits += 1
    scaled = (t.numerator << bits) // t.denominator
    return SConstant(scaled, bits)


def s_above_q5_bound(s) -> bool:
    """Exact test for s >= (2 + sqrt(2))/8.

    Decided by squaring: s is above the bound iff 8s - 2 >= 0 and
    (8s - 2)^2 >= 2.  A dyadic (indeed any rational) s can never equal
    the irrational bound, so >= and > coincide.
    """
    v = s.value if isinstance(s, SConstant) else Fraction(s)
    t = 8 * v - 2
    return t >= 0 and t * t >= 2

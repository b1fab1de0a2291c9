"""Slopes on the torus: elements of Q u {1/0} as canonical coprime pairs.

A slope is the isotopy class of an essential simple closed curve on a
torus.  After fixing a homology basis, slopes are the points of the
extended rationals.  We store the canonical representative (p, q) with
gcd(|p|, |q|) = 1 and q > 0, except for infinity which is stored as
(1, 0).  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError, ascii_integer, excerpt, integer

__all__ = ["Slope", "slope_normalize", "intersection_number", "bezout", "INFINITY"]


def _as_int(x, what="a slope entry"):
    """x as an int; an integral Fraction is converted, all else must pass integer()."""
    if not isinstance(x, int):
        from fractions import Fraction  # not loaded by commands that never meet one

        if isinstance(x, Fraction) and x.denominator == 1:
            return int(x)
    return integer(x, what)


class Slope:
    """A canonical coprime pair (p, q): the slope p/q, with 1/0 = infinity."""

    __slots__ = ("p", "q")

    def __init__(self, p, q):
        p = _as_int(p)
        q = _as_int(q)
        if p == 0 and q == 0:
            raise InvalidInputError("slope (0, 0) is not defined")
        g = math.gcd(abs(p), abs(q))
        p //= g
        q //= g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def of_primitive(cls, p, q):
        """Slope(p, q) for integers with gcd(p, q) = 1, skipping the gcd."""
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Slope is immutable")

    @property
    def is_infinity(self):
        return self.q == 0

    def as_fraction(self):
        """The slope as an exact Fraction.  Raises for infinity."""
        if self.q == 0:
            raise InvalidInputError("infinity has no finite fraction value")
        from fractions import Fraction

        return Fraction(self.p, self.q)

    def vector(self):
        """Canonical primitive homology vector (p, q)."""
        return (self.p, self.q)

    @classmethod
    def parse(cls, text):
        """Parse "p/q" or "p" of ASCII integers; "1/0" is infinity."""
        try:
            num, slash, den = text.partition("/")
            return cls(ascii_integer(num), ascii_integer(den) if slash else 1)
        except ValueError as exc:
            raise InvalidInputError(f"malformed slope {excerpt(text)}") from exc

    def __str__(self):
        return f"{self.p}/{self.q}"

    def __repr__(self):
        return f"Slope({self.p}, {self.q})"

    def __eq__(self, other):
        if not isinstance(other, Slope):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q))

    def __lt__(self, other):
        """Order by rational value, with infinity greatest.

        This is the tie-breaking order used for deterministic geodesics.
        """
        if not isinstance(other, Slope):
            return NotImplemented
        if self.q == 0:
            return False
        if other.q == 0:
            return True
        return self.p * other.q < other.p * self.q

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return not (self <= other)

    def __ge__(self, other):
        return not (self < other)


INFINITY = Slope(1, 0)


def slope_normalize(p, q):
    """Canonical coprime representative of p/q (q > 0, or (1, 0) for infinity)."""
    return Slope(p, q)


def intersection_number(s, t):
    """Minimal geometric intersection number of two slopes: |p q' - q p'|."""
    return abs(s.p * t.q - s.q * t.p)


def bezout(p, q):
    """Coefficients (x, y) with x*p + y*q = 1 for coprime integers p, q.

    Extended Euclid, with the sign fixed so the gcd comes out as +1; then
    [[x, y], [-q, p]] is an SL2(Z) matrix sending the slope p/q to 1/0.
    """
    old_r, r = p, q
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_x, x = x, old_x - quot * x
        old_y, y = y, old_y - quot * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y

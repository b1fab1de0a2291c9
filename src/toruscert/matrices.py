"""Exact 2x2 determinant-one matrices over Q and their action on slopes.

These matrices act on slopes as linear fractional transformations.  A
matrix m is stored as the integer matrix d(m)*m together with d(m), the
least integer d >= 1 with d*m integral; every other module reads that
form instead of rescaling entries.  Nothing here ever touches a float,
because the downstream criteria (square discriminants, strict trace
inequalities) are exact dichotomies.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._value import Value, set_field
from .errors import InvalidInputError, excerpt, integer
from .slopes import Slope

__all__ = [
    "UnimodularQ",
    "UnimodularZ",
    "PrimitiveClass",
    "Eigenslopes",
    "compose",
    "from_scaled",
    "is_square",
    "lft_apply",
    "rational_eigenslopes",
    "denominator",
]


def _frac(x):
    if isinstance(x, bool):
        raise InvalidInputError("matrix entries must be rational, got bool")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise InvalidInputError(f"matrix entries must be exact rationals, got {excerpt(x)}")


def _init(m, scaled, den):
    set_field(m, "scaled", scaled)
    set_field(m, "_den", den)
    return m


def _checked(m):
    """m, after checking det m = 1, that is AD - BC = d(m)^2."""
    a, b, c, d = m.scaled
    if a * d - b * c != m._den**2:
        det = Fraction(a * d - b * c, m._den**2)
        raise InvalidInputError(
            f"matrix {excerpt(m)} has determinant {excerpt(det)}, expected 1"
        )
    return m


def _entry(i):
    return property(lambda m: Fraction(m.scaled[i], m._den))


class UnimodularQ(Value):
    """A 2x2 matrix over Q with determinant exactly 1.

    scaled is the integer matrix (A, B, C, D) = d(m)*m, row by row, with
    gcd(A, B, C, D, d(m)) = 1; a, b, c, d and entries() are the exact
    Fraction entries.
    """

    __slots__ = ("scaled", "_den")

    def __init__(self, a, b, c, d):
        entries = [_frac(x) for x in (a, b, c, d)]
        den = math.lcm(*(x.denominator for x in entries))
        scaled = tuple(x.numerator * (den // x.denominator) for x in entries)
        _checked(_init(self, scaled, den))

    a, b, c, d = _entry(0), _entry(1), _entry(2), _entry(3)

    def entries(self):
        return tuple(Fraction(x, self._den) for x in self.scaled)

    def trace(self):
        return Fraction(self.scaled[0] + self.scaled[3], self._den)

    def invert(self):
        """Exact inverse [[d, -b], [-c, a]] (determinant is 1)."""
        a, b, c, d = self.scaled
        return _init(object.__new__(type(self)), (d, -b, -c, a), self._den)

    def __mul__(self, other):
        if isinstance(other, UnimodularQ):
            return compose(self, other)
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            return self.invert() ** (-n)
        result = type(self)(1, 0, 0, 1)
        base = self
        while n:
            if n & 1:
                result = compose(result, base)
            base = compose(base, base)
            n >>= 1
        return result

    def is_identity(self):
        return self.scaled == (1, 0, 0, 1) and self._den == 1

    def is_plus_minus_identity(self):
        a, b, c, d = self.scaled
        return self._den == 1 and b == 0 and c == 0 and a == d and abs(a) == 1

    def __eq__(self, other):
        # isinstance, not the class: a Q and a Z matrix with equal entries are equal
        if not isinstance(other, UnimodularQ):
            return NotImplemented
        return self.scaled == other.scaled and self._den == other._den

    __hash__ = Value.__hash__

    def __reduce__(self):
        return type(self), self.entries()

    def __repr__(self):
        return f"{type(self).__name__}({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def _integral(m):
    """m, after checking d(m) = 1."""
    if m._den != 1:
        raise InvalidInputError(f"integer matrix expected, got {excerpt(m)}")
    return m


class UnimodularZ(UnimodularQ):
    """A 2x2 integer matrix with determinant exactly 1 (a gluing map)."""

    __slots__ = ()

    def __init__(self, a, b, c, d):
        super().__init__(a, b, c, d)
        _integral(self)


def from_scaled(a, b, c, d, den, integral=False):
    """The matrix [[a, b], [c, d]] / den from integers, den != 0.

    A UnimodularZ when integral, which then requires an integer matrix.
    """
    if den == 0:
        raise InvalidInputError("matrix denominator must be nonzero")
    if den < 0:
        a, b, c, d, den = -a, -b, -c, -d, -den
    g = math.gcd(a, b, c, d, den)
    scaled = (a // g, b // g, c // g, d // g)
    m = _init(object.__new__(UnimodularZ if integral else UnimodularQ), scaled, den // g)
    _checked(m)
    return _integral(m) if integral else m


def compose(first, second):
    """Matrix product first * second; integral whenever both factors are."""
    a, b, c, d = first.scaled
    e, f, g, h = second.scaled
    scaled = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    den = first._den * second._den
    k = math.gcd(*scaled, den)
    if k != 1:
        scaled, den = tuple(x // k for x in scaled), den // k
    integral = isinstance(first, UnimodularZ) and isinstance(second, UnimodularZ)
    return _init(object.__new__(UnimodularZ if integral else UnimodularQ), scaled, den)


def lft_apply(m, s):
    """Image of a slope under the linear fractional action.

    Works through the column-vector form, so infinity needs no special
    case: (p, q) maps to (A p + B q, C p + D q) under the integer form,
    and Slope renormalizes.
    """
    a, b, c, d = m.scaled
    return Slope(a * s.p + b * s.q, c * s.p + d * s.q)


def denominator(m):
    """Least integer d >= 1 such that d*m has integer entries."""
    return m._den


def _square_residues(modulus):
    table = [False] * modulus
    for k in range(modulus // 2 + 1):
        table[k * k % modulus] = True
    return table


# Squares mod 64, 63, 65 and 11 (63 * 65 * 11 = 45045): a non-square
# survives all four tables with probability 12/64 * 16/63 * 21/65 * 6/11,
# under 1%.
_SQUARE_MOD_64 = _square_residues(64)
_SQUARE_MOD_63 = _square_residues(63)
_SQUARE_MOD_65 = _square_residues(65)
_SQUARE_MOD_11 = _square_residues(11)


def is_square(n):
    """True iff the integer n is a perfect square.

    The residue tables cost one mask and one remainder of n and reject
    about 99% of non-squares; isqrt decides every n they let through.
    """
    if n < 0 or not _SQUARE_MOD_64[n & 63]:
        return False
    r = n % 45045
    if not (_SQUARE_MOD_63[r % 63] and _SQUARE_MOD_65[r % 65] and _SQUARE_MOD_11[r % 11]):
        return False
    root = math.isqrt(n)
    return root * root == n


class Eigenslopes(Value):
    """Result of the rational eigenslope computation.

    fixes_all is True exactly for plus or minus the identity, whose action
    fixes every slope; then slopes is empty.  Otherwise slopes holds the 0,
    1 or 2 rational eigenslopes in increasing slope order.
    """

    __slots__ = ("fixes_all", "slopes")

    def __init__(self, fixes_all, slopes):
        set_field(self, "fixes_all", fixes_all)
        set_field(self, "slopes", slopes)

    def is_empty(self):
        return not self.fixes_all and not self.slopes

    def witness(self):
        """Some fixed slope, or None when there is none."""
        if self.fixes_all:
            return Slope(0, 1)
        return self.slopes[0] if self.slopes else None


def rational_eigenslopes(m):
    """The exact set of slopes fixed by the linear fractional action of m.

    With (A, B, C, D) the integer form of m, a finite slope r is fixed iff
    C r^2 + (D - A) r - B = 0; infinity is fixed iff C = 0.  The quadratic
    has rational roots iff the integer discriminant (D - A)^2 + 4 B C is a
    perfect square, decided by is_square.  For plus or minus the identity
    every slope is fixed and the distinguished fixes_all value is returned.
    """
    if m.is_plus_minus_identity():
        return Eigenslopes(fixes_all=True, slopes=())
    a, b, c, d = m.scaled
    found = []
    if c == 0:
        found.append(Slope(1, 0))
        if d != a:
            found.append(Slope(b, d - a))
        # d == a with b != 0 is a nontrivial parabolic: infinity only.
    else:
        disc = (d - a) ** 2 + 4 * b * c
        if is_square(disc):
            root = math.isqrt(disc)
            found.append(Slope(a - d + root, 2 * c))
            if root != 0:
                found.append(Slope(a - d - root, 2 * c))
    return Eigenslopes(fixes_all=False, slopes=tuple(sorted(found)))


class PrimitiveClass(Value):
    """A primitive integer vector with a positive multiplicity.

    Models the homology class of a disjoint union of m parallel copies of
    the (p, q) curve: the actual class is m * (p, q).
    """

    __slots__ = ("p", "q", "multiplicity")

    def __init__(self, p, q, multiplicity=1):
        p = integer(p, "a primitive class entry")
        q = integer(q, "a primitive class entry")
        if p == 0 and q == 0:
            raise InvalidInputError("primitive class cannot be the zero vector")
        if math.gcd(abs(p), abs(q)) != 1:
            raise InvalidInputError(f"{excerpt((p, q))} is not primitive")
        multiplicity = integer(multiplicity, "multiplicity", least=1)
        set_field(self, "p", p)
        set_field(self, "q", q)
        set_field(self, "multiplicity", multiplicity)

    @classmethod
    def from_vector(cls, x, y):
        """Split an integer vector into multiplicity * primitive part."""
        if x == 0 and y == 0:
            raise InvalidInputError("zero vector has no primitive part")
        g = math.gcd(abs(x), abs(y))
        return cls(x // g, y // g, g)

    def vector(self):
        return (self.p * self.multiplicity, self.q * self.multiplicity)

    def slope(self):
        return Slope(self.p, self.q)

    def __repr__(self):
        return f"PrimitiveClass({self.p}, {self.q}, multiplicity={self.multiplicity})"

"""Normal curves on the one-vertex triangulation of the torus.

Model.  The torus is the unit square with opposite sides identified; the
single vertex is the corner, the three edges are the horizontal loop, the
vertical loop, and the diagonal from (0,0) to (1,1); the two triangles are
the lower-right and upper-left halves.  Arc type i is the arc cutting off
the corner opposite edge i, with edges numbered 1 = horizontal,
2 = vertical, 3 = diagonal.  Arc counts are the coordinates (x1, x2, x3)
in one triangle; matching forces the same counts in the other.  Homology
basis: the horizontal loop is (1, 0), the vertical loop is (0, 1), and the
slope of a primitive class (p, q) is p/q.

Edge crossing counts of a multicurve: the horizontal edge meets types 2
and 3 (x2 + x3 points), the vertical edge types 1 and 3, the diagonal
types 1 and 2.  A multicurve of k parallel (p, q)-curves therefore has
coordinates

    k * (p - q, 0, q)    for p >= q >= 0   (slope >= 1, including 1/0),
    k * (0, q - p, p)    for 0 <= p <= q   (slope in [0, 1]),
    k * (-p, q, 0)       for p < 0 < q     (negative slope),

and the vertex link is (1, 1, 1).  decompose() inverts these formulas;
the test suite checks it against a tracing oracle that walks the arc
gluings combinatorially and reads homology off signed edge crossings.
"""

from __future__ import annotations

from math import gcd

from ._value import Value, set_field
from .errors import InvalidInputError, NoEssentialComponentError, excerpt, integer
from .slopes import Slope

__all__ = [
    "NormalCoordinates",
    "CurveDecomposition",
    "SignedIntersections",
    "curve_types",
    "decompose",
    "slope_of",
    "from_slope",
    "normal_sign_intersections",
    "oriented_class",
]


class NormalCoordinates(Value):
    """Arc counts (x1, x2, x3) in one triangle; any naturals are admissible."""

    __slots__ = ("x1", "x2", "x3")

    def __init__(self, x1, x2, x3):
        set_field(self, "x1", integer(x1, "a normal coordinate", least=0))
        set_field(self, "x2", integer(x2, "a normal coordinate", least=0))
        set_field(self, "x3", integer(x3, "a normal coordinate", least=0))

    def triple(self):
        return (self.x1, self.x2, self.x3)

    def __add__(self, other):
        return NormalCoordinates(
            self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3
        )

    def __str__(self):
        return f"({self.x1}, {self.x2}, {self.x3})"


class CurveDecomposition(Value):
    """Essential slope with multiplicity, plus vertex-linking components."""

    __slots__ = ("essential_slope", "essential_multiplicity", "trivial_count")

    def __init__(self, essential_slope, essential_multiplicity, trivial_count):
        if (essential_slope is None) != (essential_multiplicity == 0):
            raise InvalidInputError(
                "essential slope present iff multiplicity is positive"
            )
        set_field(self, "essential_slope", essential_slope)
        set_field(self, "essential_multiplicity", essential_multiplicity)
        set_field(self, "trivial_count", trivial_count)


class SignedIntersections(Value):
    """Counts of positive and negative normal signs in minimal position."""

    __slots__ = ("positives", "negatives")

    def __init__(self, positives, negatives):
        set_field(self, "positives", positives)
        set_field(self, "negatives", negatives)

    @property
    def algebraic(self):
        return self.positives - self.negatives

    @property
    def geometric(self):
        return self.positives + self.negatives


def curve_types(x):
    """The set of types of the curve: i such that x_i <= x_j for all j."""
    t = x.triple()
    m = min(t)
    return {i + 1 for i in range(3) if t[i] == m}


def decompose(x):
    """Split coordinates into trivial components and one essential slope.

    The minimum coordinate counts vertex links; the remainder has a zero
    coordinate and determines the slope by the crossing-count formulas in
    the module docstring.  Cross-checked exhaustively against the tracing
    oracle in the test suite.
    """
    m = min(x.triple())
    y1, y2, y3 = (v - m for v in x.triple())
    if y1 == y2 == y3 == 0:
        return CurveDecomposition(None, 0, m)
    if y1 == 0:
        num, den, mult = y3, y2 + y3, gcd(y2, y3)
    elif y2 == 0:
        num, den, mult = y1 + y3, y3, gcd(y1, y3)
    else:
        num, den, mult = -y1, y2, gcd(y1, y2)
    return CurveDecomposition(Slope(num, den), mult, m)


def slope_of(x):
    """The slope of the essential part; error if every component is trivial."""
    dec = decompose(x)
    if dec.essential_slope is None:
        raise NoEssentialComponentError(
            f"normal coordinates {excerpt(x.triple())} carry no essential component"
        )
    return dec.essential_slope


def _essential_coordinates(s, mult):
    p, q = s.p, s.q
    if p >= q:
        return (mult * (p - q), 0, mult * q)
    if p >= 0:
        return (0, mult * (q - p), mult * p)
    return (mult * (-p), mult * q, 0)


def from_slope(s, mult=1, trivial=0):
    """Minimal coordinates of mult parallel s-curves plus trivial vertex links."""
    integer(mult, "multiplicity", least=1)
    integer(trivial, "trivial count", least=0)
    e1, e2, e3 = _essential_coordinates(s, mult)
    return NormalCoordinates(e1 + trivial, e2 + trivial, e3 + trivial)


def normal_sign_intersections(x, y):
    """Signed intersection counts of two normal multicurves in minimal position.

    With X = x.triple() and Y = y.triple() as given (multiplicities and
    vertex links included), the counts are

        geometric = |det(u, v)| * m_x * m_y    (u, v the essential slopes),
        algebraic = det[(1, 1, 1); X; Y]
                  = X1 (Y2 - Y3) + X2 (Y3 - Y1) + X3 (Y1 - Y2),

    and positives, negatives = (geometric +- algebraic) / 2.  The first is
    the intersection number of minimal position: vertex links are pushed
    off everything and parallel essential curves are disjoint.

    The second holds for any normal position.  Fix a triangle, a side e of
    it with its boundary direction, an endpoint a of x and an endpoint b of
    y on e, and let h_e(a, b) = 1/2 if b comes before a along e, -1/2
    otherwise.  The boundary rule signs a crossing by the order of the two
    arcs' endpoints on a side they share.  Two arcs of the same type share
    two sides: h summed over both is the sign if they cross (the two sides
    agree) and 0 if they are nested.  Arcs of types i != j share one side,
    and cross iff the arc of type i ends beyond the arc of type j there;
    corners 1, 2, 3 run counterclockwise in both triangles, so such a
    crossing has sign s(i, j) = +1 for j = i + 1 (mod 3) and -1 for
    j = i - 1, and h_e = s(i, j) / 2 if they cross, -s(i, j) / 2 if not.
    So in every triangle the signed count is the sum of h over all
    endpoint pairs on its sides plus sum over i != j of X_i Y_j s(i, j) / 2.
    Each edge lies in both triangles with opposite boundary directions and
    the same endpoints, so the h terms cancel, and the two triangles leave
    sum X_i Y_{i+1} - sum X_{i+1} Y_i, which is the determinant.

    The determinant vanishes on the vertex link (1, 1, 1) and scales with
    multiplicities.  For curves sharing a type t, both essential parts have
    their zero coordinate at t, and the determinant is
    det(oriented_class(t, v), oriented_class(t, u)) * m_x * m_y, the
    convention line of the package.  For curves in different sign regions
    (no shared type) the zeros sit in different places, the geometric
    count is sum X_i Y_{i+1} + sum X_{i+1} Y_i, and so the positives are
    sum X_i Y_{i+1} and the negatives sum X_{i+1} Y_i.  The test suite
    checks every count against a per-crossing oracle.
    """
    du, dv = decompose(x), decompose(y)
    if du.essential_slope is None or dv.essential_slope is None:
        return SignedIntersections(0, 0)
    u, v = du.essential_slope, dv.essential_slope
    geometric = (
        abs(u.p * v.q - u.q * v.p)
        * du.essential_multiplicity
        * dv.essential_multiplicity
    )
    x1, x2, x3 = x.triple()
    y1, y2, y3 = y.triple()
    algebraic = x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2)
    return SignedIntersections(
        (geometric + algebraic) // 2, (geometric - algebraic) // 2
    )


def oriented_class(type_index, s):
    """Homology vector of the slope s oriented by the type convention.

    Orienting the two arc types present in an essential type-i curve
    consistently orients the whole curve, determining its class up to one
    sign choice per type.  Our convention is the canonical vector (p, q),
    except that a type 3 curve of slope 1/0 is oriented as (-1, 0).  With
    this convention, for curves x and y sharing type t,

        normal_sign_intersections(x, y).algebraic
            = det(oriented_class(t, slope_y), oriented_class(t, slope_x))
              * multiplicity_x * multiplicity_y,

    the shared-type case of the determinant in normal_sign_intersections.
    """
    integer(type_index, "a curve type", 1, 3)
    if type_index not in curve_types(from_slope(s)):
        raise InvalidInputError(
            f"slope {excerpt(s)} is not a type {type_index} curve"
        )
    if type_index == 3 and s.q == 0:
        return (-1, 0)
    return (s.p, s.q)

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
trace_components() is the independent oracle that instead walks the arc
gluings combinatorially and reads homology off signed edge crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import InvalidInputError, NoEssentialComponentError
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
    "crossing_signs",
    "trace_components",
    "oriented_class",
]


@dataclass(frozen=True)
class NormalCoordinates:
    """Arc counts (x1, x2, x3) in one triangle; any naturals are admissible."""

    x1: int
    x2: int
    x3: int

    def __post_init__(self):
        for x in self.triple():
            if isinstance(x, bool) or not isinstance(x, int) or x < 0:
                raise InvalidInputError(
                    f"normal coordinates must be naturals, got {self.triple()}"
                )

    def triple(self):
        return (self.x1, self.x2, self.x3)

    def __add__(self, other):
        return NormalCoordinates(
            self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3
        )

    def __str__(self):
        return f"({self.x1}, {self.x2}, {self.x3})"


@dataclass(frozen=True)
class CurveDecomposition:
    """Essential slope with multiplicity, plus vertex-linking components."""

    essential_slope: Slope | None
    essential_multiplicity: int
    trivial_count: int

    def __post_init__(self):
        if (self.essential_slope is None) != (self.essential_multiplicity == 0):
            raise InvalidInputError(
                "essential slope present iff multiplicity is positive"
            )


@dataclass(frozen=True)
class SignedIntersections:
    """Counts of positive and negative normal signs in minimal position."""

    positives: int
    negatives: int

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
    oracle.
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
            f"normal coordinates {x} carry no essential component"
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
    if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
        raise InvalidInputError("multiplicity must be a positive integer")
    if isinstance(trivial, bool) or not isinstance(trivial, int) or trivial < 0:
        raise InvalidInputError("trivial count must be a natural number")
    e1, e2, e3 = _essential_coordinates(s, mult)
    return NormalCoordinates(e1 + trivial, e2 + trivial, e3 + trivial)


# ---------------------------------------------------------------------------
# Tracing oracle: walk the arc gluings, no slope formulas involved.
# ---------------------------------------------------------------------------

def _arc_tables(x):
    """Partner maps for the two triangles.

    Nodes are (edge, slot): edge "h"/"v"/"d", slots 1-based along the edge
    (by x for "h", by y for "v", along the diagonal for "d").  Within each
    triangle the arcs of one type are nested around their corner, which
    forces which slots each arc connects; the slot ranges below are exactly
    the nesting orders in the square model.
    """
    x1, x2, x3 = x.triple()
    n_h, n_v, n_d = x2 + x3, x1 + x3, x1 + x2
    lower, upper = {}, {}

    def link(table, a, b):
        table[a] = b
        table[b] = a

    for k in range(1, x2 + 1):  # lower type 2, corner (0,0)
        link(lower, ("h", k), ("d", k))
    for k in range(1, x3 + 1):  # lower type 3, corner (1,0)
        link(lower, ("h", n_h + 1 - k), ("v", k))
    for k in range(1, x1 + 1):  # lower type 1, corner (1,1)
        link(lower, ("v", n_v + 1 - k), ("d", n_d + 1 - k))
    for k in range(1, x1 + 1):  # upper type 1, corner (0,0)
        link(upper, ("v", k), ("d", k))
    for k in range(1, x3 + 1):  # upper type 3, corner (0,1)
        link(upper, ("v", n_v + 1 - k), ("h", k))
    for k in range(1, x2 + 1):  # upper type 2, corner (1,1)
        link(upper, ("h", n_h + 1 - k), ("d", n_d + 1 - k))
    return lower, upper


def trace_components(x):
    """Components of the normal multicurve, with their homology classes.

    Walks arc to arc through the edge crossings.  Crossing the horizontal
    edge from the upper triangle into the lower one adds (0, 1) to the
    class (the curve wraps once vertically), crossing the vertical edge
    from lower into upper adds (1, 0); the diagonal is interior and
    contributes nothing.  Classes are computed up to sign (a traversal
    direction is chosen arbitrarily).

    Returns a list of (p, q) homology classes, one per component; trivial
    components are the (0, 0) entries.
    """
    lower, upper = _arc_tables(x)
    visited = set()
    components = []
    for start in sorted(lower):
        if start in visited:
            continue
        p_wind = q_wind = 0
        node, exit_lower = start, True
        while True:
            visited.add(node)
            edge = node[0]
            if edge == "h":
                q_wind += 1 if exit_lower else -1
            elif edge == "v":
                p_wind += -1 if exit_lower else 1
            node = (lower if exit_lower else upper)[node]
            exit_lower = not exit_lower
            if node == start and exit_lower:
                break
        components.append((p_wind, q_wind))
    return components


# ---------------------------------------------------------------------------
# Normal signs of intersections in minimal position.
# ---------------------------------------------------------------------------

# Sides of the two triangles with their boundary orientation (both triangles
# are oriented counterclockwise, matching a fixed orientation of the torus).
# Each entry maps a side name to a function giving the position of a point
# along the induced direction.
_LOWER_SIDES = {
    "bottom": lambda z: z[0],        # (0,0) -> (1,0)
    "right": lambda z: z[1],         # (1,0) -> (1,1)
    "diag": lambda z: 1 - z[0],      # (1,1) -> (0,0)
}
_UPPER_SIDES = {
    "diag": lambda z: z[0],          # (0,0) -> (1,1)
    "top": lambda z: 1 - z[0],       # (1,1) -> (0,1)
    "left": lambda z: 1 - z[1],      # (0,1) -> (0,0)
}

_LOWER_TYPE = {
    frozenset(("bottom", "diag")): 2,
    frozenset(("bottom", "right")): 3,
    frozenset(("right", "diag")): 1,
}
_UPPER_TYPE = {
    frozenset(("left", "diag")): 1,
    frozenset(("left", "top")): 3,
    frozenset(("top", "diag")): 2,
}


@dataclass(frozen=True)
class CrossingSign:
    """One intersection point of the primitive representative pair."""

    triangle: str           # "lower" or "upper"
    arc_type_first: int
    arc_type_second: int
    sign: int


def _frac_mod1(f):
    return f - (f.numerator // f.denominator)


def _arc_through(z, w, triangle):
    """Endpoints of the straight normal arc through z in direction w.

    Returns ((side, param), (side, param)) for the two endpoints, where
    param is the position along the side's induced boundary direction.
    """
    zx, zy = z
    wx, wy = Fraction(w[0]), Fraction(w[1])
    if triangle == "lower":
        # bottom: y = 0; right: x = 1; diag: x - y = 0.
        constraints = [
            ("bottom", -zy, wy),          # y + t wy = 0
            ("right", 1 - zx, wx),        # x + t wx = 1
            ("diag", zy - zx, wx - wy),   # (x - y) + t (wx - wy) = 0
        ]
        sides = _LOWER_SIDES
    else:
        constraints = [
            ("left", -zx, wx),
            ("top", 1 - zy, wy),
            ("diag", zy - zx, wx - wy),
        ]
        sides = _UPPER_SIDES
    t_pos, side_pos = None, None
    t_neg, side_neg = None, None
    for side, rhs, coef in constraints:
        if coef == 0:
            continue
        t = rhs / coef
        if t > 0 and (t_pos is None or t < t_pos):
            t_pos, side_pos = t, side
        elif t < 0 and (t_neg is None or t > t_neg):
            t_neg, side_neg = t, side
    if t_pos is None or t_neg is None or side_pos == side_neg:
        raise RuntimeError("degenerate arc placement")
    e_pos = (zx + t_pos * wx, zy + t_pos * wy)
    e_neg = (zx + t_neg * wx, zy + t_neg * wy)
    return (
        (side_pos, sides[side_pos](e_pos)),
        (side_neg, sides[side_neg](e_neg)),
    )


def _normal_sign(arc_first, arc_second):
    """Sign of a crossing from the boundary rule.

    A side of the triangle carrying an endpoint of each arc determines the
    sign: positive when the induced boundary direction runs from the second
    arc's endpoint to the first's.  When two sides qualify they agree; this
    is asserted.
    """
    signs = set()
    for side_a, pos_a in arc_first:
        for side_b, pos_b in arc_second:
            if side_a != side_b:
                continue
            if pos_a == pos_b:
                raise RuntimeError("degenerate endpoint collision")
            signs.add(1 if pos_b < pos_a else -1)
    if len(signs) != 1:
        raise RuntimeError(f"inconsistent boundary rule signs: {signs}")
    return signs.pop()


_OFFSET_SEEDS = (101, 211, 307, 401, 503, 601, 701, 809, 907, 1009)


def _primitive_crossings(u, v, seed):
    """Crossing points of one (u)-line and one (v)-line on the torus.

    Both lines carry deterministic rational offsets built from the seed.
    Returns None if the placement is degenerate (a crossing meets the
    1-skeleton or a line passes through the vertex), so the caller can
    advance to the next seed.
    """
    base_x = (Fraction(1, seed), Fraction(1, seed * seed + 1))
    base_y = (Fraction(2, seed * seed + 3), Fraction(1, seed + 2))
    for base, w in ((base_x, u), (base_y, v)):
        if (base[0] * w[1] - base[1] * w[0]).denominator == 1:
            return None  # line passes through the vertex
    delta = u[0] * v[1] - u[1] * v[0]
    c = (base_x[0] - base_y[0]) * v[1] - (base_x[1] - base_y[1]) * v[0]
    lo, hi = (c, c + delta) if delta > 0 else (c + delta, c)
    points = []
    k = lo.numerator // lo.denominator + 1
    while k < hi:
        t = (k - c) / delta
        zx = _frac_mod1(base_x[0] + t * u[0])
        zy = _frac_mod1(base_x[1] + t * u[1])
        if zx == 0 or zy == 0 or zx == zy:
            return None
        points.append((zx, zy))
        k += 1
    return points


@lru_cache(maxsize=None)
def _primitive_pattern(pu, qu, pv, qv):
    """Per-point normal signs for single curves of distinct slopes u, v."""
    u, v = (pu, qu), (pv, qv)
    for seed in _OFFSET_SEEDS:
        points = _primitive_crossings(u, v, seed)
        if points is None:
            continue
        records = []
        for z in points:
            triangle = "lower" if z[0] > z[1] else "upper"
            arc_u = _arc_through(z, u, triangle)
            arc_v = _arc_through(z, v, triangle)
            type_table = _LOWER_TYPE if triangle == "lower" else _UPPER_TYPE
            records.append(
                CrossingSign(
                    triangle=triangle,
                    arc_type_first=type_table[
                        frozenset(side for side, _ in arc_u)
                    ],
                    arc_type_second=type_table[
                        frozenset(side for side, _ in arc_v)
                    ],
                    sign=_normal_sign(arc_u, arc_v),
                )
            )
        return tuple(records)
    raise RuntimeError(f"no nondegenerate placement found for {u}, {v}")


def crossing_signs(x, y):
    """Per-point sign records for the primitive representative pair.

    In minimal position, trivial components and parallel essential
    components are disjoint, so all intersections come from essential
    parts of distinct slopes; parallel copies repeat the primitive
    pattern, so the records for one representative of each slope carry
    all per-point information.  Empty when there are no crossings.
    """
    du, dv = decompose(x), decompose(y)
    if du.essential_slope is None or dv.essential_slope is None:
        return ()
    if du.essential_slope == dv.essential_slope:
        return ()
    return _primitive_pattern(
        du.essential_slope.p,
        du.essential_slope.q,
        dv.essential_slope.p,
        dv.essential_slope.q,
    )


def normal_sign_intersections(x, y):
    """Signed intersection counts of two normal multicurves in minimal position.

    Minimal position is combinatorial: trivial components are pushed off
    everything, parallel essential components are disjoint, and essential
    parts of distinct slopes are realized as straight closed geodesics,
    whose crossings are automatically minimal.  Each crossing's normal
    sign comes from the boundary rule in the triangle containing it.
    """
    records = crossing_signs(x, y)
    if not records:
        return SignedIntersections(0, 0)
    copies = (
        decompose(x).essential_multiplicity * decompose(y).essential_multiplicity
    )
    pos = sum(1 for r in records if r.sign > 0) * copies
    neg = sum(1 for r in records if r.sign < 0) * copies
    return SignedIntersections(pos, neg)


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

    verified exhaustively against the geometric sign computation for all
    coordinate pairs up to 8.
    """
    if type_index not in (1, 2, 3):
        raise InvalidInputError(f"curve type must be 1, 2 or 3, got {type_index}")
    if type_index not in curve_types(from_slope(s)):
        raise InvalidInputError(f"slope {s} is not a type {type_index} curve")
    if type_index == 3 and s.q == 0:
        return (-1, 0)
    return (s.p, s.q)

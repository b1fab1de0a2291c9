"""Shared random generators and brute-force oracles for the test suite.

Everything is seeded per test, so failures reproduce exactly.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

import pytest

from toruscert._kernels_py import _slope_box, farey_distance
from toruscert.anosov import PrefixDiagnostic, scaled_trace_criterion
from toruscert.classmaps import classmap_to_json
from toruscert.errors import InvalidInputError, NoPathWithinBoundError
from toruscert.farey import FareyPath, is_edge
from toruscert.matrices import (
    Eigenslopes,
    UnimodularQ,
    UnimodularZ,
    denominator,
    rational_eigenslopes,
)
from toruscert.normal import decompose
from toruscert.serialize import format_fraction, matrix_to_json
from toruscert.slopes import Slope, bezout


def random_slope(rng, bound=50):
    while True:
        p = rng.randint(-bound, bound)
        q = rng.randint(0, bound)
        if (p, q) != (0, 0):
            return Slope(p, q)


def random_unimodular_z(rng, length=6, shear=3):
    """Random SL2(Z) element: a word in elementary shear matrices."""
    m = UnimodularZ(1, 0, 0, 1)
    for _ in range(length):
        k = rng.randint(-shear, shear)
        if rng.random() < 0.5:
            e = UnimodularZ(1, k, 0, 1)
        else:
            e = UnimodularZ(1, 0, k, 1)
        m = m * e
    return m


def random_unimodular_q(rng, num_bound=9, den_bound=12):
    """Random determinant-one rational matrix: pick a, b, c, solve for d."""
    while True:
        a = Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
        if a == 0:
            continue
        b = Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
        c = Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
        return UnimodularQ(a, b, c, (1 + b * c) / a)


def random_hyperbolic_z(rng):
    while True:
        m = random_unimodular_z(rng)
        if abs(m.trace()) > 2:
            return m


def random_primitive_vector(rng, bound=20):
    while True:
        x = rng.randint(-bound, bound)
        y = rng.randint(-bound, bound)
        if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1:
            return (x, y)


def slope_from_continued_fraction(quotients):
    """The slope [a0; a1, ..., ak] from its partial quotients."""
    p, q, p_prev, q_prev = 1, 0, 0, 1
    for a in quotients:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return Slope(p, q)


def fixed_slope_scan(a, b, c, d, bound):
    """All slopes with |p|, |q| <= bound fixed by the map (integer matrix).

    The matrix is any nonzero integer multiple of the rational map being
    interrogated (scaling does not change the action).  A slope (p, q) is
    fixed iff its image column (a p + b q, c p + d q) is parallel to it.
    This is the brute-force oracle: it never looks at discriminants.
    """
    hits = []
    for p, q in _slope_box(bound):
        if (a * p + b * q) * q == (c * p + d * q) * p:
            hits.append((p, q))
    return hits


def brute_displacement_scan(a, b, c, d, bound, stop_at):
    """The scan oracle: one farey_distance per slope of the box, in scan order.

    Same contract as min_displacement_scan, with no pruning at all.
    """
    best = -1
    best_p, best_q = 0, 0
    for p, q in _slope_box(bound):
        x = a * p + b * q
        y = c * p + d * q
        g = gcd(abs(x), abs(y))
        x //= g
        y //= g
        if y < 0 or (y == 0 and x < 0):
            x, y = -x, -y
        dist = farey_distance(p, q, x, y)
        if best < 0 or dist < best:
            best = dist
            best_p, best_q = p, q
            if best <= stop_at:
                break
    return best, best_p, best_q


def fraction_mul(m, n):
    """Product of two matrices given as (a, b, c, d) tuples of Fractions."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def fraction_denominator(m):
    """d(m) of a Fraction 4-tuple: the lcm of the entry denominators."""
    return lcm(*(x.denominator for x in m))


def _rational_sqrt(f):
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    if f < 0:
        return None
    n, d = f.numerator, f.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def fraction_eigenslopes(m):
    """Eigenslopes of a Fraction 4-tuple, from the quadratic over Q.

    The oracle for rational_eigenslopes: a finite slope r is fixed iff
    c r^2 + (d - a) r - b = 0, infinity iff c = 0, and the roots are
    rational iff the Fraction discriminant is the square of a rational.
    """
    a, b, c, d = m
    if b == 0 and c == 0 and a == d and abs(a) == 1:
        return Eigenslopes(fixes_all=True, slopes=())
    found = []
    if c == 0:
        found.append(Slope(1, 0))
        if d != a:
            r = b / (d - a)
            found.append(Slope(r.numerator, r.denominator))
    else:
        root = _rational_sqrt((d - a) ** 2 + 4 * b * c)
        if root is not None:
            for r in {(a - d + root) / (2 * c), (a - d - root) / (2 * c)}:
                found.append(Slope(r.numerator, r.denominator))
    return Eigenslopes(fixes_all=False, slopes=tuple(sorted(found)))


def fraction_power_report_json(report):
    """power_report_to_json rebuilt one power at a time over Fractions.

    The oracle for the report's bytes: every prefix entry composes
    sigma^n K, prints Fraction(T, d) through format_fraction, and calls
    scaled_trace_criterion and rational_eigenslopes on that power.
    Returns the JSON form and the PrefixDiagnostic tuple of each class.
    """
    per_class, diagnostics = [], []
    for c in report.per_class:
        k = report.psi * c.class_map.phi
        prefix = []
        for n in range(c.n_class):
            m = report.sigma**n * k
            d = denominator(m)
            t = m.scaled[0] + m.scaled[3]
            prefix.append(
                PrefixDiagnostic(
                    n, Fraction(t, d), d, scaled_trace_criterion(t, d),
                    rational_eigenslopes(m),
                )
            )
        diagnostics.append(tuple(prefix))
        per_class.append({
            "class_map": classmap_to_json(c.class_map),
            "N": c.n_class,
            "tail_index": c.tail_index,
            "tail_kind": c.tail_kind,
            "tail_traces": [format_fraction(t) for t in c.tail_traces],
            "d_K": c.d_k,
            "prefix": [
                {
                    "n": p.n,
                    "trace": format_fraction(p.trace),
                    "denominator": p.denominator,
                    "criterion_passed": p.criterion_passed,
                    "eigenslopes": (
                        "all" if p.eigenslopes.fixes_all
                        else [str(s) for s in p.eigenslopes.slopes]
                    ),
                }
                for p in prefix
            ],
        })
    data = {
        "kind": "power-bound-report",
        "sigma": matrix_to_json(report.sigma),
        "psi": matrix_to_json(report.psi),
        "overall_N": report.overall_n,
        "per_class": per_class,
    }
    return data, diagnostics


# ---------------------------------------------------------------------------
# Normal-curve oracles: walk the arc gluings, and place every crossing.
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


# ---------------------------------------------------------------------------
# Farey oracles: breadth-first search over a slope box, and the geodesic
# search over every edge of the target's ancestor graph.
# ---------------------------------------------------------------------------

def _parents(p, q):
    """The two Farey parents of p/q (q >= 2): denominators positive, < q."""
    b1 = pow(p, -1, q)
    a1 = (p * b1 - 1) // q
    b2 = q - b1
    a2 = (p * b2 + 1) // q
    return (a1, b1), (a2, b2)


def _ancestors(p, q):
    """All vertices of Stern-Brocot ancestor chains of p/q, including 1/0."""
    seen = set()
    stack = [(p, q)]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        vp, vq = v
        if vq == 0:
            continue
        if vq == 1:
            stack.append((1, 0))
        else:
            stack.extend(_parents(vp, vq))
    seen.discard((p, q))
    return seen


def ancestor_geodesic(s, t):
    """The geodesic oracle: the least geodesic in the whole ancestor graph.

    Builds every Farey edge among the candidates (quadratic in the sum of
    partial quotients) and searches it breadth first.  Every geodesic
    between the two slopes lives on the ancestor chains of the normalized
    target (any path must enter the Farey interval cut off by a parent
    edge through one of its endpoints), so searching that finite candidate
    set is exhaustive, and picking the least available successor at each
    step yields the lexicographically smallest geodesic.
    """
    if s == t:
        return FareyPath((s,))
    # [[x, y], [-q, p]] maps s to 1/0.
    x, y = bezout(s.p, s.q)
    up = x * t.p + y * t.q
    uq = s.p * t.q - s.q * t.p
    if uq < 0:
        up, uq = -up, -uq
    # Candidates back in original coordinates: apply the inverse matrix.
    candidates = set()
    for cp, cq in _ancestors(up, uq) | {(up, uq)}:
        candidates.add(Slope(s.p * cp - y * cq, s.q * cp + x * cq))
    candidates.add(s)
    candidates.add(t)
    neighbors = {v: [] for v in candidates}
    ordered = sorted(candidates)
    for i, v in enumerate(ordered):
        for w in ordered[i + 1 :]:
            if is_edge(v, w):
                neighbors[v].append(w)
                neighbors[w].append(v)
    # Distances to t inside the candidate graph are the true distances for
    # every vertex lying on some geodesic, which is all we consult.
    dist_to_t = {t: 0}
    frontier = [t]
    while frontier:
        nxt = []
        for v in frontier:
            for w in neighbors[v]:
                if w not in dist_to_t:
                    dist_to_t[w] = dist_to_t[v] + 1
                    nxt.append(w)
        frontier = nxt
    remaining = dist_to_t[s]
    path = [s]
    current = s
    while current != t:
        remaining -= 1
        current = min(
            v for v in neighbors[current] if dist_to_t.get(v) == remaining
        )
        path.append(current)
    return FareyPath(tuple(path))


def _box_neighbors(p, q, bound):
    """Neighbors of p/q with |p'|, |q'| <= bound, by mediant-family enumeration.

    The solutions of p s' - q r' = 1 form the line (r0 + t p, s0 + t q);
    together with their negatives they are all Farey neighbors.  Canonical
    representatives inside the box are returned.
    """
    out = set()
    if q == 0:
        for r in range(-bound, bound + 1):
            out.add((r, 1))
        return out
    s0 = pow(p, -1, q) if q > 1 else 0
    r0 = (p * s0 - 1) // q
    # t-range from |s0 + t q| <= bound; the numerator constraint is checked.
    t_lo = -((bound + s0) // q)
    t_hi = (bound - s0) // q
    for t in range(t_lo, t_hi + 1):
        rp, sp = r0 + t * p, s0 + t * q
        if abs(rp) > bound or abs(sp) > bound:
            continue
        if sp < 0 or (sp == 0 and rp < 0):
            rp, sp = -rp, -sp
        if sp == 0:
            rp = 1
        out.add((rp, sp))
    return out


def bfs_distance_map(s, bound):
    """Breadth-first distances from s in the box-restricted Farey graph.

    Test infrastructure for the oracle: returns {slope tuple: distance}
    over canonical slopes with |p|, |q| <= bound reachable from s.
    """
    start = (s.p, s.q)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in _box_neighbors(v[0], v[1], bound):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def bfs_distance_oracle(s, t, bound):
    """Distance in the subgraph induced on slopes with |p|, |q| <= bound.

    An upper bound for the true distance, equal to it whenever some
    geodesic stays inside the box.  Completely independent of the main
    distance algorithm.
    """
    for v in (s, t):
        if abs(v.p) > bound or v.q > bound:
            raise InvalidInputError(
                f"slope {v} exceeds the oracle bound {bound}"
            )
    target = (t.p, t.q)
    start = (s.p, s.q)
    if start == target:
        return 0
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in _box_neighbors(v[0], v[1], bound):
                if w in dist:
                    continue
                dist[w] = dist[v] + 1
                if w == target:
                    return dist[w]
                nxt.append(w)
        frontier = nxt
    raise NoPathWithinBoundError(
        f"no path from {s} to {t} within coordinate bound {bound}"
    )


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

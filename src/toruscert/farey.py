"""Distance and geodesics in the Farey graph of the torus.

Vertices are slopes; two slopes span an edge when their curves can be
isotoped to meet in a single point, i.e. when |p s' - q r'| = 1.  The
distance algorithm normalizes the source to 1/0 by an SL2(Z) isometry and
reduces along the continued fraction of the image slope (see _kernels_py
for the recurrence); it needs no search bound.  A geodesic is read off
the same continued fraction in O(k) integer steps.  The test suite checks
both against a breadth-first search over a bounded slope box and against
a search over the whole ancestor graph of the target.
"""

from __future__ import annotations

from collections import defaultdict, deque

from . import _speedups
from ._value import Value, set_field
from .slopes import Slope, bezout, intersection_number

__all__ = ["FareyPath", "is_edge", "distance", "geodesic"]


def is_edge(s, t):
    """True iff the two slopes are adjacent in the Farey graph."""
    return intersection_number(s, t) == 1


def distance(s, t):
    """Graph distance between two slopes in the Farey graph."""
    return _speedups.farey_distance(s.p, s.q, t.p, t.q)


class FareyPath(Value):
    """A path in the Farey graph: consecutive vertices adjacent, none repeated."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        set_field(self, "vertices", tuple(vertices))

    @property
    def length(self):
        return len(self.vertices) - 1

    def is_valid(self):
        verts = self.vertices
        if len(set(verts)) != len(verts):
            return False
        return all(is_edge(a, b) for a, b in zip(verts, verts[1:]))


def geodesic(s, t):
    """A geodesic from s to t, lexicographically least in the slope order.

    Normalize s to 1/0 by [[x, y], [-q, p]], so that t becomes
    [a0; a1, ..., ak] with convergents c_m (c_-2 = 0/1, c_-1 = 1/0).  The
    ladder of t is the set of vertices of the Farey triangles that the
    vertical line from 1/0 to t crosses.  It is a strip of fans: fan i
    (1 <= i <= k) has hub c_{i-1} and rim L_i(j) = c_{i-2} + j c_{i-1},
    0 <= j <= top, where top = a_i + 1 (a_k in fan k), L_i(a_i) = c_i and
    L_i(a_i + 1) = L_{i+1}(1); its edges join the hub to the rim and
    consecutive rim vertices, and no other Farey edge joins two ladder
    vertices.

    Every geodesic stays on the ladder: a vertex off it lies beyond a
    boundary edge uv of the strip, and a path through it enters and leaves
    that region through u or v, so the edge uv (or nothing) is shorter.
    A rim vertex with 2 <= j <= top - 2 is on no geodesic either: its way
    out of the fan is the hub or a rim end at least two steps away, and a
    rim end is at most one step closer to t than the hub, so the vertex is
    one step farther than the hub; none of its neighbours is two steps
    farther, so no geodesic from 1/0 reaches it.  The hubs and the rim
    vertices with j in {0, 1, top - 1, top} form a graph of O(k) vertices
    and edges with the same geodesics.  One
    breadth-first pass from t gives each its distance to t, and the walk
    from 1/0 takes at each step the least neighbour one step closer.

    The least in slope order needs no product of two ladder coordinates.
    The ladder vertices of even fans lie below t and increase with (i, j);
    those of odd fans lie above t and decrease with (i, j).  The
    normalizing map preserves the cyclic order, so the order of the
    original slopes is the normalized order cut at P, the image of 1/0:
    first the vertices above P, then those at or below it.  The cost is
    O(k) integer operations plus the output.
    """
    if s == t:
        return FareyPath((s,))
    x, y = bezout(s.p, s.q)
    num = x * t.p + y * t.q
    den = s.p * t.q - s.q * t.p
    if den < 0:
        num, den = -num, -den
    if den == 1:
        return FareyPath((s, t))
    quotients = []
    conv = [(0, 1), (1, 0)]  # conv[m + 2] is c_m
    while den:
        a, rem = divmod(num, den)
        num, den = den, rem
        quotients.append(a)
        (p0, q0), (p1, q1) = conv[-2], conv[-1]
        conv.append((a * p1 + p0, a * q1 + q0))
    k = len(quotients) - 1

    # A vertex is the key (i, j) of L_i(j) with 1 <= j <= a_i; c_0 is
    # (0, a0) and 1/0 is (1, 0).
    def vertex(i, j):
        if j == 0:
            return (i - 2, quotients[i - 2]) if i >= 2 else (1, 0)
        if j == quotients[i] + 1:
            return (i + 1, 1)
        return (i, j)

    def coordinates(v):
        i, j = v
        (p0, q0), (p1, q1) = conv[i], conv[i + 1]
        return p0 + j * p1, q0 + j * q1

    neighbors = defaultdict(list)
    for i in range(1, k + 1):
        top = quotients[i] + (i < k)
        hub = (i - 1, quotients[i - 1])
        previous = None
        for j in range(top + 1) if top < 4 else (0, 1, top - 1, top):
            v = vertex(i, j)
            neighbors[hub].append(v)
            neighbors[v].append(hub)
            if previous is not None and previous[0] == j - 1:
                neighbors[previous[1]].append(v)
                neighbors[v].append(previous[1])
            previous = (j, v)

    target = (k, quotients[k])
    dist = {target: 0}
    queue = deque([target])
    while queue:
        v = queue.popleft()
        for w in neighbors[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)

    def order(v):
        i, j = v
        vp, vq = coordinates(v)
        at_or_below_p = vp * s.q <= -x * vq  # P = (-x, s.q); all False if P = 1/0
        return (at_or_below_p, (1, -i, -j) if i % 2 else (0, i, j))

    v, path = (1, 0), [s]
    for r in range(dist[v] - 1, -1, -1):
        v = min((w for w in neighbors[v] if dist.get(w) == r), key=order)
        vp, vq = coordinates(v)
        path.append(Slope.of_primitive(s.p * vp - y * vq, s.q * vp + x * vq))
    return FareyPath(tuple(path))

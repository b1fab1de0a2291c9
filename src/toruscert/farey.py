"""Distance and geodesics in the Farey graph of the torus.

Vertices are slopes; two slopes span an edge when their curves can be
isotoped to meet in a single point, i.e. when |p s' - q r'| = 1.  The
distance algorithm normalizes the source to 1/0 by an SL2(Z) isometry and
reduces along the continued fraction of the image slope (see _kernels_py
for the recurrence); it needs no search bound.  An independent
breadth-first oracle over a bounded slope box is provided for testing and
never shares code with the main path.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _speedups
from .errors import InvalidInputError, NoPathWithinBoundError
from .slopes import Slope, bezout, intersection_number

__all__ = [
    "FareyPath",
    "is_edge",
    "distance",
    "geodesic",
    "bfs_distance_oracle",
    "bfs_distance_map",
]


def is_edge(s, t):
    """True iff the two slopes are adjacent in the Farey graph."""
    return intersection_number(s, t) == 1


def distance(s, t):
    """Graph distance between two slopes in the Farey graph."""
    return _speedups.farey_distance(s.p, s.q, t.p, t.q)


@dataclass(frozen=True)
class FareyPath:
    """A path in the Farey graph: consecutive vertices adjacent, none repeated."""

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))

    @property
    def length(self):
        return len(self.vertices) - 1

    def is_valid(self):
        verts = self.vertices
        if len(set(verts)) != len(verts):
            return False
        return all(is_edge(a, b) for a, b in zip(verts, verts[1:]))


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


def geodesic(s, t):
    """A geodesic from s to t, lexicographically least in the slope order.

    Every geodesic between the two slopes lives on the ancestor chains of
    the normalized target (any path must enter the Farey interval cut off
    by a parent edge through one of its endpoints), so searching that
    finite candidate set is exhaustive, and picking the least available
    successor at each step yields the lexicographically smallest geodesic.
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

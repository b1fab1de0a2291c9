"""The pure-Python kernels: the two hot loops of the certificate path.

  farey_distance        -- graph distance between two slopes in the Farey
                           graph, via the continued-fraction run recurrence
  min_displacement_scan -- minimum Farey displacement of a map over a
                           bounded slope box

Python integers cannot overflow, so every input height is answered exactly.

Distance algorithm.  Normalize by the isometry A in SL2(Z) carrying the
source slope to 1/0; the distance from 1/0 to p/q depends only on the
continued fraction [a0; a1, ..., ak] of p/q.  Writing A(i) for the
distance to the i-th convergent and B(i) for the distance to the i-th
convergent with last coefficient bumped by one, the Farey parents of any
semiconvergent are its predecessor and its anchor convergent, which
collapses breadth-first search to

    A(i) = min(A(i-1) + 1, B(i-1) + a_i - 1)
    B(i) = min(A(i-1) + 1, B(i-1) + a_i)

with A(0) = B(0) = 1 (integers are the neighbors of 1/0) and answer A(k).
"""

from __future__ import annotations

from math import gcd

from .slopes import bezout

__all__ = ["farey_distance", "min_displacement_scan"]


def farey_distance(p1, q1, p2, q2):
    """Farey-graph distance between canonical coprime slopes p1/q1, p2/q2."""
    if p1 == p2 and q1 == q2:
        return 0
    # [[x, y], [-q1, p1]] sends p1/q1 to 1/0.
    x, y = bezout(p1, q1)
    num = x * p2 + y * q2
    den = p1 * q2 - q1 * p2
    if den < 0:
        num, den = -num, -den
    if den == 0:
        return 0
    if den == 1:
        return 1
    # Continued fraction of num/den with positive remainders; skip a0.
    rem = num - (num // den) * den
    dist_conv, dist_bump = 1, 1
    num, den = den, rem
    while den > 0:
        a = num // den
        num, den = den, num - a * den
        dist_conv, dist_bump = (
            min(dist_conv + 1, dist_bump + a - 1),
            min(dist_conv + 1, dist_bump + a),
        )
    return dist_conv


def _slope_box(bound):
    """Canonical slopes with |p|, |q| <= bound, in the fixed scan order."""
    yield (1, 0)
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(abs(p), q) == 1:
                yield (p, q)


def min_displacement_scan(a, b, c, d, bound, stop_at):
    """Minimum Farey displacement of the map over the slope box.

    Returns (min_distance, witness_p, witness_q) for the first slope in
    scan order attaining the minimum.  Stops early once a displacement
    <= stop_at is seen, since the caller knows no smaller value exists.
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

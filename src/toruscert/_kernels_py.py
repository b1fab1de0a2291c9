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

Scan algorithm.  Let M = [[A, B], [C, D]] be the integer matrix, with
det M != 0.  For a primitive v = (p, q) write Mv = (x, y), g = gcd(x, y)
and Q(v) = det(v, Mv) = C p^2 + (D - A) p q - B q^2.  The image slope is
Mv / g, so

  (1) the intersection number i(s, Ms) is |Q| / g; the displacement
      d(s, Ms) is 0 iff Q = 0 and 1 iff |Q| = g;
  (2) g divides |det M|: adj(M) Mv = det M v, and Mv = g w with w
      integral, so g divides det M p and det M q, hence det M.

A slope with d(s, Ms) <= 1 therefore has |Q(v)| <= g <= |det M|.

The scan keeps the running minimum `best` and only does work on slopes
that could make it strictly smaller; skipping the others cannot change
the value or the first witness in scan order.

  best >= 4 (or nothing seen yet): every slope gets farey_distance.
  best = 3: a slope improves iff its displacement is 0, 1 or 2.  The
      first two are (1).  For the third, normalize s to 1/0 by the SL2(Z)
      matrix [[u, w], [-q, p]] built from bezout(p, q); the image becomes
      num/n with n = i(s, Ms).  The neighbors of 1/0 are the integers k,
      and k is adjacent to num/n iff |num - k n| = 1, so d = 2 iff n >= 2
      and num = +-1 (mod n).  This is O(1) after one extended Euclid.
  best <= 2: only |Q(v)| <= T can improve, with T = |det M| at best = 2
      (by (1) and (2)) and T = 0 at best = 1; best = 0 cannot improve, so
      the scan returns.  In row q, Q is the quadratic
      C p^2 + E p + F with E = (D - A) q, F = -B q^2.  C != 0 here: if
      C = 0 then 1/0, the first slope scanned, is fixed and best = 0
      already.  Taking C > 0 (negate Q otherwise), Q <= T holds between
      the roots of Q - T and Q >= -T outside the open interval between
      the roots of Q + T, so the solutions form at most two intervals.
      Their ends come from isqrt of the two discriminants
      E^2 - 4 C (F -+ T); each end is widened by one and every candidate
      is then tested exactly with (1), in ascending p, starting with the
      rest of the current row.

A row costs O(1) plus its candidates, so once best <= 2 the rest of the
scan is O(bound + candidates) instead of O(bound^2).
"""

from __future__ import annotations

from itertools import chain
from math import gcd, isqrt

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


def _row_ranges(c, e, f, limit, first, last):
    """Ranges of p in [first, last] covering every |c p^2 + e p + f| <= limit.

    c != 0.  The ranges may hold extra integers; the caller tests each.
    """
    if c < 0:
        c, e, f = -c, -e, -f
    c2 = 2 * c
    disc = e * e - 4 * c * (f - limit)
    if disc < 0:
        return ()
    root = isqrt(disc)
    lo = max((-e - root) // c2 - 1, first)
    hi = min((root - e) // c2 + 1, last)
    if lo > hi:
        return ()
    disc = e * e - 4 * c * (f + limit)
    if disc <= 0:
        return (range(lo, hi + 1),)
    root = isqrt(disc)
    # Integers strictly between left and right have c p^2 + e p + f < -limit.
    left = (-e - root) // c2 + 1
    right = -((e - root) // c2) - 1
    if left + 1 >= right:
        return (range(lo, hi + 1),)
    return (range(lo, min(left, hi) + 1), range(max(right, lo), hi + 1))


def min_displacement_scan(a, b, c, d, bound, stop_at):
    """Minimum Farey displacement of the map over the slope box.

    Returns (min_distance, witness_p, witness_q) for the first slope in
    scan order attaining the minimum.  Stops early once a displacement
    <= stop_at is seen, since the caller knows no smaller value exists.
    The integer matrix must be nonsingular.
    """
    # Looked up at call time, so a profiler that rebinds it sees the calls.
    from . import _speedups

    distance = _speedups.farey_distance
    det = abs(a * d - b * c)
    if det == 0:
        raise ValueError("the scan needs a nonsingular matrix")
    best = -1
    best_p, best_q = 0, 0
    # Every slope of the box, until the best value drops to 2 or less.
    for p, q in _slope_box(bound):
        x = a * p + b * q
        y = c * p + d * q
        g = gcd(x, y)
        x //= g
        y //= g
        if best != 3:
            if y < 0 or (y == 0 and x < 0):
                x, y = -x, -y
            dist = distance(p, q, x, y)
            if best >= 0 and dist >= best:
                continue
        else:  # best is 3: the O(1) distance-2 test
            n = abs(p * y - q * x)
            if n >= 2:
                u, w = bezout(p, q)
                if (u * x + w * y) % n not in (1, n - 1):
                    continue
            dist = min(n, 2)
        best, best_p, best_q = dist, p, q
        if best <= stop_at or best == 0:
            return best, best_p, best_q
        if best <= 2:
            break
    else:
        return best, best_p, best_q

    # Only slopes with |Q| <= limit can lower best now: visit each row's
    # candidate intervals, starting after the current slope.
    limit = det if best == 2 else 0
    first = p + 1 if q else -bound
    q = max(q, 1)
    while q <= bound:
        row = _row_ranges(c, (d - a) * q, -b * q * q, limit, first, bound)
        for p in chain.from_iterable(row):
            if gcd(p, q) != 1:
                continue
            x = a * p + b * q
            y = c * p + d * q
            n = p * y - q * x
            dist = 0 if n == 0 else 1 if abs(n) == gcd(x, y) else best
            if dist < best:
                best, best_p, best_q = dist, p, q
                if best <= stop_at or best == 0:
                    return best, best_p, best_q
                # best is 1: rescan the rest of this row for fixed slopes.
                limit, first = 0, p + 1
                break
        else:
            q += 1
            first = -bound
    return best, best_p, best_q

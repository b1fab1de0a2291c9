"""Shared random generators and brute-force oracles for the test suite.

Everything is seeded per test, so failures reproduce exactly.
"""

import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from toruscert._kernels_py import _slope_box, farey_distance
from toruscert.matrices import Eigenslopes, UnimodularQ, UnimodularZ
from toruscert.slopes import Slope


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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

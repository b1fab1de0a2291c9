"""Shared random generators and brute-force oracles for the test suite.

Everything is seeded per test, so failures reproduce exactly.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from toruscert._kernels_py import _slope_box, farey_distance
from toruscert.matrices import UnimodularQ, UnimodularZ
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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

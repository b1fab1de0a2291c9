"""The kernel entry points, exact answers at any height, Bezout signs, and
the pruned displacement scan against its brute-force oracle."""

from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toruscert import _kernels_py, _speedups, certify
from toruscert._kernels_py import min_displacement_scan
from toruscert.farey import distance, geodesic
from toruscert.matrices import UnimodularZ
from toruscert.slopes import Slope, bezout

from tests.conftest import brute_displacement_scan, slope_from_continued_fraction


def test_distance_past_2_62_matches_geodesic(rng):
    # Heights beyond 64-bit arithmetic are answered exactly.
    big = 10**30
    # (big + 1)/big is adjacent to 1/1 only among 0/1, 1/1 and 1/0.
    assert distance(Slope(big + 1, big), Slope(0, 1)) == 2
    assert distance(Slope(big + 1, big), Slope(1, 0)) == 2
    # About a hundred partial quotients of 1 to 3 give heights past 2^62.
    for _ in range(8):
        s, t = (
            slope_from_continued_fraction(
                [rng.randint(-3, 3)]
                + [rng.randint(1, 3) for _ in range(rng.randint(95, 110))]
            )
            for _ in range(2)
        )
        assert min(abs(s.p), s.q) > 2**62 and min(abs(t.p), t.q) > 2**62
        assert distance(s, t) == geodesic(s, t).length


def test_bezout_signs_on_slope_box():
    # The seed's choice: x is the inverse of p mod q in (-q/2, q/2], and
    # (1, 0) for 1/0, (0, 1) for integers.
    bound = 40
    box = [(1, 0)] + [
        (p, q) for q in range(1, bound + 1) for p in range(-bound, bound + 1)
        if gcd(abs(p), q) == 1
    ]
    for p, q in box:
        x, y = bezout(p, q)
        assert x * p + y * q == 1
        if q == 0:
            expected_x = 1
        elif q == 1:
            expected_x = 0
        else:
            expected_x = pow(p, -1, q)
            if 2 * expected_x > q:
                expected_x -= q
        assert x == expected_x


def test_speedups_reports_implementation():
    assert _speedups.ACTIVE_IMPLEMENTATION == "python"


def test_benchmark_bindings_take_effect(monkeypatch):
    # perfbench imports these names and rebinds the _speedups ones to time
    # each layer; farey.distance and certify.map_distance must look them up
    # there at call time, or the per-layer rows read zero.
    assert callable(_kernels_py._slope_box)
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    for name in ("farey_distance", "min_displacement_scan"):
        monkeypatch.setattr(_speedups, name, counting(getattr(_speedups, name)))
    assert distance(Slope(0, 1), Slope(2, 1)) == 2
    # The scan's own distance call (1/0 moves by one, the exact bound) is
    # looked up through _speedups too.
    certify.map_distance(UnimodularZ(2, 1, 1, 1), 5)
    assert calls == ["farey_distance", "min_displacement_scan", "farey_distance"]


def _mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _nonsingular(m):
    return m[0] * m[3] != m[1] * m[2]


small_entries = st.integers(-12, 12)


@st.composite
def conjugated_words(draw):
    """P U adj(P) with U a word in shears: the integer scaling of a rational
    map, as map_distance builds it, often with minimum 2 or more."""
    u = (1, 0, 0, 1)
    for k in draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5)):
        u = _mul(u, (1, k, 0, 1) if draw(st.booleans()) else (1, 0, k, 1))
    p = draw(st.tuples(*[st.integers(-4, 4)] * 4).filter(_nonsingular))
    m = _mul(_mul(p, u), (p[3], -p[1], -p[2], p[0]))
    if draw(st.booleans()):
        m = _mul(m, (1, 0, 0, -1))  # orientation-reversing
    return m


matrices = st.one_of(
    st.tuples(small_entries, small_entries, small_entries, small_entries).filter(
        _nonsingular
    ),
    conjugated_words(),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    matrix=matrices,
    bound=st.integers(1, 40),
    stop_at=st.sampled_from([-1, 0, 1, 2]),
)
@example(matrix=(1, 0, 0, 1), bound=9, stop_at=-1)  # I
@example(matrix=(-1, 0, 0, -1), bound=9, stop_at=-1)  # -I
@example(matrix=(2, 3, 0, 5), bound=9, stop_at=-1)  # C = 0
@example(matrix=(3, 1, 2, 3), bound=9, stop_at=-1)  # A = D
@example(matrix=(1, 0, 3, 1), bound=9, stop_at=-1)  # parabolic
@example(matrix=(-1, 0, 2, -1), bound=9, stop_at=2)  # parabolic, trace -2
@example(matrix=(0, -1, 1, 0), bound=9, stop_at=-1)  # elliptic, order 4
@example(matrix=(1, -1, 1, 0), bound=9, stop_at=0)  # elliptic, order 6
@example(matrix=(0, 1, 1, 0), bound=9, stop_at=-1)  # det -1
@example(matrix=(109, 33, 33, 10), bound=12, stop_at=1)  # minimum 4
@example(matrix=(1189, 360, 360, 109), bound=12, stop_at=-1)  # minimum 6
@example(matrix=(-3, -5, 2, 3), bound=3, stop_at=-1)  # moves -2/1 by one, late
def test_scan_matches_brute_force(matrix, bound, stop_at):
    assert min_displacement_scan(*matrix, bound, stop_at) == brute_displacement_scan(
        *matrix, bound, stop_at
    )


def test_scan_matches_brute_force_on_all_small_matrices():
    # Every nonsingular matrix with entries in [-3, 3]; elliptic ones such
    # as [[-3, -5], [2, 3]] at bound 3 meet a slope moved by one only after
    # the best value has dropped to 2.
    for matrix in product(range(-3, 4), repeat=4):
        if _nonsingular(matrix):
            assert min_displacement_scan(*matrix, 5, -1) == brute_displacement_scan(
                *matrix, 5, -1
            ), matrix


# The composed maps of the first round of the seed-1 certify benchmark
# workload (perfbench/gen.py), scaled to integer matrices, that displace
# every slope of the bound-100 box by two or more.
CERTIFY_SEED1_MAPS = [
    (3, -2, 14, -9), (-121, -178, 62, 91), (53, 94, 20, 37),
    (27, -50, -90, 183), (17, -12, 10, -7), (49, -38, -100, 81),
    (1, -34, 4, -55), (-11, 28, -2, 5), (153, -90, -92, 57), (-3, 4, 2, -3),
    (17, 10, -12, -7), (7, 2, 10, 3), (91, -92, -94, 99),
    (-99, -142, 90, 129), (51, -54, 20, -21), (-11, -14, 4, 5),
    (3, -36, 2, -21), (3, 2, -14, -9), (-7, 4, -30, 17), (-99, -18, 62, 9),
    (3, -2, -10, 7), (-7, -4, -62, -47), (1, -4, 2, -7), (21, -76, -18, 69),
]


@pytest.mark.parametrize("matrix", CERTIFY_SEED1_MAPS)
def test_scan_matches_brute_force_on_certify_maps(matrix):
    expected = brute_displacement_scan(*matrix, 100, -1)
    assert expected[0] == 2
    for stop_at in (-1, 1):
        assert min_displacement_scan(*matrix, 100, stop_at) == expected


@pytest.mark.parametrize("matrix", CERTIFY_SEED1_MAPS)
def test_scan_computes_distances_only_while_best_is_above_three(matrix, monkeypatch):
    # Once the running minimum is 3 the distance-2 test and then the row
    # intervals take over, so the scan computes exactly one Farey distance
    # per slope up to the first one displaced by 3 or less.
    _, p, q = brute_displacement_scan(*matrix, 100, 3)
    expected = list(_kernels_py._slope_box(100)).index((p, q)) + 1
    calls = 0
    kernel = _speedups.farey_distance

    def counting(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(_speedups, "farey_distance", counting)
    min_displacement_scan(*matrix, 100, -1)
    assert calls == expected


def test_scan_rejects_singular_matrix():
    with pytest.raises(ValueError):
        min_displacement_scan(1, 2, 2, 4, 5, -1)

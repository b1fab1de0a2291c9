"""The kernel entry points, exact answers at any height, and Bezout signs."""

from math import gcd

from toruscert import _kernels_py, _speedups, certify
from toruscert.farey import distance, geodesic
from toruscert.matrices import UnimodularZ
from toruscert.slopes import Slope, bezout


def slope_from_continued_fraction(quotients):
    p, q, p_prev, q_prev = 1, 0, 0, 1
    for a in quotients:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return Slope(p, q)


def test_distance_past_2_62_matches_geodesic(rng):
    # Heights beyond 64-bit arithmetic are answered exactly.
    big = 10**30
    # (big + 1)/big is adjacent to 1/1 only among 0/1, 1/1 and 1/0.
    assert distance(Slope(big + 1, big), Slope(0, 1)) == 2
    assert distance(Slope(big + 1, big), Slope(1, 0)) == 2
    # Small partial quotients keep the geodesic's candidate set small.
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
    certify.map_distance(UnimodularZ(2, 1, 1, 1), 5)
    assert calls == ["farey_distance", "min_displacement_scan"]

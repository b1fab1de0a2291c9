import pytest

from tests.conftest import _primitive_crossings, assert_frozen_value
from toruscert.errors import InvalidInputError
from toruscert.slopes import INFINITY, Slope, intersection_number, slope_normalize


def test_normalize_gcd_reduction():
    s = slope_normalize(2, 4)
    assert (s.p, s.q) == (1, 2)


def test_normalize_sign():
    assert slope_normalize(0, -3) == Slope(0, 1)
    assert slope_normalize(-3, -6) == Slope(1, 2)
    assert slope_normalize(3, -6) == Slope(-1, 2)


def test_normalize_infinity():
    s = slope_normalize(5, 0)
    assert (s.p, s.q) == (1, 0)
    assert s.is_infinity
    assert slope_normalize(-2, 0) == INFINITY


def test_zero_vector_rejected():
    with pytest.raises(InvalidInputError):
        Slope(0, 0)


def test_parse_and_str():
    assert Slope.parse("3/4") == Slope(3, 4)
    assert Slope.parse("-7") == Slope(-7, 1)
    assert Slope.parse("1/0") == INFINITY
    assert str(Slope(6, -4)) == "-3/2"
    with pytest.raises(InvalidInputError):
        Slope.parse("0.5")
    with pytest.raises(InvalidInputError):
        Slope.parse("x/y")


def test_intersection_number_basis():
    assert intersection_number(Slope(0, 1), Slope(1, 0)) == 1
    assert intersection_number(Slope(1, 2), Slope(1, 2)) == 0


def test_intersection_number_geometric_oracle():
    # |p s - q r| must equal the number of crossings of straight-line
    # representatives in the square torus model, counted independently.
    cases = [((1, 2), (3, 5)), ((1, 2), (1, 3)), ((2, 1), (1, 2)), ((1, 0), (0, 1))]
    for u, v in cases:
        points = _primitive_crossings(u, v, 101)
        expected = abs(u[0] * v[1] - u[1] * v[0])
        assert len(points) == expected
    assert intersection_number(Slope(1, 2), Slope(3, 5)) == 1


def test_symmetry_and_zero_iff_equal(rng):
    from tests.conftest import random_slope

    for _ in range(200):
        s, t = random_slope(rng), random_slope(rng)
        assert intersection_number(s, t) == intersection_number(t, s)
        assert (intersection_number(s, t) == 0) == (s == t)


def test_slope_order_value_based():
    assert Slope(-1, 2) < Slope(0, 1) < Slope(1, 2) < Slope(1, 1) < INFINITY
    assert not INFINITY < INFINITY
    assert sorted([INFINITY, Slope(2, 1), Slope(-5, 1)])[0] == Slope(-5, 1)


def test_immutability_and_hash():
    s = Slope(1, 2)
    with pytest.raises(AttributeError):
        s.p = 3
    assert len({Slope(1, 2), Slope(2, 4), Slope(-1, -2)}) == 1


def test_slope_is_a_frozen_value():
    assert_frozen_value(Slope(2, 3), Slope(-4, -6), "Slope(2, 3)", ("p", "q"))
    assert_frozen_value(INFINITY, Slope(-7, 0), "Slope(1, 0)", ("p", "q"))

from fractions import Fraction

import pytest

from toruscert.errors import InvalidInputError
from toruscert.matrices import UnimodularQ, UnimodularZ
from toruscert.serialize import (
    format_fraction,
    matrix_from_json,
    matrix_to_json,
    parse_fraction,
    slope_from_json,
    slope_to_json,
)
from toruscert.slopes import Slope


def test_fraction_roundtrip():
    for f in (Fraction(3), Fraction(-7, 2), Fraction(0), Fraction(22, 7)):
        assert parse_fraction(format_fraction(f)) == f
    assert format_fraction(Fraction(4, 2)) == "2"


@pytest.mark.parametrize(
    "value", [10**5000, Fraction(1, 10**5000)], ids=["numerator", "denominator"]
)
def test_format_fraction_rejects_numbers_past_the_digit_limit(value):
    with pytest.raises(InvalidInputError):
        format_fraction(value)


def test_parse_fraction_rejects_floats_and_bools():
    with pytest.raises(InvalidInputError):
        parse_fraction(1.5)
    with pytest.raises(InvalidInputError):
        parse_fraction(True)
    with pytest.raises(InvalidInputError):
        parse_fraction("1.5")
    with pytest.raises(InvalidInputError):
        parse_fraction("1/0")


def test_matrix_roundtrip():
    m = UnimodularQ(Fraction(1, 2), 0, 0, 2)
    assert matrix_from_json(matrix_to_json(m)) == m
    z = matrix_from_json([[2, 1], [1, 1]], integral=True)
    assert isinstance(z, UnimodularZ)


def test_matrix_integral_enforced():
    with pytest.raises(InvalidInputError):
        matrix_from_json([["1/2", "0"], ["0", "2"]], integral=True)
    with pytest.raises(InvalidInputError):
        matrix_from_json([[1, 2, 3], [0, 1, 0]])


def test_slope_json():
    assert slope_to_json(Slope(1, 0)) == "1/0"
    assert slope_from_json("-3/7") == Slope(-3, 7)
    with pytest.raises(InvalidInputError):
        slope_from_json(3)


def test_matrix_power():
    m = UnimodularZ(2, 1, 1, 1)
    assert m**0 == UnimodularZ(1, 0, 0, 1)
    assert m**3 == m * m * m
    assert m**-2 == (m.invert()) * (m.invert())
    assert isinstance(m**4, UnimodularZ)

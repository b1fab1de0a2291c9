from fractions import Fraction

import pytest

from tests.conftest import random_unimodular_q, random_unimodular_z
from toruscert.errors import InvalidInputError
from toruscert.matrices import UnimodularQ, UnimodularZ, compose, denominator
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


def test_matrix_and_fraction_text_match_fraction_strings(rng):
    # str(Fraction) is "p" or "p/q" in lowest terms, the formatted form.
    seen_d = set()
    for i in range(300):
        if i % 3:
            m = random_unimodular_q(rng, num_bound=10**6, den_bound=10**4)
        else:
            m = random_unimodular_z(rng, length=8, shear=5)
        entries = [str(x) for x in m.entries()]
        assert matrix_to_json(m) == [entries[:2], entries[2:]]
        for x in m.entries():
            assert format_fraction(x) == str(x)
            assert format_fraction(x.numerator) == str(x.numerator)
        seen_d.add(max(x.denominator for x in m.entries()) > 1)
    assert seen_d == {True, False}


@pytest.mark.parametrize(
    "k", [UnimodularZ(1, 0, 0, 1), UnimodularQ(Fraction(-1, 7), 0, 0, -7)],
    ids=["integral", "rational"],
)
def test_matrix_to_json_rejects_entries_past_the_digit_limit(k):
    m = compose(UnimodularZ(2, 1, 1, 1) ** 11000, k)  # entries of about 4,600 digits
    with pytest.raises(InvalidInputError, match="digits"):
        matrix_to_json(m)


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


def _unreduced_text(x, rng):
    """x as "p/q" with a random common factor and sign, or as an int."""
    if x.denominator == 1 and rng.random() < 0.3:
        return x.numerator
    k = rng.choice((1, -1)) * rng.randint(1, 50)
    return f"{x.numerator * k}/{x.denominator * k}"


def test_matrix_from_json_matches_the_fraction_construction(rng):
    seen = set()
    for i in range(300):
        if i % 3:
            m = random_unimodular_q(rng, num_bound=10**6, den_bound=10**4)
        else:
            m = random_unimodular_z(rng, length=8, shear=5)
        texts = [_unreduced_text(x, rng) for x in m.entries()]
        data = [texts[:2], texts[2:]]
        entries = [
            Fraction(*map(int, t.split("/"))) if isinstance(t, str) else Fraction(t)
            for t in texts
        ]
        integral = all(x.denominator == 1 for x in entries)
        for cls in (UnimodularQ, UnimodularZ) if integral else (UnimodularQ,):
            got = matrix_from_json(data, integral=cls is UnimodularZ)
            want = cls(*entries)
            assert type(got) is cls
            assert (got.scaled, denominator(got)) == (want.scaled, denominator(want))
        seen.add(integral)
    assert seen == {True, False}


@pytest.mark.parametrize(
    "data, entries",
    [
        ([["6/4", "0/7"], ["3/-6", "4/6"]],
         (Fraction(3, 2), 0, Fraction(-1, 2), Fraction(2, 3))),
        ([["-0/-3", "-1/-1"], [-1, "21/7"]], (0, 1, -1, 3)),
        ([[str(10**3999 + 1), str(10**3999)], ["1", "1"]], (10**3999 + 1, 10**3999, 1, 1)),
        ([[10**3999 + 1, 10**3999], [1, 1]], (10**3999 + 1, 10**3999, 1, 1)),
    ],
    ids=["unreduced-and-negative-denominators", "signs-and-ints", "4000-digit-text",
         "4000-digit-ints"],
)
def test_matrix_from_json_reads_every_written_form(data, entries):
    assert matrix_from_json(data) == UnimodularQ(*entries)


@pytest.mark.parametrize(
    "entry, message",
    [
        ("1/0", "malformed rational '1/0'"),
        ("1/", "malformed rational '1/'"),
        ("/2", "malformed rational '/2'"),
        ("1/2/3", "malformed rational '1/2/3'"),
        ("0/0", "malformed rational '0/0'"),
        (True, "not a rational: True"),
        (1.5, "rationals must be integers or 'p/q' strings, got 1.5"),
    ],
)
def test_matrix_from_json_rejects_malformed_entries(entry, message):
    for data in ([[entry, 0], [0, 1]], [[1, 0], [0, entry]]):
        with pytest.raises(InvalidInputError) as exc:
            matrix_from_json(data)
        assert str(exc.value) == message


def test_matrix_from_json_checks_determinant_then_integrality():
    with pytest.raises(InvalidInputError) as exc:
        matrix_from_json([["1/2", "0"], ["0", "1/2"]], integral=True)
    assert str(exc.value) == "matrix [[1/2, 0], [0, 1/2]] has determinant 1/4, expected 1"
    with pytest.raises(InvalidInputError) as exc:
        matrix_from_json([["2/4", "0"], ["0", "2"]], integral=True)
    assert str(exc.value) == "integer matrix expected, got [[1/2, 0], [0, 2]]"


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

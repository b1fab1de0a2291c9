"""Exact-rational JSON encoding shared by the library and the CLI.

Every number that can be a non-integer rational travels as a string "p" or
"p/q"; floats are rejected at parse time so no consumer ever sees an
approximation.  Slopes serialize as "p/q" with "1/0" for infinity.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import InvalidInputError, ascii_integer, excerpt
from .matrices import UnimodularQ, UnimodularZ, denominator
from .slopes import Slope

__all__ = [
    "format_fraction",
    "parse_fraction",
    "matrix_to_json",
    "matrix_from_json",
    "slope_to_json",
    "slope_from_json",
]


def digit_limit_error():
    """The error for a number too long to print as decimal text."""
    return InvalidInputError(
        f"a number has more than {sys.get_int_max_str_digits()} digits, "
        "the limit for printing"
    )


def _format_ratio(num, den):
    """"num" or "num/den" for coprime num and den >= 1, as format_fraction."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError as exc:
        raise digit_limit_error() from exc


def format_fraction(f):
    """"p" or "p/q"; InvalidInputError past sys.get_int_max_str_digits()."""
    if not isinstance(f, Fraction):
        f = Fraction(f)
    return _format_ratio(f.numerator, f.denominator)


def parse_fraction(value):
    """Exact rational from an int or a "p"/"p/q" string of ASCII integers."""
    if isinstance(value, bool):
        raise InvalidInputError(f"not a rational: {excerpt(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            num, slash, den = value.partition("/")
            return Fraction(ascii_integer(num), ascii_integer(den) if slash else 1)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"malformed rational {excerpt(value)}") from exc
    raise InvalidInputError(
        f"rationals must be integers or 'p/q' strings, got {excerpt(value)}"
    )


def matrix_to_json(m):
    den = denominator(m)
    gcds = [math.gcd(x, den) for x in m.scaled]
    a, b, c, d = (_format_ratio(x // g, den // g) for x, g in zip(m.scaled, gcds))
    return [[a, b], [c, d]]


def matrix_from_json(data, integral=False):
    """2x2 matrix from [[a, b], [c, d]] with int or string-rational entries."""
    if (
        not isinstance(data, list)
        or len(data) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in data)
    ):
        raise InvalidInputError(f"matrix must be a 2x2 array, got {excerpt(data)}")
    a, b = (parse_fraction(v) for v in data[0])
    c, d = (parse_fraction(v) for v in data[1])
    return (UnimodularZ if integral else UnimodularQ)(a, b, c, d)


def slope_to_json(s):
    return str(s)


def slope_from_json(value):
    if not isinstance(value, str):
        raise InvalidInputError(f"slope must be a 'p/q' string, got {excerpt(value)}")
    return Slope.parse(value)

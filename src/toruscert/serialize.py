"""Exact-rational JSON encoding shared by the library and the CLI.

Every number that can be a non-integer rational travels as a string "p" or
"p/q"; floats are rejected at parse time so no consumer ever sees an
approximation.  Slopes serialize as "p/q" with "1/0" for infinity.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInputError, ascii_ratio, digit_limit_error, excerpt
from .matrices import denominator, from_scaled
from .slopes import Slope

__all__ = [
    "format_fraction",
    "format_ratio",
    "parse_fraction",
    "matrix_to_json",
    "matrix_from_json",
    "slope_to_json",
    "slope_from_json",
    "eigenslopes_to_json",
    "field",
    "list_field",
]

_REQUIRED = object()


def _format_ratio(num, den):
    """"num" or "num/den" for coprime num and den >= 1, as format_fraction."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError as exc:
        raise digit_limit_error() from exc


def format_ratio(num, den):
    """format_fraction(Fraction(num, den)) for den >= 1, with one gcd."""
    g = math.gcd(num, den)
    return _format_ratio(num // g, den // g)


def format_fraction(f):
    """"p" or "p/q"; InvalidInputError past sys.get_int_max_str_digits()."""
    if not isinstance(f, Fraction):
        f = Fraction(f)
    return _format_ratio(f.numerator, f.denominator)


def _parse_ratio(value):
    """(p, q), q != 0, from an int or a "p"/"p/q" string of ASCII integers."""
    if isinstance(value, bool):
        raise InvalidInputError(f"not a rational: {excerpt(value)}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        try:
            p, q = ascii_ratio(value)
        except InvalidInputError as exc:
            raise InvalidInputError(f"malformed rational {excerpt(value)}") from exc
        if q == 0:
            raise InvalidInputError(f"malformed rational {excerpt(value)}")
        return p, q
    raise InvalidInputError(
        f"rationals must be integers or 'p/q' strings, got {excerpt(value)}"
    )


def parse_fraction(value):
    """Exact rational from an int or a "p"/"p/q" string of ASCII integers."""
    return Fraction(*_parse_ratio(value))


def matrix_to_json(m):
    den = denominator(m)
    a, b, c, d = (format_ratio(x, den) for x in m.scaled)
    return [[a, b], [c, d]]


def matrix_from_json(data, integral=False):
    """2x2 matrix from [[a, b], [c, d]] with int or string-rational entries.

    Each entry is read as integers p/q and all four are put over the lcm
    of the q, which from_scaled reduces to the stored form.
    """
    if (
        not isinstance(data, list)
        or len(data) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in data)
    ):
        raise InvalidInputError(f"matrix must be a 2x2 array, got {excerpt(data)}")
    ratios = [_parse_ratio(v) for row in data for v in row]
    den = math.lcm(*(q for _, q in ratios))
    a, b, c, d = (p * (den // q) for p, q in ratios)
    return from_scaled(a, b, c, d, den, integral)


def slope_to_json(s):
    return str(s)


def slope_from_json(value):
    if not isinstance(value, str):
        raise InvalidInputError(f"slope must be a 'p/q' string, got {excerpt(value)}")
    return Slope.parse(value)


def eigenslopes_to_json(eig):
    """"all" when every slope is fixed, else the list of eigenslopes."""
    if eig.fixes_all:
        return "all"
    return [slope_to_json(s) for s in eig.slopes]


def field(record, key, what, default=_REQUIRED):
    """record[key], or default if given, else InvalidInputError naming what lacks it."""
    if not isinstance(record, dict):
        raise InvalidInputError(f"{what} must be a JSON object")
    if key in record:
        return record[key]
    if default is _REQUIRED:
        raise InvalidInputError(f"{what} has no {key!r} field")
    return default


def list_field(record, key, what, default=_REQUIRED):
    """field(record, key, what, default), which must be a list."""
    value = field(record, key, what, default)
    if not isinstance(value, list):
        raise InvalidInputError(f"{what} field {key!r} must be a list")
    return value

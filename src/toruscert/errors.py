"""Exception hierarchy and the input contract.

Everything the CLI maps to exit code 1 derives from InvalidInputError, so
library users can catch one type and commands can classify failures without
string matching.  integer() and ascii_integer() (for text) are the rules
for integer inputs, ascii_ratio() for "p/q" text, and excerpt() quotes
every outside value an error shows.
"""

import re
import sys


class InvalidInputError(ValueError):
    """Bad or inconsistent input data."""


class NoEssentialComponentError(InvalidInputError):
    """Normal coordinates with only trivial (or no) components have no slope."""


class BoundaryCountError(InvalidInputError):
    """Surface boundary data violating the equal-determinant constraint."""


class DegenerateClassError(InvalidInputError):
    """Two-surface construction attempted with dependent boundary classes."""


def shorten(text, limit=40):
    """text if it is short, else its first `limit` characters and its length.

    Characters other than printable ASCII become backslash escapes first,
    so a JSON error line carries at most two bytes for each character kept.
    """
    text = "".join(
        c if " " <= c <= "~" else c.encode("unicode_escape").decode() for c in text
    )
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def excerpt(value):
    """value quoted for an error message, shortened, so no input is echoed whole.

    Strings are quoted by repr and everything else by str.  An integer of
    40 digits or more is described by its size, since str raises past
    sys.get_int_max_str_digits(); a value holding such an integer is
    described by its type.
    """
    if isinstance(value, int) and abs(value) >= 10**39:
        digits = int(value.bit_length() * 0.30103) + 1  # 0.30103 = log10(2)
        return f"an integer of about {digits} digits"
    try:
        return shorten(repr(value) if isinstance(value, str) else str(value))
    except ValueError:
        return (
            f"a {type(value).__name__} with an integer of more than "
            f"{sys.get_int_max_str_digits()} digits"
        )


def digit_limit_error():
    """The error for a number too long to print as decimal text."""
    return InvalidInputError(
        f"a number has more than {sys.get_int_max_str_digits()} digits, "
        "the limit for printing"
    )


def integer(value, what, least=None, most=None):
    """value if it is an int, not a bool, from least to most; else InvalidInputError.

    Every integer input is checked here, so True is never a count, a
    bound or a coordinate.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (least is not None and value < least)
        or (most is not None and value > most)
    ):
        if most is not None:
            need = f"an integer from {least} to {most}"
        elif least is not None:
            need = f"an integer of at least {least}"
        else:
            need = "an integer"
        raise InvalidInputError(f"{what} must be {need}, got {excerpt(value)}")
    return value


_ASCII_INTEGER = re.compile(r"[+-]?[0-9]+")  # int() also reads "1_0", " 1", "\u0661"


def ascii_integer(text):
    """int(text) for an optional sign and ASCII digits 0-9, else InvalidInputError."""
    try:
        if _ASCII_INTEGER.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        pass
    raise InvalidInputError(f"not a printable decimal integer: {excerpt(text)}")


def ascii_ratio(text):
    """(p, q) from "p/q" or "p" (q = 1) of ASCII integers, else InvalidInputError."""
    num, slash, den = text.partition("/")
    return ascii_integer(num), ascii_integer(den) if slash else 1

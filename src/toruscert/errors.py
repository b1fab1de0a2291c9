"""Exception hierarchy.

Everything the CLI maps to exit code 1 derives from InvalidInputError, so
library users can catch one type and commands can classify failures without
string matching.
"""


class InvalidInputError(ValueError):
    """Bad or inconsistent input data."""


class NoEssentialComponentError(InvalidInputError):
    """Normal coordinates with only trivial (or no) components have no slope."""


class BoundaryCountError(InvalidInputError):
    """Surface boundary data violating the equal-determinant constraint."""


class DegenerateClassError(InvalidInputError):
    """Two-surface construction attempted with dependent boundary classes."""


class NoPathWithinBoundError(InvalidInputError):
    """BFS oracle target unreachable inside the coordinate bound."""


def shorten(text, limit=40):
    """text if it is short, else its first `limit` characters and its length."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def excerpt(value):
    """repr(value) for an error message, shortened, so no input is echoed whole."""
    return shorten(repr(value))

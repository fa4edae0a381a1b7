"""The error for an input outside what a function accepts, and the naming
of a long value in its message."""

from __future__ import annotations

__all__ = ["ConstraintError"]


class ConstraintError(ValueError):
    """An input outside a function's domain or above a command's cost cap.

    The `oddtrace` command reports it as a usage error, with exit code 2.
    Any other exception is a fault of the program, not of its input.
    """


def _named(text: str) -> str:
    """`text`, or its number of digits when it is longer than 20 characters,
    so that an error line does not echo a long argument in full."""
    if len(text) <= 20:
        return text
    return f"<{sum(c.isdigit() for c in text)} digits>"


def _digits(n: int) -> int:
    """The number of decimal digits of |n|, counted without str(), which
    refuses an int of more than 4300 digits."""
    n = abs(n)
    d = max(1, int(n.bit_length() * 0.30103) - 1)  # not above the count
    while n >= 10 ** d:
        d += 1
    return d


def _named_number(value) -> str:
    """`_named(str(value))` for an int or a Fraction, read off its digit
    counts when it is too long to show."""
    digits = _digits(value.numerator)
    if value.denominator != 1:
        digits += _digits(value.denominator)
    return _named(str(value)) if digits <= 20 else f"<{digits} digits>"

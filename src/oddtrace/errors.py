"""The error for an input outside what a function accepts."""

from __future__ import annotations

__all__ = ["ConstraintError"]


class ConstraintError(ValueError):
    """An input outside a function's domain or above a command's cost cap.

    The `oddtrace` command reports it as a usage error, with exit code 2.
    Any other exception is a fault of the program, not of its input.
    """

"""Shared exception types."""

from __future__ import annotations


class BriskError(Exception):
    """Base class for all package-specific errors."""


class RingMismatchError(BriskError, ValueError):
    """Operands live in different polynomial rings."""


class ParseError(BriskError, ValueError):
    """Malformed textual input.  ``message`` is the bare message; ``line``
    and ``col`` are a 1-based position, and ``line`` is None (the
    default) for an error that has no place in a text, such as a missing
    section or a command-line option.  The string form appends the
    position when there is one."""

    def __init__(self, message: str, line: int | None = None, col: int = 1):
        super().__init__(message if line is None else f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class BudgetExceededError(BriskError, RuntimeError):
    """A configured resource cap was hit.

    Raised instead of returning a truncated or otherwise wrong answer; the
    message names the knob that would raise the cap.
    """

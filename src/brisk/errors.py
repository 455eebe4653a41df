"""Shared exception types."""

from __future__ import annotations


class BriskError(Exception):
    """Base class for all package-specific errors."""


class RingMismatchError(BriskError, ValueError):
    """Operands live in different polynomial rings."""


class ParseError(BriskError, ValueError):
    """Malformed textual input; carries a 1-based line/column position,
    or none (``line=None``) for a value that comes from no file, such as
    a command-line option."""

    def __init__(self, message: str, line: int | None = 1, col: int = 1):
        super().__init__(message if line is None else f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class BudgetExceededError(BriskError, RuntimeError):
    """A configured resource cap was hit.

    Raised instead of returning a truncated or otherwise wrong answer; the
    message names the knob that would raise the cap.
    """

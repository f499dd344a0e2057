"""Package-level exception types."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration (bad ranges, inconsistent sizes, unknown options)."""


class FormatError(ValueError):
    """Malformed key dump (a byte that is not ASCII, or a character other than 0/1)."""


class NumericError(ArithmeticError):
    """The data drove a computation to a value it cannot use (non-finite or degenerate)."""

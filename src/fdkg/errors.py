"""Package-level exception types."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration (bad ranges, inconsistent sizes, unknown options)."""


class FormatError(ValueError):
    """Malformed or truncated binary file (bad magic, version, or length)."""


class NumericError(ArithmeticError):
    """The data drove a computation to a value it cannot use (non-finite or degenerate)."""

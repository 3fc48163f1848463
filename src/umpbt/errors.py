"""Exception hierarchy shared by every module.

Each exception carries a short ``category`` tag so the command-line layer can
emit uniform ``error: <category>: <detail>`` diagnostics and choose the right
exit status (1 for input problems, 2 for solver failures).
"""

__all__ = [
    "UmpbtError",
    "DomainError",
    "ParseError",
    "ValidationError",
    "DegenerateMarginError",
    "SolverError",
    "NoRootError",
    "SeriesError",
]


class UmpbtError(Exception):
    """Base class for all errors raised by this package."""

    category = "error"


class DomainError(UmpbtError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""

    category = "domain"


class ParseError(UmpbtError, ValueError):
    """Input text could not be parsed; message carries row/column position."""

    category = "parse"


class ValidationError(UmpbtError, ValueError):
    """Structurally parsed input violates a semantic constraint."""

    category = "validation"


class DegenerateMarginError(ValidationError):
    """A contingency table has an all-zero row or column."""


class SolverError(UmpbtError, RuntimeError):
    """A numerical routine failed to produce a certified answer."""

    category = "solver"


class NoRootError(SolverError):
    """A root-finding bracket could not be established, or a root in it did
    not converge."""


class SeriesError(SolverError):
    """An internal series or mixture exceeded its certified term budget."""

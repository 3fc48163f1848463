"""Exception hierarchy shared by every module, one class per category the
command-line layer prints as ``error: <category>: <detail>``: ``domain``,
``parse`` and ``validation`` for an input outside a rule (exit status 1),
``solver`` for a numerical routine that failed (exit status 2).
"""

__all__ = [
    "UmpbtError",
    "DomainError",
    "ParseError",
    "ValidationError",
    "SolverError",
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


class SolverError(UmpbtError, RuntimeError):
    """A numerical routine failed to produce a certified answer: a root not
    bracketed or not converged, or a series past its term budget."""

    category = "solver"


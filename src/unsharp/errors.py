"""Exception types shared across the package."""

from __future__ import annotations


class UnsharpError(Exception):
    """Base class for all domain errors raised by this package."""


class SetExprError(UnsharpError, ValueError):
    """Syntax or semantic error in a set expression or spec; carries the
    position in the text."""

    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.pos = pos

    def __str__(self) -> str:
        return f"{self.args[0]} (at position {self.pos})"


class ZeroClassError(UnsharpError, ValueError):
    """An operation required a nonzero quotient class."""


class FmpViolation(UnsharpError):
    """A finite meet of filter-base elements turned out to be zero."""

    def __init__(self, message: str, offenders=()):
        super().__init__(message)
        self.offenders = tuple(offenders)


class NotOrthogonal(UnsharpError):
    """Orthosum requested for effects whose sum exceeds 1 somewhere."""

    def __init__(self, message: str, witness_point=None, witness_value=None):
        super().__init__(message)
        self.witness_point = witness_point
        self.witness_value = witness_value


class CannotCertify(UnsharpError):
    """Numeric certification exhausted its refinement budget inconclusively."""


class QuadratureFailure(UnsharpError):
    """Adaptive integration could not reach the requested tolerance."""

"""Exception types shared across the package."""

from __future__ import annotations


class LefschetzLabError(Exception):
    """Base class for all errors raised by this package."""


class PolyParseError(LefschetzLabError, ValueError):
    """Malformed polynomial text.  Carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class HomogeneityError(LefschetzLabError, ValueError):
    """Input polynomial is not homogeneous where a homogeneous one is required."""


class VariableMismatchError(LefschetzLabError, ValueError):
    """Operands live over incompatible variable sets."""


class DegreeRangeError(LefschetzLabError, ValueError):
    """A degree index lies outside its admissible range."""


class SingularMatrixError(LefschetzLabError, ValueError):
    """A matrix required to be invertible is singular."""


class ZeroPolynomialError(LefschetzLabError, ValueError):
    """The zero polynomial was passed where a nonzero one is required."""


class InfeasibleParametersError(LefschetzLabError, ValueError):
    """Family parameters are out of range or admit no instance; message says why."""


class DegenerateInstanceError(LefschetzLabError, ValueError):
    """A generated instance failed its own manifest verification."""

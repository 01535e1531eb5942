"""Exception types shared across the package."""


class BeamBVPError(Exception):
    """Base class for all beambvp errors."""


class ParseError(BeamBVPError):
    """Raised when expression text cannot be parsed; carries the offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(BeamBVPError):
    """An evaluation produced a non-finite intermediate (log of a
    nonpositive number, square root of a negative, division by zero,
    overflow) or was given one."""


class Overflow(DomainError):
    """An evaluation exceeded the float range, from finite values."""


class InvalidConfig(BeamBVPError):
    """A configuration value is outside its admissible range."""


class InvalidRange(BeamBVPError):
    """An integration range is empty or outside [0, 1]."""


class OutOfDomain(BeamBVPError):
    """A kernel argument lies outside the unit square."""


class HypothesisViolation(BeamBVPError):
    """f or a fails a hypothesis of the existence theorem, such as 0 < integral a < 1."""


class SingularJacobian(BeamBVPError):
    """The Newton linear solve failed."""


class SingularSystem(BeamBVPError):
    """The finite-difference system could not be factorized."""

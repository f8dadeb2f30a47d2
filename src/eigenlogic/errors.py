"""Exception types shared across the package."""


class EigenlogicError(Exception):
    """Base class for all domain errors raised by this package."""


class CapacityError(EigenlogicError):
    """A requested operator or state would exceed the dimension cap."""


class ArityMismatchError(EigenlogicError):
    """Two observables with different argument structures were combined."""


class DimensionMismatchError(EigenlogicError):
    """A state and an observable do not live in the same space."""


class ClassificationError(EigenlogicError):
    """An observable does not belong to the eigenvalue class an operation requires."""


class NonMemberError(EigenlogicError):
    """An eigenvalue matched no value of the target alphabet.

    Carries the first offending position and the value found there.
    """

    def __init__(self, index: int, value: float, message: str):
        super().__init__(message)
        self.index = index
        self.value = value


class DuplicatePointError(EigenlogicError):
    """Interpolation points were not pairwise distinct."""


class NormalizationError(EigenlogicError):
    """A state vector could not be normalized (zero or absurdly scaled)."""


class UnknownConnectiveError(EigenlogicError, KeyError):
    """A connective name was not found in the catalog."""

    __str__ = Exception.__str__  # the message as given, not KeyError's quoted repr


class ConventionError(EigenlogicError):
    """An operation was asked for in a truth-value convention it does not support."""


class AlphabetError(EigenlogicError):
    """A formula used an operator that is undefined over the given alphabet."""


class FormulaSyntaxError(EigenlogicError):
    """Formula text could not be parsed.

    ``offset`` is the 0-based character position of the failure.
    """

    def __init__(self, offset: int, expected: str):
        super().__init__(f"syntax error at offset {offset}: expected {expected}")
        self.offset = offset
        self.expected = expected

"""Shared exception types, and the base of the immutable value types.

The CLI maps these onto exit codes: parse problems exit 2, capability
problems exit 3, everything else that reaches the top level exits 1.
"""


class Frozen:
    """Base of the immutable value types.

    A subclass sets its fields once, in ``__init__``, through
    ``object.__setattr__``; assigning or deleting one afterwards raises
    ``AttributeError``.  Two values are equal, and hash alike, when they
    are of one class and their ``_key()`` tuples of fields are equal.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class SemivalError(Exception):
    """Base class for all library errors."""


class DomainError(SemivalError):
    """Invalid domain, configuration or restriction argument."""


class MismatchError(SemivalError):
    """Operands belong to different catalogs, semirings or universes."""


class CapacityError(SemivalError):
    """A dense enumeration would exceed the configured size cap."""


class CapabilityError(SemivalError):
    """The requested operation is not available for this algebra."""


class MassError(SemivalError):
    """Invalid mass assignment (negative, zero total, bad bpa)."""


class TotalConflictError(MassError):
    """Combination left no non-contradictory mass to condition on."""


class ParseError(SemivalError):
    """Model file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

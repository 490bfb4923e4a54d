"""Shared exception types, and the bases of the value types.

Every value type declares its fields once, in ``__slots__``; equality,
and for immutable values hashing, follow from that list.

The CLI maps these onto exit codes: parse problems exit 2, capability
problems exit 3, everything else that reaches the top level exits 1.
"""


def _slot_fields(value) -> tuple:
    """The default key: the public fields of ``__slots__``, in order."""
    return tuple([getattr(value, f) for f in value.__slots__ if f[0] != "_"])


class Record:
    """Base of the mutable value types, which are unhashable.

    Two records are equal when they are of one class and their ``_key()``
    tuples are equal.  The default key holds the public fields of the
    class's ``__slots__`` in order; a slot whose name starts with ``_``,
    such as a cache, takes no part in equality.
    """

    __slots__ = ()
    __hash__ = None
    _key = _slot_fields

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()


class Frozen(Record):
    """Base of the immutable value types: a record that refuses assignment
    and hashes by its key.

    A subclass sets its fields once, in ``__init__``, through
    ``object.__setattr__``; assigning or deleting one afterwards raises
    ``AttributeError``.  As for a record, the key holds the public fields
    of ``__slots__`` in order, and a slot whose name starts with ``_``
    takes no part in equality or hashing.  A lookup derived from the
    fields is a slot too, filled by ``__init__``; one that cannot be
    hashed, such as a dict, is private unless the subclass hashes by
    identity.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

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

"""Shared exception types, and the base of the immutable value classes.

Exit-code mapping for the CLI: InputError -> 2, ResourceLimitError -> 3.
A negative analysis result (property false, with witness) is *not* an
exception; functions report it as a value.
"""


class InputError(ValueError):
    """Malformed or inconsistent input (unknown ids, non-poset relation, ...)."""


class ContractError(RuntimeError):
    """A documented precondition of an operation was violated by the caller."""


class ResourceLimitError(RuntimeError):
    """A configured ceiling (cell count, piece count) was exceeded."""


class _Frozen:
    """Base of the slotted value classes (terms, forms, atoms, cells,
    sets, amalgam specs).  ``__init__`` checks its arguments and sets each
    slot once through ``object.__setattr__``; assigning or deleting an
    attribute afterwards raises ``AttributeError``.  ``_fields`` names the
    constructor's arguments, in order: ``repr`` shows them as
    ``Name(field=value, ...)``, equality and hashing compare them (classes
    that store a hash override both), and copies and pickles rebuild the
    object from them through its constructor."""
    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"

    def __reduce__(self):
        return type(self), self._values()

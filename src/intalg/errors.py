"""Shared exception types and the base of the value classes."""


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class CapacityError(ValueError):
    """Input exceeds a hard desk-scale cap."""


class Value:
    """An immutable record whose fields are its __slots__, in order.

    Instances of one class are equal when every field is.  The hash is that
    of the tuple of fields, as a frozen dataclass computes it, so set and
    dict orders match it too; a record with a list field is unhashable.
    This constructor takes every field, positionally and with no defaults;
    a class that validates or is built in hot loops writes its own
    __init__, which sets the fields past Value.__setattr__
    (object.__setattr__, or the slots' own setters).
    Frozen dataclasses would cost every CLI call about 10 ms to import
    dataclasses and inspect, and 0.5 to 1 ms per class to decorate (Python
    3.11 on 2 shared cores)."""

    __slots__ = ()

    def __init__(self, *args):
        names = self.__slots__
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

"""The base of the package's immutable value classes."""


class Record:
    """A value object: equality, hashing and repr over the attributes named
    in `_fields`, in that order, and no assignment after construction.

    A subclass's `__init__` validates its arguments and stores them with
    `vars(self).update(...)`; assignment raises AttributeError.  Attributes
    derived from the fields may be stored the same way and left out of
    `_fields`, so they take no part in equality, hashing or repr.  Instances
    keep a `__dict__`, so `functools.cached_property` works on them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

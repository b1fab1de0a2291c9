"""The immutable-value protocol of the package's value classes.

A subclass names its fields in __slots__ and writes each one in its own
__init__ with set_field; its constructor must accept the fields
positionally in slot order, because copies and pickles rebuild through
it.  Value supplies the rest of what a frozen dataclass gives: equality
and hash over the field tuple, a repr naming each field, no assignment or
deletion, and __reduce__ for copy and pickle.  Unlike dataclasses it
generates no code at import, so the commands that load a value class
stay light.
"""

from operator import attrgetter

# Constructors write each field with this, one call per field: a loop over
# the fields would double the cost of building a small value.
set_field = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ())
        )
        get = attrgetter(*cls._fields)
        # attrgetter returns a bare value for one field and a tuple for more
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key(self)

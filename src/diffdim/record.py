"""Plain record types: equality, repr, hashing and pickling read off __slots__.

A record lists its fields as its __slots__, in constructor order, and sets
them in its own __init__.  Two records are equal when they are of one type
and their fields are equal in turn; the repr is Type(field=value, ...).  A
Record is mutable and unhashable; a FrozenRecord hashes the tuple of its
fields and refuses to assign or delete one, so its __init__ sets them with
object.__setattr__.  Pickling and copying restore the fields the same way,
without calling __init__.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __getstate__(self):
        return self._values()

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

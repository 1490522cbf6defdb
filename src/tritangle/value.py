"""Immutable values: a frozen dataclass's behaviour without importing ``dataclasses``.

A subclass lists its fields in ``__slots__``; its ``__init__`` takes, checks and stores
them in that order.  Values of one class are equal and hash alike when their fields are,
show as ``Name(field=value, ...)``, refuse assignment and ``_replace`` through ``__init__``.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        # eq and hash read the fields in one C call: a tuple, or a lone field's value
        cls._key = staticmethod(attrgetter(*cls.__slots__))
        # each field's slot setter, which stores without object.__setattr__'s lookup by name
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *values):
        for store, value in zip(self._setters, values):
            store(self, value)

    def _replace(self, **changes):
        return type(self)(**{name: getattr(self, name) for name in self.__slots__} | changes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

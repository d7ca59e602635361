"""The shared base of forrlab's value records.

The methods that ``@dataclass`` would generate are written here once, so
they load from the bytecode cache instead of being compiled on every import.
"""

from __future__ import annotations


class Record:
    """A record whose fields are its ``__slots__``, in ``__init__`` order.

    Frozen: fields are set once, in ``__init__``, with
    ``object.__setattr__``; a mutable subclass restores ``__setattr__`` and
    ``__delattr__`` from ``object``.  Equality and hashing read the fields
    named in ``_compare``, and only between records of the same class; an
    empty ``_compare`` means identity.  The repr is ``Name(field=value,
    ...)`` over every field.
    """

    __slots__ = ()
    _compare: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__ or not self._compare:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key()) if self._compare else object.__hash__(self)

    def __reduce__(self):
        # Copy and pickle rebuild through __init__, which re-validates.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compare)

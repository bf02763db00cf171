"""Machinery every layer shares: the errors, the record base, count and bit helpers.

Private: each error is reached through the layer that exports it
(``partitions``, or ``cli`` for :class:`ParseError`); the bit helpers
serve the layers only.  Every command loads this module, and without
bytecode caches compiles it, so it holds nothing else.
"""

from __future__ import annotations

import sys
from operator import attrgetter, index


class InvariantError(ValueError):
    """Raised when an input violates a documented domain invariant."""


class InternalCheckError(AssertionError):
    """Raised when a cross-check the package runs on its own results fails.

    Unlike a bare ``assert``, the check still runs under ``python -O``.
    """


class ParseError(ValueError):
    """Raised when a command line literal cannot be parsed."""


def _check_internal(ok: bool, message: str) -> None:
    """Raise :class:`InternalCheckError` with ``message`` unless ``ok``."""
    if not ok:
        raise InternalCheckError(message)


def _integer(value, what: str) -> int:
    """``value`` read through ``operator.index``, refused unless an integer."""
    try:
        return index(value)
    except TypeError:
        raise InvariantError(f"{what} must be an integer, got {value!r}") from None


def _length(count: int) -> int:
    """``count`` as a ``__len__`` result, refused past what ``len()`` can return."""
    if count > sys.maxsize:
        raise InvariantError(f"the stream holds {count} items, too many for len()")
    return count


def bits_of(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _low_bit(mask: int) -> int:
    return mask & -mask


class _Record:
    """Base of the package's immutable value classes.

    The fields are the class's own annotations, in order.  This ``__init__``
    takes them positionally or by keyword and only assigns them.  A class
    that validates its input, or puts it in one canonical form, writes its
    own ``__init__`` instead, with the fields as its parameters.  Fields
    cannot be set or deleted.  Records are equal when of one class with
    equal fields, and hash as the tuple of fields.  Instances keep a
    ``__dict__``, where ``functools.cached_property`` stores derived views.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Only the annotation names are read, so none is ever evaluated.
        cls._fields = tuple(cls.__annotations__)
        get = attrgetter(*cls._fields)
        # attrgetter returns a lone field bare; it is hashed as a 1-tuple.
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda x: (get(x),))

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs:
            args = (*args, *[kwargs.pop(f) for f in names[len(args) :] if f in kwargs])
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            # Not through __dict__: on CPython 3.11 and 3.12, touching it
            # turns every later field read into a dict lookup.
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

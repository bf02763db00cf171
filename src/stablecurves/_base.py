"""Machinery every layer shares: the errors, the record base, bit helpers.

Private: each error is reached through the layer that exports it
(``partitions``, or ``cli`` for :class:`ParseError`); the bit helpers
serve the layers only.  Every command loads this module, and without
bytecode caches compiles it, so it holds nothing else.
"""

from __future__ import annotations

from collections import abc
from itertools import islice
from operator import attrgetter


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

    The fields are the class's own annotations, in order.  A record is built
    from them positionally or by keyword, then ``__post_init__``, looked up
    on the class, validates it.  A class built in hot loops writes its own
    ``__init__``, about twice as fast, which calls ``__post_init__`` when
    the class has one.  A class whose values have one canonical form puts
    its input in that form as it validates it: in its own ``__init__``, or
    in ``__post_init__`` when it uses this one.  Fields cannot be set or
    deleted.  Records are equal when of one class with equal fields, and
    hash as the tuple of fields.  Instances keep a ``__dict__``, where
    ``functools.cached_property`` stores derived views.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Only the annotation names are read, so none is ever evaluated.
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
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
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

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


class _LazySequence(abc.Sequence):
    """A sized sequence built afresh on every pass, read one item at a time.

    Subclasses give ``__len__`` and ``__iter__``; indexing and slicing walk
    the items up to the requested position, O(index).  ``index`` and
    ``reversed`` take one pass, where the inherited versions index item by
    item and so walk the sequence once per item.
    """

    def __reversed__(self):
        return reversed(list(self))

    def index(self, value, start: int = 0, stop: int | None = None) -> int:
        picked = range(len(self))[start:stop]
        for i, item in zip(picked, islice(self, picked.start, picked.stop)):
            if item is value or item == value:
                return i
        raise ValueError(f"{value!r} is not in the sequence")

    def __getitem__(self, index):
        if isinstance(index, slice):
            picked = range(len(self))[index]
            if not picked:
                return []
            if picked.step > 0:
                return list(islice(self, picked.start, picked.stop, picked.step))
            return list(islice(self, picked[-1], picked.start + 1, -picked.step))[::-1]
        return next(islice(self, range(len(self))[index], None))

"""Immutable records: the package's value classes, written out by hand.

A record class names its fields in ``__slots__`` and sets them in its own
``__init__`` through ``object.__setattr__``.  ``Record`` gives it what a
frozen dataclass would: equality only with an instance of the same class,
over the compared fields; the hash of the tuple of those fields; a repr of
them by name; and ``AttributeError`` on assigning or deleting a field.  The
fields are read through one ``operator.attrgetter`` per class, made when
the class is defined, so no code is generated at import.
"""

from operator import attrgetter


class Record:
    """Base of the immutable records.  The class keyword ``compare`` names
    the fields that equality, hash and repr read: by default the class's
    own ``__slots__``, or its parent's fields when it declares none.
    ``show`` narrows the repr to some of them.  The compared fields are
    the leading arguments of ``__init__``, which is how pickling and
    ``copy`` rebuild a record."""

    __slots__ = ()

    def __init_subclass__(cls, compare=None, show=None, **kw):
        super().__init_subclass__(**kw)
        compare = compare or cls.__dict__.get("__slots__")
        if not compare:
            return
        get = attrgetter(*compare)
        cls._key = staticmethod(get if len(compare) > 1 else lambda self: (get(self),))
        cls._show = show or compare

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._show)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._key(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

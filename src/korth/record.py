"""Immutable value records on plain ``__slots__`` classes.

A record lists its fields as ``__slots__`` and the defaults of trailing
fields in ``_defaults``; the base supplies the constructor, field-wise
equality and hashing, the ``Name(field=value, ...)`` repr, pickling and
immutability.  A class whose fields are not its slots names them in
``_fields``: equality, hashing, repr and pickling read those, and a field
may be a property computed from the slots.  Records built in bulk write
their own ``__init__`` and set each slot with ``object.__setattr__``.
"""

from operator import attrgetter

__all__ = ["Record"]


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        # Called as self._values(self): a getter is no method.  It returns the
        # field tuple when there are two or more fields, as every record has.
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values from a call that omits defaults or names fields."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        for key in kwargs:
            if key not in fields or key in fields[:len(args)]:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        try:
            return [values[field] for field in fields]
        except KeyError as exc:
            raise TypeError(f"{name}() missing argument {exc.args[0]!r}") from None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)

"""Immutable records whose fields are checked when a record is built.

A record is a :class:`Record` subclass that annotates its fields, in
order, each with its default, if it has one, after the annotation.  Like
a ``typing.NamedTuple`` it is a tuple with a read-only attribute per
field, and it has ``_fields``, ``_field_defaults``, ``__match_args__``,
``_make``, ``_replace``, ``_asdict`` and the same ``repr``.  Unlike one it
is cheap to define: a NamedTuple class statement costs 170-320 us
(CPython 3.11), and each of the package's eleven records is defined on
every cold CLI call.  A record with constraints on its fields defines
``_check``, which runs on every record built: by the constructor,
``_make``, ``_replace``, a copy or unpickling.
"""

import math
import operator
from collections import _tuplegetter  # namedtuple's field accessor, in C

from .errors import DomainError, InputError


class _RecordType(type):
    """Makes each annotated field of a record class a read-only accessor of
    its index, gives the class ``__slots__ = ()``, so that no attribute can be
    set on a record, and keeps each field's default in ``_field_defaults``."""

    def __new__(mcls, name, bases, namespace):
        cls = super().__new__(mcls, name, bases, {"__slots__": (), **namespace})
        fields = tuple(cls.__annotations__)
        cls._field_defaults = {field: namespace[field] for field in fields
                               if field in namespace}
        for index, field in enumerate(fields):
            setattr(cls, field, _tuplegetter(index, None))
        cls._fields = cls.__match_args__ = fields
        return cls


class Record(tuple, metaclass=_RecordType):
    """Base of the package's records: a tuple of its annotated fields."""

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._arguments(args, kwargs)
        self = tuple.__new__(cls, args)
        self._check()
        return self

    @classmethod
    def _arguments(cls, args, kwargs):
        """The field values, in order, from a call's arguments and the
        defaults; a TypeError, as for a function's call, for any other."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        missing = []
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._field_defaults:
                values.append(cls._field_defaults[field])
            else:
                missing.append(repr(field))
        for keyword in kwargs:  # a keyword no field left takes
            if keyword in fields:
                raise TypeError(f"{name}() got multiple values for argument {keyword!r}")
            raise TypeError(f"{name}() got an unexpected keyword argument {keyword!r}")
        if missing:
            raise TypeError(f"{name}() missing {len(missing)} required "
                            f"argument{'s' * (len(missing) > 1)}: {', '.join(missing)}")
        return values

    def _check(self):
        """Raise for fields out of range; a record with constraints overrides it."""

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        values = [changes.pop(field, value) for field, value in zip(self._fields, self)]
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return type(self)(*values)

    def _asdict(self):
        return dict(zip(self._fields, self))

    def __repr__(self):
        return (f"{type(self).__name__}("
                + ", ".join(f"{field}={value!r}" for field, value in zip(self._fields, self))
                + ")")

    def __getnewargs__(self):
        return tuple(self)


def check_finite(*fields):
    """Raise DomainError for the first (label, value) pair whose value is
    NaN or infinite, or an int beyond the double range, which compares
    below inf.  A record calls it before its range checks, which an
    infinity, or a NaN against ``x <= 0``, would pass."""
    for label, value in fields:
        if not -math.inf < value < math.inf:
            raise DomainError(f"{label} must be finite, got {value}")
        if isinstance(value, int):
            try:
                float(value)
            except OverflowError:
                raise DomainError(f"{label} must be finite, got an integer "
                                  "beyond the double range") from None


def check_count(label, value):
    """Raise InputError unless value is an integer: an int or a numpy
    integer, as operator.index takes it, not a float such as 2.5 or 5.0."""
    try:
        operator.index(value)
    except TypeError:
        raise InputError(f"{label} must be an integer, got {value!r}") from None


def check_vector(label, vector):
    """Raise InputError unless vector is 3 finite numbers, as a path's
    vertex is; an int beyond the double range is not one."""
    try:
        finite = len(vector) == 3 and all(map(math.isfinite, vector))
    except OverflowError:
        raise InputError(f"{label} must be 3 finite numbers, got an integer "
                         "beyond the double range") from None
    if not finite:
        raise InputError(f"{label} must be 3 finite numbers, got {vector!r}")

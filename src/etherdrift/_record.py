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

The checks that the records and the kernels share live here too, and so
do the two drivers of every CSV table, an angle scan's or a potential
profile's: _rows runs a table's row rule in plain floats and _table in
numpy blocks of _SCAN_BLOCK rows, and each refuses the table's first
cell that is NaN or infinite, in row-major order (not_finite).  This
module runs on every call, so a table's kernel module needs no other
kernel's to be formed.
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


def not_finite(value) -> DomainError:
    """The refusal of a result, a table's cell among them, that is NaN or
    infinite: the one message for each, which names the value."""
    return DomainError(f"result is not a finite number ({float(value)}): "
                       "the computation left the double range")


def check_count(label, value):
    """value as an int, if it is an integer: an int or a numpy integer, as
    operator.index takes it; InputError for any other, such as 2.5 or 5.0."""
    try:
        return operator.index(value)
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


#: largest table, an angle scan or a potential profile; each row holds
#: three or four floats
MAX_SCAN_STEPS = 10 ** 7

#: the table rule (cli._table_csv) of every CSV table: in a process that has
#: not loaded numpy, up to this many rows in plain floats; beyond its cut, a
#: numpy table streamed, and filled, in blocks of this many rows, so that no
#: temporary nears the table's size.  Every reader looks it up here when it
#: runs
_SCAN_BLOCK = 4096


def _check_steps(steps: int, noun: str) -> None:
    """Refuse a table (an angle scan, a potential profile) of fewer than 2
    or more than MAX_SCAN_STEPS rows, or a step count that is not an
    integer; noun names it in the message."""
    check_count(f"{noun} steps", steps)
    if steps < 2:
        raise InputError(f"{noun} needs at least 2 steps, got {steps}")
    if steps > MAX_SCAN_STEPS:
        raise InputError(f"{noun} takes at most {MAX_SCAN_STEPS} steps, got {steps}")


def _rows(rule, steps: int):
    """The rows rule(k, math), k = 0 to steps - 1, of a table in plain
    floats, as an iterator that forms them as they are read and refuses
    the first with a cell that is not finite, by not_finite of that cell.
    No numpy is imported: for a few rows, its import costs more than the
    table."""
    for k in range(steps):
        row = rule(k, math)
        if not all(map(math.isfinite, row)):
            raise not_finite(next(value for value in row if not math.isfinite(value)))
        yield row


def _table(rule, columns: int, start: int, stop: int):
    """Rows start to stop - 1 of a table, rule(k, numpy) over int arrays
    k, as a (stop - start, columns) float64 array, the doubles of _rows,
    formed in blocks of _SCAN_BLOCK rows, so that no other array nears
    its size; each block is refused, once it is formed, by not_finite of
    its first non-finite cell in row-major order."""
    import numpy as np

    table = np.empty((stop - start, columns))
    with np.errstate(all="ignore"):  # the refusal is an overflow's one report
        for first in range(start, stop, _SCAN_BLOCK):
            rows = table[first - start:first - start + _SCAN_BLOCK]
            # a column at a time: a tuple of columns would be copied into an
            # array of the block's size first
            for column, values in zip(rows.T, rule(np.arange(first, first + len(rows)), np)):
                column[...] = values
            finite = np.isfinite(rows)
            if not finite.all():
                raise not_finite(rows.flat[finite.argmin()])
    return table

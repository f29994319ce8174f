"""Immutable records whose fields are checked when a record is built.

The package's records are ``typing.NamedTuple`` classes: immutable, and
cheap to define at import.  A record with constraints on its fields lists
:class:`Checked` before its NamedTuple base and defines ``_check``.
A module that defines records does not postpone its annotations (``from
__future__ import annotations``): NamedTuple compiles each string field
annotation into a ``typing.ForwardRef``, which the import then pays for.
"""

import math

from .errors import DomainError


class Checked:
    """Runs ``self._check()`` on every record built, before it is returned.

    NamedTuple's ``_make`` builds through ``tuple.__new__``, past the
    constructor; here it calls the constructor, and so does ``_replace``,
    which builds through ``_make``.  Copies and unpickling call
    ``__new__``.  Subclasses declare ``__slots__ = ()``, so that no
    attribute can be set on a record.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def check_finite(*fields):
    """Raise DomainError for the first (label, value) pair whose value is
    NaN or infinite.  A record calls it before its range checks, which an
    infinity, or a NaN against ``x <= 0``, would pass."""
    for label, value in fields:
        if not -math.inf < value < math.inf:
            raise DomainError(f"{label} must be finite, got {value}")

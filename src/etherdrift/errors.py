"""Exception hierarchy shared by the whole package.

Everything raised on purpose derives from :class:`EtherdriftError`, so the
command line driver can map library failures to a single exit code without
catching bare ``Exception``.
"""


class EtherdriftError(Exception):
    """Base class for all errors raised by etherdrift."""


class DomainError(EtherdriftError, ValueError):
    """A physical argument is outside the domain of the formula."""


class InputError(EtherdriftError, ValueError):
    """Malformed user input (CLI flags and JSON payloads)."""


class SingularPathError(EtherdriftError, ValueError):
    """An integration path touches a field singularity."""


class DegenerateConfigError(EtherdriftError, ValueError):
    """A geometry or run configuration is degenerate (zero-size, crossing)."""

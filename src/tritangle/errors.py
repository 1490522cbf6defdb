"""Exception hierarchy shared by all tritangle modules."""

from __future__ import annotations


def echo(value, form=str, limit: int = 80) -> str:
    """A refused value as a one-line message writes it: ``form(value)``, its ``str`` or its
    ``repr`` (``<T too long to write>`` if that holds an integer with more digits than the
    interpreter writes, ``T`` the value's type); that text's ``repr`` if it is not
    ``str.isprintable`` (a newline, say); then whole up to ``limit`` characters, else
    ``<N characters>``."""
    try:
        text = form(value)
    except ValueError:  # the interpreter's digit limit, on an int alone or in a container
        return f"<{type(value).__name__} too long to write>"
    text = text if text.isprintable() else repr(text)
    return text if len(text) <= limit else f"<{len(text)} characters>"


class TritangleError(Exception):
    """Base class for every error raised by this package."""


class ZeroOverZero(TritangleError):
    """Raised when a fraction is constructed from the pair (0, 0)."""


class InfiniteSlope(TritangleError):
    """An operation that needs a finite slope received the projective infinity."""


class InfiniteValue(TritangleError):
    """A continued fraction needed by an intersection count evaluates to infinity."""


class InconsistentFlags(TritangleError):
    """A descriptor carries flags that contradict each other or its slope data."""


class MutualExclusivityViolation(InconsistentFlags):
    """More than one of the satellite / cable / Hopf-summand flags is set."""


class InvalidTorusParams(TritangleError):
    """Torus curve parameters with p < 2, gcd(p, q) != 1 or too many digits to write."""


class SlopeTooLarge(TritangleError):
    """A slope or twist entry has more digits than ``str`` writes."""


class NotApplicable(TritangleError):
    """The operation's preconditions (kind, atoroidality, essentiality) fail."""


class UnknownName(TritangleError):
    """Catalog lookup for a name that is not in the table."""


class BoundsTooLarge(TritangleError):
    """Census bounds exceed the configured hard cap."""


class DocumentError(TritangleError):
    """A JSON descriptor document is malformed; carries the offending path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

"""Exception taxonomy shared by the whole package.

Three failure modes matter to callers: the inputs live in incompatible
rings, the requested value genuinely does not exist (non-invertible
element, constraint violated), or it exists but the stored precision
window is too small to determine it.  A fourth, a broken internal
invariant, is a defect of the library rather than of the input.  The CLI
maps these to distinct exit codes.  Every size, bound and order
argument is read by one rule, ``_at_least``.
"""


class GrasstauError(Exception):
    """Base class for all library errors."""


class RingMismatchError(GrasstauError):
    """Operands belong to different coefficient rings or base fields."""


class DomainError(GrasstauError):
    """A precondition on the mathematical inputs is violated."""


class NotInvertibleError(DomainError):
    """Inversion was requested for an element that has no inverse."""


class PrecisionError(GrasstauError):
    """The truncation window is too small to determine the result."""


class InternalError(GrasstauError):
    """An internal invariant failed: a library defect, not a bad input."""


def _at_least(value, low: int, what: str) -> int:
    """``value`` if it is an int >= low, else DomainError naming ``what``;
    a bool or other int subclass is refused like a float, as exponents are."""
    if type(value) is not int:
        raise DomainError(f"{what} must be an int, not {value!r}")
    if value < low:
        raise DomainError(f"{what} must be >= {low}")
    return value

"""Exception types shared across the package, and the integer-argument check."""

import numbers


class InputError(ValueError):
    """Raised when an argument violates an operation's preconditions."""


class ModelError(ValueError):
    """Raised when model data violates a declared invariant (bounds, signs, domains)."""


def require_int(name: str, value, least: int):
    """``value`` if it is an integer >= ``least`` (bool is not); InputError otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")
    return value

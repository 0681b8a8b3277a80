"""Exception types shared across the package."""

import numbers


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class PerturbativeValidityError(ValidationError):
    """Raised when a requested coupling puts the model outside its
    perturbative window, so the leading-order state would not be a
    meaningful density matrix."""


class ConvergenceError(RuntimeError):
    """Raised when a numerical routine cannot certify its result to the
    requested tolerance."""


def _member(kind, value, name: str):
    """The member of the enum ``kind`` that ``value`` is or names; anything
    else raises a :class:`ValidationError` that lists the accepted values
    under ``name``.  A member comes back as it is, without the enum's call."""
    if type(value) is kind:
        return value
    try:
        return kind(value)
    except ValueError:
        accepted = ", ".join(repr(member.value) for member in kind)
        raise ValidationError(f"{name} must be one of {accepted}; got {value!r}") from None


def _real(value, name: str) -> float:
    """``value`` as a float, if it is a real number that a double holds; text,
    None, a complex number or an int beyond the doubles raises a
    :class:`ValidationError` that names it ``name``.  A float, the usual
    input, comes back as it is."""
    if type(value) is float:
        return value
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} is too large for a double") from None


def _complex(value, name: str) -> complex:
    """``value`` as a complex number, if it is a number whose parts doubles
    hold; text, bytes, None or an int beyond the doubles raises a
    :class:`ValidationError` that names it ``name``.  A complex number, the
    usual input, comes back as it is, and a float skips the ABC check."""
    if type(value) is complex:
        return value
    if not isinstance(value, (float, numbers.Complex)):
        raise ValidationError(f"{name} must be a complex number, got {value!r}")
    try:
        return complex(value)
    except OverflowError:
        raise ValidationError(f"{name} is too large for a double") from None

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
    under ``name``."""
    try:
        return kind(value)
    except ValueError:
        accepted = ", ".join(repr(member.value) for member in kind)
        raise ValidationError(f"{name} must be one of {accepted}; got {value!r}") from None


def _real(value, name: str) -> float:
    """``value`` as a float, if it is a real number that a double holds; text,
    None, a complex number or an int beyond the doubles raises a
    :class:`ValidationError` that names it ``name``."""
    if not isinstance(value, (float, numbers.Real)):  # float first skips the ABC check
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} is too large for a double") from None

"""The closed forms' window onto ``scipy.special``.

The detector responses reduce to the Faddeeva function w(z) = exp(-z^2)
erfc(-iz). This module is the one place the closed forms take it from:
:func:`faddeeva_w` at one point, and scipy's ``wofz`` (over arrays) and
``erfcx`` (w on the imaginary axis, for the small-separation Taylor data),
which :mod:`mirrorsteer.detector_model` imports from here.
"""

from __future__ import annotations

import math

from scipy.special import erfcx, wofz  # noqa: F401  (erfcx is for detector_model)

from .errors import ValidationError


def faddeeva_w(z: complex) -> complex:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz).

    Numerically stable in the upper half plane; the closed-form detector
    responses are arranged so every call lands there.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError("faddeeva_w requires a finite argument")
    return complex(wofz(z))

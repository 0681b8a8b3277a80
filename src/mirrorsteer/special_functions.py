"""The closed forms' window onto ``scipy.special``.

The detector responses reduce to the Faddeeva function w(z) = exp(-z^2)
erfc(-iz). This module is the one place the closed forms take it from:
:func:`faddeeva_w` at one point, and scipy's ``wofz`` (over arrays) and
``erfcx`` (w on the imaginary axis, for the small-separation Taylor data),
which :mod:`mirrorsteer.detector_model` imports from here.

At one point w comes from ``_w_point``, scipy's Cython binding of its
Faddeeva kernel (``scipy.special.cython_special.wofz``). It runs the same
Faddeeva Package code as the ``wofz`` ufunc, so it returns the same bits,
but a call costs about 0.13 µs against about 0.33 µs for
``complex(wofz(z))``: the ufunc's dispatch and its numpy scalar are most of
a one-point call, and searches make about a hundred of them per problem.
The spacelike kernel F calls it directly.
"""

from __future__ import annotations

import math

from scipy.special import erfcx, wofz  # noqa: F401  (erfcx is for detector_model)
from scipy.special.cython_special import wofz as _w_point

from .errors import ValidationError


def faddeeva_w(z: complex) -> complex:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz).

    Numerically stable in the upper half plane; the closed-form detector
    responses are arranged so every call lands there.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError("faddeeva_w requires a finite argument")
    return _w_point(z)

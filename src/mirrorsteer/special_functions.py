"""Error functions on the complex plane.

Thin, validated wrappers around scipy's erf family. The complex error
function is canonicalized to the first quadrant before evaluation so that
the reflection symmetries

    erf(-z) = -erf(z)        erf(conj(z)) = conj(erf(z))

hold exactly in floating point, not merely to rounding accuracy.
"""

from __future__ import annotations

import math

from scipy import special as _sp

from .errors import ValidationError

# Accuracy is certified for |z| <= 50; beyond that the wrapper refuses
# rather than silently degrade.
ERF_COMPLEX_WINDOW = 50.0

# exp overflow threshold for doubles, with margin
_EXP_OVERFLOW = 700.0


def erf_complex(z: complex) -> complex:
    """Error function of a complex argument.

    Parameters
    ----------
    z : complex
        Point of evaluation, |z| <= 50 and finite.

    Returns
    -------
    complex
        erf(z), accurate to about 1e-12 relative for |z| <= 10.

    Raises
    ------
    ValidationError
        If z is not finite, lies outside the certified window, or sits in
        the growth region where erf overflows a double.
    """
    z = complex(z)
    re, im = z.real, z.imag
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValidationError("erf_complex requires a finite argument")
    if abs(z) > ERF_COMPLEX_WINDOW:
        raise ValidationError(
            f"erf_complex certified only for |z| <= {ERF_COMPLEX_WINDOW}, got |z| = {abs(z):.3g}"
        )
    # |erf(x+iy)| ~ exp(y^2 - x^2) off the real axis; refuse overflow.
    if im * im - re * re > _EXP_OVERFLOW:
        raise ValidationError("erf_complex argument overflows double precision")
    # Evaluate in the closed first quadrant and map back, so oddness and
    # conjugation are exact by construction.
    wc = complex(_sp.erf(complex(abs(re), abs(im))))
    if re >= 0.0:
        return wc if im >= 0.0 else wc.conjugate()
    return -wc.conjugate() if im >= 0.0 else -wc


def faddeeva_w(z: complex) -> complex:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz).

    Numerically stable in the upper half plane; the closed-form detector
    responses are arranged so every call lands there.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError("faddeeva_w requires a finite argument")
    return complex(_sp.wofz(z))

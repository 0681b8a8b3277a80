"""Tests for the error-function wrappers.

Reference values come from a 60-term Maclaurin expansion, which is
independent of the library implementation, and from the standard
library's real erfc.
"""

import math

import numpy as np
import pytest

from mirrorsteer.errors import ValidationError
from mirrorsteer.special_functions import (
    ERF_COMPLEX_WINDOW,
    erf_complex,
    faddeeva_w,
)

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def erf_maclaurin(z: complex, terms: int = 60) -> complex:
    """Maclaurin series for erf, accurate to ~1e-12 relative for |z| <= 3."""
    acc = 0.0 + 0.0j
    a = complex(z)  # a_n = z^(2n+1) / n!
    z2 = z * z
    for n in range(terms):
        acc += a / (2 * n + 1)
        a *= -z2 / (n + 1)
    return TWO_OVER_SQRT_PI * acc


class TestErfComplex:
    def test_matches_maclaurin_near_origin(self):
        rng = np.random.default_rng(20240817)
        pts = rng.uniform(-3, 3, size=(400, 2))
        # keep |z| <= 3 so the 60-term series is trustworthy
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= 3.0]
        assert len(pts) > 200
        for re, im in pts:
            z = complex(re, im)
            ref = erf_maclaurin(z)
            got = erf_complex(z)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_real_point_value(self):
        # erf(1), from the Maclaurin series
        assert erf_complex(1.0 + 0.0j).real == pytest.approx(
            0.8427007929497148, rel=1e-14
        )

    def test_pure_imaginary_matches_erfi(self):
        # erf(iy) = i erfi(y)
        got = erf_complex(1j)
        assert got.real == 0.0
        assert got.imag == pytest.approx(1.6504257587975428, rel=1e-13)

    def test_oddness_and_conjugation_fuzz(self):
        rng = np.random.default_rng(7)
        n = 0
        while n < 10_000:
            re, im = rng.uniform(-10, 10, size=2)
            z = complex(re, im)
            if abs(z) > 10.0:
                continue
            n += 1
            w = erf_complex(z)
            assert abs(erf_complex(-z) + w) <= 1e-14
            assert abs(erf_complex(z.conjugate()) - w.conjugate()) <= 1e-14

    def test_real_axis_is_real_and_matches_erfc(self):
        for x in np.linspace(-6.0, 6.0, 61):
            w = erf_complex(complex(x, 0.0))
            assert abs(w.imag) <= 1e-15
            assert abs(w.real - (1.0 - math.erfc(x))) <= 1e-13

    def test_moderate_modulus_against_faddeeva_identity(self):
        # erf(z) = 1 - exp(-z^2) w(iz) holds wherever exp(-z^2) is tame
        rng = np.random.default_rng(11)
        for _ in range(200):
            re = rng.uniform(0.3, 7.0)
            im = rng.uniform(-0.9 * re, 0.9 * re)
            z = complex(re, im)
            ref = 1.0 - np.exp(-z * z) * faddeeva_w(1j * z)
            got = erf_complex(z)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            erf_complex(complex(math.nan, 0.0))
        with pytest.raises(ValidationError):
            erf_complex(complex(0.0, math.inf))

    def test_rejects_outside_window(self):
        with pytest.raises(ValidationError):
            erf_complex(complex(ERF_COMPLEX_WINDOW + 1.0, 0.0))

    def test_rejects_overflow_region(self):
        # |z| is inside the window but erf(z) ~ exp(im^2 - re^2) overflows
        with pytest.raises(ValidationError):
            erf_complex(complex(1.0, 30.0))


class TestFaddeevaW:
    def test_imaginary_axis_value(self):
        # w(i) = e * erfc(1)
        got = faddeeva_w(1j)
        assert got.imag == 0.0
        assert got.real == pytest.approx(0.42758357615580705, rel=1e-14)

    def test_relation_to_erfc(self):
        # w(iy) = exp(y^2) erfc(y) on the positive imaginary axis
        for y in (0.5, 1.0, 2.0, 5.0):
            assert faddeeva_w(complex(0.0, y)).real == pytest.approx(
                math.exp(y * y) * math.erfc(y), rel=1e-13
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            faddeeva_w(complex(math.inf, 1.0))

"""Tests for the Faddeeva function and the complex erf the tests use.

``faddeeva_w`` is checked against the standard library's real erfc, and
against the complex erf through erf(z) = 1 - exp(-z^2) w(iz). The complex
erf (``conftest.erf_complex``) is checked against a 60-term Maclaurin
expansion, which is independent of scipy, and against its exact symmetries.
The one-point kernel is held to scipy's ``wofz`` ufunc bit for bit.
"""

import ast
import math
import pathlib

import numpy as np
import pytest
from scipy.special import wofz

import mirrorsteer
from conftest import erf_complex, erf_maclaurin
from mirrorsteer.errors import ValidationError
from mirrorsteer.special_functions import _w_point, faddeeva_w
from mirrorsteer.sweep_optimize import SweepAxis


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


def _kernel_arguments() -> list[complex]:
    """F's arguments -l/2 + i s/2: separations l log-spaced from
    SERIES_CROSSOVER (1e-3) past 400, gaps s in [0, 12] with s = 0 itself,
    and the image and 2 dz lengths of fig5 (l = 0.05, dz from 1e-4 to 8)
    and fig6 (l = 0.05 and 2, dz = 1) at their gap sums."""
    rng = np.random.default_rng(35)
    ls = np.geomspace(1e-3, 1e4, 120).tolist() + (10.0 ** rng.uniform(-3.0, 4.0, 120)).tolist()
    ss = np.linspace(0.0, 12.0, 25).tolist() + rng.uniform(0.0, 12.0, 24).tolist()
    args = [(l, s) for l in ls for s in ss]
    # fig5 at its default gaps 0.1/0.1 (s = 0.2) and at s = 0, 2, ..., 12
    for dz in SweepAxis("boundary-distance", 1e-4, 8.0, 200).grid().tolist():
        for l in (2.0 * dz, math.hypot(0.05, 2.0 * dz), 0.05 + 2.0 * dz):
            args += [(l, s) for s in (0.2, *ss[:25:4])]
    # fig6: omega_a = 0.1 and omega_b along its axis, so s = 0.1 + omega_b
    # (C and X) or 2 omega_b (P_B)
    omega_b = SweepAxis("omega-b", 0.1, 6.0, 200).grid().tolist()
    for sep in (0.05, 2.0):
        for l in (sep, math.hypot(sep, 2.0), sep + 2.0):
            args += [(l, s) for w in omega_b for s in (0.1 + w, 2.0 * w)]
    return [complex(-l / 2.0, s / 2.0) for l, s in args]


class TestOnePointKernel:
    """The closed forms' one-point kernel is scipy's Cython binding of the
    Faddeeva Package, and the ufunc runs the same code: both give every
    bit, signed zeros included, so either can serve a point."""

    def test_matches_the_ufunc_bit_for_bit(self):
        zs = _kernel_arguments()
        assert len(zs) > 15_000
        bits = lambda w: (w.real.hex(), w.imag.hex())
        mismatched = [z for z in zs if bits(_w_point(z)) != bits(complex(wofz(z)))]
        assert mismatched == []


def _scipy_imports() -> list[tuple[str, str]]:
    """(module, dotted name) for each scipy import anywhere in the package's
    source: ``from scipy.special import wofz`` reads "scipy.special.wofz"."""
    found = []
    for path in sorted(pathlib.Path(mirrorsteer.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [(path.stem, name) for name in names if name.split(".")[0] == "scipy"]
    return found


class TestScipyImports:
    """The closed forms reach scipy only through ``special_functions``, and
    the oracle keeps its own ``dawsn`` so that it stays independent of them."""

    def test_only_the_window_and_the_oracle_import_scipy(self):
        modules = {module for module, _ in _scipy_imports()}
        assert modules == {"special_functions", "integral_oracle"}

    def test_window_imports_exactly_its_kernels(self):
        names = [name for module, name in _scipy_imports() if module == "special_functions"]
        assert sorted(names) == [
            "scipy.special.cython_special.wofz", "scipy.special.erfcx", "scipy.special.wofz"
        ]

    def test_oracle_imports_only_dawsn(self):
        names = [name for module, name in _scipy_imports() if module == "integral_oracle"]
        assert names == ["scipy.special.dawsn"]

    def test_no_module_imports_integrate_or_optimize(self):
        # scipy.optimize alone adds about as much peak memory as scipy.special
        heavy = [(module, name) for module, name in _scipy_imports()
                 if name.startswith(("scipy.integrate", "scipy.optimize"))]
        assert heavy == []

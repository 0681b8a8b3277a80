"""Tests for the momentum-space response integrals.

The oracle is validated against the closed forms over the ``verify``
grid and beyond it, against 25-digit mpmath quadrature of the same
integrands near the mirror, where the closed forms lose digits, and
against its own consistency checks (node doubling, a second Dawson
subtraction, reduction identities between its integrals, determinism).
The composite rule is checked for its panel count, its exactness on
polynomials and an estimate that covers an unresolved integrand; X's
graded panels for their layout, for work skipped without changing a bit
and for an estimate that still refuses every too-coarse rule. Dawson's
integral, the one special function it reads, is checked against mpmath on
its own.
"""

import ast
import math
import pathlib

import mpmath
import numpy as np
import pytest
from scipy.special import dawsn

from mirrorsteer.detector_model import (
    Alignment,
    BoundaryGeometry,
    DetectorPair,
    boundary_free_correlations,
    correlations,
    transition_probability,
)
from mirrorsteer.cli import VERIFY_GRID_DEFAULT
from mirrorsteer.errors import ConvergenceError, ValidationError
from mirrorsteer import integral_oracle
from mirrorsteer.integral_oracle import (
    extrapolate_epsilon,
    numeric_c,
    numeric_correlations,
    numeric_probability,
    numeric_x,
    _arguments,
    _edges,
    _integrals,
    _rule,
    _sine_difference,
)

PAIR = DetectorPair(omega_a=0.1, omega_b=0.1)
GEOM_PAR = BoundaryGeometry(Alignment.PARALLEL, separation=1.0, boundary_distance=1.0)
FIELDS = ("p_a", "p_b", "c", "x")


def _integral(integrand, cut, frequency, start=math.inf):
    """int_0^cut of ``integrand`` and its estimate: the rule primitive on one
    span of :func:`_edges`' panels, with a shared factor of exactly 1."""
    (result,) = _rule([(_edges(cut, frequency, start), integrand)], np.ones_like)
    return result


def _c_integral(*arguments):
    """C at unit coupling and its estimate, uncertified."""
    (result,), _ = _integrals(("C",), *arguments)
    return result


def _x_integral(*arguments):
    """X at unit coupling and its estimate, uncertified."""
    (result,), _ = _integrals(("X",), *arguments)
    return result


@pytest.fixture
def panel_order(monkeypatch):
    """A setter of the oracle's panel order: :data:`NODES` and the rule's
    arrays are patched together, to ``leggauss``'s rule of that order."""

    def set_order(order):
        x, w = np.polynomial.legendre.leggauss(order)
        monkeypatch.setattr(integral_oracle, "NODES", order)
        monkeypatch.setattr(integral_oracle, "_LEGENDRE_X", x)
        monkeypatch.setattr(integral_oracle, "_LEGENDRE_W", w)

    return set_order


def worst_deviation(pair, geom):
    """The largest relative deviation of the oracle from the closed forms,
    over the four fields."""
    oracle, closed = numeric_correlations(pair, geom), correlations(pair, geom)
    return max(abs(getattr(oracle, f) - getattr(closed, f)) / abs(getattr(closed, f))
               for f in FIELDS)


class TestExtrapolateEpsilon:
    def test_exact_line(self):
        values = [(e, 3.0 + 2.0 * e) for e in (0.02, 0.01, 0.005)]
        limit, estimate = extrapolate_epsilon(values)
        assert limit == pytest.approx(3.0, abs=1e-14)
        assert estimate < 1e-13

    def test_complex_line(self):
        values = [(e, complex(1.0 - e, 0.5 + 3.0 * e)) for e in (0.04, 0.02, 0.01)]
        limit, _ = extrapolate_epsilon(values)
        assert limit == pytest.approx(1.0 + 0.5j, abs=1e-14)

    def test_quadratic_model_is_recovered(self):
        # three points fit the quadratic exactly; the error estimate is
        # the last-two-point linear extrapolant's miss, ~|c| e2 e3
        c = 10.0
        values = [(e, 1.0 - 0.5 * e + c * e * e) for e in (0.02, 0.01, 0.005)]
        limit, estimate = extrapolate_epsilon(values)
        assert limit == pytest.approx(1.0, abs=1e-13)
        assert estimate == pytest.approx(c * 0.01 * 0.005, rel=0.5)

    def test_requires_three_entries(self):
        with pytest.raises(ValidationError):
            extrapolate_epsilon([(0.02, 1.0), (0.01, 1.1)])

    def test_requires_decreasing_epsilons(self):
        with pytest.raises(ValidationError):
            extrapolate_epsilon([(0.01, 1.0), (0.02, 1.1), (0.005, 1.2)])

    @pytest.mark.parametrize(
        "epsilons",
        [(math.inf, 0.01, 0.005), (0.02, math.nan, 0.005), (math.nan,) * 3,
         (0.02, 0.01, math.nan)],
    )
    def test_refuses_non_finite_epsilons(self, epsilons):
        # an infinite first epsilon passed with a zero error estimate, and
        # nan passed every comparison
        with pytest.raises(ValidationError, match="epsilons must be finite"):
            extrapolate_epsilon([(e, 1.0) for e in epsilons])

    def test_keeps_the_ordering_message(self):
        with pytest.raises(ValidationError, match="positive and strictly decreasing"):
            extrapolate_epsilon([(math.nan, 1.0), (-0.01, 1.0), (0.005, 1.0)])

    def test_warns_on_nonmonotone_values(self):
        with pytest.warns(UserWarning, match="monotonically"):
            extrapolate_epsilon([(0.02, 1.0), (0.01, 1.5), (0.005, 0.7)])


class TestAgainstClosedForms:
    """Where the closed forms keep their digits the two routes agree to
    rounding: 1e-12 is four orders above what either loses."""

    @pytest.mark.parametrize("omega_a, omega_b, l, dz", VERIFY_GRID_DEFAULT)
    @pytest.mark.parametrize("alignment", list(Alignment))
    def test_verify_grid(self, omega_a, omega_b, l, dz, alignment):
        pair, geom = DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, l, dz)
        assert worst_deviation(pair, geom) <= 1e-12

    # away from the mirror (dz >= 0.5), at separations and distances past
    # the verify grid's; the worst deviation measured 6.0e-13, at l = 15,
    # dz = 0.5
    @pytest.mark.parametrize("l", [0.05, 0.2, 1.0, 4.0, 15.0])
    @pytest.mark.parametrize("dz", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("omega_a, omega_b", [(0.1, 0.1), (0.0, 1.0), (0.5, 1.5)])
    @pytest.mark.parametrize("alignment", list(Alignment))
    def test_beyond_the_verify_grid(self, alignment, omega_a, omega_b, dz, l):
        pair, geom = DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, l, dz)
        assert worst_deviation(pair, geom) <= 1e-12

    @pytest.mark.parametrize("alignment", list(Alignment))
    def test_x_at_small_separation(self, alignment):
        # the regulated oracle missed X here by 1.4e-3: its regulators were
        # as large as l
        geom = BoundaryGeometry(alignment, 0.05, 1.0)
        got, want = numeric_x(PAIR, geom), correlations(PAIR, geom).x
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("alignment", list(Alignment))
    @pytest.mark.parametrize("l, dz", [(100.0, 1.0), (1.0, 30.0)])
    def test_panels_follow_the_image_separation(self, alignment, l, dz):
        # fixed panel widths would not resolve sin(kL) at L ~ 100
        assert worst_deviation(DetectorPair(0.1, 1.0), BoundaryGeometry(alignment, l, dz)) <= 1e-11


def mpmath_p_and_c(omega_a, omega_b, l, dz, alignment):
    """P_A and C at unit coupling by mpmath ``quad`` of the module
    docstring's integrands, the sine difference and 1 - sinc taken plainly
    at 25 digits, with L from the raw lengths at that precision."""
    with mpmath.workdps(25):
        wa, wb, l, dz = map(mpmath.mpf, (omega_a, omega_b, l, dz))
        big = mpmath.sqrt(l * l + 4 * dz * dz) if alignment is Alignment.PARALLEL else l + 2 * dz
        pieces = [0, 1, 3, 7, 12]

        def p(k):
            return k * mpmath.exp(-(k + wa) ** 2) * (1 - mpmath.sin(2 * k * dz) / (2 * k * dz))

        def c(k):
            s = mpmath.sin(k * l) / l - mpmath.sin(k * big) / big
            return mpmath.exp(-((k + wa) ** 2 + (k + wb) ** 2) / 2) * s

        return [float(mpmath.quad(f, pieces) / (2 * mpmath.pi)) for f in (p, c)]


# (l, L, L - l) for the sine difference: named cases, then a grid of
# separations against gaps from 1e-12 to 2; the grid's worst relative error
# measured 7.4e-15, at l = 30 and a gap of 1e-12
SINE_CASES = [(0.0, 2e-6, 2e-6), (0.0, 2.0, 2.0), (1.0, 1.0 + 2e-12, 2e-12), (0.05, 2.05, 2.0),
              (0.05, 0.0500004, 4e-7), (3.0, 3.5, 0.5)]
SINE_CASES += [
    case
    for case in ((l, l + gap, gap) for l in (0.0, 1e-3, 0.05, 1.0, 3.0, 30.0)
                 for gap in (1e-12, 1e-6, 0.3, 2.0))
    if case not in SINE_CASES
]


class TestNearTheMirror:
    """Where L - l is tiny the sine difference and 1 - sinc cancel; the
    oracle's stable forms keep every digit the mpmath reference has."""

    # (alignment, omega_a, omega_b, l, dz): a parallel image separation
    # 2e-12 longer than l, and fig5's start
    POINTS = [
        (Alignment.PARALLEL, 0.1, 0.1, 1.0, 1e-6),
        (Alignment.PARALLEL, 0.1, 0.1, 0.05, 1e-4),
        (Alignment.ORTHOGONAL, 0.1, 0.1, 1.0, 1e-6),
        (Alignment.ORTHOGONAL, 0.5, 1.5, 0.05, 0.05),
        (Alignment.PARALLEL, 0.0, 1.0, 4.0, 0.05),
        (Alignment.PARALLEL, 0.0, 1.0, 0.2, 1e-3),
    ]

    @pytest.mark.parametrize("alignment, omega_a, omega_b, l, dz", POINTS)
    def test_p_and_c_match_mpmath(self, alignment, omega_a, omega_b, l, dz):
        want_p, want_c = mpmath_p_and_c(omega_a, omega_b, l, dz, alignment)
        pair, geom = DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, l, dz)
        got = numeric_correlations(pair, geom)
        assert abs(got.p_a - want_p) <= 1e-12 * want_p
        assert abs(got.c - want_c) <= 1e-12 * abs(want_c)

    @pytest.mark.parametrize("l, big, gap", SINE_CASES)
    def test_sine_difference_matches_mpmath(self, l, big, gap):
        # both sides of kL = 1, both forms above it, and l = 0, where
        # sin(kl)/l is k
        k = np.array([1e-3, 0.1, 0.49, 0.5, 0.51, 1.0, 2.0, 7.0, 40.0]) / max(big, 1e-3)
        got = _sine_difference(k, l, big, gap)
        with mpmath.workdps(40):
            lo, hi = mpmath.mpf(l), mpmath.mpf(l) + mpmath.mpf(gap)
            for kk, value in zip(k.tolist(), got.tolist()):
                kk = mpmath.mpf(kk)
                near = kk if l == 0.0 else mpmath.sin(kk * lo) / lo
                want = near - mpmath.sin(kk * hi) / hi
                assert abs(value - want) <= 1e-14 * abs(want), float(kk)


class TestCompositeRule:
    """``_rule``: the panel count its constants set, exactness on
    polynomials, and an estimate that exposes an unresolved integrand."""

    @staticmethod
    def panel_count(cut, frequency):
        """The panels of the fine rule: ``_rule`` evaluates them and
        their merged pairs, NODES points each, in one call."""
        seen = []
        _integral(lambda k: seen.append(k.size) or np.ones_like(k), cut, frequency)
        assert len(seen) == 1 and seen[0] % (3 * integral_oracle.NODES) == 0
        return 2 * seen[0] // (3 * integral_oracle.NODES)

    # (cut, frequency, panels): MIN_PANELS, PANEL_WIDTH (10 / 0.5 = 20, and
    # 10.3 / 0.5 = 20.6, rounded up to even), PANEL_PHASE (500 / 8 = 62.5
    # and 3000 / 8 = 375, rounded up to even) and the larger of the two
    @pytest.mark.parametrize(
        "cut, frequency, panels",
        [(1.0, 0.0, 8), (10.0, 0.0, 20), (10.3, 0.0, 22), (5.0, 100.0, 64), (60.0, 2.0, 120),
         (60.0, 20.0, 150), (3.0, 1e3, 376)],
    )
    def test_panel_count(self, cut, frequency, panels):
        n = self.panel_count(cut, frequency)
        assert n == panels
        assert n % 2 == 0 and n >= integral_oracle.MIN_PANELS
        assert cut / n <= integral_oracle.PANEL_WIDTH
        assert cut * frequency / n <= integral_oracle.PANEL_PHASE

    # the equal panels are linspace's edges, bit for bit: at cuts on both
    # sides of 0 and at 0, where its step is 0, and at every panel count
    @pytest.mark.parametrize("cut", [7.0710678118654755, 1e-3, 0.3, 60.0, 183.7, -30.0, 0.0])
    @pytest.mark.parametrize("frequency", [0.0, 2.0, 31.4, 100.0])
    def test_equal_panels_are_linspace(self, cut, frequency):
        edges = _edges(cut, frequency, math.inf)
        want = np.linspace(0.0, cut, edges.size)
        assert np.array_equal(edges.view(np.int64), want.view(np.int64))

    def test_equal_panels_are_linspace_at_every_count(self):
        for cut in np.linspace(0.01, 200.0, 400).tolist():
            edges = _edges(cut, 0.0, math.inf)
            want = np.linspace(0.0, cut, edges.size)
            assert np.array_equal(edges.view(np.int64), want.view(np.int64)), cut

    # max() would drop a nan, and the graded loop would not end on one
    @pytest.mark.parametrize(
        "cut, frequency, match",
        [(1.0, math.inf, "more than MAX_PANELS"), (1.0, math.nan, "no rule"),
         (math.nan, 1.0, "no rule")],
    )
    def test_infinite_frequency_is_refused(self, cut, frequency, match):
        with pytest.raises(ConvergenceError, match=match):
            _integral(np.ones_like, cut, frequency)

    # the fine and the merged rule are both exact to degree 2 NODES - 1
    @pytest.mark.parametrize("degree", [0, 1, 5, 15, 31])
    def test_polynomials_are_exact(self, degree):
        exact = 3.0 ** (degree + 1) / (degree + 1)
        value, estimate = _integral(lambda k: k**degree, 3.0, 0.0)
        assert abs(value - exact) <= 1e-14 * exact
        assert estimate <= 1e-14 * exact

    def test_estimate_is_a_norm_over_leading_axes(self):
        # two stacked integrands: one value each, one estimate for both
        (a, b), estimate = _integral(lambda k: np.stack((k, np.cos(40.0 * k))), 10.0, 0.0)
        assert a == pytest.approx(50.0, rel=1e-15)
        _, alone = _integral(lambda k: np.cos(40.0 * k), 10.0, 0.0)
        assert estimate == pytest.approx(alone, rel=1e-12)
        assert abs(b - math.sin(400.0) / 40.0) <= estimate

    # sin(wk) on [0, 10] with its frequency withheld, on 20 panels of 0.5:
    # from w = 40 the panels span over 3 periods each, and the estimate
    # must still cover the error; declared, the frequency resolves it
    @pytest.mark.parametrize("w", [10.0, 40.0, 80.0, 160.0])
    def test_estimate_covers_an_unresolved_sine(self, w):
        exact = (1.0 - math.cos(10.0 * w)) / w
        value, estimate = _integral(lambda k: np.sin(w * k), 10.0, 0.0)
        assert abs(value - exact) <= estimate
        value, estimate = _integral(lambda k: np.sin(w * k), 10.0, w)
        assert abs(value - exact) <= 1e-13 and estimate <= 1e-13


def full_x_terms(k, a):
    """X's Gaussians and Dawson terms, each evaluated on every node."""
    return np.exp(-((k + a) ** 2)) + np.exp(-((k - a) ** 2)), dawsn(k + a) + dawsn(k - a)


def polyval_sine_difference(k, l, big, gap):
    """``_sine_difference`` with its Taylor series summed by ``np.polyval``."""
    s = _sine_difference(k, l, big, gap)
    near = k * big < 1.0
    k2, coefficients, e_n = k[near] ** 2, [], 1.0
    for n in range(1, 10):
        coefficients.append((-1) ** (n + 1) * e_n / math.factorial(2 * n + 1))
        e_n = e_n * big * big + l ** (2 * n)
    s[near] = gap * (l + big) * k[near] * k2 * np.polyval(coefficients[::-1], k2)
    return s


class TestGradedPanels:
    """X's panels widen past its Gaussians; the work they skip changes no
    bit, and the estimate still refuses every rule too coarse for RTOL."""

    # (a, L): below and above L = PANEL_PHASE / PANEL_WIDTH = 16
    @pytest.mark.parametrize("a", [0.0, 0.45, 3.0])
    @pytest.mark.parametrize("big", [0.5, 2.0, 8.0, 15.0, 16.0, 30.0, 100.0])
    def test_layout(self, a, big):
        # X's panels widen past where both Gaussians are below exp(-ENVELOPE_CUT)
        cut = integral_oracle.DAWSON_CUT * (1.0 + a)
        start = abs(a) + math.sqrt(integral_oracle.ENVELOPE_CUT)
        edges, uniform = _edges(cut, big, start), _edges(cut, big, cut)
        n = edges.size - 1
        assert n % 2 == 0 and integral_oracle.MIN_PANELS <= n <= uniform.size - 1
        assert edges[0] == 0.0 and edges[-1] == cut
        # the uniform rule's panels up to the first edge at or past start
        j = int(np.searchsorted(uniform, start))
        assert np.array_equal(edges[: j + 1], uniform[: j + 1])
        widths = np.diff(edges[j:])
        assert np.all(np.diff(widths) >= -1e-12 * widths[1:])
        assert np.all(widths <= integral_oracle.PANEL_PHASE / big * (1.0 + 1e-12))
        if big >= integral_oracle.PANEL_PHASE / integral_oracle.PANEL_WIDTH:
            assert np.array_equal(edges, uniform)
        elif big <= 2.0:
            assert n <= 0.3 * (uniform.size - 1)

    # a = 0 (one Dawson and one exponential call doubled), 0.45 and 3, in
    # geometries on both branches of S (L - l >= l and L - l < l) and at
    # L > 16, where X keeps the uniform panels
    @pytest.mark.parametrize("omega_a, omega_b", [(0.1, 0.1), (0.1, 1.0), (0.0, 6.0)])
    @pytest.mark.parametrize(
        "alignment, l, dz",
        [(Alignment.PARALLEL, 1.0, 1.0), (Alignment.ORTHOGONAL, 1.0, 0.1),
         (Alignment.PARALLEL, 0.05, 1e-3), (Alignment.ORTHOGONAL, 15.0, 2.0)],
    )
    def test_trims_change_no_bit(self, omega_a, omega_b, alignment, l, dz, monkeypatch):
        def bits(result):
            value, estimate = result
            return value.real.hex(), value.imag.hex(), estimate.hex()

        arguments = _arguments(DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, l, dz))
        got = bits(_x_integral(*arguments))
        monkeypatch.setattr(integral_oracle, "_x_terms", full_x_terms)
        monkeypatch.setattr(integral_oracle, "_sine_difference", polyval_sine_difference)
        assert got == bits(_x_integral(*arguments))

    # the same per node, on a grid that crosses |a| + sqrt(750), where the
    # exponentials stop, and kL = 1, where the Taylor series starts
    @pytest.mark.parametrize("a", [0.0, 0.45, 3.0, -0.45])
    @pytest.mark.parametrize("l, big, gap", [(1.0, 3.0, 2.0), (1.0, 1.2, 0.2), (0.0, 2.0, 2.0)])
    def test_terms_are_bit_for_bit(self, a, l, big, gap):
        k = np.linspace(1e-3, 40.0, 40001)
        assert all(np.array_equal(got.view(np.int64), want.view(np.int64))
                   for got, want in zip((*integral_oracle._x_terms(k, a),
                                         _sine_difference(k, l, big, gap)),
                                        (*full_x_terms(k, a),
                                         polyval_sine_difference(k, l, big, gap))))

    # with at least 2 panels, PANEL_WIDTH 4 and PANEL_PHASE 48 the rule
    # misses C or X by more than the gate 31 times on these 60 points (8 C,
    # 23 X); the estimate must refuse every one (its smallest
    # estimate/error ratio measured 69)
    def test_estimate_refuses_every_coarse_rule_error(self, monkeypatch):
        rng = np.random.default_rng(0)
        points = []
        for _ in range(60):
            omega_a, omega_b = np.sort(rng.uniform(0.0, 3.0, 2))
            l, dz = 10.0 ** rng.uniform(-1.3, 1.0), 10.0 ** rng.uniform(-1.3, 0.7)
            alignment = list(Alignment)[rng.integers(2)]
            pair, geom = DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, l, dz)
            points.append(_arguments(pair, geom))
        integrals = (_c_integral, _x_integral)
        references = [[integral(*point)[0] for integral in integrals] for point in points]
        monkeypatch.setattr(integral_oracle, "MIN_PANELS", 2)
        monkeypatch.setattr(integral_oracle, "PANEL_WIDTH", 4.0)
        monkeypatch.setattr(integral_oracle, "PANEL_PHASE", 48.0)
        missed = [0, 0]
        for point, point_references in zip(points, references):
            for kind, (integral, reference) in enumerate(zip(integrals, point_references)):
                value, estimate = integral(*point)
                limit = 10.0 * integral_oracle.RTOL * max(abs(value), integral_oracle._ABS_FLOOR)
                if abs(value - reference) > limit:
                    missed[kind] += 1
                    assert estimate > limit
        assert missed[0] >= 5 and missed[1] >= 10


class TestNodeDoubling:
    """The rule resolves every integrand without the closed forms' help: a
    32-point rule on the same panels moves no field by more than 1e-13
    (measured worst 6.0e-14, at l = 15), near the mirror too."""

    @pytest.mark.parametrize("dz", [1e-4, 0.05, 2.0, 10.0])
    @pytest.mark.parametrize("l", [0.05, 1.0, 15.0])
    @pytest.mark.parametrize("omega_a, omega_b", [(0.1, 0.1), (0.0, 1.0)])
    @pytest.mark.parametrize("alignment", list(Alignment))
    def test_fields_are_stable(self, alignment, omega_a, omega_b, l, dz, panel_order):
        pair, geom = DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, l, dz)
        base = numeric_correlations(pair, geom)
        panel_order(2 * integral_oracle.NODES)
        fine = numeric_correlations(pair, geom)
        for name in FIELDS:
            got, want = getattr(fine, name), getattr(base, name)
            assert abs(got - want) <= 1e-13 * abs(want), name


class TestDawson:
    def test_scipy_dawsn_matches_mpmath(self):
        # D(x) = (sqrt(pi)/2) exp(-x^2) erfi(x) at 30 digits, on 129 points of
        # [-200, 200] graded toward 0; the worst relative error measured
        # 1.81e-15 (scipy 1.17.1)
        grid = np.sinh(np.linspace(-math.asinh(200.0), math.asinh(200.0), 129))
        worst = 0.0
        with mpmath.workdps(30):
            for x in grid.tolist():
                v = mpmath.mpf(x)
                want = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-v * v) * mpmath.erfi(v)
                if x == 0.0:
                    assert dawsn(x) == 0.0
                    continue
                worst = max(worst, float(abs((dawsn(x) - want) / want)))
        assert worst <= 2e-15


class TestNumericProbability:
    def test_zero_gap_far_boundary_analytic_value(self):
        # at dz = 80 the 1/dz^2 boundary correction is 7.8e-5 of the value
        got = numeric_probability(0.0, 80.0)
        assert got == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-4)

    def test_moderate_boundary_distance_is_not_free_space(self):
        # at dz = 8 the 1/dz^2 boundary tail is still ~0.8% of the value:
        # the integral matches the closed form, not the free-space limit
        got = numeric_probability(0.0, 8.0)
        assert got == pytest.approx(transition_probability(0.0, 8.0), rel=1e-12)
        rel_gap_to_free = abs(got - 1.0 / (4.0 * math.pi)) * 4.0 * math.pi
        assert 5e-3 < rel_gap_to_free < 1e-2

    def test_small_probability_at_large_gap(self):
        got = numeric_probability(2.5, 0.3)
        assert got == pytest.approx(transition_probability(2.5, 0.3), rel=1e-12)

    def test_matches_closed_form(self):
        for omega, dz in ((0.1, 1.0), (1.0, 0.5)):
            assert numeric_probability(omega, dz) == pytest.approx(
                transition_probability(omega, dz), rel=1e-12
            )

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(integral_oracle, "RTOL", 0.0)
        with pytest.raises(ConvergenceError):
            numeric_probability(0.1, 1.0)

    def test_reduction_identity(self):
        # P is C of two equal gaps at l -> 0, where the image separation is
        # 2 dz: at l = 1e-7 the two differ by O(l^2) (measured <= 1.9e-15)
        for omega in (0.0, 0.1, 1.0):
            for dz in (0.5, 1.0, 3.0):
                geom = BoundaryGeometry(Alignment.PARALLEL, 1e-7, dz)
                c = numeric_c(DetectorPair(omega, omega), geom)
                assert c.real == pytest.approx(numeric_probability(omega, dz), rel=1e-13)

    def test_node_doubling_stable(self, panel_order):
        base = numeric_probability(0.1, 1.0)
        panel_order(2 * integral_oracle.NODES)
        assert numeric_probability(0.1, 1.0) == pytest.approx(base, rel=1e-14)

    def test_deterministic(self):
        assert numeric_probability(0.3, 0.7) == numeric_probability(0.3, 0.7)

    def test_coupling_scaling(self):
        # every entry of the leading-order block carries lambda^2
        base = numeric_correlations(PAIR, GEOM_PAR)
        strong = numeric_correlations(DetectorPair(0.1, 0.1, coupling=2.0), GEOM_PAR)
        for name in FIELDS:
            ratio = getattr(strong, name) / getattr(base, name)
            assert abs(ratio - 4.0) <= 1e-12, name

    def test_validation(self):
        with pytest.raises(ValidationError):
            numeric_probability(-0.1, 1.0)
        with pytest.raises(ValidationError):
            numeric_probability(0.1, 0.0)


class TestNumericC:
    def test_matches_closed_form_parallel(self):
        got, want = numeric_c(PAIR, GEOM_PAR), correlations(PAIR, GEOM_PAR).c
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_imaginary_part_vanishes(self):
        # C is one real integral
        assert numeric_c(PAIR, GEOM_PAR).imag == 0.0

    def test_unreachable_tolerance_raises(self, monkeypatch):
        # the message names the fixed tolerance the rule missed
        monkeypatch.setattr(integral_oracle, "RTOL", 0.0)
        with pytest.raises(ConvergenceError, match="does not reach RTOL = 0 here"):
            numeric_c(PAIR, GEOM_PAR)

    def test_large_gap_difference_suppressed(self):
        pair = DetectorPair(omega_a=0.0, omega_b=10.0)
        assert abs(numeric_c(pair, GEOM_PAR)) < 1e-8

    def test_far_boundary_keeps_algebraic_tail(self):
        # the image contribution decays like 1/dz^2, so at dz = 8 the
        # boundary-free value is still missed by ~1e-2 relative
        free_c = boundary_free_correlations(PAIR, 1.0).c
        at8 = numeric_c(PAIR, BoundaryGeometry(Alignment.PARALLEL, 1.0, 8.0))
        assert 5e-3 < abs(at8 - free_c) / abs(free_c) < 5e-2
        at30 = numeric_c(PAIR, BoundaryGeometry(Alignment.PARALLEL, 1.0, 30.0))
        assert abs(at30 - free_c) / abs(free_c) < 1e-3


class TestNumericX:
    def test_matches_closed_form_parallel(self):
        got, want = numeric_x(PAIR, GEOM_PAR), correlations(PAIR, GEOM_PAR).x
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_matches_closed_form_orthogonal(self):
        geom = BoundaryGeometry(Alignment.ORTHOGONAL, 1.0, 1.0)
        got, want = numeric_x(PAIR, geom), correlations(PAIR, geom).x
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("alignment", list(Alignment))
    @pytest.mark.parametrize("omega_a, omega_b", [(0.1, 0.5), (0.0, 0.5)])
    def test_relabeling_symmetry(self, alignment, omega_a, omega_b):
        # exchanging the labels flips a, and the integrand is even in a; the
        # subtraction is not, since c = 1 + a: at -a (c = 1 - a is still
        # positive) its terms, weights and closed-form transforms all
        # change, and X must not
        m, a, *lengths = _arguments(
            DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, 0.5, 1.0)
        )
        (plus, _), (minus, _) = (_x_integral(m, sign * a, *lengths) for sign in (1.0, -1.0))
        assert abs(plus - minus) <= 1e-13 * abs(plus)

    def test_reduction_identity(self):
        # at equal gaps (a = 0) Re X is -(1/2 pi) exp(-omega^2) int
        # exp(-k^2) S dk, and C of two zero gaps is (1/2 pi) int exp(-k^2) S
        # dk: two integrals on different cut-offs and panels must agree
        for alignment in Alignment:
            for l, dz in ((1.0, 1.0), (0.3, 2.0), (5.0, 0.2)):
                geom = BoundaryGeometry(alignment, l, dz)
                c = numeric_c(DetectorPair(0.0, 0.0), geom).real
                for omega in (0.1, 1.0, 2.0):
                    x = numeric_x(DetectorPair(omega, omega), geom).real
                    assert x == pytest.approx(-math.exp(-omega * omega) * c, rel=1e-14)

    def test_node_doubling_stable(self, panel_order):
        base = numeric_x(PAIR, GEOM_PAR)
        panel_order(2 * integral_oracle.NODES)
        assert abs(numeric_x(PAIR, GEOM_PAR) - base) <= 1e-14 * abs(base)

    def test_deterministic(self):
        geom = BoundaryGeometry(Alignment.ORTHOGONAL, 0.5, 0.8)
        assert numeric_x(PAIR, geom) == numeric_x(PAIR, geom)


class TestNumericCorrelations:
    @pytest.mark.parametrize("alignment", list(Alignment))
    @pytest.mark.parametrize("omega_a, omega_b", [(0.1, 1.0), (0.3, 0.3)])
    def test_fields_equal_standalone_integrals(self, alignment, omega_a, omega_b):
        pair = DetectorPair(omega_a, omega_b, coupling=0.5)
        geom = BoundaryGeometry(alignment, 0.5, 1.5)
        got = numeric_correlations(pair, geom)
        assert got.p_a == 0.25 * numeric_probability(omega_a, 1.5)
        dz_b = 2.0 if alignment is Alignment.ORTHOGONAL else 1.5
        assert got.p_b == 0.25 * numeric_probability(omega_b, dz_b)
        assert got.c == numeric_c(pair, geom)
        assert got.x == numeric_x(pair, geom)

    @pytest.mark.parametrize("store", [False, True])
    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_case_order_changes_no_bit(self, order, store):
        # no value depends on the order of the calls, nor on a probability
        # store shared by all of them: ``verify``'s default grid in another
        # order, with one store or none, gives the same blocks, bit for bit
        cases = [(DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, l, dz))
                 for omega_a, omega_b, l, dz in VERIFY_GRID_DEFAULT for alignment in Alignment]
        first = [numeric_correlations(pair, geom) for pair, geom in cases]
        if order == "reversed":
            indices = range(len(cases) - 1, -1, -1)
        else:
            indices = np.random.default_rng(23).permutation(len(cases)).tolist()
        kwargs = {"probabilities": {}} if store else {}
        again = {i: numeric_correlations(*cases[i], **kwargs) for i in indices}

        def bits(block):
            return [repr(complex(getattr(block, name))) for name in FIELDS]

        for i, block in enumerate(first):
            assert bits(again[i]) == bits(block)

    def test_store_holds_each_unit_probability_once(self, monkeypatch):
        # the store is keyed by (omega, dz) and holds numeric_probability's
        # unit-coupling bits; a later call reads them and integrates none
        pair = DetectorPair(0.1, 0.3, coupling=0.5)
        geom = BoundaryGeometry(Alignment.ORTHOGONAL, 0.5, 1.5)
        store = {}
        first = numeric_correlations(pair, geom, probabilities=store)
        assert store == {(0.1, 1.5): numeric_probability(0.1, 1.5),
                         (0.3, 2.0): numeric_probability(0.3, 2.0)}
        assert first.p_a == 0.25 * store[(0.1, 1.5)] and first.p_b == 0.25 * store[(0.3, 2.0)]

        def refuse(omega, dz):
            raise AssertionError("probability integrated again")

        monkeypatch.setattr(integral_oracle, "numeric_probability", refuse)
        again = numeric_correlations(pair, geom, probabilities=store)
        assert [getattr(again, f) for f in FIELDS] == [getattr(first, f) for f in FIELDS]
        assert len(store) == 2

    @pytest.mark.parametrize("omega_a, omega_b, alignment, probabilities", [
        (0.1, 0.1, Alignment.PARALLEL, 1), (0.1, 1.0, Alignment.PARALLEL, 2),
        (0.1, 0.1, Alignment.ORTHOGONAL, 2),
    ])
    def test_c_and_x_share_one_rule(self, omega_a, omega_b, alignment, probabilities,
                                    monkeypatch):
        # one pass per distinct probability, then C and X on one node array
        # with one sine difference and one call of the panel rule
        calls = []
        for name in ("_rule", "_panel_rule", "_sine_difference"):
            def record(*args, name=name, wrapped=getattr(integral_oracle, name)):
                calls.append(name)
                return wrapped(*args)

            monkeypatch.setattr(integral_oracle, name, record)
        numeric_correlations(DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, 1.0, 1.0))
        assert calls == ["_rule", "_panel_rule", "_sine_difference"] * (probabilities + 1)

    @pytest.mark.parametrize("alignment", list(Alignment))
    def test_independent_of_closed_form_geometry(self, alignment, monkeypatch):
        # the oracle derives every distance itself: with the closed-form
        # geometry helpers disabled it still reproduces the closed forms
        pair = DetectorPair(0.1, 1.0)
        geom = BoundaryGeometry(alignment, 1.0, 2.0)
        want = correlations(pair, geom)

        def disabled(self):
            raise AssertionError("closed-form geometry used")

        # the closed forms' image separation and distance of B; a property
        # shadows the instance's own attribute
        monkeypatch.setattr(BoundaryGeometry, "_lengths", property(disabled), raising=False)
        got = numeric_correlations(pair, geom)
        for name in FIELDS:
            closed, oracle = getattr(want, name), getattr(got, name)
            assert abs(closed - oracle) <= 1e-12 * abs(oracle), name


class TestRefusals:
    """The oracle refuses what it cannot certify with a ConvergenceError:
    a value that is not finite, a panel estimate above 10 x RTOL of the
    value, and a rule with more than MAX_PANELS panels."""

    @pytest.mark.parametrize("integral", [numeric_c, numeric_x, numeric_correlations])
    def test_too_many_panels(self, integral):
        geom = BoundaryGeometry(Alignment.PARALLEL, 1e4, 1.0)
        with pytest.raises(ConvergenceError, match="more than MAX_PANELS = 8192"):
            integral(PAIR, geom)

    @pytest.mark.parametrize("integral", [numeric_c, numeric_x])
    def test_non_finite_value(self, integral, monkeypatch):
        monkeypatch.setattr(integral_oracle, "_sine_difference", lambda k, *_: k * math.nan)
        with pytest.raises(ConvergenceError, match="integral is not finite"):
            integral(PAIR, GEOM_PAR)

    def test_non_finite_probability(self, monkeypatch):
        monkeypatch.setattr(integral_oracle, "_sine_difference", lambda k, *_: k * math.inf)
        with pytest.raises(ConvergenceError, match="probability integral is not finite"):
            numeric_probability(0.1, 1.0)

    def test_underflowed_prefactor_gives_zero(self):
        # at a gap of 8e307 exp(-m^2) is 0: every entry is exactly zero
        block = numeric_correlations(DetectorPair(8e307, 8e307), GEOM_PAR)
        assert [abs(getattr(block, name)) for name in FIELDS] == [0.0] * 4
        assert numeric_probability(8e307, 1.0) == 0.0
        # at gaps 0 and 40 C's exp(-m^2 - a^2) is 0 and X's exp(-m^2) is not:
        # C is exactly zero, and X keeps the bits of its own rule
        block = numeric_correlations(DetectorPair(0.0, 40.0), GEOM_PAR)
        assert block.c == 0.0 and block.p_b == 0.0
        assert repr(block.x) == "(-1.6874879843396014e-175-6.0269861924740514e-176j)"

    def test_c_is_certified_before_x_is_refused(self, monkeypatch):
        # at L = 2000 C's rule fits in MAX_PANELS and X's does not; with the
        # probabilities in the store and RTOL = 0, C's refusal comes first,
        # as when C's rule was laid and certified before X's was tried
        pair, geom = PAIR, BoundaryGeometry(Alignment.PARALLEL, 2000.0, 1.0)
        store = {(0.1, 1.0): numeric_probability(0.1, 1.0)}
        with pytest.raises(ConvergenceError, match="more than MAX_PANELS"):
            numeric_correlations(pair, geom, probabilities=store)
        monkeypatch.setattr(integral_oracle, "RTOL", 0.0)
        with pytest.raises(ConvergenceError, match="the C integral's panel estimate"):
            numeric_correlations(pair, geom, probabilities=store)


class TestGaussLegendreTable:
    """The oracle's 16-point rule is a stored table; it must be the
    Gauss-Legendre rule in its own right, and what leggauss computes."""

    X, W = integral_oracle._LEGENDRE_X, integral_oracle._LEGENDRE_W

    def test_is_the_oracle_rule_and_read_only(self):
        assert integral_oracle.NODES == 16
        assert self.X.shape == self.W.shape == (16,)
        assert not (self.X.flags.writeable or self.W.flags.writeable)

    def test_nodes_antisymmetric_and_weights_symmetric(self):
        assert (-self.X[::-1]).tobytes() == self.X.tobytes()
        assert self.W[::-1].tobytes() == self.W.tobytes()
        assert (np.diff(self.X) > 0.0).all() and (self.W > 0.0).all()

    def test_within_one_ulp_of_leggauss(self):
        for got, want in zip((self.X, self.W), np.polynomial.legendre.leggauss(16)):
            assert (np.abs(got - want) <= np.spacing(np.abs(want))).all()

    def test_integrates_every_degree_below_32(self):
        for k in range(32):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(self.W * self.X**k) - exact) <= 1e-15, k


def hidden_caches(source):
    """The lines of ``source`` that could keep results between calls: a
    module-level dict, list or set (a display, a comprehension or a call of
    a container type), a ``global`` statement, and functools or one of its
    memoising decorators."""
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    factories = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
    memoisers = {"functools", "cache", "lru_cache", "cached_property"}
    tree, found = ast.parse(source), []
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and value is not None:
            called = getattr(value, "func", None)
            if isinstance(value, containers) or getattr(
                called, "id", getattr(called, "attr", None)
            ) in factories:
                found.append(ast.unparse(node))
    for node in ast.walk(tree):
        names = set()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name for alias in node.names} | {getattr(node, "module", None)}
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names = {getattr(node, "id", getattr(node, "attr", None))}
        if isinstance(node, ast.Global) or names & memoisers:
            found.append(ast.unparse(node))
    return found


class TestNoHiddenCache:
    """The oracle keeps no state between calls: its only store of results
    is the one a caller passes to :func:`numeric_correlations`. A module or
    process-wide cache would let one ``verify`` command serve the next."""

    def test_oracle_has_none(self):
        assert hidden_caches(pathlib.Path(integral_oracle.__file__).read_text()) == []

    @pytest.mark.parametrize("source", [
        "_SEEN = {}", "_SEEN: dict = dict()", "_SEEN = {k: 0 for k in ()}", "_ROWS = []",
        "_KEYS = set()", "import functools", "from functools import lru_cache",
        "def f():\n    global _SEEN", "@cache\ndef f(): pass",
    ])
    def test_sees_each_form(self, source):
        assert hidden_caches(source)

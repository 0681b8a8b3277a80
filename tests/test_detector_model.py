"""Tests for the closed-form detector responses.

Reference numbers were pinned with the brute-force double-integral
oracle (see test_integral_oracle / test_acceptance for the live
comparison); limits and series checks are worked inline from stdlib
math so they do not share code with the implementation.
"""

import itertools
import math
import sys
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest

from mirrorsteer.detector_model import (
    Alignment,
    BoundaryGeometry,
    CorrelationBlock,
    SERIES_CROSSOVER,
    DetectorPair,
    _aux_f,
    _aux_f_array,
    _block_evaluator,
    _ONE_POINT,
    _timelike,
    boundary_free_correlations,
    boundary_free_steering,
    config_difference,
    correlations,
    free_space_probability,
    harvested_steering,
    joint_state,
    transition_probability,
)
from mirrorsteer import detector_model
from mirrorsteer.errors import PerturbativeValidityError, ValidationError
from mirrorsteer.xstate_steering import (
    build_tau_ab,
    build_tau_ba,
    concurrence,
    steering_asymmetry,
)

SQRT_PI = math.sqrt(math.pi)
SQRT3 = math.sqrt(3.0)

PAIR = DetectorPair(omega_a=0.1, omega_b=0.1)
GEOM_PAR = BoundaryGeometry(Alignment.PARALLEL, separation=1.0, boundary_distance=1.0)
GEOM_ORT = BoundaryGeometry(Alignment.ORTHOGONAL, separation=1.0, boundary_distance=1.0)
# the refusal of a correlation block at a separation so small that Im G overflows
BELOW_KERNEL_RANGE = (
    "c and x must be finite, got x = (nan-infj): the separation is below the kernels' range"
)


def steering_by_hand(p_a, p_b, c, x):
    """Directional steering from the block entries, written out longhand."""

    def sqp(v):
        return math.sqrt(v) if v > 0.0 else 0.0

    cross = p_a * p_b
    t1_ba = (1 + SQRT3) / 2 * cross + p_a / 2 - p_a * p_a / 2
    t2_ba = (1 - SQRT3) / 2 * cross + p_a / 2 - p_a * p_a / 2
    t1_ab = (1 + SQRT3) / 2 * cross + p_b / 2 - p_b * p_b / 2
    t2_ab = (1 - SQRT3) / 2 * cross + p_b / 2 - p_b * p_b / 2
    s_ba = max(0.0, abs(x) - sqp(t1_ba), abs(c) - sqp(t2_ba))
    s_ab = max(0.0, abs(x) - sqp(t1_ab), abs(c) - sqp(t2_ab))
    return s_ab, s_ba


def steering_50_digits(state):
    """Generic X-state steering and concurrence in 50-digit arithmetic.

    Evaluated from the float entries of ``state`` with the thresholds in
    their textbook form g_a +- g_b, g_c +- g_b; the cancellation between
    g_a and g_b at tiny populations costs nothing at this precision.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        d11, d22, d33, d44 = map(Decimal, (state.d11, state.d22, state.d33, state.d44))
        x, c = (
            (Decimal(z.real) ** 2 + Decimal(z.imag) ** 2).sqrt()
            for z in (state.c14, state.c23)
        )
        r3 = Decimal(3).sqrt()
        w_minus, w_plus = (2 - r3) / 2, (2 + r3) / 2
        cross = (d11 + d44) * (d22 + d33) / 4
        g_a = w_minus * d11 * d44 + w_plus * d22 * d33 + cross
        g_b = (d11 - d44) * (d22 - d33) / 4
        g_c = w_plus * d11 * d44 + w_minus * d22 * d33 + cross
        zero = Decimal(0)

        def root(v):
            return v.sqrt() if v > 0 else zero

        s_ab = max(zero, x - root(g_a + g_b), c - root(g_c + g_b))
        s_ba = max(zero, x - root(g_a - g_b), c - root(g_c - g_b))
        conc = 2 * max(zero, x - root(d22 * d33), c - root(d11 * d44))
        return {
            "s_ab": float(s_ab),
            "s_ba": float(s_ba),
            "asymmetry": float(s_ab - s_ba),
            "concurrence": float(conc),
        }


class TestTypes:
    def test_gap_ordering_enforced(self):
        with pytest.raises(ValidationError):
            DetectorPair(omega_a=0.5, omega_b=0.1)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValidationError):
            DetectorPair(omega_a=-0.1, omega_b=0.5)

    def test_nonpositive_coupling_rejected(self):
        with pytest.raises(ValidationError):
            DetectorPair(omega_a=0.1, omega_b=0.1, coupling=0.0)

    def test_gap_whose_double_overflows_rejected(self):
        with pytest.raises(ValidationError, match="omega_b = 1e"):
            DetectorPair(omega_a=0.1, omega_b=1e308)
        DetectorPair(omega_a=0.1, omega_b=8e307)

    def test_coupling_whose_square_overflows_rejected(self):
        with pytest.raises(ValidationError, match="coupling = 1e\\+200 is too large"):
            DetectorPair(omega_a=0.1, omega_b=0.2, coupling=1e200)
        DetectorPair(omega_a=0.1, omega_b=0.2, coupling=1e154)

    def test_geometry_requires_positive_lengths(self):
        with pytest.raises(ValidationError):
            BoundaryGeometry(Alignment.PARALLEL, separation=0.0, boundary_distance=1.0)
        with pytest.raises(ValidationError):
            BoundaryGeometry(Alignment.PARALLEL, separation=1.0, boundary_distance=-2.0)

    @pytest.mark.parametrize("alignment", list(Alignment))
    @pytest.mark.parametrize("sep, dz", [(1.0, 1e308), (1e308, 1e308)])
    def test_geometry_refuses_overflowing_image_distances(self, alignment, sep, dz):
        with pytest.raises(ValidationError, match="mirror-image distances"):
            BoundaryGeometry(alignment, separation=sep, boundary_distance=dz)

    def test_geometry_refuses_overflowing_image_of_far_detector(self):
        # l + 2 dz is finite, but B's image sits 2 (dz + l) from the mirror
        with pytest.raises(ValidationError, match="mirror-image distances"):
            BoundaryGeometry(Alignment.ORTHOGONAL, separation=1e308, boundary_distance=1.0)

    def test_geometry_accepts_alignment_string(self):
        g = BoundaryGeometry("orthogonal", separation=1.0, boundary_distance=1.0)
        assert g.alignment is Alignment.ORTHOGONAL

    def test_image_separation(self):
        assert GEOM_PAR._lengths.image_separation == pytest.approx(math.hypot(1.0, 2.0))
        assert GEOM_ORT._lengths.image_separation == 3.0

    def test_mirror_distance_of_far_detector(self):
        assert GEOM_PAR._lengths.distance_b == 1.0
        assert GEOM_ORT._lengths.distance_b == 2.0

    def test_block_rejects_saturated_probabilities(self):
        with pytest.raises(PerturbativeValidityError):
            CorrelationBlock(p_a=0.6, p_b=0.4, c=0j, x=0j)

    @pytest.mark.parametrize(
        "c, x",
        [(math.inf, 0j), (complex(0.0, math.nan), 0j), (0j, complex(math.nan, -math.inf)),
         (0j, complex(0.1, math.inf))],
    )
    def test_block_rejects_non_finite_c_or_x(self, c, x):
        with pytest.raises(ValidationError, match="c and x must be finite"):
            CorrelationBlock(p_a=0.1, p_b=0.1, c=c, x=x)

    @pytest.mark.parametrize("alignment", list(Alignment))
    def test_separation_below_kernel_range_refused(self, alignment):
        # Im G = e^{-l^2/4} cos(dl/2)/l overflows: x was nan - inf i, unrefused
        geom = BoundaryGeometry(alignment, separation=1e-310, boundary_distance=1.0)
        with pytest.raises(ValidationError) as info:
            correlations(PAIR, geom)
        assert str(info.value) == BELOW_KERNEL_RANGE

    def test_block_trusted_flag(self):
        assert CorrelationBlock(p_a=0.2, p_b=0.2, c=0j, x=0j).trusted
        assert not CorrelationBlock(p_a=0.3, p_b=0.3, c=0j, x=0j).trusted


class TestFreeSpaceProbability:
    def test_zero_gap_limit(self):
        # bracket reduces to 1, leaving lambda^2 / 4 pi
        assert free_space_probability(0.0) == pytest.approx(
            1.0 / (4.0 * math.pi), rel=1e-15
        )

    def test_unit_gap_value(self):
        ref = (math.exp(-1.0) - SQRT_PI * math.erfc(1.0)) / (4.0 * math.pi)
        got = free_space_probability(1.0)
        assert got == pytest.approx(ref, rel=1e-14)
        assert got == pytest.approx(0.007088272232636414, rel=1e-13)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 4.0, 81)
        vals = [free_space_probability(w) for w in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_gap_vanishes(self):
        assert free_space_probability(6.0) < 1e-9

    def test_coupling_scaling_exact(self):
        base = free_space_probability(0.3, coupling=1.0)
        assert free_space_probability(0.3, coupling=2.0) / base == pytest.approx(
            4.0, abs=1e-13
        )

    def test_rejects_negative_gap(self):
        with pytest.raises(ValidationError):
            free_space_probability(-0.5)


class TestTransitionProbability:
    def test_oracle_pinned_values(self):
        # pinned with the double-integral oracle to ~1e-6 relative,
        # then frozen at closed-form precision
        assert transition_probability(0.1, 1.0) == pytest.approx(
            0.02866422247036933, rel=1e-13
        )
        assert transition_probability(0.1, 2.0) == pytest.approx(
            0.05469130390627376, rel=1e-13
        )

    def test_vanishes_on_the_mirror(self):
        # series branch; the image term cancels the free term as dz -> 0
        p = transition_probability(0.1, 1e-4)
        assert 0.0 <= p < 1e-7
        assert p == pytest.approx(4.0447077631622363e-10, rel=1e-6)

    def test_result_nonnegative_near_mirror(self):
        for dz in (1e-9, 1e-6, 1e-4, 1e-2):
            assert transition_probability(0.5, dz) >= 0.0

    @pytest.mark.parametrize("dz", [4.99e-4, 5.01e-4])
    def test_huge_gap_on_both_kernel_branches(self, dz):
        # 2 dz straddles SERIES_CROSSOVER; below it the Taylor moments of F
        # overflow at a gap sum of 2e154, where the damping is long 0
        assert transition_probability(1e154, dz) == 0.0

    def test_boundary_correction_decays_algebraically(self):
        # the image contribution falls off like 1/dz^2, not like a
        # Gaussian: the pinned gap at dz = 8 and the factor-4 drop from
        # dz = 8 to dz = 16 are both regression-locked
        gap8 = transition_probability(0.1, 8.0) - free_space_probability(0.1)
        gap16 = transition_probability(0.1, 16.0) - free_space_probability(0.1)
        assert gap8 == pytest.approx(-6.203380985437823e-4, rel=1e-10)
        assert gap16 / gap8 == pytest.approx(0.25, abs=0.01)

    def test_far_boundary_recovers_free_space(self):
        # 1e-9 absolute agreement needs dz ~ 1e4 because of the 1/dz^2 tail
        for w in (0.0, 0.1, 1.0):
            assert transition_probability(w, 1e4) == pytest.approx(
                free_space_probability(w), abs=1e-9
            )

    def test_coupling_scaling_exact(self):
        base = transition_probability(0.2, 1.5, coupling=1.0)
        assert transition_probability(0.2, 1.5, coupling=2.0) / base == pytest.approx(
            4.0, abs=1e-13
        )

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValidationError):
            transition_probability(0.1, 0.0)
        with pytest.raises(ValidationError):
            transition_probability(0.1, -1.0)

    def test_rejects_gap_whose_double_overflows(self):
        with pytest.raises(ValidationError, match="omega = 1e"):
            transition_probability(1e308, 1.0)

    def test_rejects_distance_whose_image_overflows(self):
        with pytest.raises(ValidationError, match="2 dz"):
            transition_probability(0.1, 1e308)

    def test_probabilities_refuse_the_coupling_the_pair_refuses(self):
        # lambda² overflows: both used to return inf and nan with no error
        with pytest.raises(ValidationError) as pair_error:
            DetectorPair(0.1, 0.1, coupling=1e200)
        for call in (
            lambda: free_space_probability(0.1, 1e200),
            lambda: transition_probability(0.1, 1.0, 1e200),
        ):
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == str(pair_error.value)
            assert str(info.value) == "coupling = 1e+200 is too large: lambda² overflows"


def kernel_f_50_digits(l, s):
    """F(l, s) = -(e^{-s^2/4}/l) Im w(-l/2 + i s/2), w(z) = e^{-z^2} erfc(-iz),
    in 50-digit arithmetic."""
    with mpmath.workdps(50):
        z = mpmath.mpc(-mpmath.mpf(l) / 2, mpmath.mpf(s) / 2)
        w = mpmath.exp(-z * z) * mpmath.erfc(-1j * z)
        return -mpmath.exp(-mpmath.mpf(s) ** 2 / 4) / l * w.imag


def damped_phase_50_digits(l, d):
    """e^{-l^2/4} sin(dl/2)/l, e^{-l^2/4} cos(dl/2)/l and e^{-l^2/4}/l in
    50-digit arithmetic."""
    with mpmath.workdps(50):
        l = mpmath.mpf(l)
        damping = mpmath.exp(-l * l / 4) / l
        phase = d * l / 2
        return damping * mpmath.sin(phase), damping * mpmath.cos(phase), damping


# l across both kernel branches and the crossover; gap sums and differences
CROSSOVER_OFFSETS = (-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3)
KERNEL_LENGTHS = sorted(
    np.geomspace(1e-6, 60.0, 120).tolist()
    + [SERIES_CROSSOVER * (1.0 + k) for k in CROSSOVER_OFFSETS]
)
KERNEL_GAPS = (0.0, 0.05, 0.2, 0.6, 1.0, 2.0, 3.0, 6.0, 12.0)


def relative_error(got, want, scale):
    # scales below the smallest normal double are floored there: a kernel
    # value that underflows carries no relative digits
    return float(abs(got - want) / max(scale, sys.float_info.min))


class TestAuxF:
    def test_value_at_l2_s0(self):
        # (e^{-1}/2) erfi(1); the erfi series oracle lives in
        # test_special_functions and pins the same constant
        assert _aux_f(2.0, 0.0) == pytest.approx(0.30357885292069686, rel=1e-13)

    def test_small_l_limit(self):
        # f(0+) = e^{-s^2/4}/sqrt(pi) - (s/2) erfc(s/2)
        assert _aux_f(1e-9, 0.0) == pytest.approx(1.0 / SQRT_PI, rel=1e-12)
        ref = math.exp(-0.01) / SQRT_PI - 0.1 * math.erfc(0.1)
        assert _aux_f(1e-9, 0.2) == pytest.approx(ref, rel=1e-12)
        assert _aux_f(1e-9, 0.2) == pytest.approx(0.4698220949962969, rel=1e-12)

    def test_series_crossover_continuity(self):
        for s in (0.0, 0.2, 4.0):
            below = _aux_f(1e-3 * (1.0 - 1e-6), s)
            above = _aux_f(1e-3 * (1.0 + 1e-6), s)
            assert abs(below - above) <= 1e-10 * max(1.0, abs(above))

    def test_underflowed_damping_on_the_taylor_branch(self):
        # the moments overflow above s ~ 1.78e147, so 0 * inf would be nan
        for s in (60.0, 1e148, 2e154, 1e300):
            assert _aux_f(5e-4, s) == 0.0
        # array passes run with overflow warnings off, as the library's do
        with np.errstate(over="ignore", invalid="ignore"):
            got = _aux_f_array(np.array([5e-4, 2e-3]), np.array([2e154, 2e154]))
        assert got.tolist() == [0.0, 0.0]

    def test_large_l_algebraic_tail(self):
        # f decays like 2 e^{-s^2/4} / (sqrt(pi) (l^2 + s^2)), not like a
        # Gaussian: the e^{-l^2/4} prefactor is cancelled by the growth of
        # the error function across the complex plane
        got = _aux_f(20.0, 0.2)
        assert got == pytest.approx(0.0028067703405424294, rel=1e-12)
        tail = 2.0 * math.exp(-0.01) / (SQRT_PI * (400.0 + 0.04))
        assert got == pytest.approx(tail, rel=6e-3)

    @pytest.mark.parametrize("s", KERNEL_GAPS)
    def test_matches_50_digit_reference(self, s):
        worst = 0.0
        for l in KERNEL_LENGTHS:
            want = kernel_f_50_digits(l, s)
            worst = max(worst, relative_error(_aux_f(l, s), want, abs(want)))
        assert worst <= 1e-12


class TestAuxFArray:
    """The array kernel is the one-point kernel at each point, bit for bit,
    whichever argument is held; the lengths straddle the series crossover,
    so one call takes both branches."""

    @staticmethod
    def one_point(ls, ss):
        return [_aux_f(l, s).hex() for l, s in zip(ls, ss)]

    @pytest.mark.parametrize("s", KERNEL_GAPS)
    def test_held_gap(self, s):
        got = _aux_f_array(np.array(KERNEL_LENGTHS), s)
        assert [v.hex() for v in got.tolist()] == self.one_point(
            KERNEL_LENGTHS, [s] * len(KERNEL_LENGTHS)
        )

    def test_held_length(self):
        gaps = list(KERNEL_GAPS)
        for l in KERNEL_LENGTHS:
            got = _aux_f_array(l, np.array(gaps))
            assert [v.hex() for v in got.tolist()] == self.one_point([l] * len(gaps), gaps)

    def test_both_arrays(self):
        ls, ss = zip(*itertools.product(KERNEL_LENGTHS, KERNEL_GAPS))
        got = _aux_f_array(np.array(ls), np.array(ss))
        assert [v.hex() for v in got.tolist()] == self.one_point(ls, ss)

    # lengths on one side of the crossover only: none below it, where the
    # Taylor overwrite is skipped, and all below it
    @pytest.mark.parametrize("below", [False, True])
    def test_one_branch_only(self, below):
        lengths = [l for l in KERNEL_LENGTHS if (l < SERIES_CROSSOVER) == below]
        for s in KERNEL_GAPS:
            got = _aux_f_array(np.array(lengths), s)
            assert [v.hex() for v in got.tolist()] == self.one_point(lengths, [s] * len(lengths))
        ls, ss = zip(*itertools.product(lengths, KERNEL_GAPS))
        got = _aux_f_array(np.array(ls), np.array(ss))
        assert [v.hex() for v in got.tolist()] == self.one_point(ls, ss)

    def test_taylor_branch_runs_only_below_the_crossover(self, monkeypatch):
        # the overwrite maps _aux_f over the points below the crossover
        # through _each; with none below, _aux_f is handed no work at all
        routed = []
        each = detector_model._each
        monkeypatch.setattr(detector_model, "_each",
                            lambda fn, *a: routed.append(fn) or each(fn, *a))
        above = np.array([SERIES_CROSSOVER, 0.5, 3.0])
        _aux_f_array(above, 0.2)
        _aux_f_array(above, np.array([0.0, 0.2, 6.0]))
        assert _aux_f not in routed
        _aux_f_array(np.array([SERIES_CROSSOVER * (1.0 - 1e-9), 0.5]), 0.2)
        assert routed.count(_aux_f) == 1


def kernel_g(l, d):
    """The timelike kernel G (:func:`_timelike`) at one point, as a complex
    number."""
    re, im, _ = _timelike(_ONE_POINT, l, d)
    return complex(re, im)


class TestAuxG:
    def test_value_at_l2_identical(self):
        # (e^{-1}/2)(erfi(1) + i)
        got = kernel_g(2.0, 0.0)
        assert got.real == pytest.approx(0.30357885292069686, rel=1e-13)
        assert got.imag == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-14)

    def test_real_part_equals_f_at_zero_gaps(self):
        for l in (0.3, 1.0, 2.5, 7.0):
            assert kernel_g(l, 0.0).real == pytest.approx(_aux_f(l, 0.0), rel=1e-13)

    def test_imaginary_part_closed_form(self):
        # Im g = e^{-l^2/4} cos(d l / 2) / l for every branch
        d = 0.6
        for l in (1e-6, 1e-4, 0.5, 2.0, 10.0):
            ref = math.exp(-l * l / 4.0) * math.cos(d * l / 2.0) / l
            assert kernel_g(l, d).imag == pytest.approx(ref, rel=1e-13)

    def test_imaginary_part_diverges_at_coincidence(self):
        assert kernel_g(1e-6, 0.0).imag * 1e-6 == pytest.approx(1.0, rel=1e-9)

    def test_real_part_small_l_limit(self):
        assert kernel_g(1e-9, 0.0).real == pytest.approx(1.0 / SQRT_PI, rel=1e-12)
        # d > 0 limit: d erf(d/2)/2 + e^{-d^2/4}/sqrt(pi)
        ref = 0.25 * math.erf(0.25) + math.exp(-0.0625) / SQRT_PI
        assert kernel_g(1e-9, 0.5).real == pytest.approx(ref, rel=1e-12)
        assert kernel_g(1e-9, 0.5).real == pytest.approx(0.5990886622301166, rel=1e-12)

    def test_series_crossover_continuity(self):
        for d in (0.0, 0.5, 2.5):
            below = kernel_g(1e-3 * (1.0 - 1e-6), d).real
            above = kernel_g(1e-3 * (1.0 + 1e-6), d).real
            assert abs(below - above) <= 1e-10 * max(1.0, abs(above))

    def test_real_part_algebraic_tail(self):
        d = 0.2
        got = kernel_g(20.0, d).real
        tail = 2.0 * math.exp(-d * d / 4.0) / (SQRT_PI * (400.0 + d * d))
        assert got == pytest.approx(tail, rel=6e-3)

    @pytest.mark.parametrize("d", KERNEL_GAPS)
    def test_matches_50_digit_reference(self, d):
        # Re G = F(l, d) + e^{-l^2/4} sin(dl/2)/l, gated against the size of
        # both terms; Im G = e^{-l^2/4} cos(dl/2)/l, against e^{-l^2/4}/l
        worst_re = worst_im = 0.0
        for l in KERNEL_LENGTHS:
            f = kernel_f_50_digits(l, d)
            sin_term, cos_term, damping = damped_phase_50_digits(l, d)
            got = kernel_g(l, d)
            worst_re = max(
                worst_re,
                relative_error(got.real, f + sin_term, abs(f) + abs(sin_term)),
            )
            worst_im = max(worst_im, relative_error(got.imag, cos_term, damping))
        assert worst_re <= 1e-12
        assert worst_im <= 1e-12


class TestCorrelations:
    def test_parallel_identical_probabilities_equal(self):
        block = correlations(PAIR, GEOM_PAR)
        assert block.p_a == block.p_b

    def test_parallel_regression(self):
        block = correlations(PAIR, GEOM_PAR)
        assert block.p_a == pytest.approx(0.02866422247036933, rel=1e-13)
        assert abs(block.c) == pytest.approx(0.023941481714628957, rel=1e-12)
        assert abs(block.x) == pytest.approx(0.09568891312900142, rel=1e-12)
        # nearer image only weakens the correlations, so C keeps the sign
        # of f(L) and X the sign of -g(L)
        assert block.c.real > 0.0
        assert block.x.real < 0.0

    def test_orthogonal_regression(self):
        block = correlations(PAIR, GEOM_ORT)
        assert block.p_a == pytest.approx(0.02866422247036933, rel=1e-13)
        assert block.p_b == pytest.approx(0.05469130390627376, rel=1e-13)
        assert abs(block.c) == pytest.approx(0.036012309671351925, rel=1e-12)
        assert abs(block.x) == pytest.approx(0.11293646995762627, rel=1e-12)

    def test_far_detector_excites_more(self):
        # the mirror suppresses the response, so the detector farther from
        # it has the larger excitation probability (pinned with the
        # double-integral oracle)
        block = correlations(PAIR, GEOM_ORT)
        assert block.p_b > block.p_a

    def test_alignments_coincide_at_vanishing_separation(self):
        tiny = 1e-9
        bp = correlations(PAIR, BoundaryGeometry(Alignment.PARALLEL, tiny, 1.0))
        bo = correlations(PAIR, BoundaryGeometry(Alignment.ORTHOGONAL, tiny, 1.0))
        assert bp.p_a == bo.p_a
        assert bp.p_b == pytest.approx(bo.p_b, abs=1e-10)
        assert bp.c == pytest.approx(bo.c, abs=1e-10)
        assert bp.x == pytest.approx(bo.x, abs=1e-10)

    def test_large_gap_difference_kills_c(self):
        pair = DetectorPair(omega_a=0.0, omega_b=10.0)
        block = correlations(pair, GEOM_PAR)
        assert abs(block.c) < 1e-10

    def test_boundary_terms_decay_algebraically_not_gaussian(self):
        # at dz = 8 the image contributions are still ~6e-4 absolute; true
        # 1e-9 agreement with the boundary-free block needs dz ~ 1e4
        free = boundary_free_correlations(PAIR, 1.0)
        near = correlations(PAIR, BoundaryGeometry(Alignment.PARALLEL, 1.0, 8.0))
        assert abs(near.c - free.c) == pytest.approx(6.179051774188524e-4, rel=1e-6)
        assert abs(near.x - free.x) == pytest.approx(6.180053240767425e-4, rel=1e-6)
        far = correlations(PAIR, BoundaryGeometry(Alignment.PARALLEL, 1.0, 1e4))
        assert abs(far.c - free.c) < 1e-9
        assert abs(far.x - free.x) < 1e-9
        assert far.p_a == pytest.approx(free.p_a, abs=1e-9)

    @pytest.mark.parametrize("alignment", list(Alignment))
    @pytest.mark.parametrize(
        "swept, values, verdicts",
        [
            # accepted; Im G overflowing (the block refuses that); negative
            ("separation", [1.0, 1e-320, -2.0], [True, False, False]),
            # accepted; overflowing images; p_a + p_b >= 1
            ("boundary_distance", [0.2, 1e308, 2.0], [True, False, False]),
            # accepted; omega_b below omega_a
            ("omega_b", [0.2, 0.05], [True, False]),
        ],
    )
    def test_array_verdict_is_what_joint_state_refuses(self, alignment, swept, values, verdicts):
        # one grid per swept input, around the accepted point (0.2, 1, 0.2)
        pair, geom = DetectorPair(0.1, 0.2, 5.0), BoundaryGeometry(alignment, 1.0, 0.2)
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, ok = _block_evaluator(pair, geom, swept)(np.array(values))
        got = []
        for value in values:
            inputs = {"omega_b": 0.2, "separation": 1.0, "boundary_distance": 0.2, swept: value}
            try:
                joint_state(
                    DetectorPair(0.1, inputs["omega_b"], 5.0),
                    BoundaryGeometry(alignment, inputs["separation"], inputs["boundary_distance"]),
                )
            except ValidationError:
                got.append(False)
            else:
                got.append(True)
        assert ok.tolist() == got == verdicts

    def test_coupling_scaling_exact(self):
        strong = correlations(
            DetectorPair(omega_a=0.1, omega_b=0.1, coupling=2.0), GEOM_PAR
        )
        weak = correlations(PAIR, GEOM_PAR)
        assert strong.p_a / weak.p_a == pytest.approx(4.0, abs=1e-13)
        assert abs(strong.c) / abs(weak.c) == pytest.approx(4.0, abs=1e-13)
        assert abs(strong.x) / abs(weak.x) == pytest.approx(4.0, abs=1e-13)


class TestJointState:
    def test_field_mapping(self):
        block = correlations(PAIR, GEOM_ORT)
        state = joint_state(PAIR, GEOM_ORT)
        assert state.d11 == pytest.approx(1.0 - block.p_a - block.p_b, abs=1e-15)
        assert state.d22 == block.p_b
        assert state.d33 == block.p_a
        assert state.d44 == 0.0
        assert state.c14 == block.x
        assert state.c23 == block.c

    def test_trace_is_one(self):
        s = joint_state(PAIR, GEOM_PAR)
        assert s.d11 + s.d22 + s.d33 + s.d44 == pytest.approx(1.0, abs=1e-15)

    def test_parallel_identical_populations_equal(self):
        s = joint_state(PAIR, GEOM_PAR)
        assert s.d22 == s.d33

    def test_orthogonal_population_ordering(self):
        s = joint_state(PAIR, GEOM_ORT)
        assert s.d22 > s.d33

    def test_saturated_coupling_raises(self):
        strong = DetectorPair(omega_a=0.1, omega_b=0.1, coupling=4.0)
        with pytest.raises(PerturbativeValidityError):
            joint_state(strong, GEOM_ORT)

    def test_trusted_window(self):
        assert correlations(PAIR, GEOM_ORT).trusted
        warm = DetectorPair(omega_a=0.1, omega_b=0.1, coupling=2.4)
        assert correlations(warm, GEOM_ORT).trusted
        hot = DetectorPair(omega_a=0.1, omega_b=0.1, coupling=2.5)
        assert not correlations(hot, GEOM_ORT).trusted


class TestHarvestedSteering:
    def test_matches_generic_xstate_path(self):
        # the library's generic X-state route against the empty-top-level
        # specialization written out longhand
        rng = np.random.default_rng(314)
        for _ in range(1000):
            wa = rng.uniform(0.0, 1.2)
            wb = wa + rng.uniform(0.0, 1.2)
            pair = DetectorPair(
                omega_a=wa, omega_b=wb, coupling=float(rng.uniform(0.5, 1.4))
            )
            geom = BoundaryGeometry(
                Alignment.PARALLEL if rng.integers(2) else Alignment.ORTHOGONAL,
                separation=float(rng.uniform(0.05, 3.0)),
                boundary_distance=float(rng.uniform(0.1, 3.0)),
            )
            block = correlations(pair, geom)
            want_ab, want_ba = steering_by_hand(block.p_a, block.p_b, block.c, block.x)
            got = harvested_steering(pair, geom)
            assert got.s_ab == pytest.approx(want_ab, abs=1e-12)
            assert got.s_ba == pytest.approx(want_ba, abs=1e-12)
            assert got.asymmetry == pytest.approx(want_ab - want_ba, abs=1e-12)

    def test_matches_50_digit_reference(self):
        # gaps up to 6 drive P_B below 1e-18, where the textbook
        # thresholds g_a +- g_b cancel in double precision
        rng = np.random.default_rng(2506)
        for _ in range(2000):
            wa = float(rng.uniform(0.0, 0.1))
            pair = DetectorPair(wa, float(rng.uniform(wa, 6.0)))
            geom = BoundaryGeometry(
                Alignment.PARALLEL if rng.integers(2) else Alignment.ORTHOGONAL,
                separation=float(rng.uniform(0.05, 3.0)),
                boundary_distance=float(rng.uniform(1e-4, 8.0)),
            )
            state = joint_state(pair, geom)
            want = steering_50_digits(state)
            got = steering_asymmetry(state)
            for res in (got, harvested_steering(pair, geom)):
                for name, value in want.items():
                    assert getattr(res, name) == pytest.approx(value, abs=1e-12)
            certified_ba = SQRT3 / 2.0 * concurrence(build_tau_ab(state))
            certified_ab = SQRT3 / 2.0 * concurrence(build_tau_ba(state))
            assert certified_ba == pytest.approx(got.s_ba, abs=1e-12)
            assert certified_ab == pytest.approx(got.s_ab, abs=1e-12)

    def test_matches_longhand_formula(self):
        block = correlations(PAIR, GEOM_ORT)
        want_ab, want_ba = steering_by_hand(block.p_a, block.p_b, block.c, block.x)
        got = harvested_steering(PAIR, GEOM_ORT)
        assert got.s_ab == pytest.approx(want_ab, abs=1e-15)
        assert got.s_ba == pytest.approx(want_ba, abs=1e-15)

    def test_parallel_identical_is_exactly_symmetric(self):
        res = harvested_steering(PAIR, GEOM_PAR)
        assert res.s_ab == res.s_ba
        assert res.asymmetry == 0.0

    def test_steering_dies_at_finite_separation(self):
        geom_alive = BoundaryGeometry(Alignment.PARALLEL, 0.3, 1.0)
        geom_dead = BoundaryGeometry(Alignment.PARALLEL, 1.2, 1.0)
        assert harvested_steering(PAIR, geom_alive).s_ba > 0.0
        assert harvested_steering(PAIR, geom_dead).s_ba == 0.0


class TestBoundaryFree:
    @pytest.mark.parametrize("separation", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_invalid_separation(self, separation):
        with pytest.raises(ValidationError, match="separation"):
            boundary_free_correlations(PAIR, separation)

    def test_refuses_separation_below_kernel_range(self):
        with pytest.raises(ValidationError) as info:
            boundary_free_correlations(PAIR, 1e-320)
        assert str(info.value) == BELOW_KERNEL_RANGE

    def test_probabilities_are_free_space(self):
        block = boundary_free_correlations(PAIR, 0.05)
        assert block.p_a == free_space_probability(0.1)
        assert block.p_b == free_space_probability(0.1)

    def test_steering_regression(self):
        res = boundary_free_steering(PAIR, 0.05)
        assert res.s_ba == pytest.approx(2.600055834107036, rel=1e-12)
        assert res.s_ab == res.s_ba

    def test_longhand_consistency(self):
        block = boundary_free_correlations(PAIR, 0.05)
        want_ab, want_ba = steering_by_hand(block.p_a, block.p_b, block.c, block.x)
        res = boundary_free_steering(PAIR, 0.05)
        assert res.s_ab == pytest.approx(want_ab, abs=1e-15)
        assert res.s_ba == pytest.approx(want_ba, abs=1e-15)


class TestConfigDifference:
    def test_returns_orthogonal_minus_parallel(self):
        d_ab, d_ba = config_difference(PAIR, 0.5, 1.0)
        v = harvested_steering(PAIR, BoundaryGeometry(Alignment.ORTHOGONAL, 0.5, 1.0))
        p = harvested_steering(PAIR, BoundaryGeometry(Alignment.PARALLEL, 0.5, 1.0))
        assert d_ab == v.s_ab - p.s_ab
        assert d_ba == v.s_ba - p.s_ba

    def test_vanishing_separation_limit(self):
        d_ab, d_ba = config_difference(PAIR, 1e-9, 1.0)
        assert abs(d_ab) <= 1e-8
        assert abs(d_ba) <= 1e-8

    def test_far_boundary_dead_regime(self):
        # at L = 1 both alignments are past the steering death point, so
        # the differences vanish identically
        d_ab, d_ba = config_difference(PAIR, 1.0, 8.0)
        assert d_ab == 0.0
        assert d_ba == 0.0

    def test_far_boundary_live_regime_keeps_algebraic_tail(self):
        # with live steering (small L) the 1/dz^2 image tails survive at
        # dz = 8: the differences are ~1e-5, far above 1e-8
        d_ab, d_ba = config_difference(PAIR, 0.05, 8.0)
        assert 1e-6 < abs(d_ab) < 1e-4
        assert d_ab < 0.0

    def test_near_boundary_signs(self):
        # vertical stacking favours the B->A direction at moderate dz
        d_ab, d_ba = config_difference(PAIR, 0.5, 1.0)
        assert d_ba >= 0.0
        assert d_ab <= 0.0

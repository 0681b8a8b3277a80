"""Tests for the X-state steering measures.

Expected values are worked out inline from the closed-form definitions
with explicit numeric weights, so a transcription slip in the module
shows up as a disagreement here.
"""

import math

import numpy as np
import pytest

from conftest import random_x_state
from mirrorsteer.errors import ValidationError
from mirrorsteer.xstate_steering import (
    XState,
    build_tau_ab,
    build_tau_ba,
    concurrence,
    steering_a_to_b,
    state_arrays,
    steering_asymmetry,
    steering_b_to_a,
)

SQRT3 = math.sqrt(3.0)
W_MINUS = (2.0 - SQRT3) / 2.0
W_PLUS = (2.0 + SQRT3) / 2.0

BELL = XState(d11=0.5, d22=0.0, d33=0.0, d44=0.5, c14=0.5 + 0j)
MIXED = XState(d11=0.25, d22=0.25, d33=0.25, d44=0.25)
# Werner state at visibility 0.8
WERNER = XState(d11=0.45, d22=0.05, d33=0.05, d44=0.45, c14=0.4 + 0j)


def thresholds_by_hand(s: XState):
    p14 = s.d11 * s.d44
    p23 = s.d22 * s.d33
    cross = 0.25 * (s.d11 + s.d44) * (s.d22 + s.d33)
    g_a = W_MINUS * p14 + W_PLUS * p23 + cross
    g_b = 0.25 * (s.d11 - s.d44) * (s.d22 - s.d33)
    g_c = W_PLUS * p14 + W_MINUS * p23 + cross
    return g_a, g_b, g_c


def sqrt_pos(x: float) -> float:
    return math.sqrt(x) if x > 0.0 else 0.0


class TestXStateValidation:
    def test_trace_must_be_one(self):
        with pytest.raises(ValidationError):
            XState(d11=0.5, d22=0.3, d33=0.1, d44=0.0)

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            XState(d11=1.1, d22=-0.1, d33=0.0, d44=0.0)

    def test_tiny_negative_diagonal_clamped(self):
        s = XState(d11=1.0 + 5e-13, d22=-5e-13, d33=0.0, d44=0.0)
        assert s.d22 == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            XState(d11=math.nan, d22=0.5, d33=0.25, d44=0.25)

    def test_coherences_coerced_to_complex(self):
        s = XState(d11=0.5, d22=0.0, d33=0.0, d44=0.5, c14=0.3)
        assert isinstance(s.c14, complex)

    def test_positivity_not_enforced(self):
        # leading-order harvested states have d44 = 0 with c14 != 0, which
        # violates |c14| <= sqrt(d11 d44); they must still be representable
        s = XState(d11=0.9, d22=0.06, d33=0.04, d44=0.0, c14=0.2 + 0j)
        assert s.c14 == 0.2 + 0j


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(BELL) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed(self):
        assert concurrence(MIXED) == 0.0

    def test_werner(self):
        # 2 * (0.4 - sqrt(0.05 * 0.05)) = 0.7
        assert concurrence(WERNER) == pytest.approx(0.7, rel=1e-15)

    def test_separable_with_coherence(self):
        s = XState(d11=0.9, d22=0.06, d33=0.03, d44=0.01, c14=0.04 + 0j)
        # |c14| = 0.04 < sqrt(0.06 * 0.03) = 0.0424..., so not entangled
        assert concurrence(s) == 0.0

    def test_phase_invariance(self):
        rot = XState(
            d11=0.45, d22=0.05, d33=0.05, d44=0.45, c14=0.4 * np.exp(0.7j)
        )
        assert concurrence(rot) == pytest.approx(concurrence(WERNER), rel=1e-12)


class TestSteering:
    def test_bell_both_directions(self):
        # 1/2 - sqrt((2 - sqrt(3))/8) in both directions since g_b = 0
        expected = 0.5 - math.sqrt((2.0 - SQRT3) / 8.0)
        assert steering_b_to_a(BELL) == pytest.approx(expected, rel=1e-15)
        assert steering_a_to_b(BELL) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.3169872981077807, rel=1e-14)

    def test_werner_value(self):
        # g_a = W_MINUS * 0.2025 + W_PLUS * 0.0025 + 0.25 * 0.9 * 0.1,
        # steering = 0.4 - sqrt(g_a) in both directions
        g_a = W_MINUS * 0.2025 + W_PLUS * 0.0025 + 0.0225
        expected = 0.4 - math.sqrt(g_a)
        assert steering_b_to_a(WERNER) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.1669872981077818, rel=1e-12)

    def test_maximally_mixed_unsteerable(self):
        assert steering_b_to_a(MIXED) == 0.0
        assert steering_a_to_b(MIXED) == 0.0

    def test_entangled_but_unsteerable(self):
        s = XState(
            d11=0.9, d22=0.06, d33=0.03, d44=0.01, c14=0.05 + 0j, c23=0.04 + 0j
        )
        assert concurrence(s) > 0.0
        assert steering_b_to_a(s) == 0.0
        assert steering_a_to_b(s) == 0.0

    def test_asymmetric_live_case(self):
        # d44 = 0 harvested-type state worked by hand:
        #   g_a = W_PLUS * 0.0024 + 0.0225, g_b = 0.0045, g_c = W_MINUS * 0.0024 + 0.0225
        #   s_ba = 0.2 - sqrt(g_a - g_b), s_ab = 0.2 - sqrt(g_a + g_b)
        s = XState(d11=0.9, d22=0.06, d33=0.04, d44=0.0, c14=0.2 + 0j, c23=0.01 + 0j)
        res = steering_asymmetry(s)
        assert res.s_ba == pytest.approx(0.05007181396054092, rel=1e-12)
        assert res.s_ab == pytest.approx(0.022578296228779687, rel=1e-12)
        assert res.asymmetry == pytest.approx(res.s_ab - res.s_ba, abs=1e-16)
        assert res.asymmetry < 0.0
        assert res.concurrence == pytest.approx(
            2.0 * (0.2 - math.sqrt(0.06 * 0.04)), rel=1e-14
        )

    def test_matches_definition_on_random_states(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            s = random_x_state(rng)
            g_a, g_b, g_c = thresholds_by_hand(s)
            want_ba = max(
                0.0,
                abs(s.c14) - sqrt_pos(g_a - g_b),
                abs(s.c23) - sqrt_pos(g_c - g_b),
            )
            want_ab = max(
                0.0,
                abs(s.c14) - sqrt_pos(g_a + g_b),
                abs(s.c23) - sqrt_pos(g_c + g_b),
            )
            assert steering_b_to_a(s) == pytest.approx(want_ba, abs=1e-14)
            assert steering_a_to_b(s) == pytest.approx(want_ab, abs=1e-14)

    def test_symmetric_spectrum_has_zero_asymmetry(self):
        # d22 == d33 makes g_b vanish, so the two directions coincide
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = rng.dirichlet(np.ones(2))
            half = float(b) / 2.0
            s = XState(
                d11=float(a) * 0.6,
                d22=half,
                d33=half,
                d44=float(a) * 0.4,
                c14=complex(rng.uniform(0, 0.4), rng.uniform(0, 0.2)),
                c23=complex(rng.uniform(0, 0.2)),
            )
            assert steering_a_to_b(s) == steering_b_to_a(s)

    def test_results_are_nonnegative(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            s = random_x_state(rng)
            assert steering_b_to_a(s) >= 0.0
            assert steering_a_to_b(s) >= 0.0


def _entry_columns(entries):
    """One array per X-state entry, d11 to c23, over a list of entry tuples."""
    return [np.array(column) for column in zip(*entries)]


class TestSteeringArrays:
    def test_matches_one_state_route_bit_for_bit(self):
        rng = np.random.default_rng(11)
        entries = [
            tuple(getattr(s, k) for k in ("d11", "d22", "d33", "d44", "c14", "c23"))
            for s in (random_x_state(rng) for _ in range(400))
        ]
        # XState clamps an entry just below zero; the arrays must too
        entries.append((0.5 + 1e-13, 0.5, -1e-13, 0.0, 0.3 + 0.1j, 0.2j))
        _, columns, ok = state_arrays(*_entry_columns(entries))
        # after the moduli |c23| and |c14|: s_ab, s_ba, asymmetry, concurrence
        got = columns[2:]
        assert ok.all()
        for i, e in enumerate(entries):
            res = steering_asymmetry(XState(*e))
            want = (res.s_ab, res.s_ba, res.asymmetry, res.concurrence)
            assert tuple(float(col[i]).hex() for col in got) == tuple(v.hex() for v in want)

    @pytest.mark.parametrize(
        "bad",
        [
            (1.5, -0.5, 0.0, 0.0, 0j, 0j),  # outside [0, 1]
            (0.5, 0.5, 0.5, 0.0, 0j, 0j),  # trace 1.5
            (math.nan, 0.5, 0.5, 0.0, 0j, 0j),
            (0.5, 0.5, 0.0, 0.0, complex(math.inf, 0.0), 0j),
            (0.5, 0.5, 0.0, 0.0, 0j, complex(0.0, math.nan)),
            # the modulus of this coherence overflows abs
            (0.5, 0.5, 0.5, 0.0, complex(1.5e308, 1.5e308), 0j),
        ],
    )
    def test_refuses_what_xstate_refuses(self, bad):
        with pytest.raises(ValidationError):
            XState(*bad)
        good = (0.25, 0.25, 0.25, 0.25, 0.1 + 0j, 0.1j)
        *_, ok = state_arrays(*_entry_columns([good, bad, good]))
        assert ok.tolist() == [True, False, True]


class TestCertificationMap:
    def test_maximally_mixed_is_fixed_point(self):
        for build in (build_tau_ab, build_tau_ba):
            t = build(MIXED)
            for d in (t.d11, t.d22, t.d33, t.d44):
                assert d == pytest.approx(0.25, abs=1e-15)
            assert t.c14 == 0j and t.c23 == 0j

    def test_bell_image(self):
        t = build_tau_ab(BELL)
        mix = (3.0 - SQRT3) / 12.0
        assert t.d11 == pytest.approx(0.5 / SQRT3 + mix, rel=1e-15)
        assert t.d22 == pytest.approx(mix, rel=1e-15)
        assert t.d33 == pytest.approx(mix, rel=1e-15)
        assert t.d44 == pytest.approx(0.5 / SQRT3 + mix, rel=1e-15)
        assert t.c14 == pytest.approx(0.5 / SQRT3, rel=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            s = random_x_state(rng)
            for build in (build_tau_ab, build_tau_ba):
                t = build(s)
                assert t.d11 + t.d22 + t.d33 + t.d44 == pytest.approx(1.0, abs=1e-12)

    def test_concurrence_certifies_b_to_a(self):
        # concurrence(tau_ab) = (2/sqrt(3)) * S(B->A), exactly
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            s = random_x_state(rng)
            lhs = concurrence(build_tau_ab(s))
            rhs = (2.0 / SQRT3) * steering_b_to_a(s)
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_concurrence_certifies_a_to_b(self):
        rng = np.random.default_rng(2025)
        for _ in range(2000):
            s = random_x_state(rng)
            lhs = concurrence(build_tau_ba(s))
            rhs = (2.0 / SQRT3) * steering_a_to_b(s)
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_bell_identity_value(self):
        assert concurrence(build_tau_ab(BELL)) == pytest.approx(
            0.36602540378443865, rel=1e-14
        )

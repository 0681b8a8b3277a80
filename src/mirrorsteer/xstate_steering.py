"""Steering measures for two-qubit X-states.

An X-operator is fixed by its diagonal ``(d11, d22, d33, d44)`` in the
product basis together with the two antidiagonal coherences ``c14`` and
``c23``. For such operators the violation of the steering inequalities
reduces to closed form, giving a directional measure S(A->B), S(B->A)
analogous to the concurrence. Each direction can be certified
independently: an auxiliary X-operator built from the same data has
concurrence equal to 2/sqrt(3) times the steering.

The thresholds are written so that every radicand is a sum of
nonnegative products of the diagonal. The textbook form combines
g_a = W- d11 d44 + W+ d22 d33 + (d11 + d44)(d22 + d33)/4 and
g_b = (d11 - d44)(d22 - d33)/4 as g_a +- g_b, which cancels when one
population is tiny; expanding the sum and difference removes the
cancellation exactly:

    g_a + g_b = W- d11 d44 + W+ d22 d33 + (d11 d22 + d33 d44)/2
    g_a - g_b = W- d11 d44 + W+ d22 d33 + (d11 d33 + d22 d44)/2

and g_c +- g_b likewise with W+ and W- exchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_SQRT3 = math.sqrt(3.0)
# weights of the product terms in the steering thresholds
_W_MINUS = (2.0 - _SQRT3) / 2.0
_W_PLUS = (2.0 + _SQRT3) / 2.0
# diagonal mixing weight of the certification map
_TAU_MIX = (3.0 - _SQRT3) / 6.0

# tolerance for trace and diagonal-range checks
_ATOL = 1e-12


@dataclass(frozen=True)
class XState:
    """Two-qubit X-operator with unit trace.

    Parameters
    ----------
    d11, d22, d33, d44 : float
        Diagonal entries, each in [0, 1] up to a 1e-12 tolerance; values
        in [-1e-12, 0) are clamped to zero. The trace must equal 1 within
        1e-12.
    c14, c23 : complex
        Antidiagonal coherences. Positivity of the full operator is not
        enforced: the leading-order harvested states have d44 = 0 with
        c14 != 0 and are only positive once higher orders are included.
    """

    d11: float
    d22: float
    d33: float
    d44: float
    c14: complex = 0j
    c23: complex = 0j

    def __post_init__(self):
        for name in ("d11", "d22", "d33", "d44"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite")
            if value < -_ATOL or value > 1.0 + _ATOL:
                raise ValidationError(f"{name} = {value!r} outside [0, 1]")
            object.__setattr__(self, name, max(value, 0.0))
        trace = self.d11 + self.d22 + self.d33 + self.d44
        if abs(trace - 1.0) > _ATOL:
            raise ValidationError(f"trace = {trace!r}, expected 1 within {_ATOL}")
        for name in ("c14", "c23"):
            value = complex(getattr(self, name))
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValidationError(f"{name} must be finite")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SteeringResult:
    """Both steering directions, their difference, and the concurrence."""

    s_ab: float
    s_ba: float
    asymmetry: float
    concurrence: float


def concurrence(state: XState) -> float:
    """Concurrence of an X-state.

    C = 2 max{0, |c14| - sqrt(d22 d33), |c23| - sqrt(d11 d44)}.
    The result is not capped at 1; operators outside the positivity cone
    can exceed the physical range and are reported as computed.
    """
    a = abs(state.c14) - math.sqrt(state.d22 * state.d33)
    b = abs(state.c23) - math.sqrt(state.d11 * state.d44)
    return 2.0 * max(0.0, a, b)


def _margins(d11, d22, d33, d44, m14, m23, sqrt):
    """Signed margins of S(A->B) and S(B->A) from the factored thresholds.

    Returns ((A->B via c14, A->B via c23), (B->A via c14, B->A via c23)),
    each a coherence modulus less its threshold. Generic over floats with
    ``math.sqrt`` and numpy arrays with ``np.sqrt``; both round correctly,
    so the two agree bit for bit.
    """
    p14 = d11 * d44
    p23 = d22 * d33
    w_a = _W_MINUS * p14 + _W_PLUS * p23
    w_c = _W_PLUS * p14 + _W_MINUS * p23
    # cross term of g_a and g_c, plus g_b for A->B and minus g_b for B->A
    h_ab = 0.5 * (d11 * d22 + d33 * d44)
    h_ba = 0.5 * (d11 * d33 + d22 * d44)
    return (
        (m14 - sqrt(w_a + h_ab), m23 - sqrt(w_c + h_ab)),
        (m14 - sqrt(w_a + h_ba), m23 - sqrt(w_c + h_ba)),
    )


def _signed_margins(state: XState) -> tuple[float, float]:
    """The signed margins of A->B and B->A, each the larger of its two
    entries of :func:`_margins`: a direction steers exactly where its
    margin is positive."""
    (a14, a23), (b14, b23) = _margins(
        state.d11, state.d22, state.d33, state.d44,
        abs(state.c14), abs(state.c23), math.sqrt,
    )
    return max(a14, a23), max(b14, b23)


def _both_directions(state: XState) -> tuple[float, float]:
    """S(A->B) and S(B->A), each its signed margin clamped at zero."""
    m_ab, m_ba = _signed_margins(state)
    return max(0.0, m_ab), max(0.0, m_ba)


def steering_b_to_a(state: XState) -> float:
    """Steering of A by measurements on B.

    S(B->A) = max{0, |c14| - sqrt(g_a - g_b), |c23| - sqrt(g_c - g_b)}.
    """
    return _both_directions(state)[1]


def steering_a_to_b(state: XState) -> float:
    """Steering of B by measurements on A; g_b enters with opposite sign."""
    return _both_directions(state)[0]


def steering_asymmetry(state: XState) -> SteeringResult:
    """Evaluate both directions at once.

    The asymmetry is s_ab - s_ba: positive when A steers B more strongly.
    """
    s_ab, s_ba = _both_directions(state)
    return SteeringResult(
        s_ab=s_ab,
        s_ba=s_ba,
        asymmetry=s_ab - s_ba,
        concurrence=concurrence(state),
    )


def _each(fn, *arrays: np.ndarray) -> np.ndarray:
    """``fn`` at each point of the arrays, one libm call per point.

    numpy's own exp, erfc, hypot and complex abs can differ from libm in
    the last ulp, and the array kernels must agree with the scalar ones
    bit for bit.
    """
    return np.fromiter(map(fn, *(a.tolist() for a in arrays)), float, arrays[0].size)


def _max0(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``max(0.0, a, b)`` at each point, with Python's choice among ties and nan."""
    first = np.where(a > 0.0, a, 0.0)
    return np.where(b > first, b, first)


def steering_arrays(d11, d22, d33, d44, c14, c23):
    """:func:`steering_asymmetry` of the X-state at each point, bit for bit.

    Takes equal-length arrays of the entries and returns the columns
    s_ab, s_ba, asymmetry and concurrence, then the boolean column ``ok``,
    true exactly at the points :class:`XState` accepts. Every point is
    computed; where ``ok`` is false the columns are placeholders.
    """
    ok = np.ones(d11.size, bool)
    diagonal = []
    with np.errstate(invalid="ignore", over="ignore"):
        for value in (d11, d22, d33, d44):
            ok &= np.isfinite(value) & (value >= -_ATOL) & (value <= 1.0 + _ATOL)
            diagonal.append(np.where(value < 0.0, 0.0, value))
        d11, d22, d33, d44 = diagonal
        ok &= np.abs(d11 + d22 + d33 + d44 - 1.0) <= _ATOL
        for value in (c14, c23):
            ok &= np.isfinite(value.real) & np.isfinite(value.imag)
        # the modulus of a refused coherence can overflow abs
        m14, m23 = (_each(abs, np.where(ok, c, 0.0)) for c in (c14, c23))
        (a14, a23), (b14, b23) = _margins(d11, d22, d33, d44, m14, m23, np.sqrt)
        s_ab, s_ba = _max0(a14, a23), _max0(b14, b23)
        conc = 2.0 * _max0(m14 - np.sqrt(d22 * d33), m23 - np.sqrt(d11 * d44))
    return s_ab, s_ba, s_ab - s_ba, conc, ok


def _certification_map(
    state: XState, m11: float, m22: float, m33: float, m44: float
) -> XState:
    """Scale the state by 1/sqrt(3) and add one mixing term per diagonal entry."""
    return XState(
        d11=state.d11 / _SQRT3 + m11,
        d22=state.d22 / _SQRT3 + m22,
        d33=state.d33 / _SQRT3 + m33,
        d44=state.d44 / _SQRT3 + m44,
        c14=state.c14 / _SQRT3,
        c23=state.c23 / _SQRT3,
    )


def build_tau_ab(state: XState) -> XState:
    """Certification operator for the B->A direction.

    Its concurrence equals (2/sqrt(3)) S(B->A): the first two diagonal
    entries share one mixing term, the last two the other, so that
    3 tau22 tau33 = g_a - g_b and 3 tau11 tau44 = g_c - g_b.
    """
    m = _TAU_MIX * (state.d11 + state.d22)
    n = _TAU_MIX * (state.d33 + state.d44)
    return _certification_map(state, m, m, n, n)


def build_tau_ba(state: XState) -> XState:
    """Certification operator for the A->B direction.

    Same construction with the mixing pairs regrouped across the other
    subsystem: rows 1 and 3 share one term, rows 2 and 4 the other.
    """
    m = _TAU_MIX * (state.d11 + state.d33)
    n = _TAU_MIX * (state.d22 + state.d44)
    return _certification_map(state, m, n, m, n)

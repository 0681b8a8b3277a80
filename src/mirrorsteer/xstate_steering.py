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

Each formula is written once, over a namespace of elementwise functions:
one state reads it through :mod:`math`, and :func:`state_arrays` reads it
at each point of arrays of states, bit for bit.  Each domain check is
written once as well, as an ordered table of rules that one state raises
from and an array pass ANDs into a verdict per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

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


def _each(fn, *arrays: np.ndarray) -> np.ndarray:
    """``fn`` at each point of the arrays, one libm call per point.

    numpy's own exp, erfc, hypot and complex abs can differ from libm in
    the last ulp, and the array kernels must agree with the scalar ones
    bit for bit.
    """
    return np.fromiter(map(fn, *(a.tolist() for a in arrays)), float, arrays[0].size)


def _maximum(first, *rest):
    """``max`` at each point: a later value replaces the best so far only if
    greater, which is Python's choice among ties and nan."""
    for value in rest:
        first = np.where(value > first, value, first)
    return first


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    z = re.astype(complex)
    z.imag = im
    return z


# The elementwise functions every formula of the model is written over,
# once: at one point, and at each point of equal-length arrays.  Both round
# +, -, *, / and sqrt correctly, and the arrays call libm and Python's
# complex modulus one point at a time, so both give the same bits.
_LIBM = ("exp", "erfc", "sin", "cos", "hypot")
_ONE_POINT = SimpleNamespace(
    **{name: getattr(math, name) for name in _LIBM}, sqrt=math.sqrt, abs=abs, max=max,
    where=lambda cond, a, b: a if cond else b, complex=complex,
)
_ARRAYS = SimpleNamespace(
    **{name: lambda *a, fn=getattr(math, name): _each(fn, *a) for name in _LIBM},
    sqrt=np.sqrt, abs=lambda a: _each(abs, a), max=_maximum, where=np.where, complex=_complex,
)

# A domain check is an ordered table of rules: a function of a namespace of
# values that returns one row (holds, error type, message) per rule.  Each
# ``holds`` uses comparisons, ``abs`` and ``&`` only (x is finite exactly
# where abs(x) < _INF), so a table reads one point or each point of arrays;
# a message formats the values by name.  One point raises the first rule it
# fails; an array pass ANDs the rules into a verdict per point.
_INF = math.inf


def _holds(rules, values):
    """Whether each point of arrays passes every rule; called with numpy's
    floating-point warnings off."""
    ok = True
    for holds, _, _ in rules(values):
        ok = ok & holds
    return ok


def _first_failure(rules, values) -> Exception | None:
    """The error of the first rule one point's ``values`` fail, if any."""
    for holds, error, message in rules(values):
        if not holds:
            return error(message.format_map(vars(values)))
    return None


def _check(rules, values) -> None:
    error = _first_failure(rules, values)
    if error is not None:
        raise error


def _in_range(x):
    return (x >= -_ATOL) & (x <= 1.0 + _ATOL)


def _state_rules(v):
    """The rules of :class:`XState`, on the values of :func:`_state_values`."""
    return (
        (abs(v.d11) < _INF, ValidationError, "d11 must be finite"),
        (_in_range(v.d11), ValidationError, "d11 = {d11!r} outside [0, 1]"),
        (abs(v.d22) < _INF, ValidationError, "d22 must be finite"),
        (_in_range(v.d22), ValidationError, "d22 = {d22!r} outside [0, 1]"),
        (abs(v.d33) < _INF, ValidationError, "d33 must be finite"),
        (_in_range(v.d33), ValidationError, "d33 = {d33!r} outside [0, 1]"),
        (abs(v.d44) < _INF, ValidationError, "d44 must be finite"),
        (_in_range(v.d44), ValidationError, "d44 = {d44!r} outside [0, 1]"),
        (abs(v.trace - 1.0) <= _ATOL, ValidationError, _TRACE_FAILS),
        ((abs(v.c14.real) < _INF) & (abs(v.c14.imag) < _INF), ValidationError,
         "c14 must be finite"),
        ((abs(v.c23.real) < _INF) & (abs(v.c23.imag) < _INF), ValidationError,
         "c23 must be finite"),
    )


_TRACE_FAILS = f"trace = {{trace!r}}, expected 1 within {_ATOL}"


def _state_values(ns, d11, d22, d33, d44, c14, c23):
    """The values :func:`_state_rules` read, the trace being that of the
    diagonal clamped at zero, and that clamped diagonal."""
    diagonal = (ns.max(d11, 0.0), ns.max(d22, 0.0), ns.max(d33, 0.0), ns.max(d44, 0.0))
    trace = diagonal[0] + diagonal[1] + diagonal[2] + diagonal[3]
    values = SimpleNamespace(d11=d11, d22=d22, d33=d33, d44=d44, trace=trace, c14=c14, c23=c23)
    return values, diagonal


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
        values, diagonal = _state_values(
            _ONE_POINT, float(self.d11), float(self.d22), float(self.d33), float(self.d44),
            complex(self.c14), complex(self.c23),
        )
        _check(_state_rules, values)
        set_field = object.__setattr__
        set_field(self, "d11", diagonal[0])
        set_field(self, "d22", diagonal[1])
        set_field(self, "d33", diagonal[2])
        set_field(self, "d44", diagonal[3])
        set_field(self, "c14", values.c14)
        set_field(self, "c23", values.c23)


@dataclass(frozen=True)
class SteeringResult:
    """Both steering directions, their difference, and the concurrence."""

    s_ab: float
    s_ba: float
    asymmetry: float
    concurrence: float


def _margins(ns, d11, d22, d33, d44, m14, m23):
    """Signed margins of S(A->B) and S(B->A) from the factored thresholds:
    each the larger of a coherence modulus less its threshold, via c14 and
    via c23, so a direction steers exactly where its margin is positive."""
    p14 = d11 * d44
    p23 = d22 * d33
    w_a = _W_MINUS * p14 + _W_PLUS * p23
    w_c = _W_PLUS * p14 + _W_MINUS * p23
    # cross term of g_a and g_c, plus g_b for A->B and minus g_b for B->A
    h_ab = 0.5 * (d11 * d22 + d33 * d44)
    h_ba = 0.5 * (d11 * d33 + d22 * d44)
    return (
        ns.max(m14 - ns.sqrt(w_a + h_ab), m23 - ns.sqrt(w_c + h_ab)),
        ns.max(m14 - ns.sqrt(w_a + h_ba), m23 - ns.sqrt(w_c + h_ba)),
    )


def _concurrence(ns, d11, d22, d33, d44, m14, m23):
    return 2.0 * ns.max(0.0, m14 - ns.sqrt(d22 * d33), m23 - ns.sqrt(d11 * d44))


def _steering(ns, d11, d22, d33, d44, c14, c23):
    """|c23|, |c14|, S(A->B), S(B->A), their difference and the concurrence
    of an X-state, unchecked.  Each direction is its margin clamped at 0."""
    m14, m23 = ns.abs(c14), ns.abs(c23)
    m_ab, m_ba = _margins(ns, d11, d22, d33, d44, m14, m23)
    s_ab, s_ba = ns.max(0.0, m_ab), ns.max(0.0, m_ba)
    return m23, m14, s_ab, s_ba, s_ab - s_ba, _concurrence(ns, d11, d22, d33, d44, m14, m23)


def _observed(state: XState) -> tuple[float, ...]:
    """:func:`_steering` of one state."""
    return _steering(
        _ONE_POINT, state.d11, state.d22, state.d33, state.d44, state.c14, state.c23
    )


def concurrence(state: XState) -> float:
    """Concurrence of an X-state.

    C = 2 max{0, |c14| - sqrt(d22 d33), |c23| - sqrt(d11 d44)}.
    The result is not capped at 1; operators outside the positivity cone
    can exceed the physical range and are reported as computed.
    """
    return _concurrence(_ONE_POINT, *_moduli(state))


def _moduli(state: XState) -> tuple[float, ...]:
    """The diagonal of one state and the moduli of its coherences."""
    return state.d11, state.d22, state.d33, state.d44, abs(state.c14), abs(state.c23)


def _signed_margins(state: XState) -> tuple[float, float]:
    """The signed margins of A->B and B->A of one state; see :func:`_margins`."""
    return _margins(_ONE_POINT, *_moduli(state))


def steering_b_to_a(state: XState) -> float:
    """Steering of A by measurements on B.

    S(B->A) = max{0, |c14| - sqrt(g_a - g_b), |c23| - sqrt(g_c - g_b)}.
    """
    return _observed(state)[3]


def steering_a_to_b(state: XState) -> float:
    """Steering of B by measurements on A; g_b enters with opposite sign."""
    return _observed(state)[2]


def steering_asymmetry(state: XState) -> SteeringResult:
    """Evaluate both directions at once.

    The asymmetry is s_ab - s_ba: positive when A steers B more strongly.
    """
    return SteeringResult(*_observed(state)[2:])


def state_arrays(d11, d22, d33, d44, c14, c23):
    """:class:`XState` and :func:`_steering` at each point of equal-length
    arrays of the entries, bit for bit: the values :func:`_state_rules`
    read, the columns of :func:`_steering`, and the verdict ``ok``, true
    exactly where :class:`XState` accepts the point.  Where ``ok`` is false
    the columns are placeholders."""
    with np.errstate(invalid="ignore", over="ignore"):
        values, diagonal = _state_values(_ARRAYS, d11, d22, d33, d44, c14, c23)
        ok = _holds(_state_rules, values)
        # the modulus of a refused coherence can overflow abs
        coherences = (np.where(ok, c, 0.0) for c in (c14, c23))
        return values, _steering(_ARRAYS, *diagonal, *coherences), ok


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

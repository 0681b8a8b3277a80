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
one state reads it through :mod:`math`, and arrays of states read it one
libm call per point (numpy's own functions can differ in the last ulp), so
both give the same bits.  Each domain check is written once as well, as an
ordered table of rules (predicate, error type, message) that a namespace
reads through its ``verdict``: one state raises the first rule it fails, and
an array pass ANDs the rules into a verdict per point.  :class:`XState`
checks and clamps a state through :func:`_state`, and :func:`_steering`
gives its columns unchecked, at one point or over arrays.  Sweeps and
searches read :func:`_steering` on the X-state of a correlation block that
passed its own rules, which leave :class:`XState` nothing to refuse or clamp.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ValidationError, _complex, _real

_SQRT3 = math.sqrt(3.0)
# weights of the product terms in the steering thresholds
_W_MINUS = (2.0 - _SQRT3) / 2.0
_W_PLUS = (2.0 + _SQRT3) / 2.0
# diagonal mixing weight of the certification map
_TAU_MIX = (3.0 - _SQRT3) / 6.0

# tolerance for trace and diagonal-range checks
_ATOL = 1e-12


def _each(fn, *args):
    """``fn`` at each point of the arrays among ``args``, one libm call per
    point.  A Python number among them is held at every point, and without
    any array ``fn`` is called once, as at one point.  A lone array is
    mapped straight from its list, with no column to build or hold: the
    same calls on the same values.

    numpy's own exp, erfc, hypot and complex abs can differ from libm in
    the last ulp, and the array kernels must agree with the scalar ones
    bit for bit.
    """
    if len(args) == 1 and isinstance(args[0], np.ndarray):
        return np.fromiter(map(fn, args[0].tolist()), float, args[0].size)
    columns, size = [], None
    for a in args:
        if isinstance(a, np.ndarray):
            columns.append(a.tolist())
            size = a.size
        else:
            columns.append(itertools.repeat(a))
    if size is None:
        return fn(*args)
    return np.fromiter(map(fn, *columns), float, size)


def _maximum(first, *rest):
    """``max`` at each point: a later value replaces the best so far only if
    greater, which is Python's choice among ties and nan."""
    for value in rest:
        first = np.where(value > first, value, first)
    return first


def _larger(first, second, third=-math.inf):
    """``max`` of two or three numbers by the same choice, at a third of the
    builtin's cost; the default third value is never greater than anything."""
    if second > first:
        first = second
    if third > first:
        first = third
    return first


def _complex_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    z = re.astype(complex)
    z.imag = im
    return z


def _abs(a):
    """``abs`` at each point.  The modulus of a real number only clears its
    sign bit, which numpy does as Python does (-0.0, nan and ±inf
    included), so an array of doubles takes ``np.abs``; a complex modulus
    is a rounded hypot, taken one point at a time."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64:
        return np.abs(a)
    return _each(abs, a)


# A domain check is an ordered table of rules: a function of a namespace of
# values that returns one row (holds, error type, message) per rule.  Each
# ``holds`` uses comparisons, ``abs``, ``&`` and products only (a real x is
# finite exactly where abs(x) < _INF, and a complex z exactly where
# z * 0.0 == 0.0, since inf * 0.0 and nan * 0.0 are nan in either part), so a
# table reads one point or each point of arrays; a message formats the
# values by name.  A namespace's ``verdict`` reads a table: one point raises
# the first rule it fails, and an array pass ANDs the rules into a verdict
# per point.
_INF = math.inf


def _holds(rules, values):
    """Whether each point of arrays passes every rule; called with numpy's
    floating-point warnings off.  A rule on held values alone holds as one
    Python bool, and one that holds takes no array operation."""
    ok = True
    for holds, _, _ in rules(values):
        if holds is not True:
            ok = holds if ok is True else ok & holds
    return ok


def _check(rules, values) -> bool:
    """True if one point's ``values`` pass every rule; otherwise the error of
    the first rule they fail is raised."""
    for holds, error, message in rules(values):
        if not holds:
            raise error(message.format_map(vars(values)))
    return True


# The elementwise functions every formula of the model is written over,
# once: at one point, and at each point of equal-length arrays.  Both round
# +, -, *, / and sqrt correctly, and the arrays call libm and Python's
# complex modulus one point at a time (a real modulus is exact in both), so
# both give the same bits.
_LIBM = {name: getattr(math, name) for name in ("exp", "erfc", "sin", "cos", "hypot")}
_ONE_POINT = SimpleNamespace(
    **_LIBM, sqrt=math.sqrt, abs=abs, max=_larger,
    where=lambda cond, a, b: a if cond else b, complex=complex,
    verdict=_check,
)
_ARRAYS = SimpleNamespace(
    **{name: functools.partial(_each, fn) for name, fn in _LIBM.items()},
    sqrt=np.sqrt, abs=_abs, max=_maximum, where=np.where, complex=_complex_array,
    verdict=_holds,
)


# the ends of a diagonal entry's range, [0, 1] widened by the tolerance
_LOW, _HIGH = -_ATOL, 1.0 + _ATOL


def _state_rules(v):
    """The rules of :class:`XState`, on the values :func:`_state` checks."""
    return (
        (abs(v.d11) < _INF, ValidationError, "d11 must be finite"),
        ((v.d11 >= _LOW) & (v.d11 <= _HIGH), ValidationError, "d11 = {d11!r} outside [0, 1]"),
        (abs(v.d22) < _INF, ValidationError, "d22 must be finite"),
        ((v.d22 >= _LOW) & (v.d22 <= _HIGH), ValidationError, "d22 = {d22!r} outside [0, 1]"),
        (abs(v.d33) < _INF, ValidationError, "d33 must be finite"),
        ((v.d33 >= _LOW) & (v.d33 <= _HIGH), ValidationError, "d33 = {d33!r} outside [0, 1]"),
        (abs(v.d44) < _INF, ValidationError, "d44 must be finite"),
        ((v.d44 >= _LOW) & (v.d44 <= _HIGH), ValidationError, "d44 = {d44!r} outside [0, 1]"),
        (abs(v.trace - 1.0) <= _ATOL, ValidationError, _TRACE_FAILS),
        (v.c14 * 0.0 == 0.0, ValidationError, "c14 must be finite"),
        (v.c23 * 0.0 == 0.0, ValidationError, "c23 must be finite"),
        # a finite coherence can still overflow its modulus; halved, it cannot
        ((abs(v.c14 * 0.5) * 2.0 < _INF) & (abs(v.c23 * 0.5) * 2.0 < _INF), ValidationError,
         "the moduli of c14 = {c14!r} and c23 = {c23!r} must be finite"),
    )


_TRACE_FAILS = f"trace = {{trace!r}}, expected 1 within {_ATOL}"


def _state(ns, d11, d22, d33, d44, c14, c23):
    """The fields :class:`XState` holds for these entries, d11 to c23 in
    order, the diagonal clamped at zero, and the ``verdict`` of
    :func:`_state_rules` on the entries and the trace of that clamped
    diagonal."""
    diagonal = (ns.max(d11, 0.0), ns.max(d22, 0.0), ns.max(d33, 0.0), ns.max(d44, 0.0))
    trace = diagonal[0] + diagonal[1] + diagonal[2] + diagonal[3]
    values = SimpleNamespace(d11=d11, d22=d22, d33=d33, d44=d44, trace=trace, c14=c14, c23=c23)
    return (*diagonal, c14, c23), ns.verdict(_state_rules, values)


_FIELDS = ("d11", "d22", "d33", "d44", "c14", "c23")


@dataclass(frozen=True)
class XState:
    """Two-qubit X-operator with unit trace.

    Parameters
    ----------
    d11, d22, d33, d44 : real
        Diagonal entries, read as floats, each in [0, 1] up to a 1e-12
        tolerance; values in [-1e-12, 0) are clamped to zero. The trace
        must equal 1 within 1e-12.
    c14, c23 : complex
        Antidiagonal coherences, read as complex numbers; text, None and
        numbers beyond the doubles are refused. Positivity of the full
        operator is not enforced: the leading-order harvested states have
        d44 = 0 with c14 != 0 and are only positive once higher orders are
        included.
    """

    d11: float
    d22: float
    d33: float
    d44: float
    c14: complex = 0j
    c23: complex = 0j

    def __post_init__(self):
        fields, _ = _state(
            _ONE_POINT, _real(self.d11, "d11"), _real(self.d22, "d22"), _real(self.d33, "d33"),
            _real(self.d44, "d44"), _complex(self.c14, "c14"), _complex(self.c23, "c23"),
        )
        # the checked fields, in one write past the frozen __setattr__
        self.__dict__.update(zip(_FIELDS, fields))


@dataclass(frozen=True)
class SteeringResult:
    """Both steering directions, their difference, and the concurrence."""

    s_ab: float
    s_ba: float
    asymmetry: float
    concurrence: float


def _concurrence(ns, p14, p23, m14, m23):
    """The concurrence from the products d11 d44 and d22 d33 and the moduli
    |c14| and |c23|."""
    return 2.0 * ns.max(0.0, m14 - ns.sqrt(p23), m23 - ns.sqrt(p14))


def _steering(ns, d11, d22, d33, d44, c14, c23):
    """|c23|, |c14|, S(A->B), S(B->A), their difference, the concurrence and
    the signed margins of A->B and B->A of an X-state, unchecked.

    The margins come from the factored thresholds: each is the larger of a
    coherence modulus less its threshold, via c14 and via c23, so a
    direction steers exactly where its margin is positive, and each
    direction is its margin clamped at 0."""
    m14, m23 = ns.abs(c14), ns.abs(c23)
    p14 = d11 * d44
    p23 = d22 * d33
    w_a = _W_MINUS * p14 + _W_PLUS * p23
    w_c = _W_PLUS * p14 + _W_MINUS * p23
    # cross term of g_a and g_c, plus g_b for A->B and minus g_b for B->A
    h_ab = 0.5 * (d11 * d22 + d33 * d44)
    h_ba = 0.5 * (d11 * d33 + d22 * d44)
    m_ab = ns.max(m14 - ns.sqrt(w_a + h_ab), m23 - ns.sqrt(w_c + h_ab))
    m_ba = ns.max(m14 - ns.sqrt(w_a + h_ba), m23 - ns.sqrt(w_c + h_ba))
    s_ab, s_ba = ns.max(0.0, m_ab), ns.max(0.0, m_ba)
    concurrence = _concurrence(ns, p14, p23, m14, m23)
    return m23, m14, s_ab, s_ba, s_ab - s_ba, concurrence, m_ab, m_ba


def _observed(state: XState) -> tuple[float, ...]:
    """:func:`_steering` of one :class:`XState`."""
    return _steering(
        _ONE_POINT, state.d11, state.d22, state.d33, state.d44, state.c14, state.c23
    )


def concurrence(state: XState) -> float:
    """Concurrence of an X-state.

    C = 2 max{0, |c14| - sqrt(d22 d33), |c23| - sqrt(d11 d44)}.
    The result is not capped at 1; operators outside the positivity cone
    can exceed the physical range and are reported as computed.
    """
    return _concurrence(_ONE_POINT, state.d11 * state.d44, state.d22 * state.d33,
                        abs(state.c14), abs(state.c23))


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
    return SteeringResult(*_observed(state)[2:6])


def _certification_map(ns, state, m11, m22, m33, m44) -> tuple:
    """The entries d11 to c23 of the state scaled by 1/sqrt(3), plus one mixing
    term per diagonal entry, for one state or arrays of states; each part of
    a coherence is divided on its own, as numpy divides an array."""
    return (
        state.d11 / _SQRT3 + m11,
        state.d22 / _SQRT3 + m22,
        state.d33 / _SQRT3 + m33,
        state.d44 / _SQRT3 + m44,
        ns.complex(state.c14.real / _SQRT3, state.c14.imag / _SQRT3),
        ns.complex(state.c23.real / _SQRT3, state.c23.imag / _SQRT3),
    )


def _tau_ab(ns, state) -> tuple:
    """The entries of :func:`build_tau_ab`'s operator."""
    m = _TAU_MIX * (state.d11 + state.d22)
    n = _TAU_MIX * (state.d33 + state.d44)
    return _certification_map(ns, state, m, m, n, n)


def _tau_ba(ns, state) -> tuple:
    """The entries of :func:`build_tau_ba`'s operator."""
    m = _TAU_MIX * (state.d11 + state.d33)
    n = _TAU_MIX * (state.d22 + state.d44)
    return _certification_map(ns, state, m, n, m, n)


def build_tau_ab(state: XState) -> XState:
    """Certification operator for the B->A direction.

    Its concurrence equals (2/sqrt(3)) S(B->A): the first two diagonal
    entries share one mixing term, the last two the other, so that
    3 tau22 tau33 = g_a - g_b and 3 tau11 tau44 = g_c - g_b.
    """
    return XState(*_tau_ab(_ONE_POINT, state))


def build_tau_ba(state: XState) -> XState:
    """Certification operator for the A->B direction.

    Same construction with the mixing pairs regrouped across the other
    subsystem: rows 1 and 3 share one term, rows 2 and 4 the other.
    """
    return XState(*_tau_ba(_ONE_POINT, state))

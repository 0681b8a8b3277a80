"""Closed-form joint state of two static detectors near a mirror.

Two pointlike two-level systems with Gaussian switching couple linearly
to a massless scalar field in the half space bounded by a perfectly
reflecting plane. At leading order in the coupling, the reduced
two-detector density matrix is an X-state whose entries reduce to the
Faddeeva function w(z) = exp(-z^2) erfc(-iz) evaluated at the direct and
image-charge separations. Every quantity here is dimensionless: lengths
and inverse gaps are measured in units of the switching width, and
probabilities carry the square of the dimensionless coupling.

The pair can be stacked parallel to the mirror (both detectors at the
same distance) or orthogonal to it (detector B farther by the detector
separation). The steering of the harvested X-state is evaluated by the
generic X-state formulas of :mod:`mirrorsteer.xstate_steering`.

Each formula and domain check is written once, over the namespaces of
:mod:`mirrorsteer.xstate_steering` extended by the spacelike kernel F
(:func:`_aux_f` at one point, :func:`_aux_f_array` over arrays), which every
entry reads; X also reads the timelike kernel G (:func:`_kernels`).
:func:`_block_evaluator`, built per sweep or search, holds what the swept
input does not move, computes the rest and reads the steering of each
point's X-state straight from the block, whose rules imply the X-state's.
"""

from __future__ import annotations

import collections
import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import PerturbativeValidityError, ValidationError, _complex, _member, _real
from .special_functions import _w_point, erfcx, wofz
from .xstate_steering import _ARRAYS as _ARRAY_OPS
from .xstate_steering import _ONE_POINT as _POINT_OPS
from .xstate_steering import (
    SteeringResult,
    XState,
    _check,
    _each,
    _INF,
    _rules,
    _steering,
    steering_asymmetry,
)

_SQRT_PI = math.sqrt(math.pi)
_INV_SQRT_PI = 1.0 / _SQRT_PI

# below this argument the 1/l prefactors are evaluated by Taylor branches
SERIES_CROSSOVER = 1e-3


class Alignment(enum.Enum):
    """Orientation of the detector axis relative to the mirror plane."""

    PARALLEL = "parallel"
    ORTHOGONAL = "orthogonal"


# The domain checks, each an ordered table of rules: see xstate_steering.


@_rules(
    (ValidationError, "coupling must be positive"),
    (ValidationError, "coupling = {coupling:g} is too large: lambda² overflows"),
)
def _coupling_rules(coupling):
    # every entry of the joint state carries the coupling squared
    return coupling > 0.0, abs(coupling * coupling) < _INF


@_rules((ValidationError, "boundary_distance must be positive"))
def _distance_rules(boundary_distance):
    return (boundary_distance > 0.0,)


@_rules(
    (ValidationError, "detector parameters must be finite"),
    (ValidationError, "energy gaps must be nonnegative"),
    (ValidationError,
     "omega_b must not be smaller than omega_a; name the detector with the larger gap B"),
    *_coupling_rules.rows,
    (ValidationError, "omega_b = {omega_b:g} is too large: 2 omega_b overflows"),
)
def _pair_rules(omega_a, omega_b, coupling):
    return (
        (abs(omega_a) < _INF) & (abs(omega_b) < _INF) & (abs(coupling) < _INF),
        (omega_a >= 0.0) & (omega_b >= 0.0),
        omega_b >= omega_a,
        *_coupling_rules(coupling),
        # the probability kernel reads each gap doubled
        abs(2.0 * omega_b) < _INF,
    )


@_rules((ValidationError, "omega must be a nonnegative real"), *_coupling_rules.rows)
def _free_space_rules(omega, coupling):
    return (abs(omega) < _INF) & (omega >= 0.0), *_coupling_rules(coupling)


@_rules(
    *_distance_rules.rows,
    (ValidationError, "boundary_distance {boundary_distance:g} overflows its image distance 2 dz"),
    *_free_space_rules.rows,
    (ValidationError, "omega = {omega:g} is too large: 2 omega overflows"),
)
def _transition_rules(omega, boundary_distance, coupling):
    return (
        *_distance_rules(boundary_distance),
        abs(2.0 * boundary_distance) < _INF,
        *_free_space_rules(omega, coupling),
        abs(2.0 * omega) < _INF,
    )


@_rules(
    (ValidationError, "geometry lengths must be finite"),
    (ValidationError, "separation must be positive"),
    *_distance_rules.rows,
    (ValidationError, "separation {separation:g} and boundary_distance {boundary_distance:g} "
                      "overflow the mirror-image distances"),
)
def _geometry_rules(separation, boundary_distance, image_separation, distance_b):
    """The rules of :class:`BoundaryGeometry`, on :func:`_mirror_lengths`."""
    return (
        (abs(separation) < _INF) & (abs(boundary_distance) < _INF),
        separation > 0.0,
        *_distance_rules(boundary_distance),
        # distances to the mirror images; B's own, 2 dz_B, bounds A's 2 dz
        (abs(image_separation) < _INF) & (abs(2.0 * distance_b) < _INF),
    )


_DIRECT_PHASE, _IMAGE_PHASE = (
    f"omega_b - omega_a = {{d:g}} at separation {{{length}:g}} overflows the kernel phase "
    "(omega_b - omega_a)·l/2"
    for length in ("separation", "image_separation")
)


@_rules((ValidationError, _DIRECT_PHASE), (ValidationError, _IMAGE_PHASE))
def _phase_rules(d, separation, image_separation, phase, image_phase):
    """The timelike kernel's phases at the separation and at the image
    separation must be finite."""
    return abs(phase) < _INF, abs(image_phase) < _INF


@_rules(
    (ValidationError, "probabilities must be finite"),
    (ValidationError, "probabilities must be nonnegative"),
    (PerturbativeValidityError,
     "p_a + p_b = {p_sum!r} >= 1: coupling too strong for the leading-order state"),
    (ValidationError,
     "c and x must be finite, got x = {x!r}: the separation is below the kernels' range"),
)
def _block_rules(p_a, p_b, p_sum, c, x):
    return (
        (abs(p_a) < _INF) & (abs(p_b) < _INF),
        (p_a >= 0.0) & (p_b >= 0.0),
        p_sum < 1.0,
        # Im G = e^{-l^2/4} cos(d l/2)/l overflows below l ~ 1e-308
        (c * 0.0 == 0.0) & (x * 0.0 == 0.0),
    )


@dataclass(frozen=True)
class DetectorPair:
    """Energy gaps and coupling of the two detectors, each read as a float.

    Labels follow the convention that B carries the larger gap, so
    ``omega_b >= omega_a`` is enforced at construction.
    """

    omega_a: float
    omega_b: float
    coupling: float = 1.0

    # each dataclass here checks its fields in its own __init__, which
    # dataclass keeps, and writes them once: see XState
    def __init__(self, omega_a: float, omega_b: float, coupling: float = 1.0):
        omega_a, omega_b = _real(omega_a, "omega_a"), _real(omega_b, "omega_b")
        coupling = _real(coupling, "coupling")
        _check(_pair_rules, (omega_a, omega_b, coupling))
        # the fields read as floats, written past the frozen __setattr__
        self.__dict__.update(omega_a=omega_a, omega_b=omega_b, coupling=coupling)


def _mirror_lengths(ns, alignment: Alignment, separation, boundary_distance) -> tuple:
    """The lengths the kernels read, in the order :func:`_geometry_rules`
    takes them: the separation, the mirror distance of A, the image
    separation (from one detector to the mirror image of the other) and the
    mirror distance of B."""
    if alignment is Alignment.PARALLEL:
        return (separation, boundary_distance, ns.hypot(separation, 2.0 * boundary_distance),
                boundary_distance)
    return (separation, boundary_distance, separation + 2.0 * boundary_distance,
            boundary_distance + separation)


@dataclass(frozen=True)
class BoundaryGeometry:
    """Placement of the pair relative to the mirror.

    ``separation`` is the detector-detector distance and
    ``boundary_distance`` the mirror distance of detector A (the nearer
    one in the orthogonal arrangement). Both are in switching-width
    units and must be positive.
    """

    alignment: Alignment
    separation: float
    boundary_distance: float

    def __init__(self, alignment: Alignment, separation: float, boundary_distance: float):
        alignment = _member(Alignment, alignment, "alignment")
        separation = _real(separation, "separation")
        boundary_distance = _real(boundary_distance, "boundary_distance")
        lengths = _mirror_lengths(_ONE_POINT, alignment, separation, boundary_distance)
        _check(_geometry_rules, lengths)
        # the checked fields, written past the frozen __setattr__, and the
        # checked lengths, which every kernel reads; not a field
        self.__dict__.update(alignment=alignment, separation=separation,
                             boundary_distance=boundary_distance, _lengths=lengths)


@dataclass(frozen=True)
class CorrelationBlock:
    """Entries of the leading-order joint state.

    ``p_a`` and ``p_b`` are the excitation probabilities, read as floats,
    ``c`` the cross-excitation correlation and ``x`` the double-excitation
    coherence, read as complex numbers. ``p_a + p_b < 1`` is required,
    otherwise the remaining ground-state population would be negative and
    the leading-order truncation is meaningless.
    """

    p_a: float
    p_b: float
    c: complex
    x: complex

    def __init__(self, p_a: float, p_b: float, c: complex, x: complex):
        p_a, p_b = _real(p_a, "p_a"), _real(p_b, "p_b")
        c, x = _complex(c, "c"), _complex(x, "x")
        _check(_block_rules, (p_a, p_b, p_a + p_b, c, x))
        # the checked fields, written past the frozen __setattr__
        self.__dict__.update(p_a=p_a, p_b=p_b, c=c, x=x)

    @property
    def trusted(self) -> bool:
        """Whether the leading-order truncation is quantitatively reliable."""
        return self.p_a + self.p_b < 0.5


def _w_moments(s: float):
    """Odd-order Taylor data of Im w(-l/2 + i s/2) around l = 0.

    Successive derivatives of w along the imaginary axis follow from
    w' = -2 z w + 2i/sqrt(pi) and alternate between real and imaginary;
    only the imaginary ones survive in the odd coefficients used below.
    """
    w0 = float(erfcx(s / 2.0))
    i1 = 2.0 * _INV_SQRT_PI - s * w0
    r2 = -2.0 * w0 + s * i1
    i3 = -s * r2 - 4.0 * i1
    r4 = s * i3 - 6.0 * r2
    i5 = -s * r4 - 8.0 * i3
    return i1, i3, i5


def _aux_f(l: float, s: float) -> float:
    """Spacelike correlation kernel at separation ``l > 0`` and gap ``s``.

    Continuous at l -> 0 with limit e^{-s^2/4}/sqrt(pi) - (s/2) erfc(s/2);
    decays algebraically like 2 e^{-s^2/4} / (sqrt(pi) (l^2 + s^2)) for
    large l.
    """
    if l < SERIES_CROSSOVER:
        damping = math.exp(-s * s / 4.0)
        # the moments overflow above s ≈ 1.78e147, long after the damping
        # underflows: 0·inf would be nan where the kernel is 0
        if damping == 0.0:
            return 0.0
        i1, i3, i5 = _w_moments(s)
        bracket = i1 / 2.0 + l * l * i3 / 48.0 + l**4 * i5 / 3840.0
        return damping * bracket
    # every route checks its inputs before F runs, so the argument is finite
    return -math.exp(-s * s / 4.0) / l * _w_point(complex(l / -2.0, s / 2.0)).imag


def _aux_f_array(l, s) -> np.ndarray:
    """:func:`_aux_f` at each point, bit for bit; either argument may be a
    Python number, held at every point.

    The Faddeeva branch runs through ``wofz`` on the whole array, and the
    points below ``SERIES_CROSSOVER`` are then overwritten with
    :func:`_aux_f` itself, its Taylor branch. Where no point lies below,
    the overwrite is skipped: it would write no point, so the result is
    the same. Below l ≈ 1e-308 the overwritten points' Faddeeva values can
    overflow; every array pass runs with numpy's overflow and invalid
    warnings off.
    """
    l = l if isinstance(l, np.ndarray) else np.full(s.size, l)
    z = (l / -2.0).astype(complex)
    z.imag = s / 2.0
    # a held gap stays one number, so its damping, negated, is one exp
    out = -_each(math.exp, -s * s / 4.0) / l * wofz(z).imag
    small = l < SERIES_CROSSOVER
    # a count, which costs a third of ``small.any()`` on a short array
    if np.count_nonzero(small):
        out[small] = _each(_aux_f, l[small], s[small] if isinstance(s, np.ndarray) else s)
    return out


# the elementwise functions and the spacelike kernel F
_ONE_POINT = SimpleNamespace(**vars(_POINT_OPS), F=_aux_f)
_ARRAYS = SimpleNamespace(**vars(_ARRAY_OPS), F=_aux_f_array)


def _kernels(ns, l, d, s):
    """The kernels at one separation ``l > 0``, direct or image: Re G, Im G
    and the phase d l/2 of the timelike kernel G at the gap difference
    ``d``, the phase being what :func:`_phase_rules` check, and the
    spacelike kernel F at the gap sum ``s``.

    G is exactly the spacelike kernel at the same gap plus elementary terms:
    G = F(l, d) + e^{-l^2/4} (sin(d l/2) + i cos(d l/2)) / l. The real
    part is continuous at l -> 0; the imaginary part diverges like 1/l
    there, the coincidence-limit singularity of the time-ordered
    correlator.
    """
    damping = ns.exp(-l * l / 4.0)
    # once the damping underflows (l above ~55) the phase is irrelevant and
    # taken as 0; below that a phase overflowing to inf, where cos and sin
    # are undefined, is read as 0 here and refused by its rule
    phase = ns.where(damping != 0.0, d * l / 2.0, 0.0)
    read = ns.where(abs(phase) < _INF, phase, 0.0)
    return (ns.F(l, d) + damping * ns.sin(read) / l, damping * ns.cos(read) / l, phase,
            ns.F(l, s))


def _free_space(ns, omega, coupling):
    """:func:`free_space_probability`, unchecked."""
    bracket = ns.exp(-omega * omega) - _SQRT_PI * omega * ns.erfc(omega)
    return coupling * coupling / (4.0 * math.pi) * bracket


def _probability(ns, free, pref, omega, boundary_distance):
    """:func:`transition_probability`, unchecked, from the free-space
    probability ``free`` and the prefactor lambda²/(4 sqrt(pi))."""
    p = free - pref * ns.F(2.0 * boundary_distance, 2.0 * omega)
    # the subtraction can undershoot zero by a few ulp right at the mirror
    return ns.max(p, 0.0)


def _pair_terms(ns, omega_a, omega_b, coupling) -> tuple:
    """The terms of the joint state that the pair alone fixes, in order: the
    gaps, their sum s and difference d, the prefactor, both free-space
    probabilities and the weights of C and X."""
    s = omega_a + omega_b
    # nonnegative by the labelling convention
    d = omega_b - omega_a
    pref = coupling * coupling / (4.0 * _SQRT_PI)
    return (omega_a, omega_b, s, d, pref,
            _free_space(ns, omega_a, coupling), _free_space(ns, omega_b, coupling),
            pref * ns.exp(-d * d / 4.0), -pref * ns.exp(-s * s / 4.0))


def free_space_probability(omega: float, coupling: float = 1.0) -> float:
    """Excitation probability of a single detector without any boundary."""
    omega, coupling = _real(omega, "omega"), _real(coupling, "coupling")
    _check(_free_space_rules, (omega, coupling))
    return _free_space(_ONE_POINT, omega, coupling)


def transition_probability(
    omega: float, boundary_distance: float, coupling: float = 1.0
) -> float:
    """Excitation probability of a single detector at distance dz from the mirror.

    Vanishes on the mirror and approaches the free-space value far from
    it; the residual boundary correction decays like 1/dz^2.
    """
    omega = _real(omega, "omega")
    boundary_distance = _real(boundary_distance, "boundary_distance")
    coupling = _real(coupling, "coupling")
    _check(_transition_rules, (omega, boundary_distance, coupling))
    free = _free_space(_ONE_POINT, omega, coupling)
    pref = coupling * coupling / (4.0 * _SQRT_PI)
    return _probability(_ONE_POINT, free, pref, omega, boundary_distance)


def _exact(value) -> bytes | str:
    """A key that two inputs share only if they hold the same bits: the
    bytes of an array, the hex digits of a number (which tell -0.0 from
    0.0, where ``==`` does not)."""
    return value.tobytes() if isinstance(value, np.ndarray) else float(value).hex()


def _kept(fn: Callable, store: dict) -> Callable:
    """The stage ``fn``, keeping each result in ``store`` keyed by ``fn``
    and the exact bits of every input it read, and taking a result from
    there when a later call reads the same inputs."""

    def kept(ns, *inputs):
        key = (fn, *map(_exact, inputs))
        if key not in store:
            store[key] = fn(ns, *inputs)
        return store[key]

    return kept


def _entries(ns, pair, lengths, p_a=None, p_b=None, direct=None,
             probability=_probability, kernels=_kernels) -> tuple[tuple, tuple]:
    """P_A, P_B, C and X of the joint state, unchecked, from the
    :func:`_pair_terms` and the :func:`_mirror_lengths`: the values
    :func:`_phase_rules` read, and those :func:`_block_rules` read, each
    tuple in its table's order.

    The stages past the pair terms: the probability of each detector at its
    mirror distance, the kernels at the direct separation, and those at the
    image separation.  An evaluator passes in, by position, the stages it
    holds fixed (None for the others), and may pass ``probability`` and
    ``kernels`` that keep their results (:func:`_kept`) for the first three;
    the image kernels, which differ from curve to curve, are always
    computed.
    """
    omega_a, omega_b, s, d, pref, free_a, free_b, c_weight, w = pair
    separation, boundary_distance, image_separation, distance_b = lengths
    if p_a is None:
        p_a = probability(ns, free_a, pref, omega_a, boundary_distance)
    if p_b is None:
        p_b = probability(ns, free_b, pref, omega_b, distance_b)
    if direct is None:
        direct = kernels(ns, separation, d, s)
    g_re, g_im, phase, f = direct
    h_re, h_im, image_phase, f_image = _kernels(ns, image_separation, d, s)
    re, im = g_re - h_re, g_im - h_im
    return (d, separation, image_separation, phase, image_phase), (
        p_a, p_b, p_a + p_b, c_weight * (f - f_image),
        # w (re + i im) as Python multiplies a float by a complex number,
        # whose zero terms set the sign of a zero part
        ns.complex(w * re - 0.0 * im, w * im + 0.0 * re),
    )


# the values of the block rules by name, which an evaluator returns
_Block = collections.namedtuple("_Block", _block_rules.names)


def correlations(pair: DetectorPair, geom: BoundaryGeometry) -> CorrelationBlock:
    """Entries of the joint state for the given pair and placement."""
    terms = _pair_terms(_ONE_POINT, pair.omega_a, pair.omega_b, pair.coupling)
    phases, (p_a, p_b, _, c, x) = _entries(_ONE_POINT, terms, geom._lengths)
    _check(_phase_rules, phases)
    return CorrelationBlock(p_a, p_b, c, x)


def _block_evaluator(
    pair: DetectorPair, geom: BoundaryGeometry, swept: str, store: dict | None = None
) -> Callable[[float | np.ndarray], tuple[tuple, tuple, bool | np.ndarray]]:
    """The values of the block rules, the observables of their X-state and
    the verdict as a function of one input, ``swept``: "omega_b",
    "separation" or "boundary_distance", the others being those of ``pair``
    and ``geom``.  Built once per search or sweep.

    What the swept input does not move is computed here, once, as one point:
    the pair terms unless omega_b is swept, P_A unless the mirror distance
    is, P_B along the parallel separation, and the direct kernels along the
    mirror distance.  The evaluator takes a Python float, or an array of
    values with numpy's floating-point warnings off, and reads the formulas
    and the rules of :class:`DetectorPair` (omega_b swept only),
    :class:`BoundaryGeometry` (a length swept only), the kernel phases and
    :class:`CorrelationBlock`, in that order, through the namespace the
    value's type picks.  A point passes its values by position, as tuples:
    the gaps or the lengths its first rules read, the pair terms along
    omega_b, and the phase and block values of :func:`_entries`, each rule
    table returning a tuple of predicates.  It builds no namespace and no
    dataclass; only a failed rule builds the name-to-value dict its message
    reads.  The X-state of a block that passes is read straight through
    ``_steering``: once the block's rules hold, its diagonal
    1 - p_a - p_b, p_b, p_a, 0 lies in [0, 1] with unit trace, and its
    coherences x and c are finite; c is real and Re x stays bounded, so
    their moduli are finite too, and no rule of :class:`XState` can fail
    there.  Nor can its clamps at zero change an
    entry: p_a, p_b and 0 are read as they are, and with p_a and p_b
    nonnegative and p_a + p_b < 1 after rounding, 1 - p_a exceeds p_b before
    rounding and so is at least p_b after it, and d11 = (1 - p_a) - p_b is
    +0.0 or more.  It returns ``(values, observed, ok)``: ``values`` the
    block values p_a, p_b, p_sum, c and x by name (``_Block``), ``observed``
    P_A, P_B and the columns of ``_steering``, each bit for bit the
    one-point route's; a value held fixed stays one number.  At one point a
    failed rule is raised as the dataclasses raise it, and ``ok`` is True;
    over an array ``ok`` is true exactly at the points that pass, and the
    values elsewhere are placeholders.

    The evaluators of one figure's curves share a ``store``, a dict that
    lives as long as the figure's build.  Each stage the evaluator does not
    hold is kept in it (the pair terms along omega_b, each detector's
    probability and the direct kernels; not the image kernels, which differ
    from curve to curve), keyed by its function and the exact bits of every
    input it reads (:func:`_kept`), and a later curve whose stage reads the
    same inputs takes it from there.
    """
    omega_a, coupling, alignment = pair.omega_a, pair.coupling, geom.alignment
    ns, lengths = _ONE_POINT, geom._lengths
    separation, boundary_distance, _, distance_b = lengths
    terms = _pair_terms(ns, omega_a, pair.omega_b, coupling)
    _, omega_b, s, d, pref, free_a, free_b, _, _ = terms
    p_a = p_b = direct = None
    if swept != "boundary_distance":
        p_a = _probability(ns, free_a, pref, omega_a, boundary_distance)
    pair_terms, probability, kernels = _pair_terms, _probability, _kernels
    if store is not None:
        pair_terms, probability, kernels = (
            _kept(fn, store) for fn in (_pair_terms, _probability, _kernels))
    # the rules on the swept input and the values they read: the gaps, or the
    # lengths, which the stages then read; a refused point of an array is
    # computed at a placeholder input, where no kernel overflows or leaves
    # its domain
    gap_swept = swept == "omega_b"
    if gap_swept:
        rules, placeholder = _pair_rules, omega_a
        inputs = lambda ns, wb: (omega_a, wb, coupling)
    else:
        rules, placeholder = _geometry_rules, 1.0
        if swept == "boundary_distance":
            direct = _kernels(ns, separation, d, s)
            inputs = lambda ns, dz: _mirror_lengths(ns, alignment, separation, dz)
        else:
            if alignment is Alignment.PARALLEL:
                p_b = _probability(ns, free_b, pref, omega_b, distance_b)
            inputs = lambda ns, l: _mirror_lengths(ns, alignment, l, boundary_distance)

    def at(value):
        ns = _ARRAYS if isinstance(value, np.ndarray) else _ONE_POINT
        v = inputs(ns, value)
        ok = ns.verdict(rules, v)
        if ok is not True and not ok.all():
            v = inputs(ns, np.where(ok, value, placeholder))
        if gap_swept:
            t, lens = pair_terms(ns, *v), lengths
        else:
            t, lens = terms, v
        phases, block = _entries(ns, t, lens, p_a, p_b, direct, probability, kernels)
        ok = ok & ns.verdict(_phase_rules, phases) & ns.verdict(_block_rules, block)
        pa, pb, _, c, x = block
        if ok is not True and not ok.all():
            # the modulus of a refused coherence can overflow abs
            c, x = ns.where(ok, c, 0.0), ns.where(ok, x, 0.0)
        columns = _steering(ns, *_state_entries(pa, pb, c, x))
        # the block values by name, through tuple's own constructor: the named
        # tuple's __new__ is a Python-level call that would pass them on
        return tuple.__new__(_Block, block), (pa, pb, *columns), ok

    return at
def boundary_free_correlations(pair: DetectorPair, separation: float) -> CorrelationBlock:
    """Joint-state entries for the same pair in empty space (no image terms)."""
    l = _real(separation, "separation")
    if not math.isfinite(l) or l <= 0.0:
        raise ValidationError("separation must be a positive real")
    _, _, s, d, _, free_a, free_b, c_weight, x_weight = _pair_terms(
        _ONE_POINT, pair.omega_a, pair.omega_b, pair.coupling)
    g_re, g_im, phase, f = _kernels(_ONE_POINT, l, d, s)
    # the direct phase read also as the image's, which then fails only
    # where the direct one, checked first, already has
    _check(_phase_rules, (d, l, l, phase, phase))
    return CorrelationBlock(
        p_a=free_a,
        p_b=free_b,
        c=c_weight * f,
        x=x_weight * complex(g_re, g_im),
    )


def _state_entries(p_a, p_b, c, x):
    """The X-state entries d11 to c23 of a leading-order block, at one
    point or at each point of arrays."""
    return 1.0 - p_a - p_b, p_b, p_a, 0.0, x, c


def state_from_block(block: CorrelationBlock) -> XState:
    """Assemble the leading-order X-state from its correlation entries."""
    return XState(*_state_entries(block.p_a, block.p_b, block.c, block.x))


def joint_state(pair: DetectorPair, geom: BoundaryGeometry) -> XState:
    """Leading-order joint density matrix of the pair near the mirror."""
    return state_from_block(correlations(pair, geom))


def steering_from_block(block: CorrelationBlock) -> SteeringResult:
    """Directional steering of a leading-order harvested block."""
    return steering_asymmetry(state_from_block(block))


def harvested_steering(pair: DetectorPair, geom: BoundaryGeometry) -> SteeringResult:
    """Directional steering harvested by the pair near the mirror."""
    return steering_from_block(correlations(pair, geom))


def boundary_free_steering(pair: DetectorPair, separation: float) -> SteeringResult:
    """Directional steering harvested by the same pair in empty space."""
    return steering_from_block(boundary_free_correlations(pair, separation))


def config_difference(
    pair: DetectorPair, separation: float, boundary_distance: float
) -> tuple[float, float]:
    """Alignment sensitivity of the steering at fixed pair and lengths.

    Returns (orthogonal - parallel) for the A->B and B->A directions, in
    that order.
    """
    ortho = harvested_steering(
        pair, BoundaryGeometry(Alignment.ORTHOGONAL, separation, boundary_distance)
    )
    par = harvested_steering(
        pair, BoundaryGeometry(Alignment.PARALLEL, separation, boundary_distance)
    )
    return (ortho.s_ab - par.s_ab, ortho.s_ba - par.s_ba)

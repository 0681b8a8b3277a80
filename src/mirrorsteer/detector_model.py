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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.special import erfcx, wofz

from .errors import PerturbativeValidityError, ValidationError
from .special_functions import faddeeva_w
from .xstate_steering import _ARRAYS as _ARRAY_OPS
from .xstate_steering import _ONE_POINT as _POINT_OPS
from .xstate_steering import (
    SteeringResult,
    XState,
    _check,
    _each,
    _INF,
    _holds,
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


def _coupling_rules(v):
    return (
        (v.coupling > 0.0, ValidationError, "coupling must be positive"),
        # every entry of the joint state carries the coupling squared
        (abs(v.coupling * v.coupling) < _INF, ValidationError,
         "coupling = {coupling:g} is too large: lambda² overflows"),
    )


def _positive_distance_rule(v) -> tuple:
    return (v.boundary_distance > 0.0, ValidationError, "boundary_distance must be positive")


def _pair_rules(v):
    return (
        ((abs(v.omega_a) < _INF) & (abs(v.omega_b) < _INF) & (abs(v.coupling) < _INF),
         ValidationError, "detector parameters must be finite"),
        ((v.omega_a >= 0.0) & (v.omega_b >= 0.0), ValidationError,
         "energy gaps must be nonnegative"),
        (v.omega_b >= v.omega_a, ValidationError,
         "omega_b must not be smaller than omega_a; name the detector with the larger gap B"),
        *_coupling_rules(v),
        # the probability kernel reads each gap doubled
        (abs(2.0 * v.omega_b) < _INF, ValidationError,
         "omega_b = {omega_b:g} is too large: 2 omega_b overflows"),
    )


def _free_space_rules(v):
    return (
        ((abs(v.omega) < _INF) & (v.omega >= 0.0), ValidationError,
         "omega must be a nonnegative real"),
        *_coupling_rules(v),
    )


def _transition_rules(v):
    return (
        _positive_distance_rule(v),
        (abs(2.0 * v.boundary_distance) < _INF, ValidationError,
         "boundary_distance {boundary_distance:g} overflows its image distance 2 dz"),
        *_free_space_rules(v),
        (abs(2.0 * v.omega) < _INF, ValidationError,
         "omega = {omega:g} is too large: 2 omega overflows"),
    )


def _geometry_rules(v):
    """The rules of :class:`BoundaryGeometry`, on :func:`_mirror_lengths`."""
    return (
        ((abs(v.separation) < _INF) & (abs(v.boundary_distance) < _INF), ValidationError,
         "geometry lengths must be finite"),
        (v.separation > 0.0, ValidationError, "separation must be positive"),
        _positive_distance_rule(v),
        # distances to the mirror images; B's own, 2 dz_B, bounds A's 2 dz
        ((abs(v.image_separation) < _INF) & (abs(2.0 * v.distance_b) < _INF), ValidationError,
         "separation {separation:g} and boundary_distance {boundary_distance:g} "
         "overflow the mirror-image distances"),
    )


_DIRECT_PHASE, _IMAGE_PHASE = (
    f"omega_b - omega_a = {{d:g}} at separation {{{length}:g}} overflows the kernel phase "
    "(omega_b - omega_a)·l/2"
    for length in ("separation", "image_separation")
)


def _direct_phase_rules(v):
    return ((abs(v.phase) < _INF, ValidationError, _DIRECT_PHASE),)


def _phase_rules(v):
    """The timelike kernel's phases at the separation and at the image
    separation must be finite."""
    return (*_direct_phase_rules(v), (abs(v.image_phase) < _INF, ValidationError, _IMAGE_PHASE))


def _block_rules(v):
    return (
        ((abs(v.p_a) < _INF) & (abs(v.p_b) < _INF), ValidationError,
         "probabilities must be finite"),
        ((v.p_a >= 0.0) & (v.p_b >= 0.0), ValidationError, "probabilities must be nonnegative"),
        (v.p_sum < 1.0, PerturbativeValidityError,
         "p_a + p_b = {p_sum:.3g} >= 1: coupling too strong for the leading-order state"),
    )


def _correlation_rules(v):
    """Every rule the one-point route checks up to the correlation block, in order."""
    return (*_pair_rules(v), *_geometry_rules(v), *_phase_rules(v), *_block_rules(v))


@dataclass(frozen=True)
class DetectorPair:
    """Energy gaps and coupling of the two detectors.

    Labels follow the convention that B carries the larger gap, so
    ``omega_b >= omega_a`` is enforced at construction.
    """

    omega_a: float
    omega_b: float
    coupling: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "omega_a", float(self.omega_a))
        object.__setattr__(self, "omega_b", float(self.omega_b))
        object.__setattr__(self, "coupling", float(self.coupling))
        _check(_pair_rules, self)


def _mirror_lengths(ns, alignment: Alignment, separation, boundary_distance) -> SimpleNamespace:
    """The lengths the kernels read: the separation, the image separation
    (from one detector to the mirror image of the other), and the mirror
    distances of A and B."""
    if alignment is Alignment.PARALLEL:
        image, distance_b = ns.hypot(separation, 2.0 * boundary_distance), boundary_distance
    else:
        image, distance_b = separation + 2.0 * boundary_distance, boundary_distance + separation
    return SimpleNamespace(separation=separation, boundary_distance=boundary_distance,
                           image_separation=image, distance_b=distance_b)


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

    def __post_init__(self):
        alignment = Alignment(self.alignment)
        lengths = _mirror_lengths(
            _ONE_POINT, alignment, float(self.separation), float(self.boundary_distance)
        )
        _check(_geometry_rules, lengths)
        object.__setattr__(self, "alignment", alignment)
        object.__setattr__(self, "separation", lengths.separation)
        object.__setattr__(self, "boundary_distance", lengths.boundary_distance)
        # the checked lengths, which every kernel reads; not a field
        object.__setattr__(self, "_lengths", lengths)

    def image_separation(self) -> float:
        """Distance from one detector to the mirror image of the other."""
        return self._lengths.image_separation

    def distance_b(self) -> float:
        """Mirror distance of detector B."""
        return self._lengths.distance_b


@dataclass(frozen=True)
class CorrelationBlock:
    """Entries of the leading-order joint state.

    ``p_a`` and ``p_b`` are the excitation probabilities, ``c`` the
    cross-excitation correlation and ``x`` the double-excitation
    coherence. ``p_a + p_b < 1`` is required, otherwise the remaining
    ground-state population would be negative and the leading-order
    truncation is meaningless.
    """

    p_a: float
    p_b: float
    c: complex
    x: complex

    def __post_init__(self):
        pa = float(self.p_a)
        pb = float(self.p_b)
        _check(_block_rules, SimpleNamespace(p_a=pa, p_b=pb, p_sum=pa + pb))
        object.__setattr__(self, "p_a", pa)
        object.__setattr__(self, "p_b", pb)
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "x", complex(self.x))

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
        i1, i3, i5 = _w_moments(s)
        bracket = i1 / 2.0 + l * l * i3 / 48.0 + l**4 * i5 / 3840.0
        return math.exp(-s * s / 4.0) * bracket
    return -(math.exp(-s * s / 4.0) / l) * faddeeva_w(complex(-l / 2.0, s / 2.0)).imag


def _aux_f_array(l: np.ndarray, s: np.ndarray) -> np.ndarray:
    """:func:`_aux_f` at each point, bit for bit.

    The Faddeeva branch runs through ``wofz`` on the whole array; the
    Taylor branch is :func:`_aux_f` itself, called on just the points
    below ``SERIES_CROSSOVER``.
    """
    out = np.empty(l.size)
    small = l < SERIES_CROSSOVER
    out[small] = list(map(_aux_f, l[small].tolist(), s[small].tolist()))
    l, s = l[~small], s[~small]
    z = (-l / 2.0).astype(complex)
    z.imag = s / 2.0
    out[~small] = -(_each(math.exp, -s * s / 4.0) / l) * wofz(z).imag
    return out


# the elementwise functions and the spacelike kernel F
_ONE_POINT = SimpleNamespace(**vars(_POINT_OPS), F=_aux_f)
_ARRAYS = SimpleNamespace(**vars(_ARRAY_OPS), F=_aux_f_array)


def _timelike(ns, l, d):
    """Timelike correlation kernel at separation ``l > 0`` and gap ``d``:
    Re G, Im G and the phase d l/2, which :func:`_phase_rules` check.

    Exactly the spacelike kernel at the same gap plus elementary terms:
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
    return ns.F(l, d) + damping * ns.sin(read) / l, damping * ns.cos(read) / l, phase


def _aux_g(l: float, d: float) -> complex:
    """:func:`_timelike` at one point, as a complex number; a phase that
    overflows is refused."""
    re, im, phase = _timelike(_ONE_POINT, l, d)
    _check(_direct_phase_rules, SimpleNamespace(d=d, separation=l, phase=phase))
    return complex(re, im)


def _free_space(ns, omega, coupling):
    """:func:`free_space_probability`, unchecked."""
    bracket = ns.exp(-omega * omega) - _SQRT_PI * omega * ns.erfc(omega)
    return coupling * coupling / (4.0 * math.pi) * bracket


def _probability(ns, omega, boundary_distance, coupling):
    """:func:`transition_probability`, unchecked."""
    image = ns.F(2.0 * boundary_distance, 2.0 * omega)
    p = _free_space(ns, omega, coupling) - coupling * coupling / (4.0 * _SQRT_PI) * image
    # the subtraction can undershoot zero by a few ulp right at the mirror
    return ns.max(p, 0.0)


def free_space_probability(omega: float, coupling: float = 1.0) -> float:
    """Excitation probability of a single detector without any boundary."""
    v = SimpleNamespace(omega=float(omega), coupling=float(coupling))
    _check(_free_space_rules, v)
    return _free_space(_ONE_POINT, v.omega, v.coupling)


def transition_probability(
    omega: float, boundary_distance: float, coupling: float = 1.0
) -> float:
    """Excitation probability of a single detector at distance dz from the mirror.

    Vanishes on the mirror and approaches the free-space value far from
    it; the residual boundary correction decays like 1/dz^2.
    """
    v = SimpleNamespace(omega=float(omega), boundary_distance=float(boundary_distance),
                        coupling=float(coupling))
    _check(_transition_rules, v)
    return _probability(_ONE_POINT, v.omega, v.boundary_distance, v.coupling)


def _entries(ns, omega_a, omega_b, coupling, lengths: SimpleNamespace) -> SimpleNamespace:
    """P_A, P_B, C and X of the joint state, unchecked, with the values the
    rules on the kernel phases and on the block read."""
    l, img = lengths.separation, lengths.image_separation
    s = omega_a + omega_b
    # nonnegative by the labelling convention
    d = omega_b - omega_a
    pref = coupling * coupling / (4.0 * _SQRT_PI)
    p_a = _probability(ns, omega_a, lengths.boundary_distance, coupling)
    p_b = _probability(ns, omega_b, lengths.distance_b, coupling)
    g_re, g_im, phase = _timelike(ns, l, d)
    h_re, h_im, image_phase = _timelike(ns, img, d)
    w, re, im = -pref * ns.exp(-s * s / 4.0), g_re - h_re, g_im - h_im
    return SimpleNamespace(
        separation=l, image_separation=img, d=d, phase=phase, image_phase=image_phase,
        p_a=p_a, p_b=p_b, p_sum=p_a + p_b,
        c=pref * ns.exp(-d * d / 4.0) * (ns.F(l, s) - ns.F(img, s)),
        # w (re + i im) as Python multiplies a float by a complex number,
        # whose zero terms set the sign of a zero part
        x=ns.complex(w * re - 0.0 * im, w * im + 0.0 * re),
    )


def correlations(pair: DetectorPair, geom: BoundaryGeometry) -> CorrelationBlock:
    """Entries of the joint state for the given pair and placement."""
    values = _entries(_ONE_POINT, pair.omega_a, pair.omega_b, pair.coupling, geom._lengths)
    _check(_phase_rules, values)
    return CorrelationBlock(p_a=values.p_a, p_b=values.p_b, c=complex(values.c), x=values.x)


def correlation_arrays(
    omega_a: float,
    omega_b: np.ndarray,
    coupling: float,
    alignment: Alignment,
    separation: np.ndarray,
    boundary_distance: np.ndarray,
) -> tuple[SimpleNamespace, np.ndarray]:
    """:func:`correlations` at each point of equal-length arrays, bit for bit.

    The same formulas as the one-point route, over array namespaces, and
    the same rule tables.  Returns a namespace of arrays, holding the
    entries p_a, p_b, c (real) and x (complex) and every value the rules
    of :class:`DetectorPair`, :class:`BoundaryGeometry`, the kernel phase
    and :class:`CorrelationBlock` read, then the boolean column ``ok``,
    true exactly at the points that pass them all.  Every point is
    computed; where ``ok`` is false the entries are placeholders.
    """
    # overflow and nan give inf and nan, as in Python float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        lengths = _mirror_lengths(_ARRAYS, Alignment(alignment), separation, boundary_distance)
        inputs = SimpleNamespace(omega_a=omega_a, omega_b=omega_b, coupling=coupling,
                                 **vars(lengths))
        ok = _holds(_pair_rules, inputs) & _holds(_geometry_rules, inputs)
        # a point refused here is computed at placeholder gaps and lengths,
        # where no scalar kernel overflows or leaves its domain
        held = SimpleNamespace(**{k: np.where(ok, v, 1.0) for k, v in vars(lengths).items()})
        omegas = np.full(omega_b.size, omega_a), np.where(ok, omega_b, omega_a)
        entries = _entries(_ARRAYS, *omegas, coupling, held)
        values = SimpleNamespace(**(vars(entries) | vars(inputs)))
        ok &= _holds(_phase_rules, values) & _holds(_block_rules, values)
    return values, ok


def boundary_free_correlations(pair: DetectorPair, separation: float) -> CorrelationBlock:
    """Joint-state entries for the same pair in empty space (no image terms)."""
    l = float(separation)
    if not math.isfinite(l) or l <= 0.0:
        raise ValidationError("separation must be a positive real")
    lam = pair.coupling
    pref = lam * lam / (4.0 * _SQRT_PI)
    s = pair.omega_a + pair.omega_b
    # nonnegative by the labelling convention
    d = pair.omega_b - pair.omega_a
    return CorrelationBlock(
        p_a=free_space_probability(pair.omega_a, lam),
        p_b=free_space_probability(pair.omega_b, lam),
        c=complex(pref * math.exp(-d * d / 4.0) * _aux_f(l, s)),
        x=-pref * math.exp(-s * s / 4.0) * _aux_g(l, d),
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

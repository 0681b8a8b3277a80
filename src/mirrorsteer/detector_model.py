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

import numpy as np
from scipy.special import erfcx, wofz

from .errors import PerturbativeValidityError, ValidationError
from .special_functions import faddeeva_w
from .xstate_steering import SteeringResult, XState, _each, steering_asymmetry

_SQRT_PI = math.sqrt(math.pi)
_INV_SQRT_PI = 1.0 / _SQRT_PI

# below this argument the 1/l prefactors are evaluated by Taylor branches
SERIES_CROSSOVER = 1e-3


class Alignment(enum.Enum):
    """Orientation of the detector axis relative to the mirror plane."""

    PARALLEL = "parallel"
    ORTHOGONAL = "orthogonal"


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
        wa = float(self.omega_a)
        wb = float(self.omega_b)
        lam = float(self.coupling)
        if not (math.isfinite(wa) and math.isfinite(wb) and math.isfinite(lam)):
            raise ValidationError("detector parameters must be finite")
        if wa < 0.0 or wb < 0.0:
            raise ValidationError("energy gaps must be nonnegative")
        if wb < wa:
            raise ValidationError(
                "omega_b must not be smaller than omega_a; name the detector "
                "with the larger gap B"
            )
        if lam <= 0.0:
            raise ValidationError("coupling must be positive")
        # every entry of the joint state carries the coupling squared
        if not math.isfinite(lam * lam):
            raise ValidationError(f"coupling = {lam:g} is too large: lambda² overflows")
        # the probability kernel reads each gap doubled
        if not math.isfinite(2.0 * wb):
            raise ValidationError(f"omega_b = {wb:g} is too large: 2 omega_b overflows")
        object.__setattr__(self, "omega_a", wa)
        object.__setattr__(self, "omega_b", wb)
        object.__setattr__(self, "coupling", lam)


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
        object.__setattr__(self, "alignment", Alignment(self.alignment))
        sep = float(self.separation)
        dz = float(self.boundary_distance)
        if not (math.isfinite(sep) and math.isfinite(dz)):
            raise ValidationError("geometry lengths must be finite")
        if sep <= 0.0:
            raise ValidationError("separation must be positive")
        if dz <= 0.0:
            raise ValidationError("boundary_distance must be positive")
        object.__setattr__(self, "separation", sep)
        object.__setattr__(self, "boundary_distance", dz)
        # distances to the mirror images; B's own, 2 dz_B, bounds A's 2 dz
        images = (self.image_separation(), 2.0 * self.distance_b())
        if not all(map(math.isfinite, images)):
            raise ValidationError(
                f"separation {sep:g} and boundary_distance {dz:g} overflow the "
                "mirror-image distances"
            )

    def image_separation(self) -> float:
        """Distance from one detector to the mirror image of the other."""
        if self.alignment is Alignment.PARALLEL:
            return math.hypot(self.separation, 2.0 * self.boundary_distance)
        return self.separation + 2.0 * self.boundary_distance

    def distance_b(self) -> float:
        """Mirror distance of detector B."""
        if self.alignment is Alignment.PARALLEL:
            return self.boundary_distance
        return self.boundary_distance + self.separation


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
        if not (math.isfinite(pa) and math.isfinite(pb)):
            raise ValidationError("probabilities must be finite")
        if pa < 0.0 or pb < 0.0:
            raise ValidationError("probabilities must be nonnegative")
        if pa + pb >= 1.0:
            raise PerturbativeValidityError(
                f"p_a + p_b = {pa + pb:.3g} >= 1: coupling too strong for the "
                "leading-order state"
            )
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


def _aux_g(l: float, d: float) -> complex:
    """Timelike correlation kernel at separation ``l > 0`` and gap ``d``.

    Exactly the spacelike kernel at the same gap plus elementary terms:
    G = F(l, d) + e^{-l^2/4} (sin(d l/2) + i cos(d l/2)) / l. The real
    part is continuous at l -> 0; the imaginary part diverges like 1/l
    there, the coincidence-limit singularity of the time-ordered
    correlator.
    """
    damping = math.exp(-l * l / 4.0)
    # once the damping underflows (l above ~55) the phase is irrelevant; below
    # that a phase overflowing to inf, where cos and sin are undefined, is refused
    phase = d * l / 2.0 if damping else 0.0
    if not math.isfinite(phase):
        raise ValidationError(
            f"omega_b - omega_a = {d:g} at separation {l:g} overflows the "
            "kernel phase (omega_b - omega_a)·l/2"
        )
    return complex(
        _aux_f(l, d) + damping * math.sin(phase) / l, damping * math.cos(phase) / l
    )


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


def _aux_g_array(l: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real and imaginary parts of :func:`_aux_g` at each point, bit for bit,
    and the boolean column ``ok``, false where its phase check fails; there
    the phase is replaced by 0, since sin and cos are undefined at inf."""
    damping = _each(math.exp, -l * l / 4.0)
    phase = np.where(damping != 0.0, d * l / 2.0, 0.0)
    ok = np.isfinite(phase)
    phase[~ok] = 0.0
    real = _aux_f_array(l, d) + damping * _each(math.sin, phase) / l
    return real, damping * _each(math.cos, phase) / l, ok


def free_space_probability(omega: float, coupling: float = 1.0) -> float:
    """Excitation probability of a single detector without any boundary."""
    omega = float(omega)
    coupling = float(coupling)
    if not math.isfinite(omega) or omega < 0.0:
        raise ValidationError("omega must be a nonnegative real")
    if not math.isfinite(coupling) or coupling <= 0.0:
        raise ValidationError("coupling must be positive")
    bracket = math.exp(-omega * omega) - _SQRT_PI * omega * math.erfc(omega)
    return coupling * coupling / (4.0 * math.pi) * bracket


def transition_probability(
    omega: float, boundary_distance: float, coupling: float = 1.0
) -> float:
    """Excitation probability of a single detector at distance dz from the mirror.

    Vanishes on the mirror and approaches the free-space value far from
    it; the residual boundary correction decays like 1/dz^2.
    """
    dz = float(boundary_distance)
    if not math.isfinite(dz) or dz <= 0.0:
        raise ValidationError("boundary_distance must be positive")
    if not math.isfinite(2.0 * dz):
        raise ValidationError(f"boundary_distance {dz:g} overflows its image distance 2 dz")
    free = free_space_probability(omega, coupling)
    omega = float(omega)
    if not math.isfinite(2.0 * omega):
        raise ValidationError(f"omega = {omega:g} is too large: 2 omega overflows")
    coupling = float(coupling)
    p = free - coupling * coupling / (4.0 * _SQRT_PI) * _aux_f(2.0 * dz, 2.0 * omega)
    # the subtraction can undershoot zero by a few ulp right at the mirror
    return max(p, 0.0)


def correlations(pair: DetectorPair, geom: BoundaryGeometry) -> CorrelationBlock:
    """Entries of the joint state for the given pair and placement."""
    lam = pair.coupling
    p_a = transition_probability(pair.omega_a, geom.boundary_distance, lam)
    p_b = transition_probability(pair.omega_b, geom.distance_b(), lam)
    l = geom.separation
    img = geom.image_separation()
    s = pair.omega_a + pair.omega_b
    # nonnegative by the labelling convention
    d = pair.omega_b - pair.omega_a
    pref = lam * lam / (4.0 * _SQRT_PI)
    c = pref * math.exp(-d * d / 4.0) * (_aux_f(l, s) - _aux_f(img, s))
    x = -pref * math.exp(-s * s / 4.0) * (_aux_g(l, d) - _aux_g(img, d))
    return CorrelationBlock(p_a=p_a, p_b=p_b, c=complex(c), x=x)


def _probability_array(omega: np.ndarray, dz: np.ndarray, coupling: float) -> np.ndarray:
    """:func:`transition_probability` at each point, bit for bit, unchecked."""
    bracket = _each(math.exp, -omega * omega) - _SQRT_PI * omega * _each(math.erfc, omega)
    free = coupling * coupling / (4.0 * math.pi) * bracket
    p = free - coupling * coupling / (4.0 * _SQRT_PI) * _aux_f_array(2.0 * dz, 2.0 * omega)
    return np.where(p < 0.0, 0.0, p)


def correlation_arrays(
    omega_a: float,
    omega_b: np.ndarray,
    coupling: float,
    alignment: Alignment,
    separation: np.ndarray,
    boundary_distance: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`correlations` at each point of equal-length arrays, bit for bit.

    ``omega_a`` and ``coupling`` are those of a valid :class:`DetectorPair`.
    Returns the columns p_a, p_b, c (real) and x (complex), then the
    boolean column ``ok``, true exactly at the points that pass the checks
    of :class:`DetectorPair`, :class:`BoundaryGeometry`,
    :class:`CorrelationBlock` and the phase check of :func:`_aux_g`. Every
    point is computed; where ``ok`` is false the columns are placeholders.
    """
    sep, dz = separation, boundary_distance
    # overflow and nan give inf and nan, as in Python float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        if Alignment(alignment) is Alignment.PARALLEL:
            img, dz_b = _each(math.hypot, sep, 2.0 * dz), dz
        else:
            img, dz_b = sep + 2.0 * dz, dz + sep
        ok = (omega_b >= omega_a) & np.isfinite(2.0 * omega_b)
        ok &= (sep > 0.0) & (dz > 0.0) & np.isfinite(img) & np.isfinite(2.0 * dz_b)
        # a point refused here is computed at placeholder gaps and lengths,
        # where no scalar kernel overflows or leaves its domain
        omega_b = np.where(ok, omega_b, omega_a)
        sep, dz, img, dz_b = (np.where(ok, v, 1.0) for v in (sep, dz, img, dz_b))
        p_a = _probability_array(np.full(dz.size, omega_a), dz, coupling)
        p_b = _probability_array(omega_b, dz_b, coupling)
        # each is nonnegative, inf or nan, so this one comparison holds
        # exactly where CorrelationBlock's three probability checks pass
        ok &= p_a + p_b < 1.0
        s = omega_a + omega_b
        d = omega_b - omega_a
        pref = coupling * coupling / (4.0 * _SQRT_PI)
        c = pref * _each(math.exp, -d * d / 4.0) * (_aux_f_array(sep, s) - _aux_f_array(img, s))
        (g_re, g_im, g_ok), (h_re, h_im, h_ok) = _aux_g_array(sep, d), _aux_g_array(img, d)
        ok &= g_ok & h_ok
        weight = -pref * _each(math.exp, -s * s / 4.0)
        x = (weight * (g_re - h_re)).astype(complex)
        x.imag = weight * (g_im - h_im)
    return p_a, p_b, c, x, ok


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


def state_from_block(block: CorrelationBlock) -> XState:
    """Assemble the leading-order X-state from its correlation entries."""
    return XState(
        d11=1.0 - block.p_a - block.p_b,
        d22=block.p_b,
        d33=block.p_a,
        d44=0.0,
        c14=block.x,
        c23=block.c,
    )


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

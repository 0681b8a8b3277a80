"""Brute-force evaluation of the detector response integrals.

This module recomputes the excitation probabilities and the two
correlation terms directly from their defining double integrals over
the switching window, using the image-method two-point function with an
explicit regulator. It shares no formulas with ``detector_model`` (only
the input and result types), and derives every distance it needs from
the geometry's raw lengths, so agreement between the two is a genuine
check.

All four entries are one response integral of two gaps: the probability
of a detector is the cross-excitation integral of the detector with
itself at zero separation and image distance twice its mirror distance,
and the double-excitation coherence is the time-ordered integral with
detector B's gap negated, times -1.

Method: the (tau, tau') box maps to a diamond in rotated coordinates
u = tau - tau', sbar = (tau + tau')/2. The u axis is covered by
composite Gauss-Legendre panels graded dyadically toward each
near-singular abscissa: the regulated light-cone crossings at |u| equal
to the direct and image distances, and u = 0, where the subtracted
correlator keeps a regulated double pole and where the time-ordered
integrand has a kink. u = 0 is always a panel edge, so the kink is
never sampled across a panel; splitting the diamond at u = 0 is the
same as integrating the two time-ordered triangles of the original box.
For each u node the sbar integral runs over the exact diamond section.
The quadrature is repeated for a decreasing schedule of regulator
values and Richardson-extrapolated to zero.

All summation is done with numpy's pairwise reductions on fixed-shape
arrays, so results are bit-stable across runs and machines with the
same floating-point contract.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .detector_model import Alignment, BoundaryGeometry, CorrelationBlock, DetectorPair
from .errors import ConvergenceError, ValidationError

# quantities smaller than this are certified in absolute rather than
# relative terms (the integrands are O(1/4pi); far below this scale the
# result is quadrature noise by construction)
_ABS_FLOOR = 1e-8

# width of the background panels the u axis is covered with away from
# the graded regions
_COARSE_WIDTH = 1.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization of the response integrals.

    ``truncation`` is the half-width of the switching window kept in the
    integration box (the Gaussian window is ~1e-14 at 8), ``nodes`` the
    Gauss-Legendre order of the long axis, and ``epsilons`` the
    regulator schedule used for the extrapolation to zero.
    """

    truncation: float = 8.0
    nodes: int = 400
    epsilons: tuple[float, ...] = (0.02, 0.01, 0.005)

    def __post_init__(self):
        t = float(self.truncation)
        if not math.isfinite(t) or t < 6.0:
            raise ValidationError("truncation must be >= 6 switching widths")
        n = int(self.nodes)
        if n < 200:
            raise ValidationError("nodes must be >= 200")
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ValidationError("epsilons must be nonempty")
        for e in eps:
            if not math.isfinite(e) or e <= 0.0 or e > 0.05:
                raise ValidationError("each epsilon must lie in (0, 0.05]")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ValidationError("epsilons must be strictly decreasing")
        object.__setattr__(self, "truncation", t)
        object.__setattr__(self, "nodes", n)
        object.__setattr__(self, "epsilons", eps)


def _two_point(dt, spatial: float, image: float, eps: float):
    """Regulated two-point function with the mirror image subtracted, at a
    time difference ``dt`` given as a float or an array."""
    d = (dt - 1j * eps) ** 2
    return -(1.0 / (d - spatial * spatial) - 1.0 / (d - image * image)) / (
        4.0 * math.pi**2
    )


@lru_cache(maxsize=32)
def _gauss_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_edges(singular, eps: float, half_width: float):
    """Panel boundaries on [-half_width, half_width], graded dyadically
    (innermost half-width eps, doubling outward) around each singular
    abscissa and its mirror, over a coarse background grid."""
    pts = {-half_width, 0.0, half_width}
    for r in singular:
        for c in (r, -r):
            if not -half_width < c < half_width:
                continue
            pts.add(c)
            h = eps
            while h <= 2.0 * half_width:
                for q in (c - h, c + h):
                    if -half_width < q < half_width:
                        pts.add(q)
                h *= 2.0
    k = max(2, int(math.ceil(2.0 * half_width / _COARSE_WIDTH)))
    for i in range(k + 1):
        pts.add(-half_width + 2.0 * half_width * i / k)
    return np.array(sorted(pts))


def _u_mesh(spatial: float, image: float, eps: float, spec: QuadratureSpec):
    order = max(8, (16 * spec.nodes) // 400)
    half_width = 2.0 * spec.truncation
    edges = _panel_edges((0.0, spatial, image), eps, half_width)
    xg, wg = _gauss_nodes(order)
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    u = (mid + half * xg[None, :]).ravel()
    w = (half * np.broadcast_to(wg, (len(a), order))).ravel()
    return u, w


def _single_epsilon(
    omega_a: float,
    omega_b: float,
    spatial: float,
    image: float,
    eps: float,
    spec: QuadratureSpec,
    time_ordered: bool,
) -> complex:
    """One regulated quadrature of the response integral of the gaps
    ``omega_a`` (at tau) and ``omega_b`` (at tau'): the phase
    omega_a tau - omega_b tau' is alpha u + beta sbar."""
    beta = omega_a - omega_b
    alpha = (omega_a + omega_b) / 2.0
    u, uw = _u_mesh(spatial, image, eps, spec)
    # the time-ordered term sees the correlator at -|u| on both triangles
    warg = -np.abs(u) if time_ordered else u
    ku = (
        np.exp(-(u**2) / 4.0)
        * np.exp(-1j * alpha * u)
        * _two_point(warg, spatial, image, eps)
        * uw
    )
    xs, ws = _gauss_nodes(spec.nodes)
    h = np.maximum(spec.truncation - np.abs(u) / 2.0, 0.0)
    sb = h[:, None] * xs[None, :]
    srow = np.exp(-(sb**2)) * np.exp(-1j * beta * sb) @ ws * h
    return complex(np.sum(ku * srow))


def extrapolate_epsilon(values) -> tuple[complex, float]:
    """Extrapolate a regulator schedule to zero.

    ``values`` is a sequence of (epsilon, value) pairs with strictly
    decreasing positive epsilons, at least three of them. A Neville
    tableau extrapolates the polynomial-in-epsilon model to zero; the
    error estimate is the distance to the extrapolant of the last two
    points alone. Emits a warning when the raw values do not approach
    the limit monotonically.
    """
    pairs = [(float(e), complex(v)) for e, v in values]
    if len(pairs) < 3:
        raise ValidationError("epsilon extrapolation needs at least 3 values")
    eps = [e for e, _ in pairs]
    if any(e <= 0.0 for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValidationError("epsilons must be positive and strictly decreasing")

    def neville(xs, ts):
        t = list(ts)
        n = len(t)
        for k in range(1, n):
            for i in range(n - k):
                t[i] = t[i + 1] + (t[i + 1] - t[i]) * xs[i + k] / (xs[i] - xs[i + k])
        return t[0]

    vals = [v for _, v in pairs]
    limit = neville(eps, vals)
    tail = neville(eps[-2:], vals[-2:])
    estimate = abs(limit - tail)
    dists = [abs(v - limit) for v in vals]
    if any(a < b for a, b in zip(dists, dists[1:])):
        warnings.warn(
            "regulator values do not converge monotonically; the "
            "extrapolated limit may be unreliable",
            stacklevel=2,
        )
    return limit, estimate


def _extrapolated(
    omega_a: float,
    omega_b: float,
    spatial: float,
    image: float,
    coupling: float,
    spec: QuadratureSpec,
    rtol: float,
    time_ordered: bool,
) -> tuple[complex, float]:
    """The response integral extrapolated to zero regulator, times the
    squared coupling, with its extrapolation error estimate."""
    if not (math.isfinite(rtol) and rtol > 0.0):
        raise ValidationError(f"rtol must be a positive finite number, got {rtol!r}")
    lam2 = coupling * coupling
    schedule = [
        (e, _single_epsilon(omega_a, omega_b, spatial, image, e, spec, time_ordered))
        for e in spec.epsilons
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        limit, estimate = extrapolate_epsilon(schedule)
    limit *= lam2
    estimate *= lam2
    # the monotonicity diagnostic is meaningful only above the noise
    # floor; below it the schedule is pure quadrature noise by design
    if abs(limit) >= _ABS_FLOOR:
        for w in caught:
            warnings.warn_explicit(
                w.message, w.category, w.filename, w.lineno
            )
    scale = max(abs(limit), _ABS_FLOOR)
    if estimate > 10.0 * rtol * scale:
        raise ConvergenceError(
            f"epsilon extrapolation error {estimate:.3e} exceeds 10 x rtol x "
            f"scale = {10.0 * rtol * scale:.3e}; refine the quadrature spec"
        )
    return limit, estimate


def numeric_probability(
    omega: float,
    dz: float,
    coupling: float = 1.0,
    spec: QuadratureSpec | None = None,
    rtol: float = 1e-3,
) -> float:
    """Excitation probability from the defining double integral.

    This is the cross-excitation integral of the detector with itself:
    gap ``omega`` at both times, no direct separation, and an image
    distance of twice the mirror distance. The result must be real; a
    residual imaginary part above both 1e-8 of the magnitude and the
    extrapolation error estimate raises a convergence error.
    """
    omega = float(omega)
    dz = float(dz)
    if not math.isfinite(omega) or omega < 0.0:
        raise ValidationError("omega must be a nonnegative real")
    if not math.isfinite(dz) or dz <= 0.0:
        raise ValidationError("dz must be positive")
    spec = spec or QuadratureSpec()
    value, estimate = _extrapolated(
        omega, omega, 0.0, 2.0 * dz, float(coupling), spec, rtol, time_ordered=False
    )
    if abs(value.imag) > max(1e-8 * max(abs(value), _ABS_FLOOR), estimate):
        raise ConvergenceError(
            f"probability integral kept an imaginary residue {value.imag:.3e}"
        )
    return value.real


def _distances(geom: BoundaryGeometry) -> tuple[float, float, float]:
    """Detector separation, image-path length through the mirror, and the
    mirror distance of detector B, derived here rather than taken from the
    closed-form module."""
    l = geom.separation
    dz = geom.boundary_distance
    if geom.alignment is Alignment.PARALLEL:
        return l, math.hypot(l, 2.0 * dz), dz
    return l, l + 2.0 * dz, dz + l


def numeric_c(
    pair: DetectorPair,
    geom: BoundaryGeometry,
    spec: QuadratureSpec | None = None,
    rtol: float = 1e-3,
) -> complex:
    """Cross-excitation correlation from the defining double integral."""
    spec = spec or QuadratureSpec()
    spatial, image, _ = _distances(geom)
    value, _ = _extrapolated(
        pair.omega_a, pair.omega_b, spatial, image, pair.coupling, spec, rtol,
        time_ordered=False,
    )
    return value


def numeric_x(
    pair: DetectorPair,
    geom: BoundaryGeometry,
    spec: QuadratureSpec | None = None,
    rtol: float = 1e-3,
) -> complex:
    """Double-excitation coherence from the defining double integral.

    This is minus the time-ordered response integral with detector B's
    gap negated. The time-ordering split is handled by keeping u = 0 a
    panel edge and evaluating the correlator at -|u|, which is exactly
    the two-triangle decomposition of the original box.
    """
    spec = spec or QuadratureSpec()
    spatial, image, _ = _distances(geom)
    value, _ = _extrapolated(
        pair.omega_a, -pair.omega_b, spatial, image, pair.coupling, spec, rtol,
        time_ordered=True,
    )
    return -value


def numeric_correlations(
    pair: DetectorPair,
    geom: BoundaryGeometry,
    spec: QuadratureSpec | None = None,
    rtol: float = 1e-3,
) -> CorrelationBlock:
    """``p_a``, ``p_b``, ``c`` and ``x`` of the pair from their defining
    double integrals: the oracle counterpart of ``correlations``."""
    spec = spec or QuadratureSpec()
    _, _, distance_b = _distances(geom)
    lam = pair.coupling
    return CorrelationBlock(
        p_a=numeric_probability(pair.omega_a, geom.boundary_distance, lam, spec, rtol),
        p_b=numeric_probability(pair.omega_b, distance_b, lam, spec, rtol),
        c=numeric_c(pair, geom, spec, rtol),
        x=numeric_x(pair, geom, spec, rtol),
    )

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
For each u node the sbar integral runs over the exact diamond section
|sbar| <= h = T - |u|/2. Its integrand is a Gaussian times the phase
exp(-i beta sbar), so the symmetric Gauss-Legendre rule is folded onto
its nonnegative half and the odd sine part, which cancels, is dropped:
each sbar row is a real sum over exp(-sbar^2) cos(beta sbar). A row
depends on its u node only through h. The quadrature is repeated for a
decreasing schedule of regulator values and Richardson-extrapolated to
zero; the meshes of the schedule are nested, so each distinct h is
evaluated once for every regulator and for every integral that shares
the mesh (C with X, and P_A with P_B when both detectors are equally far
from the mirror). Over the cases of one
:func:`numeric_correlation_blocks` iterator each probability integral
is computed once: it depends only on the gap, the image distance and
the coupling, which many cases share (both alignments of a
configuration share P_A).

The discretisation is fixed: the box is truncated at |tau|, |tau'| <=
:data:`TRUNCATION` switching widths, each sbar row uses the
:data:`NODES`-point rule, the regulator schedule is :data:`EPSILONS`,
and the extrapolation must hold the relative tolerance :data:`RTOL`.
None of the four is a parameter; ``verify`` echoes them in its
provenance block.

All summation is done with numpy's pairwise reductions on fixed-shape
arrays, so results are bit-stable across runs and machines with the
same floating-point contract.
"""

from __future__ import annotations

import cmath
import math
import warnings
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

# half-width of the switching window kept in the integration box (the
# Gaussian window is ~1e-14 at 8)
TRUNCATION = 8.0
# Gauss-Legendre order of the sbar rule; the u panels use 16 nodes per 400
NODES = 400
# decreasing regulator schedule, extrapolated to zero
EPSILONS = (0.02, 0.01, 0.005)
# requested relative tolerance: an extrapolation error estimate above 10 x
# RTOL of the value (of _ABS_FLOOR, for smaller values) is a convergence error
RTOL = 1e-3


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


def _u_mesh(spatial: float, image: float, eps: float):
    order = max(8, (16 * NODES) // 400)
    half_width = 2.0 * TRUNCATION
    edges = _panel_edges((0.0, spatial, image), eps, half_width)
    xg, wg = _gauss_nodes(order)
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    u = (mid + half * xg[None, :]).ravel()
    w = (half * np.broadcast_to(wg, (len(a), order))).ravel()
    return u, w


@lru_cache(maxsize=32)
def _folded_nodes(order: int):
    """The Gauss-Legendre rule folded onto its nonnegative half.

    Node i is paired with node order - 1 - i by index, and the pair's
    weights are summed; an odd order keeps its middle node once. On an
    even integrand this is the full rule.
    """
    x, w = _gauss_nodes(order)
    half = order // 2
    upper = np.arange(order - half, order)
    xs = x[upper]
    ws = w[upper] + w[order - 1 - upper]
    if order % 2:
        xs = np.concatenate(([x[half]], xs))
        ws = np.concatenate(([w[half]], ws))
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


def _regulated_values(terms, spatial: float, image: float):
    """Regulated quadratures of response integrals that share one
    ``(spatial, image)`` mesh, at every regulator of :data:`EPSILONS`.

    Each term is ``(omega_a, omega_b, time_ordered)``: the gaps at tau and
    tau', so that the phase omega_a tau - omega_b tau' is alpha u + beta
    sbar, and whether the time-ordered correlator is used. Returns a
    complex array of shape (terms, regulators). The folded sbar rows are
    evaluated once per distinct section half-width h over the whole
    schedule, and the exp(-sbar^2) factor once for all terms.
    """
    meshes = [_u_mesh(spatial, image, eps) for eps in EPSILONS]
    h_nodes = np.maximum(
        TRUNCATION - np.abs(np.concatenate([u for u, _ in meshes])) / 2.0, 0.0
    )
    h, inverse = np.unique(h_nodes, return_inverse=True)
    splits = np.cumsum([len(u) for u, _ in meshes])[:-1]
    xs, ws = _folded_nodes(NODES)
    # sb, the Gaussian and each term's kernel gauss * cos(beta * sb) are
    # written into buffers allocated once, by the same ufuncs in the same
    # order as on fresh arrays, so to the same bits
    sb = np.multiply(h[:, None], xs[None, :])
    buffer = np.multiply(sb, sb)
    gauss = np.exp(np.negative(buffer, out=buffer))
    values = np.empty((len(terms), len(meshes)), dtype=complex)
    # a gap so large that the phases overflow gives inf and nan here, which
    # _extrapolated refuses as a non-finite extrapolation
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (omega_a, omega_b, time_ordered) in enumerate(terms):
            beta = omega_a - omega_b
            alpha = (omega_a + omega_b) / 2.0
            kernel = gauss
            if beta != 0.0:
                kernel = np.multiply(beta, sb, out=buffer)
                np.multiply(gauss, np.cos(kernel, out=kernel), out=kernel)
            rows = np.split((kernel @ ws * h)[inverse], splits)
            for i, (eps, (u, uw), srow) in enumerate(zip(EPSILONS, meshes, rows)):
                # the time-ordered term sees the correlator at -|u| on both triangles
                warg = -np.abs(u) if time_ordered else u
                ku = (
                    np.exp(-(u**2) / 4.0)
                    * np.exp(-1j * alpha * u)
                    * _two_point(warg, spatial, image, eps)
                    * uw
                )
                values[k, i] = np.sum(ku * srow)
    return values


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
    terms, spatial: float, image: float, coupling: float
) -> list[tuple[complex, float]]:
    """Each response integral of ``terms`` (see :func:`_regulated_values`)
    extrapolated to zero regulator, times the squared coupling, with its
    extrapolation error estimate."""
    lam2 = coupling * coupling
    results = []
    for schedule in _regulated_values(terms, spatial, image):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            limit, estimate = extrapolate_epsilon(zip(EPSILONS, schedule))
        limit *= lam2
        estimate *= lam2
        # nan fails every comparison, so it must be refused before the gate
        if not (cmath.isfinite(limit) and math.isfinite(estimate)):
            raise ConvergenceError(
                f"epsilon extrapolation is not finite (limit {limit:.3e}, error "
                f"estimate {estimate:.3e}): the quadrature overflows here"
            )
        # the monotonicity diagnostic is meaningful only above the noise
        # floor; below it the schedule is pure quadrature noise by design
        if abs(limit) >= _ABS_FLOOR:
            for w in caught:
                warnings.warn_explicit(
                    w.message, w.category, w.filename, w.lineno
                )
        scale = max(abs(limit), _ABS_FLOOR)
        if estimate > 10.0 * RTOL * scale:
            raise ConvergenceError(
                f"epsilon extrapolation error {estimate:.3e} exceeds 10 x RTOL x "
                f"scale = {10.0 * RTOL * scale:.3e}: the fixed regulator schedule "
                f"does not reach RTOL = {RTOL:g} here"
            )
        results.append((limit, estimate))
    return results


def _real_probability(value: complex, estimate: float) -> float:
    """The probability integral's value, which must be real: a residual
    imaginary part above both 1e-8 of the magnitude and the extrapolation
    error estimate raises a convergence error."""
    if abs(value.imag) > max(1e-8 * max(abs(value), _ABS_FLOOR), estimate):
        raise ConvergenceError(
            f"probability integral kept an imaginary residue {value.imag:.3e}"
        )
    return value.real


def numeric_probability(omega: float, dz: float) -> float:
    """Excitation probability at unit coupling from the defining double
    integral, its extrapolation held to :data:`RTOL`.

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
    ((value, estimate),) = _extrapolated([(omega, omega, False)], 0.0, 2.0 * dz, 1.0)
    return _real_probability(value, estimate)


def _distances(geom: BoundaryGeometry) -> tuple[float, float, float]:
    """Detector separation, image-path length through the mirror, and the
    mirror distance of detector B, derived here rather than taken from the
    closed-form module."""
    l = geom.separation
    dz = geom.boundary_distance
    if geom.alignment is Alignment.PARALLEL:
        return l, math.hypot(l, 2.0 * dz), dz
    return l, l + 2.0 * dz, dz + l


def _correlation_terms(pair: DetectorPair):
    """The response integrals of ``c`` and ``x``: the cross-excitation
    integral, and the time-ordered one with detector B's gap negated
    (``x`` is minus its value)."""
    return [(pair.omega_a, pair.omega_b, False), (pair.omega_a, -pair.omega_b, True)]


def numeric_c(pair: DetectorPair, geom: BoundaryGeometry) -> complex:
    """Cross-excitation correlation from the defining double integral."""
    spatial, image, _ = _distances(geom)
    ((value, _),) = _extrapolated(
        _correlation_terms(pair)[:1], spatial, image, pair.coupling
    )
    return value


def numeric_x(pair: DetectorPair, geom: BoundaryGeometry) -> complex:
    """Double-excitation coherence from the defining double integral.

    This is minus the time-ordered response integral with detector B's
    gap negated. The time-ordering split is handled by keeping u = 0 a
    panel edge and evaluating the correlator at -|u|, which is exactly
    the two-triangle decomposition of the original box.
    """
    spatial, image, _ = _distances(geom)
    ((value, _),) = _extrapolated(
        _correlation_terms(pair)[1:], spatial, image, pair.coupling
    )
    return -value


def numeric_correlation_blocks(cases):
    """:func:`numeric_correlations` of each ``(pair, geom)`` of ``cases``,
    lazily: a case's integrals are computed when its block is asked for.

    For the iterator's lifetime each probability integral is kept, keyed
    by gap, image distance and coupling, so one that several cases need is
    computed once; a case's missing probabilities that share an image
    distance are computed on one mesh, as are its ``c`` and ``x``. Every
    block equals, bit for bit, the one-case call.
    """
    probabilities = {}
    for pair, geom in cases:
        spatial, image, distance_b = _distances(geom)
        lam = pair.coupling
        keys = [
            (pair.omega_a, 2.0 * geom.boundary_distance, lam),
            (pair.omega_b, 2.0 * distance_b, lam),
        ]
        missing = {}
        for key in dict.fromkeys(keys):
            if key not in probabilities:
                missing.setdefault(key[1], []).append(key)
        for image_p, group in missing.items():
            terms = [(omega, omega, False) for omega, _, _ in group]
            probabilities.update(zip(group, _extrapolated(terms, 0.0, image_p, lam)))
        c, x = _extrapolated(_correlation_terms(pair), spatial, image, lam)
        yield CorrelationBlock(
            p_a=_real_probability(*probabilities[keys[0]]),
            p_b=_real_probability(*probabilities[keys[1]]),
            c=c[0],
            x=-x[0],
        )


def numeric_correlations(pair: DetectorPair, geom: BoundaryGeometry) -> CorrelationBlock:
    """``p_a``, ``p_b``, ``c`` and ``x`` of the pair from their defining
    double integrals: the oracle counterpart of ``correlations``.

    Each field equals the matching ``numeric_c`` or ``numeric_x`` result,
    and at unit coupling the matching ``numeric_probability`` result;
    integrals on one mesh share their sbar rows: ``c`` with ``x``, and
    ``p_a`` with ``p_b`` when both detectors are equally far from the
    mirror. This is the one-case use of :func:`numeric_correlation_blocks`.
    """
    return next(numeric_correlation_blocks([(pair, geom)]))

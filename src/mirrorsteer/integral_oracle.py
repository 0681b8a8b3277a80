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
exp(-i beta sbar), whose odd sine part cancels, so each sbar row is the
real 2 int_0^h exp(-sbar^2) cos(beta sbar), the same for beta and
-beta. The half-axis [0, T] is covered by fixed Gauss-Legendre panels
whose sums make a prefix, and a row is the prefix up to the last panel
edge below h plus one piece from there to h. A row depends on its u
node only through h. The quadrature is repeated for a decreasing
schedule of regulator values and Richardson-extrapolated to zero.

The panel edges are their own mirror image about u = 0, and the
Gauss-Legendre nodes and weights are symmetric, so each mesh is built on
its u > 0 half only, and every u factor lives there: the weights, the
Gaussian, each integral's u phase f, the sbar rows and the correlator
G(u). Each factor is conjugate-symmetric, bit for bit in IEEE
arithmetic: the Gaussian is even, exp(-i alpha (-u)) is conj exp(-i
alpha u), and the regulated correlator obeys G(-u) = conj G(u). So each
integrand's -u half is built from conj f and G(-u) = conj G(u), and the
time-ordered term, which sees G(-|u|), reads G(-u) on both halves. Where
the image path equals the direct one the correlator is an exact signed
zero, the same at u and -u, which conjugation would flip; there G(-u) is
evaluated at -u instead.

Integrals on one (spatial, image) pair are computed together: C with
X, and P_A with P_B when both detectors are equally far from the
mirror. The regulators' meshes share most of their panels, nested or
not, so the rule is mapped once onto the union of their u > 0 panels
(each panel kept once per edge pair), and each regulator's half mesh is
an index into that union, in its own panel order. The u Gaussian, each
integral's u phase and the section half-width h are evaluated once per
union node, the sbar rows once per union node (each has its own h) and
|beta| for every regulator, and G(u) once per regulator, for both time
orderings. Each regulated value is one sum over its integrand's two
halves, the -u half reversed and then the u > 0 half, which is its own
whole mesh in its own order, with every summand the same as if it were
evaluated at its own node: neither the sharing nor the mirroring changes
a bit.

Over the cases of one :func:`numeric_correlation_blocks` iterator each
probability integral is computed once: it depends only on the gap, the
image distance and the coupling, which many cases share (both
alignments of a configuration share P_A). The iterator reads its cases
once, up front, and keeps each (spatial, image) mesh, with the
correlators and sbar rows computed on it, in a dict keyed by that pair
until the last case on it: a probability at an image distance that an
earlier case had, or a configuration whose geometry an earlier one had,
builds nothing its mesh already holds. The ``verify`` default grid's 34
integral groups are on 25 meshes. The sbar rule's large work arrays live
only for the call that fills them.

The discretisation is fixed: the box is truncated at |tau|, |tau'| <=
:data:`TRUNCATION` switching widths, every panel on both axes uses the
:data:`NODES`-point Gauss-Legendre rule, the regulator schedule is
:data:`EPSILONS`, and the extrapolation must hold the relative tolerance
:data:`RTOL`. None of the four is a parameter; ``verify`` echoes them in
its provenance block. The 16-point rule is a table of float literals,
two read-only arrays that every panel reads; the library computes no
Gauss rule, so the oracle makes no LAPACK call. A rule of another order
replaces both arrays together with :data:`NODES`.

All summation is done with numpy reductions in an order fixed by the
shapes, and the rule's nodes and weights are a constant table, so
results are bit-stable across runs and machines with the same
floating-point contract, whichever LAPACK numpy links.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from .detector_model import Alignment, BoundaryGeometry, CorrelationBlock, DetectorPair
from .errors import ConvergenceError, ValidationError

# quantities smaller than this are certified in absolute rather than
# relative terms (the integrands are O(1/4pi); far below this scale the
# result is quadrature noise by construction)
_ABS_FLOOR = 1e-8

# widths of the background panels the u axis is covered with away from
# the graded regions, and of the fixed panels of the sbar half-axis
_COARSE_WIDTH = 1.0
_SBAR_WIDTH = 0.5

# half-width of the switching window kept in the integration box (the
# Gaussian window is ~1e-14 at 8)
TRUNCATION = 8.0
# Gauss-Legendre order of every panel, on the u and the sbar axis
NODES = 16
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


# The 16-point Gauss-Legendre rule on [-1, 1], nodes ascending, then
# weights, generated once with numpy 2.4.6 as
#     [[repr(float(v)) for v in a] for a in numpy.polynomial.legendre.leggauss(16)]
# Each repr reads back to the same bits, so the table is that rule exactly
_LEGENDRE_X, _LEGENDRE_W = map(np.array, (
    (
        -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
        -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
        -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
        0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
        0.755404408355003, 0.8656312023878318, 0.9445750230732326,
        0.9894009349916499,
    ),
    (
        0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
        0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
        0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
        0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
        0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
        0.027152459411754176,
    ),
))
_LEGENDRE_X.setflags(write=False)
_LEGENDRE_W.setflags(write=False)


def _distinct(x):
    """The distinct values of ``x``, sorted (``np.unique`` without its
    overhead)."""
    x = np.sort(x, axis=None)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _panel_edges(singular, eps: float, half_width: float):
    """Panel boundaries on [-half_width, half_width], graded dyadically
    (innermost half-width eps, doubling outward) around each singular
    abscissa and its mirror, over a coarse background grid."""
    centres = [c for r in singular for c in (r, -r) if -half_width < c < half_width]
    steps = []
    h = eps
    while h <= 2.0 * half_width:
        steps += [-h, h]
        h *= 2.0
    graded = np.add.outer(centres, steps).ravel()
    k = max(2, int(math.ceil(2.0 * half_width / _COARSE_WIDTH)))
    pts = np.concatenate((
        [-half_width, 0.0, half_width],
        centres,
        graded[(-half_width < graded) & (graded < half_width)],
        -half_width + 2.0 * half_width * np.arange(k + 1) / k,
    ))
    # the mirror of the centre r = 0 is -0.0, which equals 0.0; adding 0.0
    # makes the edge +0.0 whichever of the two the sort kept
    return _distinct(pts) + 0.0


def _panel_rule(a, b, out=None):
    """The :data:`NODES`-point Gauss-Legendre rule, the arrays
    ``_LEGENDRE_X`` and ``_LEGENDRE_W``, on each panel [a, b]: nodes and
    weights, one row per panel, written to the arrays ``out`` (a pair) when
    given."""
    x, w = (None, None) if out is None else out
    half = 0.5 * (b - a)[:, None]
    x = np.multiply(half, _LEGENDRE_X, out=x)
    return np.add(0.5 * (a + b)[:, None], x, out=x), np.multiply(half, _LEGENDRE_W, out=w)


def _u_meshes(spatial: float, image: float):
    """The u > 0 halves of the u meshes of every regulator of
    :data:`EPSILONS` on one ``(spatial, image)`` pair, from one rule over
    the union of their panels from u = 0 up: the union's nodes and weights,
    one row per panel, and for each regulator the rows of its panels, in
    its own panel order. A regulator's whole mesh is its half mirrored:
    its edges are antisymmetric, u = 0 is one of them, and the
    Gauss-Legendre nodes and weights are symmetric."""
    keys = []
    for eps in EPSILONS:
        edges = _panel_edges((0.0, spatial, image), eps, 2.0 * TRUNCATION)
        edges = edges[edges >= 0.0]
        # a panel [a, b] is the key a + ib, which sorts by a, then b
        key = np.empty(len(edges) - 1, dtype=complex)
        key.real = edges[:-1]
        key.imag = edges[1:]
        keys.append(key)
    union = _distinct(np.concatenate(keys))
    u, w = _panel_rule(union.real, union.imag)
    return u, w, [np.searchsorted(union, key) for key in keys]


def _sbar_rows(h, betas):
    """Rows 2 int_0^h exp(-s^2) cos(beta s) ds, shape (betas, h): the sums
    of the fixed panels of [0, TRUNCATION] below h, as a prefix, plus one
    piece from the last panel edge to h. Each row is summed on its own, so
    it depends on (h, beta) alone. The rule's nodes, weights and integrand
    are written in place to four arrays that this call allocates, each
    filled before it is read.
    """
    panels = math.ceil(TRUNCATION / _SBAR_WIDTH)
    edges = np.minimum(np.arange(panels + 1) * _SBAR_WIDTH, TRUNCATION)
    k = np.floor(h / _SBAR_WIDTH).astype(np.intp)
    s, w, gauss, f = np.empty((4, panels + len(h), NODES))
    _panel_rule(
        np.concatenate((edges[:-1], edges[k])), np.concatenate((edges[1:], h)), (s, w)
    )
    # exp(-s^2), and below each row's integrand times the weights, in place
    np.exp(np.negative(np.multiply(s, s, out=gauss), out=gauss), out=gauss)
    rows = np.empty((len(betas), len(h)))
    for i, beta in enumerate(betas):
        if beta == 0.0:
            np.multiply(gauss, w, out=f)
        else:
            np.cos(np.multiply(s, beta, out=f), out=f)
            np.multiply(np.multiply(gauss, f, out=f), w, out=f)
        pieces = np.sum(f, axis=1)
        prefix = np.concatenate(([0.0], np.cumsum(pieces[:panels])))
        rows[i] = 2.0 * (prefix[k] + pieces[panels:])
    return rows


class _Mesh:
    """What the integrals on one ``(spatial, image)`` pair share: the union
    of the u > 0 halves of the regulators' u panels with each regulator's
    rows of it (:func:`_u_meshes`), the section half-width h and the u
    Gaussian at each of its nodes; and, as the integrals ask for them, the
    correlator on each regulator's u > 0 nodes and the sbar row per
    |beta|, one value per node in the union's shape."""

    def __init__(self, spatial: float, image: float):
        self.spatial, self.image = spatial, image
        self.u, self.w, self.panels = _u_meshes(spatial, image)
        self.h = np.maximum(TRUNCATION - self.u / 2.0, 0.0)
        self.gauss = np.exp(-(self.u**2) / 4.0)
        self.rows = {}
        self._positive = {}

    def correlator(self, regulator: int):
        """The correlator of the ``regulator``-th entry of :data:`EPSILONS`
        on its u > 0 nodes and at their mirrors: G(u), kept, and G(-u),
        which is conj G(u) bit for bit."""
        u = self.u[self.panels[regulator]].ravel()
        eps = EPSILONS[regulator]
        if regulator not in self._positive:
            self._positive[regulator] = _two_point(u, self.spatial, self.image, eps)
        plus = self._positive[regulator]
        if self.spatial * self.spatial == self.image * self.image:
            # the image term cancels the direct one exactly, to a signed
            # zero that is the same at u and -u and that conj would flip;
            # test_mirrored_factors_equal_direct_evaluation fails without this
            return plus, _two_point(-u, self.spatial, self.image, eps)
        return plus, plus.conj()


def _regulated_values(terms, spatial: float, image: float, meshes=None):
    """Regulated quadratures of response integrals that share one
    ``(spatial, image)`` mesh, at every regulator of :data:`EPSILONS`.

    Each term is ``(omega_a, omega_b, time_ordered)``: the gaps at tau and
    tau', so that the phase omega_a tau - omega_b tau' is alpha u + beta
    sbar, and whether the time-ordered correlator is used. Returns a
    complex array of shape (terms, regulators). The pieces the terms share
    come from the pair's :class:`_Mesh` in ``meshes``, a dict keyed by
    ``(spatial, image)`` (a fresh one by default), which builds each once
    and keeps it for later calls; each term's u phase is evaluated once per
    node of the half union, and each regulated value is one sum over its
    integrand's -u half, reversed, and u > 0 half: its own regulator's
    whole mesh, in that mesh's order.
    """
    meshes = {} if meshes is None else meshes
    if (spatial, image) not in meshes:
        meshes[spatial, image] = _Mesh(spatial, image)
    mesh = meshes[spatial, image]
    # cos is even and s (-beta) is -(s beta) exactly: the sbar row of -beta
    # is the row of beta, bit for bit, so the rows are keyed by |beta|
    betas = [abs(omega_a - omega_b) for omega_a, omega_b, _ in terms]
    values = np.empty((len(terms), len(mesh.panels)), dtype=complex)
    # a gap so large that the phases overflow gives inf and nan here, which
    # _extrapolated refuses as a non-finite extrapolation
    with np.errstate(over="ignore", invalid="ignore"):
        missing = [beta for beta in dict.fromkeys(betas) if beta not in mesh.rows]
        if missing:
            rows = _sbar_rows(mesh.h.ravel(), missing)
            mesh.rows.update(zip(missing, rows.reshape(len(missing), *mesh.u.shape)))
        # a zero phase is exactly 1: the Gaussian alone gives the same bits
        factors = [
            mesh.gauss if alpha == 0.0 else mesh.gauss * np.exp(-1j * alpha * mesh.u)
            for alpha in ((omega_a + omega_b) / 2.0 for omega_a, omega_b, _ in terms)
        ]
        for i, p in enumerate(mesh.panels):
            w = mesh.w[p].ravel()
            plus, minus = mesh.correlator(i)
            for k, (beta, factor, (_, _, ordered)) in enumerate(zip(betas, factors, terms)):
                f, r = factor[p].ravel(), mesh.rows[beta][p].ravel()
                # the -u half has the phase conj f; the time-ordered term
                # sees G(-|u|) on both halves
                lower = f.conj() * minus * w * r
                upper = f * (minus if ordered else plus) * w * r
                values[k, i] = np.sum(np.concatenate((lower[::-1], upper)))
    return values


def extrapolate_epsilon(values) -> tuple[complex, float]:
    """Extrapolate a regulator schedule to zero.

    ``values`` is a sequence of (epsilon, value) pairs with strictly
    decreasing positive finite epsilons, at least three of them. A Neville
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
    # nan fails every comparison above, and an infinite first epsilon
    # passes them, with a zero error estimate
    if not all(map(math.isfinite, eps)):
        raise ValidationError("epsilons must be finite")

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
    terms, spatial: float, image: float, coupling: float, meshes=None
) -> list[tuple[complex, float]]:
    """Each response integral of ``terms`` (see :func:`_regulated_values`,
    which also takes ``meshes``) extrapolated to zero regulator, times
    the squared coupling, with its extrapolation error estimate."""
    lam2 = coupling * coupling
    results = []
    for schedule in _regulated_values(terms, spatial, image, meshes):
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

    The cases are read once, when the first block is asked for. For the
    iterator's lifetime each probability integral is kept, keyed by gap,
    image distance and coupling, so one that several cases need is computed
    once. A case's missing probabilities that share an image distance are
    computed on one mesh, as are its ``c`` and ``x``. Each mesh, with the
    correlators and sbar rows computed on it, is kept from the first case
    that builds it to the last case of the list on that ``(spatial,
    image)`` pair, and dropped before that case's block is returned. The
    iterator keeps nothing else, so two iterators share no state, and
    every block equals, bit for bit, the one-case call.
    """
    cases = list(cases)
    # each case's meshes: those of p_a, of p_b, and of c with x
    meshes = []
    for _, geom in cases:
        spatial, image, distance_b = _distances(geom)
        meshes.append(
            [(0.0, 2.0 * geom.boundary_distance), (0.0, 2.0 * distance_b), (spatial, image)]
        )
    last = {mesh: i for i, on in enumerate(meshes) for mesh in on}
    # the meshes built so far, keyed by (spatial, image)
    kept = {}
    probabilities = {}
    for i, ((pair, _), on) in enumerate(zip(cases, meshes)):
        (_, image_a), (_, image_b), (spatial, image) = on
        lam = pair.coupling
        keys = [(pair.omega_a, image_a, lam), (pair.omega_b, image_b, lam)]
        missing = {}
        for key in dict.fromkeys(keys):
            if key not in probabilities:
                missing.setdefault(key[1], []).append(key)
        for image_p, group in missing.items():
            terms = [(omega, omega, False) for omega, _, _ in group]
            values = _extrapolated(terms, 0.0, image_p, lam, kept)
            probabilities.update(zip(group, values))
        c, x = _extrapolated(_correlation_terms(pair), spatial, image, lam, kept)
        for mesh in on:
            if last[mesh] == i:
                kept.pop(mesh, None)
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
    and at unit coupling the matching ``numeric_probability`` result.
    Integrals on one mesh are computed together: ``c`` with ``x``, and
    ``p_a`` with ``p_b`` when both detectors are equally far from the
    mirror. They share the union of the regulators' u > 0 panels, the u
    Gaussian and the sbar rows of each distinct |beta|, and ``p_a`` with
    ``p_b`` share the correlator as well. This is the one-case use of
    :func:`numeric_correlation_blocks`.
    """
    return next(numeric_correlation_blocks([(pair, geom)]))

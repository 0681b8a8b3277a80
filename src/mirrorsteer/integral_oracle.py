"""Independent evaluation of the detector response integrals.

P_A, P_B, C and X of the leading-order joint state from the momentum
representation of the image-method two-point function: one 1-D integral
each, with no regulator. Only the input and result types come from
``detector_model``, and every distance is derived here from the raw
lengths, so agreement between the two is a genuine check. In switching
widths (chi(tau) = exp(-tau^2/2)), with separation l, image separation L
(hypot(l, 2 dz) parallel, l + 2 dz orthogonal), m = (omega_a +
omega_b)/2, a = (omega_b - omega_a)/2, S(k) = sin(kl)/l - sin(kL)/L and
Dawson's integral D:

    C = lambda^2/(2 pi) exp(-m^2 - a^2) int_0^inf exp(-k(k + 2m)) S(k) dk
    X = -lambda^2/(4 pi) exp(-m^2) int_0^inf S(k) [exp(-(k + a)^2)
        + exp(-(k - a)^2) + (2i/sqrt(pi)) (D(k + a) + D(k - a))] dk

and P(omega, dz) is C at m = omega, a = 0, l -> 0 and L = 2 dz.

Each integral is one composite :data:`NODES`-point Gauss-Legendre sum on
panels of [0, K]. C and P stop where k(k + 2m) reaches
:data:`ENVELOPE_CUT`, on equal panels: at least :data:`MIN_PANELS`, none
wider than :data:`PANEL_WIDTH` or :data:`PANEL_PHASE` radians of sin(kL).
X's Dawson term decays like 1/k, so four terms of its series, sum_m w_m
k/(k^2 + c^2)^m with c = 1 + a, are subtracted and their sine transforms
added in closed form; the remainder decays like k^-9 and stops at K =
:data:`DAWSON_CUT` c. Past k0 = |a| + sqrt(ENVELOPE_CUT) both Gaussians
are below exp(-ENVELOPE_CUT) and X's integrand is S times that smooth
remainder, so there only the sine needs fine panels: X keeps the equal
panels up to their first edge past k0, and beyond it each panel is 1 +
:data:`PANEL_GROWTH` times as wide as the last, up to PANEL_PHASE radians.
Below L = 16 (PANEL_PHASE / PANEL_WIDTH), where the phase allows panels
wider than PANEL_WIDTH, that takes 10-30% of the equal panels at L <= 2
and about 55% at L = 8; from L = 16 the phase caps every panel, grading
saves nothing and X keeps the equal panels.
Near the mirror L - l is exact (2 dz, or 4 dz^2/(L + l) parallel); where
L - l < l, S is sin(kL)(L - l)/(lL) - 2 cos(k(l + L)/2) sin(k(L - l)/2)/l,
and below kL = 1 it is its Taylor series.

The integrals asked for together are laid on one node array: C's and X's
panels share one evaluation of the rule and of S, and each is summed over
its own panels, with the bits it has alone. A probability needs its own
S, so it takes a rule of its own; :func:`numeric_correlations` reads one
already made from a store its caller passes.

A :class:`ConvergenceError` refuses a result that is not finite, one whose
estimate (its distance from the rule on the panels merged in pairs)
exceeds 10 x :data:`RTOL` of it, and one whose equal panels would number
over :data:`MAX_PANELS`; where its prefactor underflows it is zero. No
constant is a parameter, and ``verify`` echoes them. The Gauss rule is a
stored table (no LAPACK call) and every sum a numpy reduction in an order
fixed by the shapes, so results are bit-stable. The standalone
:func:`extrapolate_epsilon` takes a regulator schedule to zero.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
from scipy.special import dawsn

from .detector_model import Alignment, BoundaryGeometry, CorrelationBlock, DetectorPair
from .errors import ConvergenceError, ValidationError

# values below this are certified in absolute rather than relative terms
_ABS_FLOOR = 1e-8

NODES = 16
# a panel estimate above 10 x RTOL of the value is a convergence error
RTOL = 1e-9
# where C's and P's Gaussian exponent stops (exp(-50) ~ 2e-22)
ENVELOPE_CUT = 50.0
# where X's Dawson remainder stops, as a multiple of c = 1 + a
DAWSON_CUT = 60.0
# at least MIN_PANELS panels, each at most PANEL_WIDTH wide and PANEL_PHASE
# radians of the fastest sine
MIN_PANELS = 8
PANEL_WIDTH = 0.5
PANEL_PHASE = 8.0
# past X's Gaussians each panel is 1 + PANEL_GROWTH times as wide as the last
# (PANEL_WIDTH plus PANEL_GROWTH of its distance from where they end), up to
# PANEL_PHASE radians
PANEL_GROWTH = 0.25
# a rule needing more than MAX_PANELS panels is refused
MAX_PANELS = 8192

_TWO_OVER_ROOT_PI = 2.0 / math.sqrt(math.pi)
# (2n + 1)! for the nine terms of the sine difference's Taylor series
_TAYLOR_FACTORIALS = tuple(math.factorial(2 * n + 1) for n in range(1, 10))
# exp(-x) is exactly 0 from x = 745.2, so both of X's Gaussians are past
# |a| + _EXP_ZERO
_EXP_ZERO = math.sqrt(750.0)

# The 16-point Gauss-Legendre rule on [-1, 1]: its positive nodes and their
# weights, ascending, from numpy 2.4.6's leggauss(16) (each repr reads back
# to the same bits; leggauss's negative half is their exact mirror)
_NODES_HALF = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
               0.6178762444026438, 0.755404408355003, 0.8656312023878318,
               0.9445750230732326, 0.9894009349916499)
_WEIGHTS_HALF = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                 0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                 0.062253523938647456, 0.027152459411754176)
_LEGENDRE_X = np.concatenate((np.negative(_NODES_HALF[::-1]), _NODES_HALF))
_LEGENDRE_W = np.concatenate((_WEIGHTS_HALF[::-1], _WEIGHTS_HALF))
_LEGENDRE_X.setflags(write=False)
_LEGENDRE_W.setflags(write=False)


def _panel_rule(a, b):
    """The :data:`NODES`-point Gauss-Legendre rule (``_LEGENDRE_X``,
    ``_LEGENDRE_W``) on each panel [a, b]: nodes and weights, one row each."""
    half = 0.5 * (b - a)[:, None]
    return 0.5 * (a + b)[:, None] + half * _LEGENDRE_X, half * _LEGENDRE_W


def _edges(cut: float, frequency: float, start: float):
    """Panel edges on [0, ``cut``]: the uniform rule's equal panels (an even
    number, at least :data:`MIN_PANELS` and at most :data:`MAX_PANELS`, none
    wider than :data:`PANEL_WIDTH` or :data:`PANEL_PHASE` radians at
    ``frequency``) up to their first edge at or past ``start``, then, where
    that takes fewer panels, panels graded by :data:`PANEL_GROWTH` up to
    PANEL_PHASE radians, squeezed to end at ``cut`` on an even count."""
    # max() drops a nan, and the graded loop would never end on one
    if any(map(math.isnan, (cut, frequency, start))):
        raise ConvergenceError(f"no rule on [0, {cut:.3g}] from {start:.3g} at frequency "
                               f"{frequency:.3g}")
    n = max(MIN_PANELS, cut / PANEL_WIDTH, cut * frequency / PANEL_PHASE)
    if not n <= MAX_PANELS:
        raise ConvergenceError(f"the rule would need {n:.3g} panels on [0, {cut:.3g}] at "
                               f"frequency {frequency:.3g}, more than MAX_PANELS = {MAX_PANELS}")
    # np.linspace(0, cut, count + 1)'s arithmetic, start (0) added as it
    # adds it, without its overhead
    count = 2 * math.ceil(n / 2.0)
    edges = np.arange(count + 1.0)
    edges *= cut / count
    edges += 0.0
    edges[-1] = cut
    j = int(np.searchsorted(edges, start))
    if j >= edges.size - 1:
        return edges
    cap = PANEL_PHASE / frequency if frequency else math.inf
    tail = [float(edges[j])]
    while tail[-1] < cut or (j + len(tail) - 1) % 2:
        tail.append(tail[-1] + min(PANEL_WIDTH + PANEL_GROWTH * (tail[-1] - start), cap))
    # at a frequency of PANEL_PHASE / PANEL_WIDTH or more every panel is
    # capped, and grading saves nothing
    if len(tail) >= edges.size - j:
        return edges
    tail = np.array(tail)
    tail = tail[0] + (tail - tail[0]) * ((cut - tail[0]) / (tail[-1] - tail[0]))
    tail[-1] = cut
    return np.concatenate((edges[:j], tail))


def _rule(spans, shared):
    """The composite rule of each span (``edges`` from :func:`_edges` and a
    ``factor``, an array function with nodes on its last axis), all laid on
    one node array: int_0^cut of ``shared`` times ``factor`` on the span's
    panels, and its estimate, the distance, in norm over the leading axes,
    from the same rule on the panels merged in pairs. ``shared`` is taken
    once, on every span's nodes."""
    lower = [part for edges, _ in spans for part in (edges[:-1], edges[:-1:2])]
    upper = [part for edges, _ in spans for part in (edges[1:], edges[2::2])]
    k, w = _panel_rule(np.concatenate(lower), np.concatenate(upper))
    k, w = k.ravel(), w.ravel()
    results, stop = [], 0
    # a value that is not finite is refused by _certified, not warned about
    with np.errstate(invalid="ignore", over="ignore"):
        common = shared(k)
        for edges, factor in spans:
            n, start = (edges.size - 1) * NODES, stop
            stop = start + n + n // 2
            values = common[start:stop] * factor(k[start:stop]) * w[start:stop]
            fine, coarse = values[..., :n].sum(-1), values[..., n:].sum(-1)
            results.append((fine, float(np.sqrt(np.sum((fine - coarse) ** 2)))))
    return results


def _sine_difference(k, l: float, big: float, gap: float):
    """S(k) = sin(kl)/l - sin(kL)/L at L = ``big`` = l + ``gap``, with the
    exact ``gap`` (sin(kl)/l is k at l = 0), in the forms that keep its
    digits."""
    x = k * big
    if gap >= l:
        s = (np.sin(k * l) / l if l else k) - np.sin(x) / big
    else:
        s = (np.sin(x) * gap / big - 2.0 * np.cos(k * (l + big) / 2.0) * np.sin(k * gap / 2.0)) / l
    # below kL = 1: (L^2 - l^2) k^3 sum_n (-1)^(n+1) e_n k^(2n-2)/(2n+1)!,
    # e_n = sum_j L^2j l^(2(n-1-j)); nine terms reach 1e-18 of the first
    near = x < 1.0
    k2 = k[near] ** 2
    coefficients, e_n = [], 1.0
    for n, factorial in enumerate(_TAYLOR_FACTORIALS, 1):
        coefficients.append((-1) ** (n + 1) * e_n / factorial)
        e_n = e_n * big * big + l ** (2 * n)
    # Horner's rule written out: np.polyval starts from 0 x + c, a pass more
    # for the same bits
    series = coefficients[-1]
    for coefficient in coefficients[-2::-1]:
        series = series * k2 + coefficient
    s[near] = gap * (l + big) * k[near] * k2 * series
    return s


def _x_terms(k, a: float):
    """exp(-(k + a)^2) + exp(-(k - a)^2) and D(k + a) + D(k - a): the same
    bits as four calls on every node, with less work. The exponentials are
    taken only below |a| + sqrt(750), past which both are exactly 0 (and
    exp is slow to say so), and at a = 0 each pair is one call doubled."""
    gaussians = np.zeros_like(k)
    inside = k < abs(a) + _EXP_ZERO
    near = k[inside]
    if a == 0.0:
        gaussian, dawson = np.exp(-(near**2)), dawsn(k)
        gaussians[inside] = gaussian + gaussian
        return gaussians, dawson + dawson
    gaussians[inside] = np.exp(-((near + a) ** 2)) + np.exp(-((near - a) ** 2))
    return gaussians, dawsn(k + a) + dawsn(k - a)


def _c_span(m: float, a: float, big: float):
    """C's span at unit coupling (P's at m = omega, a = 0): its prefactor,
    panel edges, the factor of S and what makes the value of its integral;
    None where the prefactor underflows."""
    scale = math.exp(-m * m - a * a) / (2.0 * math.pi)
    if scale == 0.0:
        return None
    cut = ENVELOPE_CUT / (math.sqrt(m * m + ENVELOPE_CUT) + m)
    return (scale, _edges(cut, big, math.inf), lambda k: np.exp(-k * (k + 2.0 * m)),
            lambda value: scale * value)


def _x_span(m: float, a: float, l: float, big: float, gap: float):
    """X's span at unit coupling, as :func:`_c_span` gives C's."""
    scale = math.exp(-m * m) / (4.0 * math.pi)
    if scale == 0.0:
        return None
    c, c2 = 1.0 + a, (1.0 + a) ** 2
    # sum_m w_m k/(k^2 + c^2)^m matches D(k + a) + D(k - a) ~ 1/k + (a^2 +
    # 1/2)/k^3 + (a^4 + 3a^2 + 3/4)/k^5 + (a^6 + 15a^4/2 + 45a^2/4 + 15/8)/k^7
    w2 = a**2 + 0.5 + c2
    w3 = a**4 + 3.0 * a**2 + 0.75 - c2 * c2 + 2.0 * c2 * w2
    w4 = a**6 + 7.5 * a**4 + 11.25 * a**2 + 1.875 + c2**3 - 3.0 * c2 * c2 * w2 + 3.0 * c2 * w3

    def factor(k):
        q = 1.0 / (k * k + c2)
        fit = k * q * (1.0 + q * (w2 + q * (w3 + q * w4)))
        gaussians, dawsons = _x_terms(k, a)
        return np.stack((gaussians, _TWO_OVER_ROOT_PI * (dawsons - fit)))

    def value(integral):
        # the fit's transforms: int_0^inf sin(kr) k/(k^2 + c^2)^m dk =
        # r exp(-cr) Q_m(r), and S takes Q(l) exp(-cl) - Q(L) exp(-cL), with
        # Q(l) - Q(L) and exp(-c(L - l)) - 1 free of cancellation
        real, imag = integral
        q_big = math.pi * (1.0 / (2.0 * big) + w2 / (4.0 * c)
                           + w3 * (1.0 + c * big) / (16.0 * c**3)
                           + w4 * (3.0 + 3.0 * c * big + (c * big) ** 2) / (96.0 * c**5))
        q_drop = math.pi * gap * (1.0 / (2.0 * l * big) - w3 / (16.0 * c2)
                                  - w4 * (3.0 + c * (l + big)) / (96.0 * c2 * c2))
        imag += _TWO_OVER_ROOT_PI * math.exp(-c * l) * (q_drop - q_big * math.expm1(-c * gap))
        return -scale * complex(real, imag)

    # the panels widen past |a| + sqrt(ENVELOPE_CUT), where both Gaussians
    # are below exp(-ENVELOPE_CUT) and only the sine needs fine panels
    return scale, _edges(DAWSON_CUT * c, big, abs(a) + math.sqrt(ENVELOPE_CUT)), factor, value


def _integrals(names, m: float, a: float, l: float, big: float, gap: float):
    """Each named integral ("probability", "C" or "X") at unit coupling and
    its estimate, all from one :func:`_rule` with one sine difference; an
    underflowed prefactor gives exactly zero. Where :func:`_edges` refuses
    a span, no span after it is laid: the integrals before it come back
    with the refusal, for the caller to raise once it has certified them."""
    spans, refusal = [], None
    try:
        for name in names:
            spans.append(_x_span(m, a, l, big, gap) if name == "X" else _c_span(m, a, big))
    except ConvergenceError as error:
        refusal = error
    laid = [span[1:3] for span in spans if span]
    rule = iter(_rule(laid, lambda k: _sine_difference(k, l, big, gap)) if laid else ())
    results = []
    for name, span in zip(names, spans):
        if span is None:
            results.append(((0j if name == "X" else 0.0), 0.0))
        else:
            scale, _, _, value = span
            integral, estimate = next(rule)
            results.append((value(integral), scale * estimate))
    return results, refusal


def _certified(name: str, value, estimate: float):
    """``value``, if it and its ``estimate`` are finite and the estimate is
    within 10 x RTOL of it (of ``_ABS_FLOOR``, for smaller values)."""
    # nan fails every comparison, so it must be refused before the gate
    if not (cmath.isfinite(value) and math.isfinite(estimate)):
        raise ConvergenceError(f"the {name} integral is not finite ({value:.3e})")
    limit = 10.0 * RTOL * max(abs(value), _ABS_FLOOR)
    if estimate > limit:
        raise ConvergenceError(
            f"the {name} integral's panel estimate {estimate:.3e} exceeds 10 x RTOL x "
            f"scale = {limit:.3e}: the fixed rule does not reach RTOL = {RTOL:g} here"
        )
    return value


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
    eps, vals = [e for e, _ in pairs], [v for _, v in pairs]
    if any(e <= 0.0 for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValidationError("epsilons must be positive and strictly decreasing")
    # nan fails every comparison above, and an infinite first epsilon
    # passes them, with a zero error estimate
    if not all(map(math.isfinite, eps)):
        raise ValidationError("epsilons must be finite")

    def neville(xs, ts):
        t = list(ts)
        for k in range(1, len(t)):
            for i in range(len(t) - k):
                t[i] = t[i + 1] + (t[i + 1] - t[i]) * xs[i + k] / (xs[i] - xs[i + k])
        return t[0]

    limit = neville(eps, vals)
    estimate = abs(limit - neville(eps[-2:], vals[-2:]))
    dists = [abs(v - limit) for v in vals]
    if any(a < b for a, b in zip(dists, dists[1:])):
        warnings.warn("regulator values do not converge monotonically; the extrapolated "
                      "limit may be unreliable", stacklevel=2)
    return limit, estimate


def _values(names, *arguments):
    """The named integrals at unit coupling from :func:`_integrals`, each
    certified in turn, and then the refusal of a span none of them reached."""
    results, refusal = _integrals(names, *arguments)
    values = [_certified(name, *result) for name, result in zip(names, results)]
    if refusal is not None:
        raise refusal
    return values


def numeric_probability(omega: float, dz: float) -> float:
    """Excitation probability at unit coupling from its momentum integral."""
    omega, dz = float(omega), float(dz)
    if not math.isfinite(omega) or omega < 0.0:
        raise ValidationError("omega must be a nonnegative real")
    if not math.isfinite(dz) or dz <= 0.0:
        raise ValidationError("dz must be positive")
    (probability,) = _values(("probability",), omega, 0.0, 0.0, 2.0 * dz, 2.0 * dz)
    return probability


def _arguments(pair: DetectorPair, geom: BoundaryGeometry) -> tuple[float, ...]:
    """m, a, the separation l, the image separation L and the exact L - l,
    derived here rather than taken from the closed-form module."""
    l, dz = geom.separation, geom.boundary_distance
    if geom.alignment is Alignment.PARALLEL:
        big = math.hypot(l, 2.0 * dz)
        lengths = (l, big, 4.0 * dz * dz / (big + l))
    else:
        lengths = (l, l + 2.0 * dz, 2.0 * dz)
    return ((pair.omega_a + pair.omega_b) / 2.0, (pair.omega_b - pair.omega_a) / 2.0, *lengths)


def numeric_c(pair: DetectorPair, geom: BoundaryGeometry) -> complex:
    """Cross-excitation correlation from its momentum integral."""
    (c,) = _values(("C",), *_arguments(pair, geom))
    return complex(pair.coupling**2 * c)


def numeric_x(pair: DetectorPair, geom: BoundaryGeometry) -> complex:
    """Double-excitation coherence from its momentum integral."""
    (x,) = _values(("X",), *_arguments(pair, geom))
    return pair.coupling**2 * x


def numeric_correlations(
    pair: DetectorPair, geom: BoundaryGeometry, *, probabilities: dict | None = None
) -> CorrelationBlock:
    """``p_a``, ``p_b``, ``c`` and ``x`` of the pair from their momentum
    integrals: the oracle counterpart of ``correlations``. ``c`` and ``x``
    equal :func:`numeric_c` and :func:`numeric_x`, taken together on one
    rule, and each probability is :func:`numeric_probability` times the
    squared coupling.

    ``probabilities`` is a store its caller owns, a dict of unit-coupling
    probabilities keyed by ``(omega, dz)``: a probability found there is
    read, and one integrated here is added to it. Without one, a
    probability is integrated once when both detectors have the same gap
    and mirror distance. No value depends on the store."""
    lam2, dz = pair.coupling**2, geom.boundary_distance
    # detector B is l further from the mirror in the orthogonal alignment
    dz_b = dz + geom.separation if geom.alignment is Alignment.ORTHOGONAL else dz
    if probabilities is None:
        probabilities = {}
    keys = (pair.omega_a, dz), (pair.omega_b, dz_b)
    for key in keys:
        if key not in probabilities:
            probabilities[key] = numeric_probability(*key)
    c, x = _values(("C", "X"), *_arguments(pair, geom))
    return CorrelationBlock(
        p_a=lam2 * probabilities[keys[0]], p_b=lam2 * probabilities[keys[1]],
        c=complex(lam2 * c), x=lam2 * x,
    )

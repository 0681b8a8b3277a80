"""Shared helpers for the test suite."""

import math

import numpy as np
from scipy import special

from mirrorsteer.xstate_steering import XState, _state, _steering

# the Dirichlet weights of the diagonal: uniform on the simplex
_FLAT = np.ones(4)


def erf_maclaurin(z: complex, terms: int = 60) -> complex:
    """Maclaurin series for erf, accurate to ~1e-12 relative for |z| <= 3."""
    acc = 0.0 + 0.0j
    a = complex(z)  # a_n = z^(2n+1) / n!
    z2 = z * z
    for n in range(terms):
        acc += a / (2 * n + 1)
        a *= -z2 / (n + 1)
    return 2.0 / math.sqrt(math.pi) * acc


def erf_complex(z: complex) -> complex:
    """scipy's erf evaluated in the closed first quadrant and mapped back,
    so that erf(-z) = -erf(z) and erf(conj(z)) = conj(erf(z)) hold exactly."""
    z = complex(z)
    re, im = z.real, z.imag
    wc = complex(special.erf(complex(abs(re), abs(im))))
    if re >= 0.0:
        return wc if im >= 0.0 else wc.conjugate()
    return -wc.conjugate() if im >= 0.0 else -wc


def random_x_state(rng: np.random.Generator, physical: bool | None = None) -> XState:
    """Draw a random X-state.

    Diagonals are Dirichlet distributed. With ``physical=True`` the
    coherences respect |c14| <= sqrt(d11 d44) and |c23| <= sqrt(d22 d33);
    with ``physical=False`` their moduli are free up to 0.5, which covers
    the leading-order harvested states that sit outside the positivity
    cone. ``None`` mixes both cases evenly.
    """
    return XState(*random_x_entries(rng, physical))


def random_x_entries(rng: np.random.Generator, physical: bool | None = None) -> tuple:
    """The entries d11 to c23 of :func:`random_x_state`'s draw, from the same
    draws in the same order."""
    d11, d22, d33, d44 = rng.dirichlet(_FLAT)
    if physical is None:
        physical = bool(rng.integers(2))
    if physical:
        r14 = rng.uniform() * math.sqrt(d11 * d44)
        r23 = rng.uniform() * math.sqrt(d22 * d33)
    else:
        r14 = rng.uniform(0.0, 0.5)
        r23 = rng.uniform(0.0, 0.5)
    ph14, ph23 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return (
        float(d11),
        float(d22),
        float(d33),
        float(d44),
        r14 * complex(math.cos(ph14), math.sin(ph14)),
        r23 * complex(math.cos(ph23), math.sin(ph23)),
    )


def observe(ns, d11, d22, d33, d44, c14, c23):
    """The columns of ``_steering`` for these entries, checked and clamped as
    :class:`XState` does, and the verdict: one point raises the first rule it
    fails; over arrays, with numpy's warnings off, ``ok`` is true exactly
    where :class:`XState` accepts the point, the columns elsewhere
    placeholders.  Generic X-state arrays go through it; the library's sweeps
    and searches read ``_steering`` on states their blocks already vouch for."""
    state, ok = _state(ns, d11, d22, d33, d44, c14, c23)
    if ok is not True:
        # the modulus of a refused coherence can overflow abs
        c14, c23 = ns.where(ok, c14, 0.0), ns.where(ok, c23, 0.0)
    return _steering(ns, state.d11, state.d22, state.d33, state.d44, c14, c23), ok

"""Shared helpers for the test suite."""

import math

import numpy as np

from mirrorsteer.xstate_steering import XState

# the Dirichlet weights of the diagonal: uniform on the simplex
_FLAT = np.ones(4)


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

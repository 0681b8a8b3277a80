"""Every real input of the library is read one way, by ``errors._real``: a
``numbers.Real`` that a double holds becomes its ``float()``, and anything
else (text, None, a complex number, an int beyond the doubles) raises
exactly :class:`ValidationError`, naming the input.  Every complex input is
read by ``errors._complex`` in the same way, into its ``complex()``."""

from fractions import Fraction

import numpy as np
import pytest

from mirrorsteer.detector_model import (
    Alignment,
    BoundaryGeometry,
    CorrelationBlock,
    DetectorPair,
    boundary_free_correlations,
    free_space_probability,
    transition_probability,
)
from mirrorsteer.errors import ValidationError
from mirrorsteer.integral_oracle import numeric_probability
from mirrorsteer.sweep_optimize import (
    Direction,
    Objective,
    SweepAxis,
    figure_dataset,
    find_peak,
    find_transition,
)
from mirrorsteer.xstate_steering import XState

PAIR = DetectorPair(0.1, 0.1)
# s_ba peaks near dz = 0.93 here, and A->B steering dies near l = 0.75
NEAR = BoundaryGeometry(Alignment.PARALLEL, 0.05, 1.0)
ORT = BoundaryGeometry(Alignment.ORTHOGONAL, 1.0, 1.0)


def _typed(whole, real):
    """An int (where the input takes one), an ``np.float32`` and a
    ``Fraction`` the entry point accepts."""
    typed = (np.float32(real), Fraction(str(real)))
    return typed if whole is None else (whole, *typed)


# (entry point of one real input, the name it is given, its accepted
# int, or None where no int is in its domain, and an accepted real)
ENTRIES = {
    "DetectorPair.omega_a": (lambda v: DetectorPair(v, 5.0), "omega_a", 1, 0.3),
    "DetectorPair.omega_b": (lambda v: DetectorPair(0.1, v), "omega_b", 1, 0.3),
    "DetectorPair.coupling": (lambda v: DetectorPair(0.1, 0.2, v), "coupling", 1, 0.3),
    "BoundaryGeometry.separation": (
        lambda v: BoundaryGeometry("parallel", v, 1.0), "separation", 2, 0.3),
    "BoundaryGeometry.boundary_distance": (
        lambda v: BoundaryGeometry("orthogonal", 1.0, v), "boundary_distance", 2, 0.3),
    "CorrelationBlock.p_a": (lambda v: CorrelationBlock(v, 0.1, 0.01, 0.02j), "p_a", 0, 0.3),
    "CorrelationBlock.p_b": (lambda v: CorrelationBlock(0.1, v, 0.01, 0.02j), "p_b", 0, 0.3),
    # the diagonal sums to 1 within 1e-12: no int completes it, and the
    # real is dyadic, so that its float32 is exact
    "XState.d11": (lambda v: XState(v, 0.25, 0.0, 0.0), "d11", None, 0.75),
    "XState.d22": (lambda v: XState(0.25, v, 0.0, 0.0), "d22", None, 0.75),
    "XState.d33": (lambda v: XState(0.25, 0.0, v, 0.0), "d33", None, 0.75),
    "XState.d44": (lambda v: XState(0.25, 0.0, 0.0, v), "d44", None, 0.75),
    "free_space_probability.omega": (lambda v: free_space_probability(v), "omega", 1, 0.3),
    "free_space_probability.coupling": (
        lambda v: free_space_probability(0.1, v), "coupling", 1, 0.3),
    "transition_probability.omega": (
        lambda v: transition_probability(v, 1.0), "omega", 1, 0.3),
    "transition_probability.boundary_distance": (
        lambda v: transition_probability(0.1, v), "boundary_distance", 1, 0.3),
    "transition_probability.coupling": (
        lambda v: transition_probability(0.1, 1.0, v), "coupling", 1, 0.3),
    "boundary_free_correlations.separation": (
        lambda v: boundary_free_correlations(PAIR, v), "separation", 1, 0.3),
    "numeric_probability.omega": (lambda v: numeric_probability(v, 1.0), "omega", 1, 0.3),
    "numeric_probability.dz": (lambda v: numeric_probability(0.1, v), "dz", 1, 0.3),
    "figure_dataset.separations": (
        lambda v: figure_dataset("fig6", resolution=3, separations=(0.05, v)),
        "a separation", 1, 0.3),
    "SweepAxis.start": (lambda v: SweepAxis("separation", v, 5.0, 3), "a sweep start", 1, 0.3),
    "SweepAxis.stop": (lambda v: SweepAxis("separation", 0.1, v, 3), "a sweep stop", 1, 0.3),
    "find_peak.lo": (
        lambda v: find_peak(PAIR, NEAR, "boundary-distance", (v, 3.0), Objective.S_BA),
        "peak bracket end lo", None, 0.3),
    "find_peak.hi": (
        lambda v: find_peak(PAIR, NEAR, "boundary-distance", (0.25, v), Objective.S_BA),
        "peak bracket end hi", 3, 2.9),
    "find_transition.lo": (
        lambda v: find_transition(PAIR, ORT, "separation", (v, 3.0), Direction.A_TO_B),
        "transition bracket end lo", None, 0.3),
    "find_transition.hi": (
        lambda v: find_transition(PAIR, ORT, "separation", (0.25, v), Direction.A_TO_B),
        "transition bracket end hi", 3, 2.9),
}
REFUSED = {
    "text": "0.1",
    "none": None,
    "complex": 1j,
    "beyond-doubles": 10**400,
    "two-to-1024": 2**1024,
}


@pytest.mark.parametrize("value", REFUSED.values(), ids=REFUSED.keys())
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_refused_with_the_input_named(entry, value):
    call, name, _, _ = entry
    with pytest.raises(ValidationError) as info:
        call(value)
    assert type(info.value) is ValidationError
    assert str(info.value).startswith(f"{name} "), str(info.value)


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_accepted_reals_read_as_their_float(entry):
    # repr tells a float field from an np.float32 or Fraction one, and each
    # float's repr round-trips its bits
    call, _, whole, real = entry
    for value in _typed(whole, real):
        assert repr(call(value)) == repr(call(float(value))), value


def test_figure_separations_read_before_labels():
    # refused with its name before a curve label formats it with :.2f
    with pytest.raises(ValidationError) as info:
        figure_dataset("fig6", resolution=3, separations=("2",))
    assert str(info.value) == "a separation must be a real number, got '2'"


def test_figure_separations_may_be_any_iterable():
    want = figure_dataset("fig6", resolution=3, separations=(0.05, 2.0))
    assert figure_dataset("fig6", resolution=3, separations=iter((0.05, 2.0))) == want
    assert figure_dataset("fig6", resolution=3, separations=(s for s in (0.05, 2.0))) == want


def test_figure_separations_must_be_iterable():
    # a lone number is refused by the name of the argument it was passed as
    with pytest.raises(ValidationError) as info:
        figure_dataset("fig6", resolution=3, separations=2.0)
    assert type(info.value) is ValidationError
    assert str(info.value).startswith("separations "), str(info.value)


# (entry point of one complex input, the name it is given)
COMPLEX_ENTRIES = {
    "CorrelationBlock.c": (lambda v: CorrelationBlock(0.1, 0.1, v, 0.02j), "c"),
    "CorrelationBlock.x": (lambda v: CorrelationBlock(0.1, 0.1, 0.01, v), "x"),
    "XState.c14": (lambda v: XState(0.5, 0.5, 0.0, 0.0, v), "c14"),
    "XState.c23": (lambda v: XState(0.5, 0.5, 0.0, 0.0, 0j, v), "c23"),
}
COMPLEX_REFUSED = {
    "text": "0.1j",
    "none": None,
    "bytes": b"1",
    "beyond-doubles": 10**400,
}


@pytest.mark.parametrize("value", COMPLEX_REFUSED.values(), ids=COMPLEX_REFUSED.keys())
@pytest.mark.parametrize("entry", COMPLEX_ENTRIES.values(), ids=COMPLEX_ENTRIES.keys())
def test_complex_refused_with_the_input_named(entry, value):
    call, name = entry
    with pytest.raises(ValidationError) as info:
        call(value)
    assert type(info.value) is ValidationError
    assert str(info.value).startswith(f"{name} "), str(info.value)


@pytest.mark.parametrize("entry", COMPLEX_ENTRIES.values(), ids=COMPLEX_ENTRIES.keys())
def test_accepted_complex_read_as_their_complex(entry):
    call, _ = entry
    for value in (1, np.complex64(0.01 + 0.02j), Fraction(1, 100), np.float32(0.01)):
        assert repr(call(value)) == repr(call(complex(value))), value

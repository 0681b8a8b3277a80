"""The calls one evaluator point and the certification route make, counted
without a clock.

A search evaluates a point at a time and certification builds ``XState``s,
so on those routes the time goes to per-call scaffolding as much as to the
arithmetic.  ``sys.setprofile`` sees each Python-level call ("call") and each
call of a C function ("c_call"; a type's construction, such as a
``SimpleNamespace``, is neither), so the counts below are exact and repeat
from run to run.  A change that adds a layer, a helper or a namespace to
these routes moves a count and fails here, which is the point: pin the new
count only with a measurement that shows the layer pays for itself.  The
namespaces a route builds, which the profiler cannot see, are counted by a
subclass put in place of the modules' ``SimpleNamespace``.
"""

import sys
from types import SimpleNamespace

import pytest

from mirrorsteer import detector_model, xstate_steering
from mirrorsteer.detector_model import (
    Alignment,
    BoundaryGeometry,
    DetectorPair,
    _block_evaluator,
    correlations,
    joint_state,
)
from mirrorsteer.xstate_steering import XState, build_tau_ab


def _calls(fn, *args):
    """The Python-level and C calls ``fn(*args)`` makes, itself included and
    the ``sys.setprofile`` call that ends the count excluded."""
    counts = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    counts["c_call"] -= 1
    return counts


# (Python-level calls, C calls) of one point away from the series crossover:
# the evaluator, the rules of the swept input, its stages, the phase and
# block rules and the steering of the block's X-state.  One point's max is
# the Python-level ``_larger``, which costs a third of the builtin's C call,
# so each of its five to seven calls counts as a Python-level one.  The one
# ``tuple.__new__`` names the block values the evaluator returns
_POINT_CALLS = {
    (Alignment.PARALLEL, "separation"): (29, 31),
    (Alignment.PARALLEL, "boundary_distance"): (30, 27),
    (Alignment.PARALLEL, "omega_b"): (34, 38),
    (Alignment.ORTHOGONAL, "separation"): (32, 31),
    (Alignment.ORTHOGONAL, "boundary_distance"): (30, 26),
    (Alignment.ORTHOGONAL, "omega_b"): (34, 38),
}

PAIR = DetectorPair(0.1, 0.2)
GEOMETRIES = {alignment: BoundaryGeometry(alignment, 1.0, 1.0) for alignment in Alignment}
ENTRIES = (0.5, 0.2, 0.3, 0.0, 0.1 + 0.01j, 0.05)


@pytest.mark.parametrize("alignment, swept", list(_POINT_CALLS), ids=str)
def test_evaluator_point(alignment, swept):
    evaluate = _block_evaluator(PAIR, GEOMETRIES[alignment], swept)
    python, c = _POINT_CALLS[alignment, swept]
    assert _calls(evaluate, 0.7) == {"call": python, "c_call": c}


def test_xstate():
    # its own __init__, the readers of its six inputs, _state with its four
    # clamps (``_larger``), and the rule table
    assert _calls(XState, *ENTRIES) == {"call": 14, "c_call": 9}


# the certification route of a located point: its block, and the operators
# whose concurrences certify each steering direction
@pytest.mark.parametrize("alignment", list(Alignment), ids=str)
def test_correlations(alignment):
    # the pair terms, the entries with both kernels and both probabilities,
    # the phase rules and the CorrelationBlock with its readers and rules
    assert _calls(correlations, PAIR, GEOMETRIES[alignment]) == {"call": 30, "c_call": 26}


def test_build_tau_ab():
    # the map's entries, its two complex coherences and one XState
    state = joint_state(PAIR, GEOMETRIES[Alignment.PARALLEL])
    assert _calls(build_tau_ab, state) == {"call": 17, "c_call": 8}


class _Counted(SimpleNamespace):
    """A ``SimpleNamespace`` that counts its constructions."""

    made = 0

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def namespaces(monkeypatch):
    """The number of namespaces the model's modules build while the test
    runs, read through ``namespaces()``."""
    monkeypatch.setattr(_Counted, "made", 0)
    for module in (detector_model, xstate_steering):
        monkeypatch.setattr(module, "SimpleNamespace", _Counted)
    return lambda: _Counted.made


def test_the_count_sees_a_namespace(namespaces):
    detector_model.SimpleNamespace(p_a=0.1)
    xstate_steering.SimpleNamespace()
    assert namespaces() == 2


@pytest.mark.parametrize("alignment, swept", list(_POINT_CALLS), ids=str)
def test_evaluator_point_builds_no_namespace(alignment, swept, namespaces):
    evaluate = _block_evaluator(PAIR, GEOMETRIES[alignment], swept)
    evaluate(0.7)
    assert namespaces() == 0


def test_certification_builds_no_namespace(namespaces):
    correlations(PAIR, GEOMETRIES[Alignment.ORTHOGONAL])
    build_tau_ab(XState(*ENTRIES))
    assert namespaces() == 0

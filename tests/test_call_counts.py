"""The calls one evaluator point and one ``XState`` make, counted without a
clock.

A search evaluates a point at a time and certification builds ``XState``s,
so on those routes the time goes to per-call scaffolding as much as to the
arithmetic.  ``sys.setprofile`` sees each Python-level call ("call") and each
call of a C function ("c_call"; a type's construction, such as a
``SimpleNamespace``, is neither), so the counts below are exact and repeat
from run to run.  A change that adds a layer, a helper or a namespace to
these routes moves a count and fails here, which is the point: pin the new
count only with a measurement that shows the layer pays for itself.
"""

import sys

import pytest

from mirrorsteer.detector_model import (
    Alignment,
    BoundaryGeometry,
    DetectorPair,
    _block_evaluator,
)
from mirrorsteer.xstate_steering import XState


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
# so each of its five to seven calls counts as a Python-level one
_POINT_CALLS = {
    (Alignment.PARALLEL, "separation"): (32, 30),
    (Alignment.PARALLEL, "boundary_distance"): (32, 26),
    (Alignment.PARALLEL, "omega_b"): (37, 37),
    (Alignment.ORTHOGONAL, "separation"): (35, 30),
    (Alignment.ORTHOGONAL, "boundary_distance"): (32, 25),
    (Alignment.ORTHOGONAL, "omega_b"): (37, 37),
}


@pytest.mark.parametrize("alignment, swept", list(_POINT_CALLS), ids=str)
def test_evaluator_point(alignment, swept):
    evaluate = _block_evaluator(DetectorPair(0.1, 0.2), BoundaryGeometry(alignment, 1.0, 1.0),
                                swept)
    python, c = _POINT_CALLS[alignment, swept]
    assert _calls(evaluate, 0.7) == {"call": python, "c_call": c}


def test_xstate():
    # the generated __init__, __post_init__, the readers of its six inputs,
    # _state with its four clamps (``_larger``), and the rule table
    assert _calls(XState, 0.5, 0.2, 0.3, 0.0, 0.1 + 0.01j, 0.05) == {"call": 15, "c_call": 9}

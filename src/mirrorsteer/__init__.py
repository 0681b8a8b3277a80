"""Directional quantum steering harvested from the vacuum by a pair of
static detectors near a perfectly reflecting plane boundary.

The package computes the leading-order joint detector state for Gaussian
switching, evaluates one-way steering in both directions, and exposes
sweep and optimization helpers plus a command line interface.
"""

from .detector_model import (
    Alignment,
    BoundaryGeometry,
    CorrelationBlock,
    DetectorPair,
    boundary_free_correlations,
    boundary_free_steering,
    config_difference,
    correlations,
    free_space_probability,
    harvested_steering,
    joint_state,
    steering_from_block,
    transition_probability,
)
from .errors import ConvergenceError, PerturbativeValidityError, ValidationError
from .integral_oracle import (
    extrapolate_epsilon,
    numeric_c,
    numeric_correlations,
    numeric_probability,
    numeric_x,
)
from .special_functions import faddeeva_w
from .sweep_optimize import (
    Direction,
    FigureId,
    Objective,
    PeakResult,
    SweepAxis,
    SweepScale,
    SweepTable,
    SweepVariable,
    TransitionKind,
    TransitionResult,
    figure_dataset,
    find_peak,
    find_transition,
    sweep,
)
from .xstate_steering import (
    SteeringResult,
    XState,
    build_tau_ab,
    build_tau_ba,
    concurrence,
    steering_a_to_b,
    steering_asymmetry,
    steering_b_to_a,
)

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "BoundaryGeometry",
    "ConvergenceError",
    "CorrelationBlock",
    "DetectorPair",
    "Direction",
    "FigureId",
    "Objective",
    "PeakResult",
    "PerturbativeValidityError",
    "SteeringResult",
    "SweepAxis",
    "SweepScale",
    "SweepTable",
    "SweepVariable",
    "TransitionKind",
    "TransitionResult",
    "ValidationError",
    "XState",
    "__version__",
    "boundary_free_correlations",
    "boundary_free_steering",
    "build_tau_ab",
    "build_tau_ba",
    "concurrence",
    "config_difference",
    "correlations",
    "extrapolate_epsilon",
    "faddeeva_w",
    "figure_dataset",
    "find_peak",
    "find_transition",
    "free_space_probability",
    "harvested_steering",
    "joint_state",
    "numeric_c",
    "numeric_correlations",
    "numeric_probability",
    "numeric_x",
    "steering_a_to_b",
    "steering_asymmetry",
    "steering_b_to_a",
    "steering_from_block",
    "sweep",
    "transition_probability",
]

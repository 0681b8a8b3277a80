"""Parameter sweeps and one-dimensional optimization over the detector model.

Everything here drives the closed-form model in :mod:`mirrorsteer.detector_model`
along a single axis: detector separation, distance to the mirror, or the gap
of detector B.  Sweeps tabulate the observables as named columns, evaluating
the whole grid in one array pass through the model's array kernels, equal bit
for bit to evaluating each point alone; peak and transition finders, whose
evaluations each depend on the last, take the one-point route and refine
features of those curves to 1e-6 in the swept variable.  The figure builders
reproduce the standard curve families (steering versus separation, versus
mirror distance, versus detector gap, and the alignment difference) as
labelled tables.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .detector_model import (
    Alignment,
    BoundaryGeometry,
    CorrelationBlock,
    DetectorPair,
    boundary_free_correlations,
    correlation_arrays,
    correlations,
    steering_from_block,
)
from .errors import ConvergenceError, ValidationError
from .xstate_steering import SteeringResult, _moduli, steering_arrays

__all__ = [
    "OBSERVABLES",
    "SweepVariable",
    "SweepScale",
    "SweepAxis",
    "SweepTable",
    "Objective",
    "PeakResult",
    "Direction",
    "TransitionKind",
    "TransitionResult",
    "FigureId",
    "sweep",
    "find_peak",
    "find_transition",
    "figure_dataset",
]

REFINE_TOL = 1e-6
# largest grid a SweepAxis accepts; refused before anything is allocated
MAX_POINTS = 1_000_000

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class SweepVariable(enum.Enum):
    SEPARATION = "separation"
    BOUNDARY_DISTANCE = "boundary-distance"
    OMEGA_B = "omega-b"


class SweepScale(enum.Enum):
    LINEAR = "linear"
    LOG = "log"


class Objective(enum.Enum):
    S_AB = "sab"
    S_BA = "sba"
    ASYMMETRY = "asym"


class Direction(enum.Enum):
    A_TO_B = "ab"
    B_TO_A = "ba"


class TransitionKind(enum.Enum):
    SUDDEN_DEATH = "sudden-death"
    SUDDEN_BIRTH = "sudden-birth"


class FigureId(enum.Enum):
    FIG2 = "fig2"
    FIG4 = "fig4"
    FIG5 = "fig5"
    FIG6 = "fig6"
    FIG7 = "fig7"


@dataclass(frozen=True)
class SweepAxis:
    """One-dimensional grid specification for :func:`sweep`."""

    variable: SweepVariable
    start: float
    stop: float
    points: int
    scale: SweepScale = SweepScale.LINEAR

    def __post_init__(self):
        object.__setattr__(self, "variable", SweepVariable(self.variable))
        object.__setattr__(self, "scale", SweepScale(self.scale))
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValidationError("sweep range must be finite")
        if not self.start < self.stop:
            raise ValidationError(
                f"sweep range is empty: start {self.start} must be below stop {self.stop}"
            )
        if not 2 <= self.points <= MAX_POINTS:
            raise ValidationError(
                f"a sweep takes 2 to {MAX_POINTS} grid points, got {self.points}"
            )
        if self.scale is SweepScale.LOG and self.start <= 0.0:
            raise ValidationError("log-scaled sweeps need a positive start")

    def grid(self) -> np.ndarray:
        if self.scale is SweepScale.LOG:
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


# the observables of a sweep, in the column order after ``axis``
OBSERVABLES = ("p_a", "p_b", "abs_c", "abs_x", "s_ab", "s_ba", "asymmetry", "concurrence")


def observable_values(block: CorrelationBlock, res: SteeringResult) -> tuple[float, ...]:
    """The :data:`OBSERVABLES` of one point, from its block and steering."""
    return (
        block.p_a, block.p_b, abs(block.c), abs(block.x),
        res.s_ab, res.s_ba, res.asymmetry, res.concurrence,
    )


def observable_columns(
    grid: Sequence[float], columns: Iterable[Sequence[float]]
) -> dict[str, tuple[float, ...]]:
    """The ``axis`` column and the :data:`OBSERVABLES` columns, in order."""
    return {"axis": tuple(grid), **{n: tuple(c) for n, c in zip(OBSERVABLES, columns)}}


@dataclass(frozen=True)
class SweepTable:
    """Named columns along one axis, ``axis`` first, with the (name, value)
    of each parameter they were computed with but the swept one, in CSV
    metadata order."""

    variable: SweepVariable
    columns: dict[str, tuple[float, ...]]
    params: tuple[tuple[str, float | str], ...] = ()

    def column(self, name: str) -> tuple[float, ...]:
        return self.columns[name]


@dataclass(frozen=True)
class PeakResult:
    location: float
    value: float
    bracket: tuple[float, float]
    iterations: int


@dataclass(frozen=True)
class TransitionResult:
    location: float
    kind: TransitionKind
    direction: Direction


def _apply(
    pair: DetectorPair,
    geom: BoundaryGeometry,
    variable: SweepVariable,
    value: float,
) -> tuple[DetectorPair, BoundaryGeometry]:
    """Return copies of the pair and geometry with one field overridden."""
    if variable is SweepVariable.SEPARATION:
        return pair, dataclasses.replace(geom, separation=value)
    if variable is SweepVariable.BOUNDARY_DISTANCE:
        return pair, dataclasses.replace(geom, boundary_distance=value)
    return DetectorPair(pair.omega_a, value, coupling=pair.coupling), geom


def _evaluate(
    pair: DetectorPair,
    geom: BoundaryGeometry,
    variable: SweepVariable,
    value: float,
) -> tuple[float, ...]:
    """The :func:`observable_values` at one grid point."""
    try:
        pair_v, geom_v = _apply(pair, geom, variable, value)
        block = correlations(pair_v, geom_v)
        res = steering_from_block(block)
    except (ValidationError, ConvergenceError) as exc:
        raise type(exc)(f"at {variable.value} = {value:g}: {exc}") from exc
    return observable_values(block, res)


_SEP = SweepVariable.SEPARATION
_DZ = SweepVariable.BOUNDARY_DISTANCE
_WB = SweepVariable.OMEGA_B
# metadata name of the parameter each variable overrides
_PARAM_NAME = {_SEP: "l", _DZ: "dz", _WB: "omega_b"}


def _grid_columns(
    pair: DetectorPair, geom: BoundaryGeometry, variable: SweepVariable, grid: np.ndarray
) -> dict[str, tuple[float, ...]]:
    """The columns of :func:`sweep` in one array pass, bit for bit those of
    :func:`_evaluate` at each point."""
    n = grid.size
    values = {
        _SEP: np.full(n, geom.separation),
        _DZ: np.full(n, geom.boundary_distance),
        _WB: np.full(n, pair.omega_b),
    }
    values[variable] = grid
    p_a, p_b, c, x = correlation_arrays(
        pair.omega_a, values[_WB], pair.coupling, geom.alignment, values[_SEP], values[_DZ]
    )
    steering = steering_arrays(1.0 - p_a - p_b, p_b, p_a, np.zeros(n), x, c)
    columns = (p_a, p_b, np.abs(c), _moduli(x), *steering)
    return observable_columns(grid.tolist(), (col.tolist() for col in columns))


def sweep(pair: DetectorPair, geom: BoundaryGeometry, axis: SweepAxis) -> SweepTable:
    """Tabulate the harvested observables along one parameter axis.

    The swept variable overrides the matching field of ``pair`` or ``geom``
    at each grid point; all other fields are held fixed and recorded in
    the table's ``params``.  The grid is evaluated in one array pass, equal
    bit for bit to the one-point route.  Validation and convergence errors
    are re-raised as the same type with the first offending grid point
    named; any other exception propagates unchanged.
    """
    grid = axis.grid()
    try:
        columns = _grid_columns(pair, geom, axis.variable, grid)
    except (ValidationError, ConvergenceError):
        # the array pass does not say which point failed: the one-point
        # route raises the first failing point's own error
        values = [_evaluate(pair, geom, axis.variable, v) for v in grid.tolist()]
        columns = observable_columns(grid.tolist(), zip(*values))
    params = {
        "omega_a": pair.omega_a,
        "omega_b": pair.omega_b,
        "lambda": pair.coupling,
        "resolution": axis.points,
        "alignment": geom.alignment.value,
        "l": geom.separation,
        "dz": geom.boundary_distance,
    }
    del params[_PARAM_NAME[axis.variable]]
    return SweepTable(axis.variable, columns, params=tuple(params.items()))


# the observable each objective and each direction reads
_OBSERVABLE_OF = {
    Objective.S_AB: "s_ab",
    Objective.S_BA: "s_ba",
    Objective.ASYMMETRY: "asymmetry",
    Direction.A_TO_B: "s_ab",
    Direction.B_TO_A: "s_ba",
}


def _bracket(bracket: tuple[float, float], kind: str) -> tuple[float, float]:
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"{kind} bracket ({lo:g}, {hi:g}) must be finite")
    if not lo < hi:
        raise ValidationError(f"{kind} bracket must satisfy lo < hi")
    return lo, hi


def find_peak(
    pair: DetectorPair,
    geom: BoundaryGeometry,
    variable: SweepVariable,
    bracket: tuple[float, float],
    objective: Objective,
) -> PeakResult:
    """Locate an interior maximum of a steering objective by golden section.

    The bracket must already isolate a peak: the midpoint value has to
    exceed both endpoint values, otherwise the search is refused.  The
    returned location is resolved to within ``REFINE_TOL``.
    """
    variable = SweepVariable(variable)
    objective = Objective(objective)
    lo, hi = _bracket(bracket, "peak")
    index = OBSERVABLES.index(_OBSERVABLE_OF[objective])
    objective_fn = lambda v: _evaluate(pair, geom, variable, v)[index]

    f_lo = objective_fn(lo)
    f_hi = objective_fn(hi)
    mid = 0.5 * (lo + hi)
    f_mid = objective_fn(mid)
    if not (f_mid > f_lo and f_mid > f_hi):
        raise ValidationError(
            "bracket midpoint does not dominate the endpoints; run a coarse "
            "sweep first to isolate the peak"
        )

    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = objective_fn(c)
    fd = objective_fn(d)
    iterations = 0
    while (b - a) > REFINE_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = objective_fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = objective_fn(d)
        iterations += 1

    location, value = (c, fc) if fc > fd else (d, fd)
    if f_mid > value:
        location, value = mid, f_mid
    return PeakResult(
        location=location, value=value, bracket=(lo, hi), iterations=iterations
    )


def find_transition(
    pair: DetectorPair,
    geom: BoundaryGeometry,
    variable: SweepVariable,
    bracket: tuple[float, float],
    direction: Direction,
) -> TransitionResult:
    """Bisect for the boundary between steerable and unsteerable parameters.

    ``direction`` selects which steering direction is probed.  The bracket
    endpoints must disagree on whether steering is present; the crossing is
    then resolved to within ``REFINE_TOL`` and classified as a sudden death
    (live side below) or sudden birth (live side above).
    """
    variable = SweepVariable(variable)
    direction = Direction(direction)
    lo, hi = _bracket(bracket, "transition")
    index = OBSERVABLES.index(_OBSERVABLE_OF[direction])
    indicator_fn = lambda v: _evaluate(pair, geom, variable, v)[index] > 0.0

    live_lo = indicator_fn(lo)
    live_hi = indicator_fn(hi)
    if live_lo == live_hi:
        raise ValidationError(
            "transition bracket endpoints agree; pick a bracket that "
            "straddles the boundary"
        )

    a, b = lo, hi
    while (b - a) > REFINE_TOL:
        mid = 0.5 * (a + b)
        if indicator_fn(mid) == live_lo:
            a = mid
        else:
            b = mid
    kind = TransitionKind.SUDDEN_DEATH if live_lo else TransitionKind.SUDDEN_BIRTH
    return TransitionResult(location=0.5 * (a + b), kind=kind, direction=direction)


@dataclass(frozen=True)
class _FigureSpec:
    """One canonical figure: a sweep per alignment and family member.  The
    lengths the axis or the family override are placeholders."""

    variable: SweepVariable
    start: float | None  # None: the pair's omega_a, the smallest gap B may take
    stop: float
    alignments: tuple[Alignment, ...]
    separation: float
    boundary_distance: float
    family: SweepVariable | None = None  # labels the curves, one per value
    members: tuple[float, ...] = ()  # family values; fig6 takes ``separations``
    extra: str = ""  # label of the derived table: "boundary_free" or "difference"


_PAR, _ORT = (Alignment.PARALLEL,), (Alignment.ORTHOGONAL,)
_BOTH = _PAR + _ORT
_FIGURES = {
    FigureId.FIG2: _FigureSpec(_SEP, 0.05, 3.0, _PAR, 1.0, 1.0, _WB, (0.1, 0.2, 0.3)),
    FigureId.FIG4: _FigureSpec(_SEP, 0.05, 3.0, _ORT, 1.0, 1.0, _WB, (0.1, 0.2, 0.3)),
    FigureId.FIG5: _FigureSpec(_DZ, 1e-4, 8.0, _BOTH, 0.05, 1.0, extra="boundary_free"),
    FigureId.FIG6: _FigureSpec(_WB, None, 6.0, _BOTH, 1.0, 1.0, _SEP),
    FigureId.FIG7: _FigureSpec(_SEP, 0.05, 3.0, _BOTH, 1.0, 1.0, extra="difference"),
}
# curve-label name of each family variable
_FAMILY_NAME = {_WB: "omega_b", _SEP: "L"}


def figure_dataset(
    figure_id: FigureId | str,
    pair: DetectorPair | None = None,
    resolution: int = 200,
    separations: Sequence[float] = (0.05, 2.0),
) -> dict[str, SweepTable]:
    """Build the labelled table set behind one of the standard figures.

    ``fig2``/``fig4``: steering versus separation for the detector-B gaps
    0.1, 0.2 and 0.3, parallel and orthogonal respectively.
    ``fig5``: steering versus mirror distance, both alignments, plus a
    constant boundary-free reference table.
    ``fig6``: steering versus the detector-B gap, both alignments, at each
    separation of ``separations``.
    ``fig7``: both alignments versus separation and their
    orthogonal-minus-parallel steering difference.
    Every table carries the parameters it was computed with.
    """
    figure_id = FigureId(figure_id)
    spec = _FIGURES[figure_id]
    if pair is None:
        pair = DetectorPair(omega_a=0.1, omega_b=0.1)
    if spec.start is None and not pair.omega_a < spec.stop:
        raise ValidationError(
            f"{figure_id.value} sweeps omega_b from omega_a up to {spec.stop:g}, "
            f"an empty range with omega_a = {pair.omega_a:g}"
        )
    start = pair.omega_a if spec.start is None else spec.start
    axis = SweepAxis(spec.variable, start, spec.stop, resolution)
    family = separations if spec.family is _SEP else spec.members or (None,)

    out: dict[str, SweepTable] = {}
    for alignment in spec.alignments:
        geom = BoundaryGeometry(alignment, spec.separation, spec.boundary_distance)
        for value in family:
            label = alignment.value
            curve_pair, curve_geom = pair, geom
            if spec.family is not None:
                name = _FAMILY_NAME[spec.family]
                label += f" {name}={value:.2f}"
                if label in out:
                    values = " and ".join(f"{v:g}" for v in family)
                    raise ValidationError(
                        f"{figure_id.value} curves at {name} = {values} share the "
                        f"label {label!r}; labels keep two decimals"
                    )
                try:
                    curve_pair, curve_geom = _apply(pair, geom, spec.family, value)
                except ValidationError as exc:
                    # a gap member fails against omega_a, a separation on its own
                    culprit = (
                        f"omega_a = {pair.omega_a:g}"
                        if spec.family is _WB
                        else f"separation = {value:g}"
                    )
                    raise ValidationError(
                        f"curve {label!r} cannot be built with {culprit}: {exc}"
                    ) from exc
            out[label] = sweep(curve_pair, curve_geom, axis)
    if not spec.extra:
        return out

    # the derived table holds what the parallel curve holds, bar its alignment
    par = out[Alignment.PARALLEL.value]
    params = tuple(p for p in par.params if p[0] != "alignment")
    grid = par.column("axis")
    if spec.extra == "boundary_free":
        free = boundary_free_correlations(pair, spec.separation)
        values = observable_values(free, steering_from_block(free))
        columns = observable_columns(grid, ([v] * len(grid) for v in values))
    else:
        ort = out[Alignment.ORTHOGONAL.value]
        columns = {"axis": grid} | {
            f"delta_{n}": tuple(o - p for p, o in zip(par.column(n), ort.column(n)))
            for n in ("s_ab", "s_ba")
        }
    out[spec.extra] = SweepTable(axis.variable, columns, params)
    return out

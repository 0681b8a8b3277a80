"""Parameter sweeps and one-dimensional optimization over the detector model.

Everything here drives the closed-form model in :mod:`mirrorsteer.detector_model`
along a single axis: detector separation, distance to the mirror, or the gap
of detector B.  Sweeps and searches share one evaluator, built per call, which
holds fixed what the swept variable does not move
(:func:`~mirrorsteer.detector_model._block_evaluator`).  Sweeps tabulate the
observables as named columns, applying it to the whole grid in one array
pass, equal bit for bit to evaluating each point alone; a refused grid is
reported by evaluating its first failing point alone.  Peak and transition
finders, whose evaluations each depend on the last, apply it one point at a
time and refine features of those curves to 1e-6 in the swept variable: a peak by
Brent's minimiser, a transition by Dekker-Brent zeroin on the signed steering
margin (R. Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 4-5).
The figure builders reproduce the standard curve families (steering versus
separation, versus mirror distance, versus detector gap, and the alignment
difference) as labelled tables, each figure declared by one row of
``_FIGURES``.  A family member is a gap of B (fig2, fig4) or a separation
(fig6): :func:`figure_dataset` builds each member's ``DetectorPair`` or
``BoundaryGeometry`` itself, and names the member that fails.  The curves of
one figure share one axis column, and a store that lives for one
:func:`figure_dataset` call: each curve's evaluator keeps its array stages
there, keyed by the stage and the exact bits of its inputs, and takes a stage
an earlier curve computed from the same inputs.  fig6's
curves share the pair terms along omega_b (the same omega_a and lambda), the
direct kernels at each separation L and the parallel P_B (the same dz);
fig5's share P_A along the mirror distance, and fig7's the direct kernels
(the same gap pair).  Every value stays bit for bit what a lone
:func:`sweep` gives.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .detector_model import (
    Alignment,
    BoundaryGeometry,
    CorrelationBlock,
    DetectorPair,
    _block_evaluator,
    boundary_free_correlations,
    state_from_block,
)
from .errors import ValidationError, _member, _real
from .xstate_steering import _observed

REFINE_TOL = 1e-6
# largest grid a SweepAxis accepts; refused before anything is allocated
MAX_POINTS = 1_000_000

# fraction of the larger side a golden-section step of Brent's minimiser takes
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


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
    """One-dimensional grid specification for :func:`sweep`; its ends are read as floats."""

    variable: SweepVariable
    start: float
    stop: float
    points: int
    scale: SweepScale = SweepScale.LINEAR

    def __post_init__(self):
        object.__setattr__(self, "variable", _member(SweepVariable, self.variable, "variable"))
        object.__setattr__(self, "scale", _member(SweepScale, self.scale, "scale"))
        for end in ("start", "stop"):
            object.__setattr__(self, end, _real(getattr(self, end), f"a sweep {end}"))
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValidationError("sweep range must be finite")
        if not self.start < self.stop:
            raise ValidationError(
                f"sweep range is empty: start {self.start} must be below stop {self.stop}"
            )
        if not math.isfinite(self.stop - self.start):
            raise ValidationError(
                f"sweep range from {self.start:g} to {self.stop:g} is too wide: "
                "its width overflows"
            )
        try:
            object.__setattr__(self, "points", operator.index(self.points))
        except TypeError:
            raise ValidationError(
                f"a sweep takes a whole number of grid points, got {self.points!r}"
            ) from None
        if not 2 <= self.points <= MAX_POINTS:
            raise ValidationError(
                f"a sweep takes 2 to {MAX_POINTS} grid points, got {self.points}"
            )
        if self.scale is SweepScale.LOG and self.start <= 0.0:
            raise ValidationError("log-scaled sweeps need a positive start")

    def grid(self) -> np.ndarray:
        """The grid points: ``np.geomspace`` on a log scale, and on a linear
        one ``np.linspace``, bit for bit, between the float ends.

        The linear grid does linspace's own arithmetic without its
        overhead: ``arange`` times the step (or, where the step underflows
        to 0, divided by the intervals and then times the width), plus the
        start, with the stop written last.
        """
        if self.scale is SweepScale.LOG:
            return np.geomspace(self.start, self.stop, self.points)
        intervals, width = self.points - 1, self.stop - self.start
        step = width / intervals
        grid = np.arange(float(self.points))
        if step == 0.0:
            grid /= intervals
            grid *= width
        else:
            grid *= step
        grid += self.start
        grid[-1] = self.stop
        return grid


# the observables of a sweep, in the column order after ``axis``
OBSERVABLES = ("p_a", "p_b", "abs_c", "abs_x", "s_ab", "s_ba", "asymmetry", "concurrence")
# what the evaluator of a sweep or a search gives: the observables, then the
# signed margins that S(A->B) and S(B->A) clamp at zero
_OBSERVED = (*OBSERVABLES, "margin_ab", "margin_ba")


def observable_values(block: CorrelationBlock) -> tuple[float, ...]:
    """The :data:`OBSERVABLES` of one point, from its correlation block."""
    return (block.p_a, block.p_b, *_observed(state_from_block(block)))[: len(OBSERVABLES)]


def observable_columns(
    grid: Sequence[float], columns: Iterable[Sequence[float]]
) -> dict[str, tuple[float, ...]]:
    """The ``axis`` column and the :data:`OBSERVABLES` columns, in order; a
    ``grid`` that is a tuple already is the axis column itself."""
    return {"axis": tuple(grid), **{n: tuple(c) for n, c in zip(OBSERVABLES, columns)}}


@dataclass(frozen=True)
class SweepTable:
    """Named columns along one axis, ``axis`` first, with the value of each
    parameter they were computed with but the swept one, by name in CSV
    metadata order."""

    variable: SweepVariable
    columns: dict[str, tuple[float, ...]]
    params: dict[str, float | str] = dataclasses.field(default_factory=dict)

    def column(self, name: str) -> tuple[float, ...]:
        return self.columns[name]


@dataclass(frozen=True)
class PeakResult:
    location: float
    value: float
    bracket: tuple[float, float]
    evaluations: int  # model evaluations, the three bracket checks included


@dataclass(frozen=True)
class TransitionResult:
    location: float
    kind: TransitionKind
    direction: Direction
    evaluations: int  # model evaluations, the two bracket ends included


_SEP = SweepVariable.SEPARATION
_DZ = SweepVariable.BOUNDARY_DISTANCE
_WB = SweepVariable.OMEGA_B
# metadata name of the parameter each variable overrides
_PARAM_NAME = {_SEP: "l", _DZ: "dz", _WB: "omega_b"}
# the model input each variable overrides
_INPUT = {_SEP: "separation", _DZ: "boundary_distance", _WB: "omega_b"}


def sweep(pair: DetectorPair, geom: BoundaryGeometry, axis: SweepAxis) -> SweepTable:
    """Tabulate the harvested observables along one parameter axis.

    The swept variable overrides the matching field of ``pair`` or ``geom``
    at each grid point; all other fields are held fixed and recorded in
    the table's ``params``.  If a point is refused, the first one is
    evaluated alone, which raises the one-point route's error there with
    the grid point named.
    """
    grid = axis.grid()
    return _sweep(pair, geom, axis, grid, tuple(grid.tolist()))


def _sweep(
    pair: DetectorPair,
    geom: BoundaryGeometry,
    axis: SweepAxis,
    grid: np.ndarray,
    column: tuple[float, ...],
    store: dict | None = None,
) -> SweepTable:
    """:func:`sweep` over ``grid``, the grid of ``axis``, whose values
    ``column`` holds as the table's axis column.  The evaluator keeps the
    stages it computes in ``store``, and takes a stage from there when its
    inputs match one kept by an earlier curve of the same figure."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, observed, ok = _block_evaluator(pair, geom, _INPUT[axis.variable], store)(grid)
    if not ok.all():
        # the first failing point, evaluated alone, raises the one-point error
        value = grid[ok.argmin()].item()
        _evaluator(pair, geom, axis.variable)(value)
        raise AssertionError(f"the array pass refuses {axis.variable.value} = {value:g}, "
                             "which the one-point route accepts")
    # a value held fixed is one number, which its column repeats; the margins
    # after the OBSERVABLES make no column
    values = (v.tolist() if isinstance(v, np.ndarray) else [v] * len(grid) for v in observed)
    columns = observable_columns(column, values)
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
    return SweepTable(axis.variable, columns, params)


def _evaluator(
    pair: DetectorPair, geom: BoundaryGeometry, variable: SweepVariable
) -> Callable[[float], tuple[float, ...]]:
    """The :data:`_OBSERVED` values at one value of ``variable``, as
    :func:`_block_evaluator` gives them: a search's evaluator, and a refused
    sweep's at its first failing point.  A validation error is re-raised as
    the same type with the point named."""
    block_at = _block_evaluator(pair, geom, _INPUT[variable])

    def at(value: float) -> tuple[float, ...]:
        try:
            return block_at(value)[1]
        except ValidationError as exc:
            raise type(exc)(f"at {variable.value} = {value:g}: {exc}") from exc

    return at


# the entry of _OBSERVED that each objective maximises, and whose sign
# change is each direction's transition
_READS = {Objective.S_AB: "s_ab", Objective.S_BA: "s_ba", Objective.ASYMMETRY: "asymmetry",
          Direction.A_TO_B: "margin_ab", Direction.B_TO_A: "margin_ba"}


def _bracket(bracket: tuple[float, float], kind: str) -> tuple[float, float]:
    """The ends of a search bracket, a pair of finite reals lo < hi, as floats."""
    try:
        lo, hi = bracket
    except (TypeError, ValueError):
        raise ValidationError(
            f"a {kind} bracket is a pair of real numbers (lo, hi), got {bracket!r}"
        ) from None
    lo, hi = _real(lo, f"{kind} bracket end lo"), _real(hi, f"{kind} bracket end hi")
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
    """Locate an interior maximum of a steering objective by Brent's method.

    The bracket must already isolate a peak: the midpoint value has to
    exceed both endpoint values, otherwise the search is refused.  Brent's
    minimiser then runs on the negated objective from the midpoint, taking
    a parabolic step through the three best points where it lands well
    inside the bracket and a golden-section step where it does not.  It
    stops once every point still admissible lies within ``REFINE_TOL`` of
    the returned location, whose objective value is returned with it.
    """
    variable = _member(SweepVariable, variable, "variable")
    objective = _member(Objective, objective, "objective")
    lo, hi = _bracket(bracket, "peak")
    index = _OBSERVED.index(_READS[objective])
    evaluate = _evaluator(pair, geom, variable)
    loss = lambda v: -evaluate(v)[index]

    f_lo, f_hi = loss(lo), loss(hi)
    x = 0.5 * (lo + hi)
    fx = loss(x)
    if not (fx < f_lo and fx < f_hi):
        raise ValidationError(
            "bracket midpoint does not dominate the endpoints; run a coarse "
            "sweep first to isolate the peak"
        )
    evaluations = 3

    # the minimum lies in [a, b]; x is the best point seen, w the second
    # best and v the previous w; e is the step before last
    tol = 0.5 * REFINE_TOL
    a, b = lo, hi
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= REFINE_TOL - 0.5 * (b - a):
            break
        p = q = r = 0.0
        if abs(e) > tol:
            # parabola through x, w and v: its vertex is x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
        # accept the vertex only inside the bracket and at under half the
        # step before last, so that the steps shrink
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < REFINE_TOL or b - (x + d) < REFINE_TOL:
                d = math.copysign(tol, m - x)
        else:
            e = (a if x >= m else b) - x
            d = _GOLDEN * e
        # never evaluate closer than tol to x
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = loss(u)
        evaluations += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return PeakResult(location=x, value=-fx, bracket=(lo, hi), evaluations=evaluations)


def find_transition(
    pair: DetectorPair,
    geom: BoundaryGeometry,
    variable: SweepVariable,
    bracket: tuple[float, float],
    direction: Direction,
) -> TransitionResult:
    """Locate the boundary between steerable and unsteerable parameters.

    ``direction`` selects which steering direction is probed.  The bracket
    endpoints must disagree on whether steering is present.  The search
    runs Dekker-Brent zeroin on the direction's signed margin, which is
    positive exactly where that steering is: secant and inverse quadratic
    steps where they shrink the bracket fast enough, bisection where they
    do not.  It stops once the bracket across which steering switches is
    at most ``REFINE_TOL`` wide and returns its midpoint, classified as a
    sudden death (live side below) or sudden birth (live side above).
    """
    variable = _member(SweepVariable, variable, "variable")
    direction = _member(Direction, direction, "direction")
    lo, hi = _bracket(bracket, "transition")
    index = _OBSERVED.index(_READS[direction])
    evaluate = _evaluator(pair, geom, variable)
    margin = lambda v: evaluate(v)[index]

    a, b = lo, hi
    fa, fb = margin(a), margin(b)
    live_lo = fa > 0.0
    if live_lo == (fb > 0.0):
        raise ValidationError(
            "transition bracket endpoints agree; pick a bracket that "
            "straddles the boundary"
        )
    evaluations = 2

    # steering switches between b and c, and b is the end whose margin is
    # nearer zero; a is the previous b, d the last step and e the one before
    tol = 0.5 * REFINE_TOL
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            break
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                # secant through a and b
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                # inverse quadratic through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            # accept the step if it lands well inside the bracket and is
            # under half the step before last
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = margin(b)
        evaluations += 1
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    kind = TransitionKind.SUDDEN_DEATH if live_lo else TransitionKind.SUDDEN_BIRTH
    return TransitionResult(
        location=0.5 * (b + c), kind=kind, direction=direction, evaluations=evaluations
    )


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
# the defaults of figure_dataset, which the figure command shares: grid
# points per curve, both gaps of the pair, and fig6's two separations
_FIGURE_RESOLUTION = 200
_FIGURE_GAP = 0.1
_FIGURE_SEPARATIONS = (0.05, 2.0)


def figure_dataset(
    figure_id: FigureId | str,
    pair: DetectorPair | None = None,
    resolution: int = _FIGURE_RESOLUTION,
    separations: Iterable[float] = _FIGURE_SEPARATIONS,
) -> dict[str, SweepTable]:
    """Build the labelled table set behind one of the standard figures.

    ``fig2``/``fig4``: steering versus separation for the detector-B gaps
    0.1, 0.2 and 0.3, parallel and orthogonal respectively.
    ``fig5``: steering versus mirror distance, both alignments, plus a
    constant boundary-free reference table.
    ``fig6``: steering versus the detector-B gap, both alignments, at each
    separation of ``separations``, an iterable of reals with at least one.
    ``fig7``: both alignments versus separation and their
    orthogonal-minus-parallel steering difference.
    Every table carries the parameters it was computed with.  A curve whose
    sweep is refused raises the sweep's error with the curve named.
    """
    figure_id = _member(FigureId, figure_id, "figure_id")
    spec = _FIGURES[figure_id]
    if pair is None:
        pair = DetectorPair(omega_a=_FIGURE_GAP, omega_b=_FIGURE_GAP)
    if spec.start is None and not pair.omega_a < spec.stop:
        raise ValidationError(
            f"{figure_id.value} sweeps omega_b from omega_a up to {spec.stop:g}, "
            f"an empty range with omega_a = {pair.omega_a:g}"
        )
    start = pair.omega_a if spec.start is None else spec.start
    axis = SweepAxis(spec.variable, start, spec.stop, resolution)
    try:
        separations = iter(separations)
    except TypeError:
        raise ValidationError(
            f"separations must be an iterable of real numbers, got {separations!r}"
        ) from None
    separations = tuple(_real(value, "a separation") for value in separations)
    family = separations if spec.family is _SEP else spec.members or (None,)
    if len(family) == 0:
        raise ValidationError(f"{figure_id.value} takes at least one separation, got none")
    # every table holds this one axis column; the curves share the stages
    # they compute from the same inputs, for this call only
    grid = axis.grid()
    column = tuple(grid.tolist())
    store: dict = {}

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
                # a gap member fails against omega_a, a separation on its own
                try:
                    if spec.family is _WB:
                        culprit = f"omega_a = {pair.omega_a:g}"
                        curve_pair = DetectorPair(pair.omega_a, value, coupling=pair.coupling)
                    else:
                        culprit = f"separation = {value:g}"
                        curve_geom = BoundaryGeometry(alignment, value, spec.boundary_distance)
                except ValidationError as exc:
                    raise ValidationError(
                        f"curve {label!r} cannot be built with {culprit}: {exc}"
                    ) from exc
            try:
                out[label] = _sweep(curve_pair, curve_geom, axis, grid, column, store)
            except ValidationError as exc:
                member = "" if spec.family is None else f" with {_INPUT[spec.family]} = {value:g}"
                raise type(exc)(f"curve {label!r}{member}: {exc}") from exc
    if not spec.extra:
        return out

    # the derived table holds what the parallel curve holds, bar its alignment
    par = out[Alignment.PARALLEL.value]
    params = {k: v for k, v in par.params.items() if k != "alignment"}
    if spec.extra == "boundary_free":
        values = observable_values(boundary_free_correlations(pair, spec.separation))
        columns = observable_columns(column, ([v] * len(column) for v in values))
    else:
        ort = out[Alignment.ORTHOGONAL.value]
        columns = {"axis": column} | {
            f"delta_{n}": tuple(o - p for p, o in zip(par.column(n), ort.column(n)))
            for n in ("s_ab", "s_ba")
        }
    out[spec.extra] = SweepTable(axis.variable, columns, params)
    return out

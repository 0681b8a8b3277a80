"""Tests for parameter sweeps, peak finding, transition finding, and
the figure dataset builders."""

import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mirrorsteer.detector_model import (
    Alignment,
    BoundaryGeometry,
    CorrelationBlock,
    DetectorPair,
    _block_rules,
    _correlation_rules,
    boundary_free_correlations,
    boundary_free_steering,
    config_difference,
    correlation_arrays,
    harvested_steering,
    state_from_block,
)
from mirrorsteer import sweep_optimize
from mirrorsteer.errors import PerturbativeValidityError, ValidationError
from mirrorsteer.sweep_optimize import (
    MAX_POINTS,
    OBSERVABLES,
    REFINE_TOL,
    FigureId,
    Objective,
    SweepAxis,
    SweepScale,
    SweepVariable,
    TransitionKind,
    Direction,
    figure_dataset,
    find_peak,
    find_transition,
    observable_values,
    sweep,
)
from mirrorsteer.xstate_steering import (
    XState,
    _first_failure,
    _signed_margins,
    _state_rules,
    state_arrays,
)

PAIR = DetectorPair(omega_a=0.1, omega_b=0.1)
GEOM_PAR = BoundaryGeometry(Alignment.PARALLEL, separation=1.0, boundary_distance=1.0)
GEOM_ORT = BoundaryGeometry(Alignment.ORTHOGONAL, separation=1.0, boundary_distance=1.0)
# l = 0.05: s_ba peaks at an interior mirror distance near 0.93
GEOM_NEAR = BoundaryGeometry(Alignment.PARALLEL, separation=0.05, boundary_distance=1.0)


class TestSweepAxis:
    def test_rejects_more_than_max_points(self):
        SweepAxis(SweepVariable.SEPARATION, start=1.0, stop=2.0, points=MAX_POINTS)
        with pytest.raises(ValidationError, match=str(MAX_POINTS)):
            SweepAxis(
                SweepVariable.SEPARATION, start=1.0, stop=2.0, points=MAX_POINTS + 1
            )

    def test_rejects_reversed_range(self):
        with pytest.raises(ValidationError):
            SweepAxis(SweepVariable.SEPARATION, start=2.0, stop=1.0, points=10)

    def test_rejects_single_point(self):
        with pytest.raises(ValidationError):
            SweepAxis(SweepVariable.SEPARATION, start=1.0, stop=2.0, points=1)

    def test_log_scale_requires_positive_start(self):
        with pytest.raises(ValidationError):
            SweepAxis(
                SweepVariable.SEPARATION,
                start=0.0,
                stop=1.0,
                points=10,
                scale=SweepScale.LOG,
            )

    def test_linear_grid_hits_endpoints(self):
        axis = SweepAxis(SweepVariable.SEPARATION, start=0.5, stop=2.0, points=4)
        grid = axis.grid()
        assert grid[0] == 0.5
        assert grid[-1] == 2.0
        assert len(grid) == 4

    def test_log_grid(self):
        axis = SweepAxis(
            SweepVariable.BOUNDARY_DISTANCE,
            start=0.01,
            stop=1.0,
            points=3,
            scale=SweepScale.LOG,
        )
        grid = axis.grid()
        assert grid[0] == pytest.approx(0.01, rel=1e-12)
        assert grid[1] == pytest.approx(0.1, rel=1e-12)
        assert grid[-1] == pytest.approx(1.0, rel=1e-12)

    def test_accepts_enum_value_strings(self):
        axis = SweepAxis("separation", start=0.5, stop=2.0, points=4, scale="linear")
        assert axis.variable is SweepVariable.SEPARATION
        assert axis.scale is SweepScale.LINEAR


class TestSweep:
    def test_row_count_and_axis(self):
        axis = SweepAxis(SweepVariable.SEPARATION, start=0.1, stop=2.0, points=25)
        table = sweep(PAIR, GEOM_PAR, axis)
        assert len(table.column("axis")) == 25
        assert table.column("axis")[0] == 0.1
        assert table.variable is SweepVariable.SEPARATION

    def test_identical_parallel_has_zero_asymmetry_column(self):
        axis = SweepAxis(SweepVariable.SEPARATION, start=0.1, stop=3.0, points=40)
        table = sweep(PAIR, GEOM_PAR, axis)
        assert all(a == 0.0 for a in table.column("asymmetry"))

    def test_steering_columns_nonnegative(self):
        axis = SweepAxis(SweepVariable.BOUNDARY_DISTANCE, start=0.05, stop=4.0, points=40)
        table = sweep(PAIR, GEOM_ORT, axis)
        for s_ab, s_ba in zip(table.column("s_ab"), table.column("s_ba")):
            assert s_ab >= 0.0
            assert s_ba >= 0.0

    def test_rows_match_direct_evaluation(self):
        axis = SweepAxis(SweepVariable.SEPARATION, start=0.2, stop=1.4, points=7)
        table = sweep(PAIR, GEOM_ORT, axis)
        columns = zip(*map(table.column, ("axis", "s_ab", "s_ba")))
        for l, s_ab, s_ba in columns:
            direct = harvested_steering(
                PAIR,
                BoundaryGeometry(Alignment.ORTHOGONAL, l, 1.0),
            )
            assert s_ab == direct.s_ab
            assert s_ba == direct.s_ba

    def test_orthogonal_identical_never_favours_a_to_b(self):
        axis = SweepAxis(SweepVariable.SEPARATION, start=0.1, stop=6.0, points=60)
        table = sweep(PAIR, GEOM_ORT, axis)
        for s_ab, s_ba in zip(table.column("s_ab"), table.column("s_ba")):
            assert s_ab <= s_ba

    def test_gap_sweep_below_omega_a_names_grid_point(self):
        axis = SweepAxis(SweepVariable.OMEGA_B, start=0.05, stop=1.0, points=10)
        pair = DetectorPair(omega_a=0.2, omega_b=0.5)
        with pytest.raises(ValidationError, match="omega-b = 0.05"):
            sweep(pair, GEOM_PAR, axis)

    def test_foreign_exception_propagates_unchanged(self, monkeypatch):
        # an exception whose constructor takes other arguments must reach
        # the caller as raised, not as a TypeError from re-wrapping it
        class TwoArgError(Exception):
            def __init__(self, code, detail):
                super().__init__(code, detail)

        raised = TwoArgError(7, "model failed")

        def failing(*args):
            raise raised

        monkeypatch.setattr(sweep_optimize, "correlation_arrays", failing)
        axis = SweepAxis(SweepVariable.SEPARATION, start=0.1, stop=2.0, points=3)
        with pytest.raises(TwoArgError) as info:
            sweep(PAIR, GEOM_PAR, axis)
        assert info.value is raised

    def test_deterministic(self):
        axis = SweepAxis(SweepVariable.SEPARATION, start=0.1, stop=2.0, points=30)
        assert sweep(PAIR, GEOM_PAR, axis) == sweep(PAIR, GEOM_PAR, axis)

    def test_strong_coupling_names_first_failing_grid_point(self):
        # near the mirror the probabilities vanish, so the first point at
        # which p_a + p_b reaches 1 is not the first grid point
        pair = DetectorPair(omega_a=0.1, omega_b=0.1, coupling=5.0)
        axis = SweepAxis(SweepVariable.BOUNDARY_DISTANCE, start=0.2, stop=2.0, points=5)
        match = r"at boundary-distance = 1.1: p_a \+ p_b = 1.62 >= 1"
        with pytest.raises(PerturbativeValidityError, match=match):
            sweep(pair, GEOM_PAR, axis)

    @pytest.mark.parametrize(
        "geom, axis, match",
        [
            # Im G overflows as 1/l below l ~ 1e-308
            (GEOM_PAR, ("separation", 1e-320, 1e-300, 5, "log"),
             "separation = 9.99989e-321: c14 must be finite"),
            (GEOM_PAR, ("separation", -1.0, 1.0, 5), "separation = -1: separation must be positive"),
            (GEOM_ORT, ("boundary-distance", 1.0, 1e308, 5),
             "boundary-distance = 1e\\+308: separation 1 and boundary_distance 1e\\+308 overflow"),
            (GEOM_PAR, ("omega-b", 0.0, 1.0, 5), "omega-b = 0: omega_b must not be smaller"),
        ],
    )
    def test_array_checks_refuse_what_the_dataclasses_refuse(self, geom, axis, match):
        with pytest.raises(ValidationError, match=match):
            sweep(PAIR, geom, SweepAxis(*axis))

    @pytest.mark.parametrize(
        "pair, geom, axis, message",
        [
            # the geometry refuses the point before its correlations are built
            (PAIR, GEOM_ORT, ("boundary-distance", 1.0, 1e308, 10_000, "log"),
             "at boundary-distance = 9.3153e+307: separation 1 and boundary_distance "
             "9.3153e+307 overflow the mirror-image distances"),
            # the correlation block refuses the point
            (DetectorPair(0.1, 0.1, coupling=5.0), GEOM_PAR,
             ("boundary-distance", 0.2, 2.0, 9_999),
             "at boundary-distance = 0.784577: p_a + p_b = 1 >= 1: coupling too "
             "strong for the leading-order state"),
        ],
    )
    def test_refused_long_sweep_takes_the_one_point_route_once(
        self, pair, geom, axis, message, monkeypatch
    ):
        # one array pass finds the first failing point and formats the rule
        # it fails from that point's values; the one-point route need not run
        calls = []
        one_point = sweep_optimize.correlations

        def counting(pair_v, geom_v):
            calls.append(geom_v.boundary_distance)
            return one_point(pair_v, geom_v)

        monkeypatch.setattr(sweep_optimize, "correlations", counting)
        with pytest.raises(ValidationError) as info:
            sweep(pair, geom, SweepAxis(*axis))
        assert str(info.value) == message
        assert len(calls) <= 1

    def test_refused_sweep_makes_no_one_point_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sweep_optimize, "correlations", lambda *args: calls.append(args))
        axis = SweepAxis("boundary-distance", 0.2, 2.0, 9)
        with pytest.raises(PerturbativeValidityError, match="at boundary-distance = "):
            sweep(DetectorPair(0.1, 0.1, coupling=5.0), GEOM_PAR, axis)
        assert calls == []

    def test_names_first_failing_point_across_check_stages(self):
        # the first point fails the late X-state check, the last ones the
        # early geometry check
        geom = BoundaryGeometry(Alignment.ORTHOGONAL, 1.0, 1.0)
        axis = SweepAxis("separation", 1e-320, 1e308, 200, "log")
        match = "separation = 9.99989e-321: c14 must be finite"
        with pytest.raises(ValidationError, match=match):
            sweep(DetectorPair(0.1, 0.2), geom, axis)

    @pytest.mark.parametrize(
        "pair, geom, axis",
        [
            (DetectorPair(0.1, 0.2), GEOM_ORT, ("separation", 1e-320, 1e308, 60, "log")),
            # a huge negative length would overflow the series kernel's l**4
            (PAIR, GEOM_PAR, ("separation", -1e100, 1.0, 9)),
            (PAIR, GEOM_ORT, ("boundary-distance", -1e300, 1.0, 9)),
            (DetectorPair(0.0, 0.1), BoundaryGeometry(Alignment.PARALLEL, 10.0, 1.0),
             ("omega-b", 0.1, 1.7e308, 40)),
            (DetectorPair(0.1, 0.1, coupling=5.0), GEOM_PAR, ("boundary-distance", 0.2, 2.0, 9)),
            # every point is refused, and |x| of each would overflow abs
            (DetectorPair(0.1, 0.1, coupling=1.3e154), GEOM_PAR,
             ("separation", 0.1277, 0.1278, 11)),
        ],
        ids=["c14-and-geometry", "negative-separation", "negative-mirror-distance",
             "kernel-phase", "coupling", "abs-overflow"],
    )
    def test_verdict_is_the_one_point_route(self, pair, geom, axis):
        axis = SweepAxis(*axis)
        grid = axis.grid()
        ok, arrays = sweep_optimize._grid_arrays(pair, geom, axis.variable, grid)
        for value, verdict, *columns in zip(grid.tolist(), ok.tolist(), *arrays):
            try:
                want = sweep_optimize._at(pair, geom, axis.variable, value, observable_values)
            except ValidationError:
                assert not verdict, value
            else:
                assert verdict, value
                assert [float(v).hex() for v in columns] == [v.hex() for v in want]
        assert not ok.all()


# one sweep per rule a sweep can fail, by the rule's message template: its
# first failing point fails that rule
_SWEEP_REFUSALS = {
    "energy gaps must be nonnegative": (PAIR, GEOM_PAR, ("omega-b", -1.0, 1.0, 7)),
    "omega_b must not be smaller than omega_a; name the detector with the larger gap B": (
        DetectorPair(0.2, 0.5), GEOM_PAR, ("omega-b", 0.05, 1.0, 10)
    ),
    # short lengths, so that no kernel phase overflows first
    "omega_b = {omega_b:g} is too large: 2 omega_b overflows": (
        PAIR, BoundaryGeometry(Alignment.PARALLEL, 0.01, 0.01), ("omega-b", 0.1, 1.7e308, 7)
    ),
    "separation must be positive": (PAIR, GEOM_PAR, ("separation", -1.0, 1.0, 5)),
    "boundary_distance must be positive": (PAIR, GEOM_ORT, ("boundary-distance", -1.0, 1.0, 7)),
    "separation {separation:g} and boundary_distance {boundary_distance:g} overflow the "
    "mirror-image distances": (PAIR, GEOM_ORT, ("boundary-distance", 1.0, 1e308, 5)),
    "omega_b - omega_a = {d:g} at separation {separation:g} overflows the kernel phase "
    "(omega_b - omega_a)·l/2": (
        DetectorPair(0.0, 0.1), BoundaryGeometry(Alignment.PARALLEL, 10.0, 1.0),
        ("omega-b", 0.1, 8e307, 5),
    ),
    # the direct phase d/2 stays finite while d hypot(1, 6)/2 overflows
    "omega_b - omega_a = {d:g} at separation {image_separation:g} overflows the kernel phase "
    "(omega_b - omega_a)·l/2": (
        DetectorPair(0.0, 0.1), BoundaryGeometry(Alignment.PARALLEL, 1.0, 3.0),
        ("omega-b", 1e307, 8e307, 30),
    ),
    "p_a + p_b = {p_sum:.3g} >= 1: coupling too strong for the leading-order state": (
        DetectorPair(0.1, 0.1, coupling=5.0), GEOM_PAR, ("boundary-distance", 0.2, 2.0, 5)
    ),
    # Im G overflows as 1/l
    "c14 must be finite": (PAIR, GEOM_PAR, ("separation", 1e-320, 1e-300, 5, "log")),
}
# the rules no sweep can fail, and why
_NO_SWEEP_FAILS = {
    # a sweep's pair is a valid DetectorPair, so its coupling passes
    "coupling must be positive",
    "coupling = {coupling:g} is too large: lambda² overflows",
    # a grid between finite ends holds finite values
    "detector parameters must be finite",
    "geometry lengths must be finite",
    # once the pair and the geometry pass, the closed forms give finite
    # probabilities clamped at zero, a finite C, and the X-state
    # 1 - p_a - p_b, p_b, p_a, 0 with p_a + p_b < 1
    "probabilities must be finite",
    "probabilities must be nonnegative",
    *(f"{name} must be finite" for name in ("d11", "d22", "d33", "d44", "c23")),
    *(f"{name} = {{{name}!r}} outside [0, 1]" for name in ("d11", "d22", "d33", "d44")),
    "trace = {trace!r}, expected 1 within 1e-12",
}


def _rule_messages():
    """The message template of every rule a sweep checks, in order."""
    grid = SweepAxis("separation", 1.0, 2.0, 2).grid()
    _, _, values = sweep_optimize._grid_values(PAIR, GEOM_PAR, SweepVariable.SEPARATION, grid)
    return [message for _, _, message in sweep_optimize._rules(sweep_optimize._point(values, 0))]


class TestRefusalParity:
    """A refused sweep raises what the one-point route raises at its first
    failing point, rule by rule: same type, same message."""

    def test_every_rule_is_covered(self):
        messages = _rule_messages()
        assert len(messages) == len(set(messages))
        assert set(messages) == _SWEEP_REFUSALS.keys() | _NO_SWEEP_FAILS
        assert not _SWEEP_REFUSALS.keys() & _NO_SWEEP_FAILS

    @pytest.mark.parametrize("template", list(_SWEEP_REFUSALS))
    def test_sweep_raises_the_one_point_error(self, template):
        pair, geom, axis = _SWEEP_REFUSALS[template]
        axis = SweepAxis(*axis)
        with pytest.raises(ValidationError) as got:
            sweep(pair, geom, axis)
        for value in axis.grid().tolist():
            try:
                sweep_optimize._at(pair, geom, axis.variable, value, observable_values)
            except ValidationError as exc:
                want = exc
                break
        assert type(got.value) is type(want)
        assert str(got.value) == str(want)
        # the point fails this rule: its fixed text surrounds the values
        fixed = [re.escape(part) for part in re.split(r"\{[^}]*\}", template)]
        assert re.fullmatch(r"at \S+ = \S+: " + "[^:]+".join(fixed), str(want))

    @pytest.mark.parametrize(
        "arrays, build",
        [
            ((np.array([0.2, math.nan]), 1.0, np.ones(2)), lambda: DetectorPair(0.1, math.nan)),
            ((np.full(2, 0.2), -1.0, np.ones(2)), lambda: DetectorPair(0.1, 0.2, coupling=-1.0)),
            ((np.full(2, 0.2), 1e200, np.ones(2)), lambda: DetectorPair(0.1, 0.2, coupling=1e200)),
            ((np.full(2, 0.2), 1.0, np.array([1.0, math.inf])),
             lambda: BoundaryGeometry(Alignment.PARALLEL, math.inf, 1.0)),
        ],
        ids=["gap-nan", "coupling-negative", "coupling-overflow", "length-inf"],
    )
    def test_pass_values_format_as_the_dataclasses(self, arrays, build):
        # rules no sweep fails, fed straight to the array pass: formatted
        # from the first failing point's array values, the message is the
        # one-point message
        omega_b, coupling, sep = arrays
        values, ok = correlation_arrays(
            0.1, omega_b, coupling, Alignment.PARALLEL, sep, np.ones(2)
        )
        i = int(ok.argmin())
        assert not ok[i]
        error = _first_failure(_correlation_rules, sweep_optimize._point(values, i))
        with pytest.raises(ValidationError) as want:
            build()
        assert type(error) is type(want.value)
        assert str(error) == str(want.value)

    @pytest.mark.parametrize(
        "bad",
        [
            (math.nan, 0.5, 0.5, 0.0, 0j, 0j),
            (1.5, -0.5, 0.0, 0.0, 0j, 0j),
            (0.5, math.inf, 0.5, 0.0, 0j, 0j),
            (0.0, 1.5, 0.0, 0.0, 0j, 0j),
            (0.25, 0.25, math.nan, 0.25, 0j, 0j),
            (0.5, 0.5, -0.25, 0.25, 0j, 0j),
            (0.5, 0.5, 0.0, math.nan, 0j, 0j),
            (0.25, 0.25, 0.25, -0.75, 0j, 0j),
            (0.5, 0.0, 0.0, 0.5 + 1e-6, 0j, 0j),
            (0.5, 0.5, 0.0, 0.0, complex(math.inf, 0.0), 0j),
            (0.5, 0.5, 0.0, 0.0, 0j, complex(0.0, math.nan)),
        ],
    )
    def test_state_values_format_as_xstate(self, bad):
        good = (0.25, 0.25, 0.25, 0.25, 0.1 + 0j, 0.1j)
        values, _, ok = state_arrays(*(np.array(column) for column in zip(good, bad)))
        assert ok.tolist() == [True, False]
        error = _first_failure(_state_rules, sweep_optimize._point(values, 1))
        with pytest.raises(ValidationError) as want:
            XState(*bad)
        assert str(error) == str(want.value)

    @pytest.mark.parametrize("p_a, p_b", [(math.nan, 0.1), (0.1, -0.1), (0.6, 0.6)])
    def test_block_values_format_as_correlation_block(self, p_a, p_b):
        p_a, p_b = np.array([0.1, p_a]), np.array([0.1, p_b])
        values = sweep_optimize._point(SimpleNamespace(p_a=p_a, p_b=p_b, p_sum=p_a + p_b), 1)
        error = _first_failure(_block_rules, values)
        with pytest.raises(ValidationError) as want:
            CorrelationBlock(p_a[1], p_b[1], 0j, 0j)
        assert type(error) is type(want.value)
        assert str(error) == str(want.value)


def _scalar_columns(pair, geom, axis):
    """The columns of a sweep evaluated one point at a time."""
    grid = axis.grid().tolist()
    values = [sweep_optimize._at(pair, geom, axis.variable, v, observable_values) for v in grid]
    return dict(zip(("axis", *OBSERVABLES), (grid, *zip(*values))))


def _bits(columns):
    return {name: [float(v).hex() for v in column] for name, column in columns.items()}


class TestArrayPassMatchesOnePointRoute:
    """Every column of the array sweep equals the one-point route bit for
    bit, so the two routes cannot drift apart."""

    @pytest.mark.parametrize("omega_a, omega_b", [(0.05, 0.5), (0.1, 0.1), (0.0, 0.3), (0.08, 1.0)])
    def test_all_figures(self, omega_a, omega_b, monkeypatch):
        checked = []

        def checked_sweep(pair, geom, axis):
            table = sweep(pair, geom, axis)
            assert _bits(table.columns) == _bits(_scalar_columns(pair, geom, axis))
            checked.append(axis.points)
            return table

        monkeypatch.setattr(sweep_optimize, "sweep", checked_sweep)
        for figure in FigureId:
            figure_dataset(figure, DetectorPair(omega_a, omega_b), resolution=200)
        # fig2 and fig4: three curves each; fig5 and fig7: two; fig6: four
        assert checked == [200] * 14

    _AXES = pytest.mark.parametrize(
        "dz, axis",
        [
            # l, and the images at 2 dz, cross SERIES_CROSSOVER
            (4e-4, ("separation", 1e-5, 1e-2, 120, "log")),
            (1.0, ("omega-b", 0.1, 6.0, 120)),
            # past l ~ 55 the damping underflows and the phase guard applies
            (1.0, ("separation", 0.05, 400.0, 160)),
        ],
        ids=["series-crossover", "omega-b", "far-separation"],
    )

    @pytest.mark.parametrize("alignment", list(Alignment))
    @_AXES
    def test_axes(self, alignment, dz, axis):
        pair = DetectorPair(0.1, 0.2)
        geom = BoundaryGeometry(alignment, 1.0, dz)
        axis = SweepAxis(*axis)
        assert _bits(sweep(pair, geom, axis).columns) == _bits(_scalar_columns(pair, geom, axis))

    @pytest.mark.parametrize("alignment", list(Alignment))
    @_AXES
    def test_block_entries(self, alignment, dz, axis):
        # the entries themselves, not only the observables read from them:
        # past l ~ 55 the observables take abs(x), which hides the sign of a
        # zero Im x that verify prints
        pair = DetectorPair(0.1, 0.2)
        geom = BoundaryGeometry(alignment, 1.0, dz)
        axis = SweepAxis(*axis)
        grid = axis.grid()
        ok, _, values = sweep_optimize._grid_values(pair, geom, axis.variable, grid)
        assert ok.all()
        for i, value in enumerate(grid.tolist()):
            block = sweep_optimize._at(pair, geom, axis.variable, value, lambda b: b)
            want = (block.p_a, block.p_b, block.c.real, block.x.real, block.x.imag)
            got = (values.p_a[i], values.p_b[i], values.c[i], values.x[i].real, values.x[i].imag)
            assert [float(v).hex() for v in got] == [v.hex() for v in want], value


class TestFindPeak:
    def test_peak_resolved_to_refine_tol(self):
        res = find_peak(
            PAIR,
            GEOM_NEAR,
            SweepVariable.BOUNDARY_DISTANCE,
            bracket=(0.2, 6.0),
            objective=Objective.S_BA,
        )
        assert res.bracket == (0.2, 6.0)
        # the three bracket checks and Brent's steps, counted exactly
        assert res.evaluations <= 15
        assert res.value == harvested_steering(
            PAIR, BoundaryGeometry(Alignment.PARALLEL, 0.05, res.location)
        ).s_ba
        for step in (-2.0 * REFINE_TOL, 2.0 * REFINE_TOL):
            nearby = BoundaryGeometry(Alignment.PARALLEL, 0.05, res.location + step)
            assert harvested_steering(PAIR, nearby).s_ba < res.value

    def test_unimodality_screen_rejects_monotone(self):
        # past its peak s_ba only decays with the mirror distance
        with pytest.raises(ValidationError, match="sweep"):
            find_peak(
                PAIR,
                GEOM_NEAR,
                SweepVariable.BOUNDARY_DISTANCE,
                bracket=(2.0, 6.0),
                objective=Objective.S_BA,
            )

    def test_interior_steering_peak_beats_free_space(self):
        # moving the pair away from the mirror first boosts the harvested
        # steering above the free-space level, then the boost decays
        res = find_peak(
            PAIR,
            GEOM_NEAR,
            SweepVariable.BOUNDARY_DISTANCE,
            bracket=(0.2, 6.0),
            objective=Objective.S_BA,
        )
        free = boundary_free_steering(PAIR, 0.05).s_ba
        assert res.value > free
        assert 0.5 < res.location < 1.5

    @pytest.mark.parametrize(
        "bracket", [(0.2, math.nan), (math.nan, 6.0), (0.2, math.inf), (-math.inf, 6.0)]
    )
    def test_non_finite_bracket_refused(self, bracket):
        match = re.escape(f"peak bracket ({bracket[0]:g}, {bracket[1]:g}) must be finite")
        with pytest.raises(ValidationError, match=match):
            find_peak(PAIR, GEOM_NEAR, SweepVariable.BOUNDARY_DISTANCE, bracket, Objective.S_BA)

    def test_bracket_contains_location(self):
        res = find_peak(
            PAIR,
            GEOM_NEAR,
            SweepVariable.BOUNDARY_DISTANCE,
            bracket=(0.2, 6.0),
            objective=Objective.S_BA,
        )
        assert res.bracket[0] <= res.location <= res.bracket[1]


class TestFindTransition:
    def test_death_resolved_to_refine_tol(self):
        res = find_transition(
            PAIR,
            GEOM_ORT,
            SweepVariable.SEPARATION,
            bracket=(0.1, 3.0),
            direction=Direction.A_TO_B,
        )
        assert res.kind is TransitionKind.SUDDEN_DEATH
        assert res.direction is Direction.A_TO_B
        # the two bracket ends and zeroin's steps, counted exactly
        assert res.evaluations <= 9
        live, dead = (
            harvested_steering(
                PAIR, BoundaryGeometry(Alignment.ORTHOGONAL, res.location + step, 1.0)
            ).s_ab
            for step in (-REFINE_TOL, REFINE_TOL)
        )
        assert live > 0.0
        assert dead == 0.0

    def test_gap_birth_resolved_to_refine_tol(self):
        # at separation 2 only A-to-B steering appears, once the B gap is
        # large enough (criterion 08)
        far = BoundaryGeometry(Alignment.PARALLEL, separation=2.0, boundary_distance=1.0)
        res = find_transition(
            PAIR, far, SweepVariable.OMEGA_B, bracket=(0.1, 6.0), direction=Direction.A_TO_B
        )
        assert res.kind is TransitionKind.SUDDEN_BIRTH
        assert res.evaluations <= 12
        dead, live = (
            harvested_steering(DetectorPair(0.1, res.location + step), far).s_ab
            for step in (-REFINE_TOL, REFINE_TOL)
        )
        assert dead == 0.0
        assert live > 0.0

    def test_same_sign_bracket_rejected(self):
        # B-to-A steering has died before separation 1 and is dead at both ends
        with pytest.raises(ValidationError, match="bracket"):
            find_transition(
                PAIR,
                GEOM_PAR,
                SweepVariable.SEPARATION,
                bracket=(1.0, 2.0),
                direction=Direction.B_TO_A,
            )

    @pytest.mark.parametrize(
        "bracket", [(0.1, math.nan), (math.nan, 3.0), (0.1, math.inf), (-math.inf, 3.0)]
    )
    def test_non_finite_bracket_refused(self, bracket):
        match = re.escape(f"transition bracket ({bracket[0]:g}, {bracket[1]:g}) must be finite")
        with pytest.raises(ValidationError, match=match):
            find_transition(PAIR, GEOM_ORT, SweepVariable.SEPARATION, bracket, Direction.A_TO_B)

    def test_real_steering_death(self):
        res = find_transition(
            PAIR,
            GEOM_PAR,
            SweepVariable.SEPARATION,
            bracket=(0.1, 2.0),
            direction=Direction.B_TO_A,
        )
        assert res.kind is TransitionKind.SUDDEN_DEATH
        assert res.evaluations <= 10
        assert 0.8 < res.location < 0.9
        live = harvested_steering(
            PAIR, BoundaryGeometry(Alignment.PARALLEL, res.location - 1e-4, 1.0)
        )
        dead = harvested_steering(
            PAIR, BoundaryGeometry(Alignment.PARALLEL, res.location + 1e-4, 1.0)
        )
        assert live.s_ba > 0.0
        assert dead.s_ba == 0.0

    def test_wider_gap_dies_later_in_a_to_b(self):
        pair = DetectorPair(omega_a=0.1, omega_b=0.3)
        death_ab = find_transition(
            pair, GEOM_PAR, SweepVariable.SEPARATION, (0.1, 2.0), Direction.A_TO_B
        )
        death_ba = find_transition(
            pair, GEOM_PAR, SweepVariable.SEPARATION, (0.1, 2.0), Direction.B_TO_A
        )
        assert death_ab.location > death_ba.location


# the column each direction's signed margin is clamped into
_COLUMN = {Direction.A_TO_B: "s_ab", Direction.B_TO_A: "s_ba"}
_OBJECTIVE = {Direction.A_TO_B: Objective.S_AB, Direction.B_TO_A: Objective.S_BA}


class TestSignedMargin:
    """find_transition reads each direction's signed margin; the sweep
    columns hold it clamped at zero, so the two must agree on where the
    steering lives."""

    @pytest.mark.parametrize("alignment", list(Alignment))
    @pytest.mark.parametrize(
        "pair, lengths, axis",
        [
            # both directions die along the separation
            (DetectorPair(0.1, 0.3), (1.0, 1.0), ("separation", 0.05, 3.0, 120)),
            # A-to-B steering switches along the B gap at both separations
            (PAIR, (1.0, 1.0), ("omega-b", 0.1, 6.0, 120)),
            (PAIR, (2.0, 1.0), ("omega-b", 0.1, 6.0, 120)),
        ],
        ids=["separation", "omega-b-l1", "omega-b-l2"],
    )
    def test_margin_clamps_to_the_column(self, alignment, pair, lengths, axis):
        geom = BoundaryGeometry(alignment, *lengths)
        axis = SweepAxis(*axis)
        grid = axis.grid().tolist()
        points = list(grid)
        for direction, name in _COLUMN.items():
            live = [v > 0.0 for v in sweep(pair, geom, axis).column(name)]
            for i in (i for i in range(len(grid) - 1) if live[i] != live[i + 1]):
                res = find_transition(
                    pair, geom, axis.variable, (grid[i], grid[i + 1]), direction
                )
                # the margin is near zero here, where a drift would show first
                points += [res.location + k * REFINE_TOL / 4 for k in range(-4, 5)]
        assert len(points) > len(grid)
        for value in points:
            state = sweep_optimize._at(pair, geom, axis.variable, value, state_from_block)
            row = sweep_optimize._at(pair, geom, axis.variable, value, observable_values)
            for margin, name in zip(_signed_margins(state), _COLUMN.values()):
                column = row[OBSERVABLES.index(name)]
                assert (margin > 0.0) == (column > 0.0)
                assert max(0.0, margin).hex() == column.hex()


class TestSearchesNameFailingPoint:
    # with lambda = 5, p_a + p_b passes 1 beyond a mirror distance near 0.85
    STRONG = DetectorPair(omega_a=0.1, omega_b=0.1, coupling=5.0)

    @pytest.mark.parametrize(
        "search, target",
        [(find_peak, Objective.S_BA), (find_transition, Direction.B_TO_A)],
        ids=["find_peak", "find_transition"],
    )
    def test_model_failure_names_the_point(self, search, target):
        match = r"^at boundary-distance = 6: p_a \+ p_b = \S+ >= 1"
        with pytest.raises(PerturbativeValidityError, match=match) as info:
            search(self.STRONG, GEOM_NEAR, SweepVariable.BOUNDARY_DISTANCE, (0.2, 6.0), target)
        assert type(info.value) is PerturbativeValidityError
        assert type(info.value.__cause__) is PerturbativeValidityError


@st.composite
def search_problems(draw):
    """A pair, geometry and direction from the search benchmark's domain."""
    omega_a = draw(st.floats(0.0, 0.1))
    pair = DetectorPair(omega_a, draw(st.floats(omega_a, 1.0)))
    alignment = draw(st.sampled_from(list(Alignment)))
    geom = BoundaryGeometry(alignment, draw(st.floats(0.05, 3.0)), draw(st.floats(1e-4, 8.0)))
    return pair, geom, draw(st.sampled_from(list(Direction)))


# fixed examples, so that the suite stays deterministic
search_properties = settings(derandomize=True, max_examples=60, deadline=None, database=None)


class TestSearchProperties:
    @search_properties
    @given(search_problems())
    def test_transition_indicator_flips_across_location(self, problem):
        pair, geom, direction = problem

        def live(separation):
            steering = harvested_steering(pair, dataclasses.replace(geom, separation=separation))
            return getattr(steering, _COLUMN[direction]) > 0.0

        assume(live(geom.separation) != live(3.0))
        res = find_transition(
            pair, geom, SweepVariable.SEPARATION, (geom.separation, 3.0), direction
        )
        assert live(res.location - REFINE_TOL) != live(res.location + REFINE_TOL)

    @search_properties
    @given(search_problems())
    def test_peak_value_exceeds_objective_nearby(self, problem):
        pair, geom, direction = problem
        name = _COLUMN[direction]

        def objective(dz):
            steering = harvested_steering(pair, dataclasses.replace(geom, boundary_distance=dz))
            return getattr(steering, name)

        # bracket the coarse maximum as the search benchmark does
        axis = SweepAxis(SweepVariable.BOUNDARY_DISTANCE, 1e-4, 8.0, 24)
        values = sweep(pair, geom, axis).column(name)
        i = max(range(len(values)), key=values.__getitem__)
        assume(0 < i < len(values) - 1)
        lo, hi = axis.grid()[[i - 1, i + 1]].tolist()
        assume(objective(0.5 * (lo + hi)) > max(objective(lo), objective(hi)))
        res = find_peak(
            pair, geom, SweepVariable.BOUNDARY_DISTANCE, (lo, hi), _OBJECTIVE[direction]
        )
        for step in (-3.0 * REFINE_TOL, 3.0 * REFINE_TOL):
            assert objective(res.location + step) < res.value


class TestFigureDataset:
    def test_separation_sweep_curves_monotone_for_identical(self):
        data = figure_dataset(FigureId.FIG2, resolution=80)
        key = next(k for k in data if "0.10" in k)
        vals = data[key].column("s_ba")
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 0.0

    def test_orthogonal_counterpart_uses_same_curves(self):
        d2 = figure_dataset(FigureId.FIG2, resolution=12)
        d4 = figure_dataset(FigureId.FIG4, resolution=12)
        assert len(d2) == len(d4) == 3

    def test_mirror_distance_sweep_has_reference_table(self):
        data = figure_dataset(FigureId.FIG5, resolution=60)
        assert set(data) == {"parallel", "orthogonal", "boundary_free"}
        ref = data["boundary_free"].column("s_ba")
        assert all(s_ba == ref[0] for s_ba in ref)
        # the late-curve offset from the reference is the 1/dz^2 image
        # tail, a bit under 1e-3 at dz = 8
        end_gap = data["parallel"].column("s_ba")[-1] - ref[-1]
        assert 1e-4 < end_gap < 2e-3

    def test_reference_table_carries_free_space_block(self):
        ref = figure_dataset(FigureId.FIG5, resolution=5)["boundary_free"]
        free = boundary_free_correlations(PAIR, 0.05)
        for p_a, p_b, abs_c, abs_x in zip(
            *map(ref.column, ("p_a", "p_b", "abs_c", "abs_x"))
        ):
            assert (p_a, p_b) == (free.p_a, free.p_b)
            assert (abs_c, abs_x) == (abs(free.c), abs(free.x))

    def test_gap_sweep_large_separation_is_one_way(self):
        data = figure_dataset(FigureId.FIG6, resolution=80)
        assert len(data) == 4
        large = [k for k in data if "2.00" in k]
        assert len(large) == 2
        for key in large:
            table = data[key]
            assert all(s_ba == 0.0 for s_ba in table.column("s_ba"))
            assert any(s_ab > 0.0 for s_ab in table.column("s_ab"))

    def test_alignment_difference_consistent_with_sweeps(self):
        data = figure_dataset(FigureId.FIG7, resolution=40)
        par = data["parallel"]
        ort = data["orthogonal"]
        diff = data["difference"]
        assert diff.column("axis") == par.column("axis") == ort.column("axis")
        for i, l in enumerate(diff.column("axis")):
            d_ab = diff.column("delta_s_ab")[i]
            d_ba = diff.column("delta_s_ba")[i]
            o_ab, p_ab = ort.column("s_ab")[i], par.column("s_ab")[i]
            o_ba, p_ba = ort.column("s_ba")[i], par.column("s_ba")[i]
            assert d_ab == pytest.approx(o_ab - p_ab, abs=1e-12)
            assert d_ba == pytest.approx(o_ba - p_ba, abs=1e-12)
            direct = config_difference(PAIR, l, 1.0)
            assert d_ab == pytest.approx(direct[0], abs=1e-12)
            assert d_ba == pytest.approx(direct[1], abs=1e-12)

    def test_deterministic(self):
        a = figure_dataset(FigureId.FIG2, resolution=25)
        b = figure_dataset(FigureId.FIG2, resolution=25)
        assert a == b

    def test_accepts_string_id(self):
        data = figure_dataset("fig7", resolution=8)
        assert "difference" in data

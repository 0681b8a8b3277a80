"""Tests for parameter sweeps, peak finding, transition finding, and
the figure dataset builders."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import observe
from mirrorsteer.detector_model import (
    Alignment,
    BoundaryGeometry,
    CorrelationBlock,
    DetectorPair,
    _block_evaluator,
    _block_rules,
    _geometry_rules,
    _pair_rules,
    _phase_rules,
    boundary_free_correlations,
    boundary_free_steering,
    config_difference,
    correlations,
    harvested_steering,
    state_from_block,
    steering_from_block,
    transition_probability,
)
from mirrorsteer import detector_model, sweep_optimize, xstate_steering
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
    _ARRAYS,
    XState,
    _observed,
)


def _at(pair, geom, variable, value, read):
    """``read`` of the correlation block at one grid point, through the
    dataclasses: the one-point route the array pass and the search
    evaluator are held to.  A validation error is re-raised as the same
    type with the point named."""
    try:
        if variable is SweepVariable.OMEGA_B:
            pair = dataclasses.replace(pair, omega_b=value)
        else:
            geom = dataclasses.replace(geom, **{sweep_optimize._INPUT[variable]: value})
        return read(correlations(pair, geom))
    except ValidationError as exc:
        raise type(exc)(f"at {variable.value} = {value:g}: {exc}") from exc


def _signed_margins(state):
    """The signed margins of A->B and B->A of one :class:`XState`."""
    return _observed(state)[6:]


def _array_pass(pair, geom, variable, grid):
    """The verdict of each grid point and the :data:`OBSERVABLES` columns of
    a sweep's array pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, observed, ok = _block_evaluator(pair, geom, sweep_optimize._INPUT[variable])(grid)
    return ok, [np.broadcast_to(col, grid.shape) for col in observed[: len(OBSERVABLES)]]


def _observables_evaluator(pair, geom, variable):
    """A search's evaluator, read as the :data:`OBSERVABLES`."""
    evaluate = sweep_optimize._evaluator(pair, geom, variable)
    return lambda value: evaluate(value)[: len(OBSERVABLES)]


PAIR = DetectorPair(omega_a=0.1, omega_b=0.1)
GEOM_PAR = BoundaryGeometry(Alignment.PARALLEL, separation=1.0, boundary_distance=1.0)
GEOM_ORT = BoundaryGeometry(Alignment.ORTHOGONAL, separation=1.0, boundary_distance=1.0)
# l = 0.05: s_ba peaks at an interior mirror distance near 0.93
GEOM_NEAR = BoundaryGeometry(Alignment.PARALLEL, separation=0.05, boundary_distance=1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BoundaryGeometry("diagonal", 1.0, 1.0),
         "alignment must be one of 'parallel', 'orthogonal'; got 'diagonal'"),
        (lambda: SweepAxis("foo", 0.0, 1.0, 3),
         "variable must be one of 'separation', 'boundary-distance', 'omega-b'; got 'foo'"),
        (lambda: SweepAxis("separation", 0.0, 1.0, 3, scale="cubic"),
         "scale must be one of 'linear', 'log'; got 'cubic'"),
        (lambda: find_peak(PAIR, GEOM_PAR, "separation", (0.1, 1.0), objective="bogus"),
         "objective must be one of 'sab', 'sba', 'asym'; got 'bogus'"),
        (lambda: find_transition(PAIR, GEOM_PAR, "separation", (0.1, 1.0), direction="up"),
         "direction must be one of 'ab', 'ba'; got 'up'"),
        (lambda: figure_dataset("fig9"),
         "figure_id must be one of 'fig2', 'fig4', 'fig5', 'fig6', 'fig7'; got 'fig9'"),
    ],
    ids=["alignment", "variable", "scale", "objective", "direction", "figure"],
)
def test_unknown_name_raises_validation_error(call, message):
    # README: out-of-domain input raises ValidationError, names included
    with pytest.raises(ValidationError) as caught:
        call()
    assert str(caught.value) == message


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

    @pytest.mark.parametrize("points", [3.0, 2.5, "5", None])
    def test_rejects_non_integer_points(self, points):
        with pytest.raises(ValidationError, match=re.escape(f"got {points!r}")):
            SweepAxis(SweepVariable.SEPARATION, start=1.0, stop=2.0, points=points)

    @pytest.mark.parametrize("end", ["start", "stop"])
    @pytest.mark.parametrize("value", ["0.1", None])
    def test_rejects_non_real_range_ends(self, end, value):
        ends = {"start": 1.0, "stop": 2.0, end: value}
        match = re.escape(f"a sweep {end} must be a real number, got {value!r}")
        with pytest.raises(ValidationError, match=match):
            SweepAxis(SweepVariable.SEPARATION, points=5, **ends)

    @pytest.mark.parametrize(
        "start, stop", [(math.nan, 2.0), (1.0, math.nan), (-math.inf, 2.0), (1.0, math.inf)]
    )
    def test_rejects_non_finite_range(self, start, stop):
        with pytest.raises(ValidationError) as info:
            SweepAxis(SweepVariable.SEPARATION, start=start, stop=stop, points=5)
        assert str(info.value) == "sweep range must be finite"

    def test_accepts_numpy_float_range_ends(self):
        axis = SweepAxis(
            SweepVariable.SEPARATION, start=np.float64(0.5), stop=np.float32(2.0), points=4
        )
        assert axis.grid().tolist() == [0.5, 1.0, 1.5, 2.0]

    def test_accepts_numpy_integer_points(self):
        axis = SweepAxis(SweepVariable.SEPARATION, start=1.0, stop=2.0, points=np.int64(5))
        assert len(axis.grid()) == 5

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

    @staticmethod
    def linear_ranges():
        """Seeded (start, stop, points) of every magnitude and sign, with
        float, numpy float and integer ends, and three no draw reaches: a
        width whose step underflows to zero, the fewest points and the
        most."""
        rng = np.random.default_rng(36)
        ranges = [(0.0, 1.5e-323, 1000), (0.1, 2.0, 2), (1e-4, 8.0, MAX_POINTS)]
        while len(ranges) < 300:
            magnitudes = 10.0 ** rng.uniform(-320.0, 300.0, 2)
            ends = sorted((rng.choice([-1.0, 1.0], 2) * magnitudes).tolist())
            if ends[0] < ends[1]:
                ranges.append((*ends, int(rng.integers(2, 500))))
        ranges += [(np.float64(0.5), 2.0, 7), (0, 3, 5), (-2, 1.5, 4), (np.float32(0.5), 2.0, 4)]
        return ranges

    def test_linear_grid_is_linspace(self):
        # 1.5e-323 / 999 underflows: linspace divides by the intervals, then
        # multiplies by the width
        assert 1.5e-323 / 999 == 0.0
        for start, stop, points in self.linear_ranges():
            got = SweepAxis(SweepVariable.SEPARATION, start, stop, points).grid()
            # a SweepAxis reads its ends as floats, np.float32 ones included
            want = np.linspace(float(start), float(stop), points)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (start, stop)

    def test_linear_grid_makes_no_linspace_call(self, monkeypatch):
        calls = []
        linspace = np.linspace
        monkeypatch.setattr(np, "linspace", lambda *a, **k: calls.append(a) or linspace(*a, **k))
        for start, stop, points in self.linear_ranges()[:100]:
            SweepAxis(SweepVariable.BOUNDARY_DISTANCE, start, stop, points).grid()
        assert calls == []

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

    @pytest.mark.parametrize("variable", list(SweepVariable))
    @pytest.mark.parametrize("geom", [GEOM_PAR, GEOM_ORT], ids=["parallel", "orthogonal"])
    @pytest.mark.parametrize(
        "start, stop",
        [(1, 3), (np.float32(0.3), np.float32(2.9)), (np.float64(0.3), np.float64(2.9)),
         (Fraction(3, 10), Fraction(29, 10))],
        ids=["int", "float32", "float64", "fraction"],
    )
    def test_real_ends_sweep_as_their_floats(self, variable, geom, start, stop):
        # the documented contract: a sweep is bit for bit its one-point
        # route at each axis value, whatever real type its ends are given in
        got = sweep(PAIR, geom, SweepAxis(variable, start, stop, 9))
        want = sweep(PAIR, geom, SweepAxis(variable, float(start), float(stop), 9))
        assert _bits(got.columns) == _bits(want.columns) and got.params == want.params
        for value, s_ab, s_ba in zip(*map(got.column, ("axis", "s_ab", "s_ba"))):
            # harvested_steering at that value: steering_from_block of its block
            direct = _at(PAIR, geom, variable, value, steering_from_block)
            assert (direct.s_ab, direct.s_ba) == (s_ab, s_ba)

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

        monkeypatch.setattr(sweep_optimize, "_block_evaluator", failing)
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
        match = r"at boundary-distance = 1.1: p_a \+ p_b = 1\.6249076837354433 >= 1"
        with pytest.raises(PerturbativeValidityError, match=match):
            sweep(pair, GEOM_PAR, axis)

    @pytest.mark.parametrize(
        "geom, axis, match",
        [
            # Im G overflows as 1/l below l ~ 1e-308
            (GEOM_PAR, ("separation", 1e-320, 1e-300, 5, "log"),
             "separation = 9.99989e-321: c and x must be finite"),
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
             "at boundary-distance = 0.784577: p_a + p_b = 1.000158630644309 >= 1: "
             "coupling too strong for the leading-order state"),
        ],
    )
    def test_refused_long_sweep_evaluates_one_point_alone(
        self, pair, geom, axis, message, monkeypatch
    ):
        # one array pass finds the first failing point; that point alone is
        # evaluated by a search's evaluator, which raises its error
        calls = []
        evaluator = sweep_optimize._evaluator

        def counting(*args):
            evaluate = evaluator(*args)

            def at(value):
                calls.append(value)
                return evaluate(value)

            return at

        monkeypatch.setattr(sweep_optimize, "_evaluator", counting)
        axis = SweepAxis(*axis)
        with pytest.raises(ValidationError) as info:
            sweep(pair, geom, axis)
        assert str(info.value) == message
        [value] = calls
        assert type(value) is float
        grid = axis.grid().tolist()
        i = grid.index(value)
        with pytest.raises(ValidationError, match=re.escape(message)):
            _at(pair, geom, axis.variable, value, observable_values)
        _at(pair, geom, axis.variable, grid[i - 1], observable_values)

    def test_refused_sweep_makes_no_one_point_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(detector_model, "correlations", lambda *args: calls.append(args))
        axis = SweepAxis("boundary-distance", 0.2, 2.0, 9)
        with pytest.raises(PerturbativeValidityError, match="at boundary-distance = "):
            sweep(DetectorPair(0.1, 0.1, coupling=5.0), GEOM_PAR, axis)
        assert calls == []

    def test_names_first_failing_point_across_check_stages(self):
        # the first point fails the late X-state check, the last ones the
        # early geometry check
        geom = BoundaryGeometry(Alignment.ORTHOGONAL, 1.0, 1.0)
        axis = SweepAxis("separation", 1e-320, 1e308, 200, "log")
        match = "separation = 9.99989e-321: c and x must be finite"
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
        ok, arrays = _array_pass(pair, geom, axis.variable, grid)
        for value, verdict, *columns in zip(grid.tolist(), ok.tolist(), *arrays):
            try:
                want = _at(pair, geom, axis.variable, value, observable_values)
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
    "p_a + p_b = {p_sum!r} >= 1: coupling too strong for the leading-order state": (
        DetectorPair(0.1, 0.1, coupling=5.0), GEOM_PAR, ("boundary-distance", 0.2, 2.0, 5)
    ),
    # Im G overflows as 1/l
    "c and x must be finite, got x = {x!r}: the separation is below the kernels' range": (
        PAIR, GEOM_PAR, ("separation", 1e-320, 1e-300, 5, "log")
    ),
}
# the rules no sweep can fail, and why
_NO_SWEEP_FAILS = {
    # a sweep's pair is a valid DetectorPair, so its coupling passes
    "coupling must be positive",
    "coupling = {coupling:g} is too large: lambda² overflows",
    # a grid between finite ends holds finite values
    "detector parameters must be finite",
    "geometry lengths must be finite",
    # the closed forms clamp each probability at zero
    "probabilities must be nonnegative",
    # the free-space term and F are finite at every gap the pair rules
    # accept: F's Taylor branch is 0 where its damping underflows
    "probabilities must be finite",
}


def _rule_messages():
    """The message template of every rule a sweep checks, in the order the
    one-point route checks them."""
    tables = (_pair_rules, _geometry_rules, _phase_rules, _block_rules)
    return [message for rules in tables for _, message in rules.rows]


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
                _at(pair, geom, axis.variable, value, observable_values)
            except ValidationError as exc:
                want = exc
                break
        assert type(got.value) is type(want)
        assert str(got.value) == str(want)
        # a numpy scalar would print as np.float64(...) in a !r field
        assert "np." not in str(got.value)
        # the point fails this rule: its fixed text surrounds the values
        fixed = [re.escape(part) for part in re.split(r"\{[^}]*\}", template)]
        assert re.fullmatch(r"at \S+ = \S+: " + "[^:]+".join(fixed), str(want))

    @pytest.mark.parametrize(
        "swept, values, build",
        [
            ("omega_b", [0.2, math.nan], lambda: DetectorPair(0.1, math.nan)),
            ("separation", [1.0, math.inf],
             lambda: BoundaryGeometry(Alignment.PARALLEL, math.inf, 1.0)),
            ("boundary_distance", [1.0, math.nan],
             lambda: BoundaryGeometry(Alignment.PARALLEL, 1.0, math.nan)),
        ],
        ids=["gap-nan", "length-inf", "mirror-distance-nan"],
    )
    def test_evaluator_refuses_as_the_dataclasses(self, swept, values, build):
        # rules no sweep fails, fed straight to the evaluator: the array's
        # verdict refuses the point, and the point alone raises the
        # dataclass's error
        evaluate = _block_evaluator(PAIR, GEOM_PAR, swept)
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, ok = evaluate(np.array(values))
        assert ok.tolist() == [True, False]
        with pytest.raises(ValidationError) as got:
            evaluate(values[1])
        with pytest.raises(ValidationError) as want:
            build()
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

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
            # finite, but its modulus overflows
            (1.0, 0.0, 0.0, 0.0, complex(1.5e308, 1.5e308), 0j),
        ],
    )
    def test_state_verdict_is_what_xstate_refuses(self, bad):
        good = (0.25, 0.25, 0.25, 0.25, 0.1 + 0j, 0.1j)
        with np.errstate(over="ignore", invalid="ignore"):
            _, ok = observe(_ARRAYS, *(np.array(column) for column in zip(good, bad)))
        assert ok.tolist() == [True, False]
        with pytest.raises(ValidationError):
            XState(*bad)

    @pytest.mark.parametrize("p_a, p_b", [(math.nan, 0.1), (0.1, -0.1), (0.6, 0.6)])
    def test_block_verdict_is_what_correlation_block_refuses(self, p_a, p_b):
        p_a, p_b = np.array([0.1, p_a]), np.array([0.1, p_b])
        ok = _ARRAYS.verdict(_block_rules, (p_a, p_b, p_a + p_b, np.zeros(2),
                                             np.zeros(2, complex)))
        assert ok.tolist() == [True, False]
        with pytest.raises(ValidationError):
            CorrelationBlock(p_a[1], p_b[1], 0j, 0j)

    @pytest.mark.parametrize(
        "c, x", [(math.inf, 0j), (math.nan, 0j), (0.0, complex(math.nan, -math.inf))]
    )
    def test_block_verdict_refuses_non_finite_c_or_x(self, c, x):
        p = np.array([0.1, 0.1])
        with np.errstate(invalid="ignore"):
            ok = _ARRAYS.verdict(_block_rules, (p, p, p + p, np.array([0.1, c]),
                                                np.array([0.1j, x])))
        assert ok.tolist() == [True, False]
        with pytest.raises(ValidationError, match="c and x must be finite"):
            CorrelationBlock(0.1, 0.1, c, x)


def _scalar_columns(pair, geom, axis):
    """The columns of a sweep evaluated one point at a time."""
    grid = axis.grid().tolist()
    values = [_at(pair, geom, axis.variable, v, observable_values) for v in grid]
    return dict(zip(("axis", *OBSERVABLES), (grid, *zip(*values))))


def _bits(columns):
    return {name: [float(v).hex() for v in column] for name, column in columns.items()}


def _figure_curves(figure, data):
    """Each curve among ``data``, the tables of one figure, with the pair and
    geometry rebuilt from the parameters it records and the figure's axis at
    its resolution: (label, table, pair, geometry, axis)."""
    spec = sweep_optimize._FIGURES[FigureId(figure)]
    for label, table in data.items():
        if label == spec.extra:
            continue
        p = table.params
        start = p["omega_a"] if spec.start is None else spec.start
        pair = DetectorPair(p["omega_a"], p.get("omega_b", p["omega_a"]), p["lambda"])
        geom = BoundaryGeometry(p["alignment"], p.get("l", 1.0), p.get("dz", 1.0))
        yield label, table, pair, geom, SweepAxis(spec.variable, start, spec.stop,
                                                  p["resolution"])


class TestArrayPassMatchesOnePointRoute:
    """Every column of the array sweep equals the one-point route bit for
    bit, so the two routes cannot drift apart."""

    @pytest.mark.parametrize("omega_a, omega_b", [(0.05, 0.5), (0.1, 0.1), (0.0, 0.3), (0.08, 1.0)])
    def test_all_figures(self, omega_a, omega_b):
        checked = []
        for figure in FigureId:
            data = figure_dataset(figure, DetectorPair(omega_a, omega_b), resolution=200)
            for label, table, pair, geom, axis in _figure_curves(figure, data):
                assert table.variable is axis.variable
                assert _bits(table.columns) == _bits(_scalar_columns(pair, geom, axis)), label
                checked.append(axis.points)
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
        with np.errstate(over="ignore", invalid="ignore"):
            values, _, ok = _block_evaluator(pair, geom, sweep_optimize._INPUT[axis.variable])(grid)
        assert ok.all()
        # a probability held fixed is one number
        p_a, p_b = (np.broadcast_to(p, grid.shape) for p in (values.p_a, values.p_b))
        for i, value in enumerate(grid.tolist()):
            block = _at(pair, geom, axis.variable, value, lambda b: b)
            want = (block.p_a, block.p_b, block.c.real, block.x.real, block.x.imag)
            got = (p_a[i], p_b[i], values.c[i], values.x[i].real, values.x[i].imag)
            assert [float(v).hex() for v in got] == [v.hex() for v in want], value


class TestEvaluatorMatchesDataclassRoute:
    """A search evaluates one point at a time through an evaluator that holds
    fixed what its variable does not move and builds no dataclass.  Each
    evaluation equals the dataclass route bit for bit, and each refusal is
    the dataclass route's refusal."""

    @pytest.mark.parametrize("alignment", list(Alignment))
    @TestArrayPassMatchesOnePointRoute._AXES
    def test_axes(self, alignment, dz, axis):
        pair = DetectorPair(0.1, 0.2)
        geom = BoundaryGeometry(alignment, 1.0, dz)
        axis = SweepAxis(*axis)
        observables = _observables_evaluator(pair, geom, axis.variable)
        evaluate = sweep_optimize._evaluator(pair, geom, axis.variable)
        margins = lambda value: evaluate(value)[len(OBSERVABLES):]
        for value in axis.grid().tolist():
            want = _at(pair, geom, axis.variable, value, observable_values)
            assert [v.hex() for v in observables(value)] == [v.hex() for v in want], value
            want = _signed_margins(_at(pair, geom, axis.variable, value, state_from_block))
            assert [v.hex() for v in margins(value)] == [v.hex() for v in want], value
            # a numpy scalar would print as np.float64(...) in a !r field,
            # which float.hex cannot tell from a float
            got = (*observables(value), *margins(value))
            assert all(type(v) is float for v in got), (value, got)

    @pytest.mark.parametrize("template", list(_SWEEP_REFUSALS))
    def test_refusal_at_first_failing_point(self, template):
        pair, geom, axis = _SWEEP_REFUSALS[template]
        axis = SweepAxis(*axis)
        evaluate = _observables_evaluator(pair, geom, axis.variable)
        for value in axis.grid().tolist():
            try:
                want = _at(pair, geom, axis.variable, value, observable_values)
            except ValidationError as exc:
                want = exc
                break
            assert [v.hex() for v in evaluate(value)] == [v.hex() for v in want], value
        with pytest.raises(ValidationError) as got:
            evaluate(value)
        assert type(got.value) is type(want)
        assert str(got.value) == str(want)
        assert type(got.value.__cause__) is type(want.__cause__)


def _public_route(pair, geom, swept, value):
    """P_A, P_B and the ``_observed`` columns at one value of ``swept``,
    through ``correlations``, ``state_from_block`` and ``_observed``, or the
    error the dataclasses raise before a block exists.  The X-state of a
    block that exists must build: the evaluator checks none of its rules."""
    try:
        if swept == "omega_b":
            pair = dataclasses.replace(pair, omega_b=value)
        else:
            geom = dataclasses.replace(geom, **{swept: value})
        block = correlations(pair, geom)
    except ValidationError as exc:
        return exc
    return (block.p_a, block.p_b, *_observed(state_from_block(block)))


def _log_scale(low, high):
    """Floats 10**e, the exponent e drawn from [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0**e)


# each in the benchmark's range or anywhere up to the model's edges: gaps
# up to and past the overflow of 2 omega (and near it, where the kernel
# phases overflow), lengths down to 1e-320 and up to 1e300, and couplings up
# to 1e154, whose square is still finite
_GAPS = st.one_of(
    st.just(0.0), _log_scale(-3.0, 1.0), _log_scale(-3.0, 308.1), _log_scale(306.0, 308.1)
)
_LENGTHS = st.one_of(_log_scale(-3.0, 1.0), _log_scale(-320.0, 300.0))
_COUPLINGS = st.one_of(_log_scale(-3.0, 1.0), _log_scale(-3.0, 154.0))


@st.composite
def evaluator_problems(draw):
    """A valid pair and geometry, a swept input and a few values of it."""
    omega_a, omega_b = sorted(draw(st.lists(_GAPS, min_size=2, max_size=2)))
    alignment = draw(st.sampled_from(list(Alignment)))
    try:
        pair = DetectorPair(omega_a, omega_b, draw(_COUPLINGS))
        geom = BoundaryGeometry(alignment, draw(_LENGTHS), draw(_LENGTHS))
    except ValidationError:
        assume(False)
    swept = draw(st.sampled_from(["omega_b", "separation", "boundary_distance"]))
    values = draw(st.lists(_GAPS if swept == "omega_b" else _LENGTHS, min_size=1, max_size=5))
    return pair, geom, swept, values


class TestBlockVouchesForItsXState:
    """A sweep or a search checks no X-state rule: a block that passes its
    own rules holds an X-state that XState accepts.  Across the model's
    domain and past its edges, the evaluator is the public route at one
    point and over arrays, refusals included."""

    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(evaluator_problems())
    def test_evaluator_is_the_public_route(self, problem):
        pair, geom, swept, values = problem
        evaluate = _block_evaluator(pair, geom, swept)
        wants = [_public_route(pair, geom, swept, value) for value in values]
        for value, want in zip(values, wants):
            if isinstance(want, ValidationError):
                with pytest.raises(ValidationError) as got:
                    evaluate(value)
                assert (type(got.value), str(got.value)) == (type(want), str(want))
            else:
                _, observed, ok = evaluate(value)
                assert ok is True
                assert [v.hex() for v in observed] == [v.hex() for v in want], value
        with np.errstate(over="ignore", invalid="ignore"):
            _, observed, ok = evaluate(np.array(values))
        assert ok.tolist() == [not isinstance(want, ValidationError) for want in wants]
        columns = [np.broadcast_to(column, ok.shape).tolist() for column in observed]
        for i, want in enumerate(wants):
            if ok[i]:
                assert [float(column[i]).hex() for column in columns] == [
                    v.hex() for v in want
                ], values[i]

    def test_sweeps_and_searches_check_no_x_state(self, monkeypatch):
        calls = []
        state = xstate_steering._state

        def counting(*args):
            calls.append(args)
            return state(*args)

        monkeypatch.setattr(xstate_steering, "_state", counting)
        sweep(PAIR, GEOM_ORT, SweepAxis("separation", 0.05, 3.0, 40))
        with pytest.raises(PerturbativeValidityError):
            sweep(DetectorPair(0.1, 0.1, coupling=5.0), GEOM_PAR,
                  SweepAxis("boundary-distance", 0.2, 2.0, 9))
        for figure in ("fig2", "fig4", "fig6", "fig7"):
            figure_dataset(figure, resolution=12)
        for args, _, _ in _PEAK_PINS[:2]:
            find_peak(*args)
        for args, _, _ in _TRANSITION_PINS[:3]:
            find_transition(*args)
        assert calls == []
        # fig5's boundary-free reference is one point of the public route
        figure_dataset("fig5", resolution=12)
        assert len(calls) == 1


def _refused(route, *args):
    """Call ``route(*args)``; a refusal ends the call, and the kernel calls
    made before it still count."""
    try:
        route(*args)
    except ValidationError:
        pass


class TestKernelSeesOnlyFiniteArguments:
    """F calls the one-point Faddeeva kernel without ``faddeeva_w``'s
    finiteness check.  Every route checks the pair, geometry or transition
    rules before F runs, so across the model's domain and past its edges
    each argument -l/2 + i s/2 the kernel receives is finite."""

    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(evaluator_problems())
    def test_every_argument_is_finite(self, problem):
        pair, geom, swept, values = problem
        moved = lambda name, held: (held, *values) if swept == name else (held,)
        args = []
        w_point = detector_model._w_point
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(detector_model, "_w_point", lambda z: args.append(z) or w_point(z))
            _refused(correlations, pair, geom)
            for value in values:
                _public_route(pair, geom, swept, value)
            for omega in (pair.omega_a, *moved("omega_b", pair.omega_b)):
                for dz in moved("boundary_distance", geom.boundary_distance):
                    _refused(transition_probability, omega, dz, pair.coupling)
            for l in moved("separation", geom.separation):
                _refused(boundary_free_correlations, pair, l)
            evaluate = _block_evaluator(pair, geom, swept)
            for value in values:
                _refused(evaluate, value)
            with np.errstate(over="ignore", invalid="ignore"):
                evaluate(np.array(values))
        assert [z for z in args if not (math.isfinite(z.real) and math.isfinite(z.imag))] == []


@pytest.mark.parametrize(
    "alignment, axis, at_build, per_point",
    [
        # P_A and P_B; the direct kernels are held
        (Alignment.PARALLEL, "boundary-distance", 2, 4),
        (Alignment.ORTHOGONAL, "boundary-distance", 2, 4),
        # P_A and P_B; both kernels move
        (Alignment.PARALLEL, "separation", 2, 4),
        # P_A; P_B moves with the separation
        (Alignment.ORTHOGONAL, "separation", 1, 5),
        # P_A; the gap moves P_B and every kernel
        (Alignment.PARALLEL, "omega-b", 1, 5),
        (Alignment.ORTHOGONAL, "omega-b", 1, 5),
    ],
)
def test_held_stages_are_computed_once(alignment, axis, at_build, per_point, monkeypatch):
    # every kernel calls the one-point Faddeeva kernel past SERIES_CROSSOVER;
    # the array pass calls wofz instead, so a sweep makes only the build's
    # calls.  A kernel reached through faddeeva_w would count none.
    calls = []
    w_point = detector_model._w_point
    monkeypatch.setattr(detector_model, "_w_point", lambda z: calls.append(z) or w_point(z))
    pair, geom = DetectorPair(0.1, 0.2), BoundaryGeometry(alignment, 1.0, 1.0)
    variable = SweepVariable(axis)
    evaluate = sweep_optimize._evaluator(pair, geom, variable)
    assert len(calls) == at_build
    for value in (0.5, 0.7, 1.3):
        evaluate(value)
    assert len(calls) == at_build + 3 * per_point
    calls.clear()
    sweep(pair, geom, SweepAxis(variable, 0.5, 2.0, 200))
    assert len(calls) == at_build


@pytest.mark.parametrize(
    "figure, pair_terms, kernels, probabilities",
    [
        # every curve has its own gap (fig2, fig4) or alignment (fig5, fig7)
        # and so its own image kernels; fig2 and fig4 share nothing else
        ("fig2", 0, 3 + 3, 0),
        ("fig4", 0, 3 + 3, 3),
        # the direct kernels are held; P_A along dz, then P_B per alignment
        ("fig5", 0, 2, 1 + 2),
        # the pair terms once, the direct kernels once per L, four image
        # kernels; P_B once in the parallel alignment (dz = 1 at both L),
        # once per L in the orthogonal one
        ("fig6", 1, 2 + 4, 1 + 2),
        # the direct kernels once; P_B along l in the orthogonal alignment
        ("fig7", 0, 1 + 2, 1),
    ],
)
def test_figure_curves_share_stages(figure, pair_terms, kernels, probabilities, monkeypatch):
    # the stages an array pass computes, by function; the held ones are
    # computed at one point when each curve's evaluator is built
    calls = []
    for name in ("_pair_terms", "_kernels", "_probability"):
        stage = getattr(detector_model, name)

        def counted(ns, *inputs, stage=stage, name=name):
            if any(isinstance(v, np.ndarray) for v in inputs):
                calls.append((name, inputs))
            return stage(ns, *inputs)

        monkeypatch.setattr(detector_model, name, counted)
    # the second call keeps nothing of the first, and computes as much
    for run in (1, 2):
        figure_dataset(figure, DetectorPair(0.05, 0.5), resolution=50)
        counts = {name: sum(n == name for n, _ in calls)
                  for name in ("_pair_terms", "_kernels", "_probability")}
        assert counts == {"_pair_terms": run * pair_terms, "_kernels": run * kernels,
                          "_probability": run * probabilities}
    if figure == "fig6":
        # the direct kernels read a separation of the family, L = 0.05 or 2
        direct = [inputs[0] for n, inputs in calls if n == "_kernels" and inputs[0] in (0.05, 2.0)]
        assert direct == [0.05, 2.0] * 2


# the coupling at which each figure is refused; fig6 and fig7 are refused
# at a later curve, after an earlier one has kept its stages
_REFUSED_COUPLING = {"fig2": 5.0, "fig4": 4.0, "fig5": 4.0, "fig6": 4.0, "fig7": 4.0}


@pytest.mark.parametrize("figure", [f.value for f in FigureId])
def test_figure_calls_share_nothing(figure):
    # each call equals the curves a fresh run gives, one plain sweep each
    def assert_fresh(data):
        for label, table, pair, geom, axis in _figure_curves(figure, data):
            assert _bits(table.columns) == _bits(sweep(pair, geom, axis).columns), label

    first = figure_dataset(figure, DetectorPair(0.1, 0.1), resolution=30)
    second = figure_dataset(figure, DetectorPair(0.05, 0.5), resolution=30)
    with pytest.raises(PerturbativeValidityError):
        figure_dataset(figure, DetectorPair(0.1, 0.1, _REFUSED_COUPLING[figure]), resolution=30)
    after = figure_dataset(figure, DetectorPair(0.1, 0.1), resolution=30)
    for data in (first, second, after):
        assert_fresh(data)
    assert {k: _bits(t.columns) for k, t in after.items()} == {
        k: _bits(t.columns) for k, t in first.items()
    }
    # every table of a figure holds one axis column
    assert len({id(t.column("axis")) for t in after.values()}) == 1


_PAR = Alignment.PARALLEL
_ORT = Alignment.ORTHOGONAL
# searches with the evaluations they take and the location they return
# (float.hex), recorded on the dataclass route before the search evaluator
_PEAK_PINS = [
    ((PAIR, GEOM_NEAR, "boundary-distance", (0.2, 6.0), "sba"), 15, "0x1.d9efbbb17c872p-1"),
]
_TRANSITION_PINS = [
    ((PAIR, GEOM_ORT, "separation", (0.1, 3.0), "ab"), 9, "0x1.7e5a60bd904d2p-1"),
    ((PAIR, BoundaryGeometry(_PAR, 2.0, 1.0), "omega-b", (0.1, 6.0), "ab"),
     12, "0x1.63c3015a60850p+0"),
    ((PAIR, GEOM_PAR, "separation", (0.1, 2.0), "ba"), 10, "0x1.b08d71688bfccp-1"),
    ((DetectorPair(0.1, 0.3), GEOM_PAR, "separation", (0.1, 2.0), "ab"),
     8, "0x1.fae933b744de8p-1"),
    ((DetectorPair(0.1, 0.3), GEOM_PAR, "separation", (0.1, 2.0), "ba"),
     10, "0x1.ac8e930b82a24p-1"),
]
# seeded draws from the search benchmark's domain: omega_a, omega_b,
# alignment, l, dz and objective; the peak bracket from a 24-point coarse
# sweep along dz, and the transition bracket (l, 3)
_DRAWS = [
    ((0.07138170201741993, 0.26743622501985403, _ORT, 0.8906245128593054, 0.5077782711041202,
      "sba", (0.0001, 0.6957434782608696)),
     (13, "0x1.5456344abac2bp-2"), (9, "0x1.1bd1f86c6b90dp+0")),
    ((0.0020052890304599336, 0.6165683774800355, _PAR, 0.22723750635178291, 5.018766137976747,
      "sba", (0.3479217391304348, 1.0435652173913044)),
     (13, "0x1.b07bb343e327cp-1"), (10, "0x1.422e1a8216e9ep-1")),
    ((0.04197711837912519, 0.434308676467133, _ORT, 0.5101936838681596, 0.03739389048570681,
      "sba", (0.3479217391304348, 1.0435652173913044)),
     (12, "0x1.14377f7156e87p-1"), (10, "0x1.6f38e76f6d45ep+0")),
    ((0.055887149982274446, 0.9865551885018409, _PAR, 0.14533854424426607, 3.653424286311162,
      "sba", (0.3479217391304348, 1.0435652173913044)),
     (12, "0x1.8f82e1cfc84b8p-1"), (11, "0x1.236338b51669ep-1")),
    ((0.08115514128083372, 0.13754292771878804, _PAR, 0.6321343325864675, 4.277142860718161,
      "sab", (0.6957434782608696, 1.3913869565217392)),
     (11, "0x1.b883d6f8f9972p-1"), (8, "0x1.72d1528c8d4e2p-1")),
]
for (omega_a, omega_b, alignment, l, dz, objective, bracket), peak, death in _DRAWS:
    pair, geom = DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, l, dz)
    _PEAK_PINS.append(((pair, geom, "boundary-distance", bracket, objective), *peak))
    _TRANSITION_PINS.append(((pair, geom, "separation", (l, 3.0), objective[1:]), *death))


class TestSearchIterates:
    """The searches take the same steps as before the evaluator: the same
    evaluations and the same location, bit for bit."""

    @pytest.mark.parametrize("args, evaluations, location", _PEAK_PINS)
    def test_find_peak(self, args, evaluations, location):
        res = find_peak(*args)
        assert (res.evaluations, res.location.hex()) == (evaluations, location)

    @pytest.mark.parametrize("args, evaluations, location", _TRANSITION_PINS)
    def test_find_transition(self, args, evaluations, location):
        res = find_transition(*args)
        assert (res.evaluations, res.location.hex()) == (evaluations, location)

    def test_coarse_brackets(self):
        # the peak brackets of the draws are the coarse sweep's, as recorded
        axis = SweepAxis(SweepVariable.BOUNDARY_DISTANCE, 1e-4, 8.0, 24)
        for (omega_a, omega_b, alignment, l, dz, objective, bracket), _, _ in _DRAWS:
            table = sweep(DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, l, dz), axis)
            values = table.column(_COLUMN[Direction(objective[1:])])
            i = max(range(len(values)), key=values.__getitem__)
            assert tuple(axis.grid()[[i - 1, i + 1]].tolist()) == bracket


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


class TestSearchBrackets:
    """Both searches take a bracket only as a pair of real numbers, as
    :class:`SweepAxis` takes its range."""

    SEARCHES = pytest.mark.parametrize(
        "search, geom, variable, target, kind",
        [
            (find_peak, GEOM_NEAR, "boundary-distance", Objective.S_BA, "peak"),
            (find_transition, GEOM_ORT, "separation", Direction.A_TO_B, "transition"),
        ],
        ids=["find_peak", "find_transition"],
    )

    @SEARCHES
    @pytest.mark.parametrize(
        "bracket, message",
        [
            ((None, 3.0), "{kind} bracket end lo must be a real number, got None"),
            ((0.2, 1j), "{kind} bracket end hi must be a real number, got 1j"),
            ((0.2, "x"), "{kind} bracket end hi must be a real number, got 'x'"),
            (("0.2", "3"), "{kind} bracket end lo must be a real number, got '0.2'"),
            ((0.2,), "a {kind} bracket is a pair of real numbers (lo, hi), got (0.2,)"),
            ((0.2, 1.0, 3.0), "a {kind} bracket is a pair of real numbers (lo, hi), "
             "got (0.2, 1.0, 3.0)"),
            (None, "a {kind} bracket is a pair of real numbers (lo, hi), got None"),
            ((3.0, 0.25), "{kind} bracket must satisfy lo < hi"),
            ((1.0, 1.0), "{kind} bracket must satisfy lo < hi"),
        ],
        ids=["none", "complex", "text", "text-pair", "one-end", "three-ends", "no-bracket",
             "reversed", "empty"],
    )
    def test_refused_with_the_end_named(
        self, search, geom, variable, target, kind, bracket, message
    ):
        with pytest.raises(ValidationError) as info:
            search(PAIR, geom, variable, bracket, target)
        assert type(info.value) is ValidationError
        assert str(info.value) == message.format(kind=kind)

    @SEARCHES
    def test_numpy_ends_accepted(self, search, geom, variable, target, kind):
        ends = (0.25, 3.0)
        got = search(PAIR, geom, variable, (np.float64(ends[0]), np.float32(ends[1])), target)
        assert got == search(PAIR, geom, variable, ends, target)


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
            state = _at(pair, geom, axis.variable, value, state_from_block)
            row = _at(pair, geom, axis.variable, value, observable_values)
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

    @pytest.mark.parametrize(
        "figure, pair, match",
        [
            ("fig7", DetectorPair(0.1, 0.1, coupling=4.0),
             r"^curve 'orthogonal': at separation = 0\.138945: "
             r"p_a \+ p_b = 1\.0015797669075868 >= 1"),
            ("fig2", DetectorPair(0.1, 0.1, coupling=5.0),
             r"^curve 'parallel omega_b=0\.10' with omega_b = 0\.1: at separation = 0\.05: "),
        ],
    )
    def test_refused_curve_is_named(self, figure, pair, match):
        with pytest.raises(PerturbativeValidityError, match=match) as info:
            figure_dataset(figure, pair)
        assert type(info.value) is PerturbativeValidityError
        assert type(info.value.__cause__) is PerturbativeValidityError

    def test_accepts_string_id(self):
        data = figure_dataset("fig7", resolution=8)
        assert "difference" in data

    @pytest.mark.parametrize("separations", [(), []])
    def test_fig6_refuses_an_empty_family(self, separations):
        # it returned {}, a figure with no curves and no error
        with pytest.raises(ValidationError, match="^fig6 takes at least one separation"):
            figure_dataset(FigureId.FIG6, resolution=5, separations=separations)

"""Tests for parameter sweeps, peak finding, transition finding, and
the figure dataset builders."""

import math

import pytest

from mirrorsteer.detector_model import (
    Alignment,
    BoundaryGeometry,
    DetectorPair,
    boundary_free_correlations,
    boundary_free_steering,
    config_difference,
    harvested_steering,
)
from mirrorsteer.errors import ValidationError
from mirrorsteer.sweep_optimize import (
    MAX_POINTS,
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
    sweep,
)

PAIR = DetectorPair(omega_a=0.1, omega_b=0.1)
GEOM_PAR = BoundaryGeometry(Alignment.PARALLEL, separation=1.0, boundary_distance=1.0)
GEOM_ORT = BoundaryGeometry(Alignment.ORTHOGONAL, separation=1.0, boundary_distance=1.0)


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
        assert len(table.rows) == 25
        assert table.rows[0].axis_value == 0.1
        assert table.variable is SweepVariable.SEPARATION

    def test_identical_parallel_has_zero_asymmetry_column(self):
        axis = SweepAxis(SweepVariable.SEPARATION, start=0.1, stop=3.0, points=40)
        table = sweep(PAIR, GEOM_PAR, axis)
        assert all(row.asymmetry == 0.0 for row in table.rows)

    def test_steering_columns_nonnegative(self):
        axis = SweepAxis(SweepVariable.BOUNDARY_DISTANCE, start=0.05, stop=4.0, points=40)
        table = sweep(PAIR, GEOM_ORT, axis)
        for row in table.rows:
            assert row.s_ab >= 0.0
            assert row.s_ba >= 0.0

    def test_rows_match_direct_evaluation(self):
        axis = SweepAxis(SweepVariable.SEPARATION, start=0.2, stop=1.4, points=7)
        table = sweep(PAIR, GEOM_ORT, axis)
        for row in table.rows:
            direct = harvested_steering(
                PAIR,
                BoundaryGeometry(Alignment.ORTHOGONAL, row.axis_value, 1.0),
            )
            assert row.s_ab == direct.s_ab
            assert row.s_ba == direct.s_ba

    def test_orthogonal_identical_never_favours_a_to_b(self):
        axis = SweepAxis(SweepVariable.SEPARATION, start=0.1, stop=6.0, points=60)
        table = sweep(PAIR, GEOM_ORT, axis)
        for row in table.rows:
            assert row.s_ab <= row.s_ba

    def test_gap_sweep_below_omega_a_names_grid_point(self):
        axis = SweepAxis(SweepVariable.OMEGA_B, start=0.05, stop=1.0, points=10)
        pair = DetectorPair(omega_a=0.2, omega_b=0.5)
        with pytest.raises(ValidationError, match="omega-b = 0.05"):
            sweep(pair, GEOM_PAR, axis)

    def test_deterministic(self):
        axis = SweepAxis(SweepVariable.SEPARATION, start=0.1, stop=2.0, points=30)
        assert sweep(PAIR, GEOM_PAR, axis) == sweep(PAIR, GEOM_PAR, axis)


class TestFindPeak:
    def test_synthetic_quadratic(self):
        res = find_peak(
            PAIR,
            GEOM_PAR,
            SweepVariable.BOUNDARY_DISTANCE,
            bracket=(0.0, 5.0),
            objective=Objective.S_BA,
            objective_fn=lambda v: -((v - 2.0) ** 2),
        )
        assert res.location == pytest.approx(2.0, abs=1e-6)
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert res.bracket == (0.0, 5.0)
        assert res.iterations > 10

    def test_unimodality_screen_rejects_monotone(self):
        with pytest.raises(ValidationError, match="sweep"):
            find_peak(
                PAIR,
                GEOM_PAR,
                SweepVariable.BOUNDARY_DISTANCE,
                bracket=(0.0, 5.0),
                objective=Objective.S_BA,
                objective_fn=lambda v: v,
            )

    def test_interior_steering_peak_beats_free_space(self):
        # moving the pair away from the mirror first boosts the harvested
        # steering above the free-space level, then the boost decays
        geom = BoundaryGeometry(Alignment.PARALLEL, separation=0.05, boundary_distance=1.0)
        res = find_peak(
            PAIR,
            geom,
            SweepVariable.BOUNDARY_DISTANCE,
            bracket=(0.2, 6.0),
            objective=Objective.S_BA,
        )
        free = boundary_free_steering(PAIR, 0.05).s_ba
        assert res.value > free
        assert 0.5 < res.location < 1.5

    def test_bracket_contains_location(self):
        res = find_peak(
            PAIR,
            BoundaryGeometry(Alignment.PARALLEL, 0.05, 1.0),
            SweepVariable.BOUNDARY_DISTANCE,
            bracket=(0.2, 6.0),
            objective=Objective.S_BA,
        )
        assert res.bracket[0] <= res.location <= res.bracket[1]


class TestFindTransition:
    def test_synthetic_death(self):
        res = find_transition(
            PAIR,
            GEOM_PAR,
            SweepVariable.SEPARATION,
            bracket=(1.0, 2.0),
            direction=Direction.B_TO_A,
            indicator_fn=lambda v: v < 1.5,
        )
        assert res.location == pytest.approx(1.5, abs=1e-6)
        assert res.kind is TransitionKind.SUDDEN_DEATH
        assert res.direction is Direction.B_TO_A

    def test_synthetic_birth(self):
        res = find_transition(
            PAIR,
            GEOM_PAR,
            SweepVariable.OMEGA_B,
            bracket=(1.0, 2.0),
            direction=Direction.A_TO_B,
            indicator_fn=lambda v: v > 1.5,
        )
        assert res.location == pytest.approx(1.5, abs=1e-6)
        assert res.kind is TransitionKind.SUDDEN_BIRTH

    def test_same_sign_bracket_rejected(self):
        with pytest.raises(ValidationError, match="bracket"):
            find_transition(
                PAIR,
                GEOM_PAR,
                SweepVariable.SEPARATION,
                bracket=(1.0, 2.0),
                direction=Direction.B_TO_A,
                indicator_fn=lambda v: True,
            )

    def test_real_steering_death(self):
        res = find_transition(
            PAIR,
            GEOM_PAR,
            SweepVariable.SEPARATION,
            bracket=(0.1, 2.0),
            direction=Direction.B_TO_A,
        )
        assert res.kind is TransitionKind.SUDDEN_DEATH
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


class TestFigureDataset:
    def test_separation_sweep_curves_monotone_for_identical(self):
        data = figure_dataset(FigureId.FIG2, resolution=80)
        key = next(k for k in data if "0.10" in k)
        vals = [row.s_ba for row in data[key].rows]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 0.0

    def test_orthogonal_counterpart_uses_same_curves(self):
        d2 = figure_dataset(FigureId.FIG2, resolution=12)
        d4 = figure_dataset(FigureId.FIG4, resolution=12)
        assert len(d2) == len(d4) == 3

    def test_mirror_distance_sweep_has_reference_table(self):
        data = figure_dataset(FigureId.FIG5, resolution=60)
        assert set(data) == {"parallel", "orthogonal", "boundary_free"}
        ref = data["boundary_free"].rows
        assert all(row.s_ba == ref[0].s_ba for row in ref)
        # the late-curve offset from the reference is the 1/dz^2 image
        # tail, a bit under 1e-3 at dz = 8
        end_gap = data["parallel"].rows[-1].s_ba - ref[-1].s_ba
        assert 1e-4 < end_gap < 2e-3

    def test_reference_table_carries_free_space_block(self):
        ref = figure_dataset(FigureId.FIG5, resolution=5)["boundary_free"].rows
        free = boundary_free_correlations(PAIR, 0.05)
        for row in ref:
            assert (row.p_a, row.p_b) == (free.p_a, free.p_b)
            assert (row.abs_c, row.abs_x) == (abs(free.c), abs(free.x))

    def test_gap_sweep_large_separation_is_one_way(self):
        data = figure_dataset(FigureId.FIG6, resolution=80)
        assert len(data) == 4
        large = [k for k in data if "2.00" in k]
        assert len(large) == 2
        for key in large:
            rows = data[key].rows
            assert all(row.s_ba == 0.0 for row in rows)
            assert any(row.s_ab > 0.0 for row in rows)

    def test_alignment_difference_consistent_with_sweeps(self):
        data = figure_dataset(FigureId.FIG7, resolution=40)
        par = data["parallel"].rows
        ort = data["orthogonal"].rows
        diff = data["difference"].rows
        for p, o, d in zip(par, ort, diff):
            assert d.axis_value == p.axis_value == o.axis_value
            assert d.delta_s_ab == pytest.approx(o.s_ab - p.s_ab, abs=1e-12)
            assert d.delta_s_ba == pytest.approx(o.s_ba - p.s_ba, abs=1e-12)
            direct = config_difference(PAIR, d.axis_value, 1.0)
            assert d.delta_s_ab == pytest.approx(direct[0], abs=1e-12)
            assert d.delta_s_ba == pytest.approx(direct[1], abs=1e-12)

    def test_deterministic(self):
        a = figure_dataset(FigureId.FIG2, resolution=25)
        b = figure_dataset(FigureId.FIG2, resolution=25)
        assert a == b

    def test_accepts_string_id(self):
        data = figure_dataset("fig7", resolution=8)
        assert "difference" in data

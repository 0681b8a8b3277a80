"""End-to-end tests for the command-line front end."""

import argparse
import inspect
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from mirrorsteer import __version__, cli, integral_oracle
from mirrorsteer.cli import _config_hash, _table_csv, main
from mirrorsteer.detector_model import (
    Alignment,
    BoundaryGeometry,
    DetectorPair,
    boundary_free_correlations,
    config_difference,
    harvested_steering,
    steering_from_block,
)
from mirrorsteer.sweep_optimize import (
    MAX_POINTS,
    OBSERVABLES,
    FigureId,
    PeakResult,
    SweepAxis,
    SweepTable,
    SweepVariable,
    figure_dataset,
    sweep,
)

CSV_HEADER = "axis,p_a,p_b,abs_c,abs_x,s_ab,s_ba,asymmetry,concurrence"


SPECIALS = (0.0, -0.0, 5e-324, 1e22, 1.0 / 3.0, math.inf, -math.inf, math.nan)
GRID = (0.5, 1.0, 1.5, 2.0)
# tables whose CSV rows must read as if each value were formatted on its own:
# constant columns are formatted once, and equal values need not print alike
CSV_TABLES = {
    "specials": {"axis": SPECIALS, "x": SPECIALS[::-1]},
    "constant_beside_varying": {
        "axis": GRID, "p_a": (0.25,) * 4, "p_b": (1e-3, 2e-3, 0.0, 1.0)
    },
    "constant_negative_zero": {"axis": GRID, "x": (-0.0,) * 4},
    "zero_holding_one_negative_zero": {"axis": GRID, "x": (0.0, 0.0, -0.0, 0.0)},
    "negative_zero_holding_one_zero": {"axis": GRID, "x": (-0.0, 0.0, -0.0, -0.0)},
    "constant_non_finite": {
        "axis": GRID,
        "nan": (math.nan,) * 4,
        # equal text, but no nan equals another
        "distinct_nans": tuple(float("nan") for _ in GRID),
        "inf": (math.inf,) * 4,
        "minus_inf": (-math.inf,) * 4,
    },
    # fig5's boundary_free curve: one block held along the axis
    "boundary_free": {
        "axis": GRID, **{n: (0.125 * (k - 3),) * 4 for k, n in enumerate(OBSERVABLES)}
    },
    "all_constant": {
        "axis": (2.0,) * 4, **{n: (1.0 / (k + 3),) * 4 for k, n in enumerate(OBSERVABLES)}
    },
    "two_rows": {"axis": (0.5, 1.0), "x": (3.0, 3.0), "y": (1.0, -1.0)},
    "one_row": {"axis": (1.0,), "x": (-0.0,)},
}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    ARGS = [
        "compute",
        "--alignment", "parallel",
        "--omega-a", "0.1",
        "--omega-b", "0.1",
        "--l", "1",
        "--dz", "1",
        "--lambda", "1",
    ]

    def test_symmetric_case_matches_both_directions(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        record = json.loads(out)
        assert record["s_ab"] == record["s_ba"]
        assert record["asymmetry"] == 0.0

    def test_record_matches_model(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        record = json.loads(out)
        res = harvested_steering(
            DetectorPair(0.1, 0.1),
            BoundaryGeometry(Alignment.PARALLEL, 1.0, 1.0),
        )
        assert record["s_ab"] == res.s_ab
        assert record["s_ba"] == res.s_ba
        assert record["concurrence"] == res.concurrence

    def test_default_coupling_echoed(self, capsys):
        argv = self.ARGS[:-2]
        assert self.ARGS[-2] == "--lambda"
        code, out, _ = run(argv, capsys)
        assert code == 0
        record = json.loads(out)
        assert record["lambda"] == 1.0

    def test_record_key_order(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        assert list(json.loads(out)) == [
            "alignment", "omega_a", "omega_b", "l", "dz", "lambda",
            *CSV_HEADER.split(",")[1:], "provenance",
        ]

    def test_huge_gap_near_the_mirror_exits_0(self, capsys):
        # the probability kernel's Taylor branch returns 0 where its damping
        # underflows, rather than 0 * inf = nan
        argv = list(self.ARGS)
        for flag, value in (("--omega-a", "1e154"), ("--omega-b", "1e154"), ("--dz", "1e-5")):
            argv[argv.index(flag) + 1] = value
        code, out, _ = run(argv, capsys)
        assert code == 0
        record = json.loads(out)
        assert record["p_a"] == record["p_b"] == 0.0

    def test_geometry_overflow_exits_2(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("--dz") + 1] = "1e308"
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "mirror-image distances" in err
        assert "1e+308" in err
        assert out == ""

    def test_gap_overflow_exits_2(self, capsys):
        # 2 omega_b, the probability kernel's gap, overflows to inf
        argv = list(self.ARGS)
        argv[argv.index("--omega-b") + 1] = "1e308"
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "omega_b = 1e+308" in err
        assert "faddeeva_w" not in err
        assert out == ""

    def test_coupling_overflow_exits_2(self, capsys):
        # lambda^2, which every probability carries, overflows to inf
        argv = list(self.ARGS)
        argv[argv.index("--lambda") + 1] = "1e200"
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "coupling = 1e+200" in err
        assert "probabilities must be finite" not in err
        assert out == ""

    def test_phase_overflow_exits_2(self, capsys):
        # (omega_b - omega_a)·l/2 overflows while e^{-l²/4} is still nonzero
        argv = list(self.ARGS)
        argv[argv.index("--omega-a") + 1] = "0"
        argv[argv.index("--omega-b") + 1] = "8e307"
        argv[argv.index("--l") + 1] = "10"
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "omega_b - omega_a = 8e+307 at separation 10 overflows" in err
        assert out == ""

    def test_separation_below_kernel_range_exits_2(self, capsys):
        # Im G overflows as 1/l: the error used to name c14, an entry no flag sets
        argv = list(self.ARGS)
        argv[argv.index("--alignment") + 1] = "orthogonal"
        argv[argv.index("--omega-b") + 1] = "0.3"
        argv[argv.index("--l") + 1] = "1e-310"
        code, out, err = run(argv, capsys)
        assert code == 2
        assert err == (
            "error: c and x must be finite, got x = (nan-infj): the separation is below "
            "the kernels' range\n"
        )
        assert out == ""

    def test_huge_separation_gives_zero_correlations(self, capsys):
        # past l ~ 55 the damped oscillating terms underflow to zero; at
        # 1e308 their phase overflows too, which must not matter
        records = []
        for l in ("1e200", "1e308"):
            argv = list(self.ARGS)
            argv[argv.index("--l") + 1] = l
            argv[argv.index("--omega-b") + 1] = "3"
            code, out, err = run(argv, capsys)
            assert (code, err) == (0, "")
            records.append(json.loads(out))
        observables = CSV_HEADER.split(",")[1:]
        at_1e200, at_1e308 = ([r[k] for k in observables] for r in records)
        assert at_1e308 == at_1e200
        assert records[1]["abs_c"] == records[1]["abs_x"] == 0.0

    def test_provenance_block(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        record = json.loads(out)
        assert "version" in record["provenance"]
        assert "config_hash" in record["provenance"]

    def test_round_trip_reproduces_identical_results(self, capsys):
        argv = [
            "compute",
            "--alignment", "orthogonal",
            "--omega-a", "0.1",
            "--omega-b", "0.7",
            "--l", "0.4",
            "--dz", "1.3",
            "--lambda", "0.9",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        first = json.loads(out)
        rebuilt = [
            "compute",
            "--alignment", first["alignment"],
            "--omega-a", repr(first["omega_a"]),
            "--omega-b", repr(first["omega_b"]),
            "--l", repr(first["l"]),
            "--dz", repr(first["dz"]),
            "--lambda", repr(first["lambda"]),
        ]
        code, out, _ = run(rebuilt, capsys)
        assert code == 0
        assert json.loads(out) == first

    def test_writes_file_atomically(self, tmp_path, capsys):
        out_file = tmp_path / "point.json"
        code, _, _ = run(self.ARGS + ["--out", str(out_file)], capsys)
        assert code == 0
        record = json.loads(out_file.read_text())
        assert record["s_ab"] == record["s_ba"]
        assert not list(tmp_path.glob("*.tmp*"))

    def test_validation_failure_exits_2(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("--omega-b") + 1] = "0.05"
        argv[argv.index("--omega-a") + 1] = "0.5"
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "omega" in err

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(["compute", "--nope", "1"], capsys)
        assert code == 2

    def test_no_command_exits_2(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 2


class TestSweepCommand:
    ARGS = [
        "sweep",
        "--alignment", "orthogonal",
        "--omega-a", "0.1",
        "--omega-b", "0.1",
        "--l", "1",
        "--dz", "1",
        "--axis", "separation",
        "--start", "0.1",
        "--stop", "2.0",
        "--points", "12",
    ]

    def test_csv_schema(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        lines = out.strip().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == CSV_HEADER
        assert len(body) == 1 + 12
        assert any("lambda" in c for c in comments)
        assert any("alignment" in c for c in comments)

    def test_csv_values_round_trip_full_precision(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        body = [l for l in out.strip().splitlines() if not l.startswith("#")]
        table = sweep(
            DetectorPair(0.1, 0.1),
            BoundaryGeometry(Alignment.ORTHOGONAL, 1.0, 1.0),
            SweepAxis(SweepVariable.SEPARATION, 0.1, 2.0, 12),
        )
        columns = zip(*map(table.column, ("axis", "s_ab", "s_ba")))
        for line, (l, s_ab, s_ba) in zip(body[1:], columns):
            fields = [float(x) for x in line.split(",")]
            assert fields[0] == l
            assert fields[5] == s_ab
            assert fields[6] == s_ba

    @pytest.mark.parametrize("columns", CSV_TABLES.values(), ids=CSV_TABLES.keys())
    def test_csv_rows_equal_per_value_formatting(self, columns):
        table = SweepTable(SweepVariable.SEPARATION, columns)
        rows = "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*columns.values())
        )
        header = ",".join(columns)
        assert _table_csv(table, {"k": 1}) == f"# k = 1\n{header}\n" + rows

    def test_json_format(self, capsys):
        code, out, _ = run(self.ARGS + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 12
        assert payload["axis"] == "separation"
        assert payload["rows"][0]["s_ba"] >= 0.0
        assert list(payload["rows"][0]) == ["axis_value", *CSV_HEADER.split(",")[1:]]

    def test_json_metadata_is_the_hashed_config(self, capsys):
        code, out, _ = run(self.ARGS + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        config_hash = payload.pop("provenance")["config_hash"]
        del payload["rows"]
        assert config_hash == _config_hash(payload)
        assert list(payload) == [
            "omega_a", "omega_b", "lambda", "resolution", "alignment", "dz",
            "axis", "scale", "start", "stop",
        ]

    def test_json_hash_covers_the_grid(self, capsys):
        def config_hash(flag, value):
            argv = self.ARGS + ["--format", "json"]
            if value is None:
                argv.append(flag)
            else:
                argv[argv.index(flag) + 1] = value
            code, out, _ = run(argv, capsys)
            assert code == 0
            return json.loads(out)["provenance"]["config_hash"]

        variants = [("--start", "0.1"), ("--start", "0.2"), ("--stop", "3"),
                    ("--points", "13"), ("--log", None)]
        hashes = [config_hash(flag, value) for flag, value in variants]
        assert len(set(hashes)) == len(variants)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_swept_flag_not_recorded(self, fmt, capsys):
        # the axis overrides --l at every grid point, so its value is no input
        outputs = []
        for l in ("1", "7"):
            argv = self.ARGS + ["--format", fmt]
            argv[argv.index("--l") + 1] = l
            code, out, _ = run(argv, capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert "# l =" not in outputs[0]
        assert '"l"' not in outputs[0]

    @pytest.mark.parametrize(
        "axis, flag, valid, invalid",
        [
            ("separation", "--l", "1", "-1"),
            ("boundary-distance", "--dz", "1", "0"),
            ("omega-b", "--omega-b", "0.1", "0.05"),  # below --omega-a
        ],
    )
    def test_swept_flag_out_of_its_domain_ignored(self, axis, flag, valid, invalid, capsys):
        # every grid point overrides the swept flag, so its value is not checked
        def sweep_with(value, start="0.1"):
            argv = list(self.ARGS)
            for name, text in (("--axis", axis), (flag, value), ("--start", start)):
                argv[argv.index(name) + 1] = text
            return run(argv, capsys)

        code, out, err = sweep_with(invalid)
        assert (code, err) == (0, "")
        assert out == sweep_with(valid)[1]
        # a range out of the domain is still refused, at its first point
        code, out, err = sweep_with(invalid, start=invalid)
        assert code == 2
        assert f"at {axis} = {float(invalid):g}: " in err
        assert out == ""

    def test_phase_overflow_names_first_failing_grid_point(self, capsys):
        argv = [
            "sweep", "--alignment", "parallel", "--omega-a", "0", "--omega-b", "1",
            "--l", "10", "--dz", "1", "--axis", "omega-b",
            "--start", "0.1", "--stop", "8e307", "--points", "5",
        ]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "at omega-b = 2e+307: omega_b - omega_a = 2e+307 at separation 10" in err
        assert out == ""

    def test_bad_axis_range_exits_2(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("--start") + 1] = "3.0"
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "start" in err

    def test_range_whose_width_overflows_exits_2(self, capsys):
        # both ends are finite, but stop - start overflows a double
        argv = self.ARGS[:-6] + ["--start=-1.7e308", "--stop", "1.7e308", "--points", "5"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "sweep range from -1.7e+308 to 1.7e+308 is too wide" in err
        assert "Warning" not in err
        assert out == ""

    def test_too_many_points_exits_2(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("--points") + 1] = str(MAX_POINTS + 1)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert str(MAX_POINTS) in err
        assert out == ""


class TestOptimizeCommand:
    ARGS = [
        "optimize",
        "--alignment", "parallel",
        "--omega-a", "0.1",
        "--omega-b", "0.1",
        "--l", "0.05",
        "--dz", "1",
        "--axis", "boundary-distance",
        "--bracket", "0.2,6.0",
        "--objective", "sba",
    ]

    def test_peak_search(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        record = json.loads(out)
        assert 0.5 < record["location"] < 1.5
        assert record["value"] > 0.0
        assert record["evaluations"] <= 15

    def test_record_is_the_hashed_config_plus_the_result(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        record = json.loads(out)
        config_hash = record.pop("provenance")["config_hash"]
        for key in ("location", "value", "evaluations"):
            del record[key]
        assert config_hash == _config_hash(record)
        assert list(record) == [
            "alignment", "omega_a", "omega_b", "l", "lambda", "axis", "objective", "bracket",
        ]

    def test_hash_covers_bracket_objective_and_axis(self, monkeypatch, capsys):
        # the search is replaced so that every variant has a peak
        def found(pair, geom, variable, bracket, objective):
            return PeakResult(location=1.0, value=0.5, bracket=bracket, evaluations=3)

        monkeypatch.setattr(cli, "find_peak", found)
        variants = [("--bracket", "0.2,6.0"), ("--bracket", "0.3,5.0"),
                    ("--objective", "sab"), ("--axis", "separation")]
        hashes = []
        for flag, value in variants:
            argv = list(self.ARGS)
            argv[argv.index(flag) + 1] = value
            code, out, _ = run(argv, capsys)
            assert code == 0
            hashes.append(json.loads(out)["provenance"]["config_hash"])
        assert len(set(hashes)) == len(variants)

    def test_swept_flag_not_recorded(self, capsys):
        # the axis overrides --dz at every evaluation, so its value is no
        # input and is not checked
        outputs = []
        for dz in ("1", "3", "-3"):
            argv = list(self.ARGS)
            argv[argv.index("--dz") + 1] = dz
            code, out, _ = run(argv, capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert '"dz"' not in outputs[0]

    def test_bracket_out_of_domain_names_its_end(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("--dz") + 1] = "-3"
        i = argv.index("--bracket")
        argv[i : i + 2] = ["--bracket=-1,6.0"]  # argparse reads "-1,6.0" as a flag
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "at boundary-distance = -1: boundary_distance must be positive" in err
        assert out == ""

    @pytest.mark.parametrize("bracket", ["0.2,nan", "nan,6", "0.2,inf"])
    def test_non_finite_bracket_exits_2(self, bracket, capsys):
        argv = list(self.ARGS)
        argv[argv.index("--bracket") + 1] = bracket
        code, out, err = run(argv, capsys)
        assert code == 2
        lo, hi = (float(v) for v in bracket.split(","))
        assert f"peak bracket ({lo:g}, {hi:g}) must be finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "bracket, message",
        [
            ("1", "--bracket expects two comma-separated numbers, e.g. 0.2,6.0"),
            ("a,b", "--bracket values must be numeric: could not convert string to float: 'a'"),
        ],
        ids=["one-number", "not-numbers"],
    )
    def test_unreadable_bracket_exits_2(self, bracket, message, capsys):
        argv = list(self.ARGS)
        argv[argv.index("--bracket") + 1] = bracket
        code, out, err = run(argv, capsys)
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    def test_unbracketed_peak_exits_2(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("--bracket") + 1] = "2.0,6.0"
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "sweep" in err


class TestVerifyCommand:
    # the deviations the smoke grid prints: rounding, on both routes
    SMOKE_DEVIATIONS = {"p_a": "2.053e-16", "p_b": "1.553e-16", "c": "2.486e-16",
                        "x": "6.903e-16"}

    def test_smoke_grid_passes(self, capsys):
        code, out, _ = run(["verify", "--grid", "smoke"], capsys)
        assert code == 0
        assert "PASS" in out
        printed = dict(line.split()[:2] for line in out.splitlines()[1:5])
        assert printed == self.SMOKE_DEVIATIONS

    def test_json_on_stdout_parses(self, capsys):
        code, out, err = run(["verify", "--grid", "smoke", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert set(payload["max_rel_deviation"]) == set(self.SMOKE_DEVIATIONS)
        assert "verify: PASS" in err

    @pytest.mark.parametrize("grid, count", [("smoke", 4), ("default", 20)])
    def test_json_rows_per_configuration(self, grid, count, tmp_path, capsys):
        out = tmp_path / "verify.json"
        argv = ["verify", "--grid", grid, "--format", "json", "--out", str(out)]
        code, _, _ = run(argv, capsys)
        assert code == 0
        text = out.read_text()
        payload = json.loads(text)
        rows = payload["rows"]
        assert len(rows) == count
        assert [row["alignment"] for row in rows[:2]] == ["parallel", "orthogonal"]
        for key, worst in payload["max_rel_deviation"].items():
            assert worst == max(row[key]["rel_deviation"] for row in rows)
            assert all(len(row[key]) == 3 for row in rows)
        # no timings in the rows: a rerun writes the same bytes
        assert run(argv, capsys)[0] == 0
        assert out.read_text() == text

    def test_provenance_echoes_fixed_discretisation(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        argv = ["verify", "--grid", "smoke", "--format", "json", "--out", str(out)]
        assert run(argv, capsys)[0] == 0
        provenance = json.loads(out.read_text())["provenance"]
        assert provenance["config_hash"] == _config_hash({"grid": "smoke"})
        quadrature = provenance["quadrature"]
        assert list(quadrature.items()) == [
            ("nodes", 16), ("rtol", 1e-9), ("envelope_cut", 50.0), ("dawson_cut", 60.0),
            ("min_panels", 8), ("panel_width", 0.5), ("panel_phase", 8.0),
            ("panel_growth", 0.25), ("max_panels", 8192),
        ]
        assert [type(v) for v in quadrature.values()] == [
            int, float, float, float, int, float, float, float, int
        ]

    def test_provenance_echoes_every_oracle_constant(self, capsys):
        # a constant added to the oracle must not escape the record
        constants = {
            name.lower(): value for name, value in vars(integral_oracle).items()
            if name.isupper() and not name.startswith("_") and isinstance(value, (int, float))
        }
        code, out, _ = run(["verify", "--grid", "smoke", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["provenance"]["quadrature"] == constants

    # probability integrals first needed in each case: P_A(omega_a, dz) is
    # shared by a configuration's two rows, and configurations share pairs
    @pytest.mark.parametrize(
        "grid, configurations, first_needed",
        [("smoke", cli.VERIFY_GRID_SMOKE, [1, 1, 2, 1]),
         ("default", cli.VERIFY_GRID_DEFAULT,
          [1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1])],
    )
    def test_oracle_work_stays_inside_its_case(
        self, grid, configurations, first_needed, monkeypatch, capsys
    ):
        # a command is timed case by case, split at its calls to
        # correlations: each case's oracle call must come right after its
        # own call, on that case, and its rule passes before the next case's
        calls = []
        closed_form, oracle, rule = (
            cli.correlations, cli.numeric_correlations, integral_oracle._rule
        )
        assert oracle is integral_oracle.numeric_correlations

        def record_case(pair, geom):
            calls.append(("case", pair, geom))
            return closed_form(pair, geom)

        def record_oracle(pair, geom, **store):
            calls.append(("oracle", pair, geom))
            return oracle(pair, geom, **store)

        def record_rule(spans, shared):
            calls.append(("rule", len(spans)))
            return rule(spans, shared)

        monkeypatch.setattr(cli, "correlations", record_case)
        monkeypatch.setattr(cli, "numeric_correlations", record_oracle)
        monkeypatch.setattr(integral_oracle, "_rule", record_rule)
        assert run(["verify", "--grid", grid], capsys)[0] == 0

        starts = [i for i, call in enumerate(calls) if call[0] == "case"]
        assert starts[0] == 0
        cases = [calls[i][1:] for i in starts]
        assert [
            (p.omega_a, p.omega_b, g.separation, g.boundary_distance, g.alignment)
            for p, g in cases
        ] == [
            (*configuration, alignment)
            for configuration in configurations
            for alignment in (Alignment.PARALLEL, Alignment.ORTHOGONAL)
        ]
        for case, start, stop, probabilities in zip(
            cases, starts, starts[1:] + [len(calls)], first_needed
        ):
            assert calls[start + 1] == ("oracle", *case)
            # one pass of one span per probability first needed here, then
            # one pass of C's and X's spans together
            assert calls[start + 2 : stop] == [("rule", 1)] * probabilities + [("rule", 2)]

    def test_each_command_integrates_its_own_probabilities(self, monkeypatch, capsys):
        # the store belongs to one command: a second command in the same
        # process integrates every distinct probability again, and once each
        calls = []
        probability = integral_oracle.numeric_probability

        def record(omega, dz):
            calls.append((omega, dz))
            return probability(omega, dz)

        monkeypatch.setattr(integral_oracle, "numeric_probability", record)
        for _ in range(2):
            assert run(["verify", "--grid", "default"], capsys)[0] == 0
        assert len(calls) == 28
        assert calls[14:] == calls[:14] and len(set(calls[:14])) == 14

    def test_unreachable_tolerance_exits_3(self, monkeypatch, capsys):
        # every estimate the rule gives exceeds a zero tolerance
        monkeypatch.setattr(integral_oracle, "RTOL", 0.0)
        code, _, err = run(["verify", "--grid", "smoke"], capsys)
        assert code == 3
        assert "does not reach RTOL = 0 here" in err

    def test_loads_no_scipy_integrate(self):
        # scipy.integrate costs 0.3-0.6 s of import and about 26 MB of peak
        # RSS; the oracle's rule is its own
        script = (
            "import sys, io, contextlib\n"
            "from mirrorsteer import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', '--grid', 'smoke']) == 0\n"
            "print('scipy.integrate' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1])),
        )
        assert done.stdout == "False\n"


class TestFigureCommand:
    def test_alignment_difference_files(self, tmp_path, capsys):
        code, _, _ = run(
            ["figure", "fig7", "--out", str(tmp_path), "--resolution", "10"], capsys
        )
        assert code == 0
        names = {p.name for p in tmp_path.glob("*.csv")}
        assert names == {"parallel.csv", "orthogonal.csv", "difference.csv"}
        diff_lines = (tmp_path / "difference.csv").read_text().strip().splitlines()
        body = [l for l in diff_lines if not l.startswith("#")]
        assert body[0] == "axis,delta_s_ab,delta_s_ba"
        assert len(body) == 11

    def test_mirror_distance_files_include_reference(self, tmp_path, capsys):
        code, _, _ = run(
            ["figure", "fig5", "--out", str(tmp_path), "--resolution", "12"], capsys
        )
        assert code == 0
        names = {p.name for p in tmp_path.glob("*.csv")}
        assert names == {"parallel.csv", "orthogonal.csv", "boundary_free.csv"}

    def test_csv_regenerates_dataset_exactly(self, tmp_path, capsys):
        code, _, _ = run(
            ["figure", "fig2", "--out", str(tmp_path), "--resolution", "9"], capsys
        )
        assert code == 0
        data = figure_dataset(FigureId.FIG2, resolution=9)
        label = "parallel omega_b=0.20"
        path = tmp_path / "parallel_omega_b_0.20.csv"
        body = [
            l for l in path.read_text().strip().splitlines() if not l.startswith("#")
        ]
        assert body[0] == CSV_HEADER
        columns = zip(*map(data[label].column, ("axis", "abs_x", "s_ba")))
        for line, (l, abs_x, s_ba) in zip(body[1:], columns):
            fields = [float(x) for x in line.split(",")]
            assert fields[0] == l
            assert fields[4] == abs_x
            assert fields[6] == s_ba

    # every metadata key a figure CSV may carry, in the order it is written
    META_KEYS = [
        "figure", "curve", "omega_a", "omega_b", "lambda", "resolution",
        "alignment", "l", "dz", "axis",
    ]
    SWEPT_KEY = {"separation": "l", "boundary-distance": "dz", "omega-b": "omega_b"}

    @staticmethod
    def _line(values):
        return ",".join(f"{v:.17g}" for v in values)

    def _rebuild(self, meta, first, last):
        """Body lines of one curve, recomputed from its metadata; the axis
        range is the first and last axis value the file lists."""
        variable = SweepVariable(meta["axis"])
        omega_a = float(meta["omega_a"])
        # the swept entry gets a placeholder that the sweep overrides
        pair = DetectorPair(
            omega_a, float(meta.get("omega_b", omega_a)), float(meta["lambda"])
        )
        l = float(meta.get("l", 1.0))
        dz = float(meta.get("dz", 1.0))
        axis = SweepAxis(variable, first, last, int(meta["resolution"]))
        if meta["curve"] == "boundary_free":
            block = boundary_free_correlations(pair, l)
            res = steering_from_block(block)
            row = [
                block.p_a, block.p_b, abs(block.c), abs(block.x),
                res.s_ab, res.s_ba, res.asymmetry, res.concurrence,
            ]
            return [self._line([v, *row]) for v in axis.grid()]
        if meta["curve"] == "difference":
            return [
                self._line([v, *config_difference(pair, float(v), dz)])
                for v in axis.grid()
            ]
        geom = BoundaryGeometry(meta["alignment"], l, dz)
        table = sweep(pair, geom, axis)
        return [self._line(row) for row in zip(*table.columns.values())]

    @pytest.mark.parametrize("figure", [f.value for f in FigureId])
    def test_metadata_rebuilds_every_curve(self, figure, tmp_path, capsys):
        code, _, _ = run(
            [
                "figure", figure, "--out", str(tmp_path), "--resolution", "7",
                "--omega-a", "0.05", "--omega-b", "0.7",
                "--small-l", "0.3", "--large-l", "1.5",
            ],
            capsys,
        )
        assert code == 0
        files = sorted(tmp_path.glob("*.csv"))
        assert len(files) == len(figure_dataset(figure, resolution=2))
        for path in files:
            lines = path.read_text().splitlines()
            meta = dict(
                line[2:].split(" = ", 1) for line in lines if line.startswith("#")
            )
            body = [line for line in lines if not line.startswith("#")][1:]
            derived = meta["curve"] in ("boundary_free", "difference")
            expected = [
                key for key in self.META_KEYS
                if key != self.SWEPT_KEY[meta["axis"]]
                and not (derived and key == "alignment")
            ]
            assert list(meta) == expected, path.name
            first = float(body[0].split(",")[0])
            last = float(body[-1].split(",")[0])
            assert self._rebuild(meta, first, last) == body, path.name

    def test_too_large_resolution_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "fig"
        code, out, err = run(
            [
                "figure", "fig2", "--out", str(out_dir),
                "--resolution", str(MAX_POINTS + 1),
            ],
            capsys,
        )
        assert code == 2
        assert str(MAX_POINTS) in err
        assert not out_dir.exists()

    def test_omega_a_above_a_curve_gap_names_the_curve(self, tmp_path, capsys):
        # fig2 fixes the B gaps at 0.1/0.2/0.3; --omega-b is not involved
        code, _, err = run(
            ["figure", "fig2", "--omega-a", "0.2", "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "parallel omega_b=0.10" in err
        assert "omega_a = 0.2" in err

    @pytest.mark.parametrize("figure", ["fig5", "fig6"])
    def test_omega_b_default_admits_larger_omega_a(self, figure, tmp_path, capsys):
        code, _, _ = run(
            ["figure", figure, "--omega-a", "0.2", "--resolution", "3",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        if figure == "fig5":
            assert "# omega_b = 0.2\n" in (tmp_path / "parallel.csv").read_text()

    def test_fig6_empty_gap_axis_names_the_figure(self, tmp_path, capsys):
        code, _, err = run(
            ["figure", "fig6", "--omega-a", "7", "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "fig6" in err
        assert "omega_a = 7" in err

    @pytest.mark.parametrize(
        "small_l, large_l, label",
        [("0.051", "0.052", "parallel L=0.05"), ("1e-3", "2e-3", "parallel L=0.00")],
    )
    def test_fig6_separations_sharing_a_label_refused(
        self, small_l, large_l, label, tmp_path, capsys
    ):
        out_dir = tmp_path / "fig"
        code, _, err = run(
            ["figure", "fig6", "--small-l", small_l, "--large-l", large_l,
             "--resolution", "3", "--out", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert f"{float(small_l):g} and {float(large_l):g}" in err
        assert repr(label) in err
        assert not out_dir.exists()

    def test_fig6_file_name_over_limit_refused_before_writing(self, tmp_path, capsys):
        # the .2f label of L = 1e226 spells out 227 digits; with the
        # temporary suffix the file name passes 255 bytes
        out_dir = tmp_path / "fig"
        code, _, err = run(
            ["figure", "fig6", "--small-l", "1e226", "--resolution", "3",
             "--out", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert "separation = 1e+226" in err
        assert "255-byte limit" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "small_l, cause",
        [("-1", "must be positive"), ("1e308", "overflow the mirror-image distances")],
    )
    def test_fig6_bad_separation_names_the_separation(
        self, small_l, cause, tmp_path, capsys
    ):
        # 1e308 is fine for the parallel curve; the orthogonal one puts
        # detector B's image at 2e308
        out_dir = tmp_path / "fig"
        code, _, err = run(
            ["figure", "fig6", "--small-l", small_l, "--resolution", "3",
             "--out", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert f"separation = {float(small_l):g}" in err
        assert cause in err
        assert "omega_a" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["fig7", "--lambda", "4"],
             "error: curve 'orthogonal': at separation = 0.138945: "
             "p_a + p_b = 1.0015797669075868 >= 1: coupling too strong for the leading-order "
             "state\n"),
            # the label keeps two decimals; the message gives the separation
            (["fig6", "--large-l", "1e-320"],
             "error: curve 'parallel L=0.00' with separation = 9.99989e-321: "
             "at omega-b = 0.1: c and x must be finite, got x = (nan-infj): the separation is "
             "below the kernels' range\n"),
        ],
        ids=["fig7-coupling", "fig6-separation"],
    )
    def test_refused_curve_is_named(self, flags, message, tmp_path, capsys):
        out_dir = tmp_path / "fig"
        code, _, err = run(["figure", *flags, "--out", str(out_dir)], capsys)
        assert code == 2
        assert err == message
        assert not out_dir.exists()

    def test_bad_figure_id_exits_2(self, capsys):
        code, _, err = run(["figure", "fig9", "--out", "."], capsys)
        assert code == 2
        assert "invalid choice: 'fig9'" in err
        assert all(f"'{f.value}'" in err for f in FigureId)


PHYSICS = ["--alignment", "parallel", "--omega-a", "0.1", "--omega-b", "0.1"]


class TestUnwritableOut:
    """An ``--out`` that cannot be written exits 2, naming the path, and
    leaves no temp file behind."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", *PHYSICS, "--l", "1", "--dz", "1"],
            ["sweep", *PHYSICS, "--l", "1", "--dz", "1", "--axis", "separation",
             "--start", "0.1", "--stop", "2", "--points", "3"],
            ["optimize", *PHYSICS, "--l", "0.05", "--dz", "1", "--axis",
             "boundary-distance", "--bracket", "0.2,6.0", "--objective", "sba"],
            ["verify", "--grid", "smoke", "--format", "json"],
            ["figure", "fig2", "--resolution", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_file_in_place_of_a_directory(self, argv, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        # figure writes into --out; the others write --out itself
        out = blocker if argv[0] == "figure" else blocker / "out.txt"
        code, _, err = run([*argv, "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith(f"error: cannot write {blocker}/")
        assert err.endswith(f": {blocker} is not a directory\n")
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "kept\n"

    def test_file_two_levels_up(self, tmp_path, capsys):
        # mkdir reads "Not a directory" here, and names the missing level
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker / "sub" / "out.json"
        code, _, err = run(["compute", *PHYSICS, "--l", "1", "--dz", "1", "--out", str(out)],
                           capsys)
        assert code == 2
        assert err == f"error: cannot write {out}: {blocker} is not a directory\n"
        assert list(tmp_path.iterdir()) == [blocker]

    @pytest.mark.parametrize("name", ["out.json", "."])
    def test_directory_in_place_of_the_file(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.json").mkdir()
        code, _, err = run(["compute", *PHYSICS, "--l", "1", "--dz", "1",
                            "--out", name], capsys)
        assert code == 2
        assert err.startswith(f"error: cannot write {name}: ")
        # for out.json the temp file was written before the rename failed
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert list((tmp_path / "out.json").iterdir()) == []


@pytest.fixture
def fresh_parser():
    """Start with no parser built, and leave none behind."""
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()


@pytest.mark.usefixtures("fresh_parser")
class TestRepeatedMain:
    """Calls of ``main`` in one process act like calls in fresh processes."""

    COMPUTE = ["compute", *PHYSICS, "--l", "1", "--dz", "1"]
    SWEEP = [*TestSweepCommand.ARGS[:-2], "--points", "3"]

    @pytest.mark.parametrize(
        "failing, code",
        [
            (["compute", "--nope", "1"], 2),
            (["sweep", "--help"], 0),
            (["compute", *PHYSICS, "--l", "-1", "--dz", "1"], 2),
        ],
        ids=["argparse_error", "help", "validation_error"],
    )
    @pytest.mark.parametrize("good", [COMPUTE, SWEEP], ids=["compute", "sweep"])
    def test_good_call_after_a_failed_one(self, failing, code, good, capsys):
        fresh = run(good, capsys)
        assert fresh[0] == 0
        assert run(failing, capsys)[0] == code
        assert run(good, capsys) == fresh

    def test_defaults_do_not_leak_between_subcommands(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        figure = ["figure", "fig7", "--resolution", "3"]
        assert run([*figure, "--out", "elsewhere"], capsys)[0] == 0
        code, out, _ = run(figure, capsys)
        assert (code, out) == (0, "wrote 3 curve files to .\n")
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
            "difference.csv", "orthogonal.csv", "parallel.csv"
        ]
        code, out, _ = run([*self.SWEEP, "--format", "csv"], capsys)
        assert code == 0 and out.splitlines()[-4] == CSV_HEADER
        code, out, _ = run(self.COMPUTE, capsys)
        assert code == 0
        assert json.loads(out)["provenance"]["version"] == __version__

    def test_parser_built_during_the_first_call_only(self, monkeypatch, capsys):
        built_in = []
        calls = []

        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built_in.append(len(calls))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (self.COMPUTE, ["compute", "--nope"], ["--help"], self.SWEEP, self.COMPUTE):
            calls.append(argv)
            run(argv, capsys)
        # the top-level parser and one per subcommand, all during call 1
        assert built_in == [1] * 6


@pytest.mark.parametrize("figure_id", [f.value for f in FigureId])
def test_figure_flags_default_to_figure_dataset_defaults(figure_id, monkeypatch, capsys):
    args = cli._build_parser().parse_args(["figure", figure_id])
    seen = {}

    def recording_dataset(_figure, **kwargs):
        seen.update(kwargs)
        return {}

    monkeypatch.setattr(cli, "figure_dataset", recording_dataset)
    assert args.handler(args) == 0
    defaults = inspect.signature(figure_dataset).parameters
    # figure_dataset's pair=None stands for this pair
    assert seen["pair"] == DetectorPair(0.1, 0.1)
    assert seen["resolution"] == defaults["resolution"].default
    assert seen["separations"] == defaults["separations"].default


def test_figure_without_flags_writes_figure_dataset(tmp_path, capsys):
    code, _, _ = run(["figure", "fig6", "--out", str(tmp_path)], capsys)
    assert code == 0
    data = figure_dataset("fig6")
    written = {}
    for path in tmp_path.glob("*.csv"):
        text = path.read_text()
        label = text.split("# curve = ", 1)[1].split("\n", 1)[0]
        written[label] = text
    assert written.keys() == data.keys()
    for label, table in data.items():
        params = {"figure": "fig6", "curve": label, **table.params, "axis": table.variable.value}
        assert written[label] == _table_csv(table, params)


def test_provenance_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert __version__ == project["version"]


def test_distribution_is_the_package():
    # pip show, pip uninstall and importlib.metadata find the distribution by
    # this name; a regex on the [project] table, since tomllib needs 3.11
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", pyproject.read_text(), re.M | re.S)
    fields = dict(re.findall(r'^(name|version) = "([^"]*)"$', project[1], re.M))
    assert fields == {"name": "mirrorsteer", "version": __version__}


def _readme_commands():
    """The ``mirrorsteer`` command lines of README's "Command line" block,
    as argument lists: continuation lines joined, redirections dropped."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["mirrorsteer"]:
            if ">" in words:
                words = words[: words.index(">")]
            commands.append(words[1:])
    return commands


def test_readme_library_example_prints_four_numbers(capsys):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    words = capsys.readouterr().out.split()
    assert len(words) == 4
    assert all(math.isfinite(float(word)) for word in words)


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "compute", "sweep", "optimize", "verify", "figure"
    }
    for argv in commands:
        code, _, err = run(argv, capsys)
        assert code == 0, f"mirrorsteer {shlex.join(argv)}: exit {code}: {err}"

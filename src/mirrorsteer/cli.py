"""Command-line front end.

Subcommands: ``compute`` (single parameter point, JSON by default),
``sweep`` (one-axis tabulation, CSV by default), ``optimize`` (peak
refinement), ``verify`` (closed forms against the direct quadrature
oracle), and ``figure`` (canonical curve families, one CSV per curve).

Exit codes: 0 on success, 2 on validation errors (an ``--out`` that
cannot be written included), 3 on numerical convergence failures.
Physical parameters have no silent defaults except the coupling, which
defaults to 1 and is echoed in all output metadata.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import pathlib
import re
import sys

from . import __version__, integral_oracle
from .detector_model import Alignment, BoundaryGeometry, DetectorPair, correlations
from .errors import ConvergenceError, ValidationError
from .integral_oracle import numeric_correlations
from .sweep_optimize import (
    _FIGURE_GAP,
    _FIGURE_RESOLUTION,
    _FIGURE_SEPARATIONS,
    _PARAM_NAME,
    OBSERVABLES,
    FigureId,
    Objective,
    SweepAxis,
    SweepScale,
    SweepTable,
    SweepVariable,
    figure_dataset,
    find_peak,
    observable_columns,
    observable_values,
    sweep,
)

VERIFY_TOLERANCE = 1e-3
# longest file name, in bytes, that common file systems accept
NAME_MAX = 255
# the correlation-block fields checked against the oracle
VERIFIED = ("p_a", "p_b", "c", "x")

# (omega_a, omega_b, separation, boundary_distance); each entry is run in
# both alignments
VERIFY_GRID_DEFAULT = (
    (0.0, 0.0, 0.5, 0.5),
    (0.0, 0.0, 1.0, 1.0),
    (0.1, 0.1, 0.5, 1.0),
    (0.1, 0.1, 1.0, 0.5),
    (0.1, 0.1, 2.0, 2.0),
    (1.0, 1.0, 1.0, 1.0),
    (1.0, 1.0, 0.5, 2.0),
    (0.0, 1.0, 1.0, 2.0),
    (0.1, 1.0, 2.0, 0.5),
    (0.0, 0.1, 2.0, 1.0),
)
VERIFY_GRID_SMOKE = (
    (0.1, 0.1, 0.5, 1.0),
    (0.0, 1.0, 1.0, 2.0),
)


def _tmp_name(name: str) -> str:
    # zero-padded to the widest Linux pid, so a name's length never depends
    # on the process that writes it
    return name + f".tmp-{os.getpid():07d}"


def _write_text(path: str | None, text: str) -> None:
    """Write to stdout, or atomically to a file via a temp-and-rename.  A
    file that cannot be written is a validation error, and its temp file
    is removed."""
    if path is None:
        sys.stdout.write(text)
        return
    target = pathlib.Path(path)
    if not target.name:
        raise ValidationError(f"cannot write {path}: it names no file")
    tmp = target.with_name(_tmp_name(target.name))
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text)
        os.replace(tmp, target)
    except OSError as exc:
        if tmp.exists():
            tmp.unlink()
        # a file among the parents reads "File exists" from mkdir, or "Not a
        # directory" one level deeper: name that file
        blocker = next(parent for parent in target.parents if os.path.exists(parent))
        if not os.path.isdir(blocker):
            raise ValidationError(f"cannot write {path}: {blocker} is not a directory") from exc
        # name the culprit when it is a parent directory, not the temp file
        culprit = "" if exc.filename in (None, str(tmp)) else f" ({exc.filename})"
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}{culprit}") from exc


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _provenance(config: dict) -> dict:
    return {"version": __version__, "config_hash": _config_hash(config)}


def _constant_text(column) -> str | None:
    """The text every value of ``column`` prints as, if they all print the
    same; None otherwise.  Equal values print alike except the zeros, whose
    sign shows, and nan never equals another nan."""
    first = column[0]
    if column.count(first) != len(column):
        return None
    text = "%.17g" % first
    if first == 0.0 and any("%.17g" % v != text for v in column):
        return None
    return text


def _table_csv(table: SweepTable, params: dict, axis_text: list[str] | None = None) -> str:
    """CSV with one column per table column, headed by its name; each value
    is written with 17 significant digits, enough to read it back exactly.
    A column whose values all print alike is formatted once, and so is an
    axis column that tables share: ``axis_text`` holds its values as text,
    which each row takes as it is."""
    lines = [f"# {key} = {value}" for key, value in params.items()]
    lines.append(",".join(table.columns))
    columns = list(table.columns.values())
    texts = [_constant_text(column) for column in columns]
    cells = ["%.17g" if text is None else text for text in texts]
    if axis_text is not None:
        columns[0], texts[0], cells[0] = axis_text, None, "%s"
    row = ",".join(cells)
    varying = [column for column, text in zip(columns, texts) if text is None]
    # with every column constant, zip would give no rows at all
    rows = zip(*varying) if varying else [()] * len(columns[0])
    lines.extend(row % values for values in rows)
    return "\n".join(lines) + "\n"


def _pair_geom(
    args, swept: SweepVariable | None = None
) -> tuple[DetectorPair, BoundaryGeometry, dict]:
    """The pair, geometry and config the physics flags give.  Every point
    of a ``swept`` variable overrides its flag, so a valid stand-in takes
    the flag's place and the config leaves it out."""
    values = {"omega_b": args.omega_b, "l": args.l, "dz": args.dz}
    if swept is not None:
        # omega_b may equal omega_a; a length may be any positive value
        values[_PARAM_NAME[swept]] = args.omega_a if swept is SweepVariable.OMEGA_B else 1.0
    pair = DetectorPair(args.omega_a, values["omega_b"], coupling=args.coupling)
    geom = BoundaryGeometry(
        alignment=args.alignment,
        separation=values["l"],
        boundary_distance=values["dz"],
    )
    config = {
        "alignment": geom.alignment.value,
        "omega_a": pair.omega_a,
        "omega_b": pair.omega_b,
        "l": geom.separation,
        "dz": geom.boundary_distance,
        "lambda": pair.coupling,
    }
    if swept is not None:
        del config[_PARAM_NAME[swept]]
    return pair, geom, config


def _cmd_compute(args) -> int:
    pair, geom, config = _pair_geom(args)
    values = observable_values(correlations(pair, geom))
    if args.format == "csv":
        columns = observable_columns([geom.separation], zip(values))
        table = SweepTable(SweepVariable.SEPARATION, columns)
        params = dict(config, axis="separation")
        _write_text(args.out, _table_csv(table, params))
    else:
        record = dict(config)
        record.update(zip(OBSERVABLES, values))
        record["provenance"] = _provenance(config)
        _write_text(args.out, json.dumps(record, indent=2) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    pair, geom, _ = _pair_geom(args, SweepVariable(args.axis))
    axis = SweepAxis(
        variable=args.axis,
        start=args.start,
        stop=args.stop,
        points=args.points,
        scale=SweepScale.LOG if args.log else SweepScale.LINEAR,
    )
    table = sweep(pair, geom, axis)
    params = table.params | {"axis": axis.variable.value, "scale": axis.scale.value}
    params.update(start=axis.start, stop=axis.stop)
    if args.format == "json":
        names = ("axis_value", *OBSERVABLES)
        rows = [dict(zip(names, row)) for row in zip(*table.columns.values())]
        payload = dict(params, rows=rows, provenance=_provenance(params))
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        _write_text(args.out, _table_csv(table, params))
    return 0


def _parse_bracket(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError("--bracket expects two comma-separated numbers, e.g. 0.2,6.0")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ValidationError(f"--bracket values must be numeric: {exc}") from exc


def _cmd_optimize(args) -> int:
    variable = SweepVariable(args.axis)
    pair, geom, config = _pair_geom(args, variable)
    bracket = _parse_bracket(args.bracket)
    res = find_peak(pair, geom, variable, bracket, Objective(args.objective))
    config.update(axis=args.axis, objective=args.objective, bracket=list(res.bracket))
    record = dict(config, location=res.location, value=res.value, evaluations=res.evaluations)
    record["provenance"] = _provenance(config)
    _write_text(args.out, json.dumps(record, indent=2) + "\n")
    return 0


def _json_number(value):
    """A float as is; a complex value as its [real, imag] pair."""
    return [value.real, value.imag] if isinstance(value, complex) else value


def _cmd_verify(args) -> int:
    grid = VERIFY_GRID_SMOKE if args.grid == "smoke" else VERIFY_GRID_DEFAULT
    cases = [
        (DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, l, dz))
        for omega_a, omega_b, l, dz in grid
        for alignment in (Alignment.PARALLEL, Alignment.ORTHOGONAL)
    ]
    # the command's own store of probability integrals, each made in the
    # first case that needs it
    rows, probabilities = [], {}
    for pair, geom in cases:
        # each case's oracle work is done right after its closed forms
        block = correlations(pair, geom)
        oracle = numeric_correlations(pair, geom, probabilities=probabilities)
        row = {
            "alignment": geom.alignment.value,
            "omega_a": pair.omega_a,
            "omega_b": pair.omega_b,
            "l": geom.separation,
            "dz": geom.boundary_distance,
        }
        for key in VERIFIED:
            closed, reference = getattr(block, key), getattr(oracle, key)
            row[key] = {
                "closed_form": _json_number(closed),
                "oracle": _json_number(reference),
                "rel_deviation": abs(closed - reference) / abs(reference),
            }
        rows.append(row)
    worst = {key: max(row[key]["rel_deviation"] for row in rows) for key in VERIFIED}

    lines = [f"{'observable':<12}{'max rel deviation':<20}{'tolerance':<12}"]
    for key, dev in worst.items():
        lines.append(f"{key:<12}{dev:<20.3e}{VERIFY_TOLERANCE:<12.1e}")
    passed = all(dev <= VERIFY_TOLERANCE for dev in worst.values())
    verdict = "PASS" if passed else "FAIL"
    lines.append(
        f"verify: {verdict} (grid={args.grid}, "
        f"{len(grid)} configurations x 2 alignments)"
    )
    # a JSON record written to stdout must be all that stdout carries
    json_to_stdout = args.format == "json" and args.out is None
    print("\n".join(lines), file=sys.stderr if json_to_stdout else sys.stdout)
    if args.format == "json" or args.out:
        payload = {
            "grid": args.grid,
            "tolerance": VERIFY_TOLERANCE,
            "max_rel_deviation": worst,
            "passed": passed,
            "rows": rows,
            "provenance": {
                **_provenance({"grid": args.grid}),
                # every public numeric constant of the oracle, in its order
                "quadrature": {
                    name.lower(): value for name, value in vars(integral_oracle).items()
                    if name.isupper() and not name.startswith("_")
                    and isinstance(value, (int, float))
                },
            },
        }
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0 if passed else 1


def _cmd_figure(args) -> int:
    # fig2, fig4 and fig6 set the B gap themselves, so the default must not
    # refuse an --omega-a above the default gap before their curves are built
    omega_b = max(_FIGURE_GAP, args.omega_a) if args.omega_b is None else args.omega_b
    pair = DetectorPair(args.omega_a, omega_b, coupling=args.coupling)
    data = figure_dataset(
        args.figure,
        pair=pair,
        resolution=args.resolution,
        separations=(args.small_l, args.large_l),
    )
    names = {}
    for label, table in data.items():
        name = re.sub(r"[^A-Za-z0-9.+-]+", "_", label) + ".csv"
        size = len(_tmp_name(name).encode())
        if size > NAME_MAX:
            # only fig6 labels carry a number the user sets: the separation
            raise ValidationError(
                f"separation = {table.params['l']:g} gives a curve file "
                f"name of {size} bytes with its temporary suffix, over the "
                f"{NAME_MAX}-byte limit"
            )
        names[label] = name
    out_dir = pathlib.Path(args.out)
    axis = None
    for label, table in data.items():
        # the tables of a figure hold one axis column, formatted once
        if table.column("axis") is not axis:
            axis = table.column("axis")
            axis_text = ["%.17g" % value for value in axis]
        params = {
            "figure": args.figure,
            "curve": label,
            **table.params,
            "axis": table.variable.value,
        }
        _write_text(str(out_dir / names[label]), _table_csv(table, params, axis_text))
    print(f"wrote {len(data)} curve files to {out_dir}")
    return 0


def _add_physics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alignment", required=True, choices=["parallel", "orthogonal"]
    )
    parser.add_argument("--omega-a", type=float, required=True, dest="omega_a")
    parser.add_argument("--omega-b", type=float, required=True, dest="omega_b")
    parser.add_argument("--l", type=float, required=True, help="detector separation")
    parser.add_argument("--dz", type=float, required=True, help="distance to the mirror")
    parser.add_argument(
        "--lambda",
        type=float,
        default=1.0,
        dest="coupling",
        help="coupling strength (default 1, echoed in output)",
    )


def _add_axis_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--axis",
        required=True,
        choices=[v.value for v in SweepVariable],
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused."""
    parser = argparse.ArgumentParser(
        prog="mirrorsteer",
        description="Directional steering harvested by two detectors near a mirror.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate a single parameter point")
    _add_physics_flags(p_compute)
    p_compute.add_argument("--format", choices=["csv", "json"], default="json")
    p_compute.add_argument("--out")
    p_compute.set_defaults(handler=_cmd_compute)

    p_sweep = sub.add_parser("sweep", help="tabulate observables along one axis")
    _add_physics_flags(p_sweep)
    _add_axis_flags(p_sweep)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--log", action="store_true", help="log-spaced grid")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_opt = sub.add_parser("optimize", help="refine a steering peak inside a bracket")
    _add_physics_flags(p_opt)
    _add_axis_flags(p_opt)
    p_opt.add_argument("--bracket", required=True, help="two comma-separated numbers")
    p_opt.add_argument(
        "--objective", required=True, choices=[o.value for o in Objective]
    )
    p_opt.add_argument("--out")
    p_opt.set_defaults(handler=_cmd_optimize)

    p_verify = sub.add_parser(
        "verify", help="check closed forms against the quadrature oracle"
    )
    p_verify.add_argument("--grid", choices=["smoke", "default"], default="default")
    p_verify.add_argument("--format", choices=["table", "json"], default="table")
    p_verify.add_argument("--out")
    p_verify.set_defaults(handler=_cmd_verify)

    p_fig = sub.add_parser("figure", help="emit a canonical figure dataset")
    p_fig.add_argument("figure", choices=[f.value for f in FigureId])
    p_fig.add_argument("--out", default=".")
    p_fig.add_argument("--resolution", type=int, default=_FIGURE_RESOLUTION)
    p_fig.add_argument("--omega-a", type=float, default=_FIGURE_GAP, dest="omega_a")
    p_fig.add_argument(
        "--omega-b", type=float, dest="omega_b",
        help=f"gap of detector B (default: the larger of {_FIGURE_GAP:g} and --omega-a)",
    )
    p_fig.add_argument(
        "--lambda", type=float, default=1.0, dest="coupling",
        help="coupling strength (default 1, echoed in output)",
    )
    p_fig.add_argument(
        "--small-l", type=float, default=_FIGURE_SEPARATIONS[0], dest="small_l",
        help="small separation for the gap-sweep curves",
    )
    p_fig.add_argument(
        "--large-l", type=float, default=_FIGURE_SEPARATIONS[1], dest="large_l",
        help="large separation for the gap-sweep curves",
    )
    p_fig.set_defaults(handler=_cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  May be called repeatedly
    in one process: the parser is built on the first call and reused, and
    each call parses its own ``argv`` into fresh arguments."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

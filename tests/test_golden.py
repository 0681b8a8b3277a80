"""Golden CLI outputs: the bytes each command below writes, pinned.

``golden/`` holds what these commands wrote through ``cli.main``: the five
figures at resolution 25, once at the default gaps 0.1/0.1 and once at
``--omega-a 0.05 --omega-b 0.5`` (where fig5 and fig7 have a nonzero gap
difference and fig6's curves start at 0.05), ``compute`` as JSON and CSV at two points in each
alignment, one ``sweep`` per axis (the separation axis log-spaced across
``SERIES_CROSSOVER``), two ``optimize`` runs, ``verify --format json`` on the smoke and
the default grid, and the exit code and stderr of one refused sweep.  The test reruns
every command into a temporary directory and compares bytes, so an output
that drifts even in its last digit fails, where a tolerance would pass it.

The files pin the libm and numpy they were written with: glibc 2.36 and
numpy 2.4.6 on x86-64 (Python 3.11.7).  Another libm or numpy may move a
last digit; the failure report gives, per file and column, the largest
relative change, so that such a move reads as one.

Regenerate the files, with ``PYTHONPATH=src python tests/test_golden.py``,
only in a change that means to move an output, and name the moved files and
their largest change in CHANGES.md.  Never regenerate them to make a
failure go away.  Output names as arguments (``python tests/test_golden.py
verify_default.json fig5``) write only those outputs and leave every other
file untouched; with no names the whole directory is written afresh.
"""

import contextlib
import io
import json
import math
import pathlib
import shutil
import sys

import pytest

from mirrorsteer import cli

GOLDEN = pathlib.Path(__file__).resolve().with_name("golden")


def _point(alignment, omega_a, omega_b, l, dz):
    return ["--alignment", alignment, "--omega-a", omega_a, "--omega-b", omega_b,
            "--l", l, "--dz", dz]


# (alignment, omega_a, omega_b, l, dz); the second point of each alignment
# sits below SERIES_CROSSOVER, on the Taylor branch of the kernels
_POINTS = {
    "parallel_a": ("parallel", "0.1", "0.1", "1", "1"),
    "parallel_b": ("parallel", "0.05", "0.3", "5e-4", "0.2"),
    "orthogonal_a": ("orthogonal", "0.1", "0.1", "1", "1"),
    "orthogonal_b": ("orthogonal", "0.05", "0.3", "5e-4", "0.2"),
}

# output name -> command; each command writes to --out at its name
COMMANDS = {
    **{f"{fig}": ["figure", fig, "--resolution", "25"]
       for fig in ("fig2", "fig4", "fig5", "fig6", "fig7")},
    **{f"{fig}_gaps_0.05_0.5": ["figure", fig, "--omega-a", "0.05", "--omega-b", "0.5",
                                "--resolution", "25"]
       for fig in ("fig2", "fig4", "fig5", "fig6", "fig7")},
    **{f"compute_{name}.{fmt}": ["compute", *_point(*point), "--format", fmt]
       for name, point in _POINTS.items() for fmt in ("json", "csv")},
    "sweep_separation_log.csv": [
        "sweep", *_point("orthogonal", "0.1", "0.2", "1", "4e-4"), "--axis", "separation",
        "--start", "1e-5", "--stop", "1e-2", "--points", "40", "--log",
    ],
    "sweep_boundary_distance.json": [
        "sweep", *_point("parallel", "0.05", "0.3", "0.5", "1"), "--axis", "boundary-distance",
        "--start", "1e-4", "--stop", "8", "--points", "30", "--format", "json",
    ],
    "sweep_omega_b.csv": [
        "sweep", *_point("parallel", "0.1", "0.1", "2", "1"), "--axis", "omega-b",
        "--start", "0.1", "--stop", "6", "--points", "30",
    ],
    "optimize_boundary_distance_sba.json": [
        "optimize", *_point("parallel", "0.1", "0.1", "0.05", "1"), "--axis",
        "boundary-distance", "--bracket", "0.2,6.0", "--objective", "sba",
    ],
    "optimize_omega_b_sab.json": [
        "optimize", *_point("orthogonal", "0.05", "0.3", "0.5", "1"), "--axis", "omega-b",
        "--bracket", "0.57,1.08", "--objective", "sab",
    ],
    "verify_smoke.json": ["verify", "--grid", "smoke", "--format", "json"],
    "verify_default.json": ["verify", "--grid", "default", "--format", "json"],
}
# output name -> command that is refused; its exit code and stderr are pinned
REFUSED = {
    "sweep_strong_coupling.stderr": [
        "sweep", *_point("parallel", "0.1", "0.1", "1", "1"), "--lambda", "5",
        "--axis", "boundary-distance", "--start", "0.2", "--stop", "2", "--points", "5",
    ],
}


def _main(argv) -> tuple[int, str]:
    """Exit code and stderr of one command; its stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def generate(out: pathlib.Path, names=None) -> None:
    """Write the golden outputs ``names`` (every one, by default) under
    ``out``."""
    for name in [*COMMANDS, *REFUSED] if names is None else names:
        if name in COMMANDS:
            code, err = _main([*COMMANDS[name], "--out", str(out / name)])
            assert code == 0, f"{name}: exit {code}: {err}"
        else:
            code, err = _main(REFUSED[name])
            assert code != 0, f"{name}: the command was not refused"
            (out / name).write_text(f"exit {code}\n{err}")


def _files(root: pathlib.Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _columns(name: str, text: str) -> dict[str, list[float]]:
    """The numbers of one output by column: a CSV column by its header, a
    JSON number by its key path (list positions dropped)."""
    if name.endswith(".csv"):
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        return {col: [float(row[i]) for row in rows] for i, col in enumerate(header)}
    if name.endswith(".json"):
        columns: dict[str, list[float]] = {}

        def walk(node, key):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(v, f"{key}.{k}" if key else k)
            elif isinstance(node, list):
                for v in node:
                    walk(v, key)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                columns.setdefault(key, []).append(float(node))

        walk(json.loads(text), "")
        return columns
    return {}


def _relative_change(got: float, want: float) -> float:
    if got == want or (math.isnan(got) and math.isnan(want)):
        return 0.0
    return abs(got - want) / abs(want) if want != 0.0 else math.inf


def _report(name: str, got: bytes, want: bytes) -> list[str]:
    """How one output moved: the largest relative change per column, or the
    first changed line of an output without columns."""
    got_columns, want_columns = _columns(name, got.decode()), _columns(name, want.decode())
    lines = []
    for col, values in want_columns.items():
        new = got_columns.get(col)
        if new is None or len(new) != len(values):
            lines.append(f"{name}: column {col!r} changed shape")
            continue
        change = max(map(_relative_change, new, values), default=0.0)
        if change:
            lines.append(f"{name}: column {col!r}: largest relative change {change:.3g}")
    lines += [f"{name}: new column {col!r}" for col in got_columns.keys() - want_columns.keys()]
    if not lines:
        pairs = zip(got.decode().splitlines(), want.decode().splitlines())
        first = next(((g, w) for g, w in pairs if g != w), None)
        lines.append(f"{name}: bytes differ" if first is None
                     else f"{name}: {first[1]!r} is now {first[0]!r}")
    return lines


def test_cli_outputs_match_golden_bytes(tmp_path):
    generate(tmp_path)
    got, want = _files(tmp_path), _files(GOLDEN)
    report = [f"{name}: missing" for name in sorted(want.keys() - got.keys())]
    report += [f"{name}: not in golden/" for name in sorted(got.keys() - want.keys())]
    for name in sorted(want.keys() & got.keys()):
        if got[name] != want[name]:
            report += _report(name, got[name], want[name])
    if report:
        pytest.fail("CLI outputs moved from golden/:\n" + "\n".join(report), pytrace=False)


def test_report_names_the_moved_column():
    want = b"# figure = fig2\naxis,s_ab\n0.5,0.25\n1,0.125\n"
    got = b"# figure = fig2\naxis,s_ab\n0.5,0.25\n1,0.12500000000000003\n"
    assert _report("curve.csv", got, want) == [
        "curve.csv: column 's_ab': largest relative change 2.22e-16"
    ]
    got = b'{"rows": [{"c": [1.0, 2.5]}]}'
    assert _report("v.json", got, b'{"rows": [{"c": [1.0, 2.0]}]}') == [
        "v.json: column 'rows.c': largest relative change 0.25"
    ]
    assert _report("e.stderr", b"exit 2\nerror: b\n", b"exit 2\nerror: a\n") == [
        "e.stderr: 'error: a' is now 'error: b'"
    ]


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = [name for name in names if name not in COMMANDS and name not in REFUSED]
    if unknown:
        raise SystemExit(f"no golden output is named {', '.join(unknown)}")
    if names:
        generate(GOLDEN, names)
        print(f"wrote {len(names)} outputs to {GOLDEN}", file=sys.stderr)
    else:
        shutil.rmtree(GOLDEN, ignore_errors=True)
        GOLDEN.mkdir()
        generate(GOLDEN)
        print(f"wrote {len(_files(GOLDEN))} files to {GOLDEN}", file=sys.stderr)

"""The three benchmark workloads: seeded inputs, timed operations, output checks.

A workload yields *units* from its seed.  Running a unit returns the
duration of each operation it contains and the output to check; most units
are one operation, a ``verify`` command is twenty.  Checks run after the
timing and compare the program's output against a second route through
the library or the generic X-state formulas, never against stored values,
so accuracy fixes to the closed forms do not trip them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import pathlib
import random
import shutil
import time
from decimal import Decimal, localcontext

import mirrorsteer as ms
from mirrorsteer import cli
from mirrorsteer.detector_model import state_from_block
from mirrorsteer.sweep_optimize import REFINE_TOL

from layers import OpMarks

# agreement required between the program's output and the generic route
CHECK_RTOL = 1e-12
CERT_FACTOR = 2.0 / math.sqrt(3.0)


class _Discard:
    """Stdout sink for the CLI's progress and table lines."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= CHECK_RTOL * max(1.0, abs(want))


def _exact_steering(state: ms.XState) -> dict[str, float]:
    """Generic X-state steering and concurrence of ``state``, evaluated in
    50-digit decimal arithmetic from its float entries.

    The library's generic route (``steering_asymmetry``) loses digits when
    a population is tiny, because g_a and g_b cancel in its thresholds: at
    omega_b = 5.6 it is off by 6e-5 relative.  Exact arithmetic on the same
    formulas keeps the reference good to 1e-12 everywhere.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        d11, d22, d33, d44 = (Decimal(v) for v in (state.d11, state.d22, state.d33, state.d44))
        c14, c23 = Decimal(abs(state.c14)), Decimal(abs(state.c23))
        r3 = Decimal(3).sqrt()
        w_minus, w_plus = (2 - r3) / 2, (2 + r3) / 2
        p14, p23 = d11 * d44, d22 * d33
        cross = (d11 + d44) * (d22 + d33) / 4
        g_a = w_minus * p14 + w_plus * p23 + cross
        g_b = (d11 - d44) * (d22 - d33) / 4
        g_c = w_plus * p14 + w_minus * p23 + cross
        zero = Decimal(0)

        def root(v):
            return v.sqrt() if v > 0 else zero

        s_ab = max(zero, c14 - root(g_a + g_b), c23 - root(g_c + g_b))
        s_ba = max(zero, c14 - root(g_a - g_b), c23 - root(g_c - g_b))
        conc = 2 * max(zero, c14 - root(p23), c23 - root(p14))
        return {"s_ab": float(s_ab), "s_ba": float(s_ba),
                "asymmetry": float(s_ab - s_ba), "concurrence": float(conc)}


def _generic(pair: ms.DetectorPair, geom: ms.BoundaryGeometry) -> dict[str, float]:
    """Observables of the joint state through the generic X-state formulas."""
    state = ms.joint_state(pair, geom)
    return {
        "p_a": state.d33,
        "p_b": state.d22,
        "abs_c": abs(state.c23),
        "abs_x": abs(state.c14),
        **_exact_steering(state),
    }


# ---------------------------------------------------------------- figures

FIGURES = ("fig2", "fig4", "fig5", "fig6", "fig7")
# fig2/fig4 hardcode these detector-B gaps and the CLI refuses
# omega_a above the smallest, so the generator draws omega_a below it
FIG_OMEGA_B = (0.1, 0.2, 0.3)
FIG_OMEGA_A_MAX = 0.1
FIG_OMEGA_B_MAX = 1.0
ROWS_CHECKED = 2


def _figure_curves(fig: str, wa: float, wb: float):
    """Expected curve files of one canonical figure, restated from the
    figure definitions: ``{file: (axis start, axis stop, generic(v))}``."""
    pair = ms.DetectorPair(wa, wb)
    par, ort = ms.Alignment.PARALLEL, ms.Alignment.ORTHOGONAL
    geom = ms.BoundaryGeometry
    curves = {}
    if fig in ("fig2", "fig4"):
        al = par if fig == "fig2" else ort
        for b in FIG_OMEGA_B:
            curves[f"{al.value}_omega_b_{b:.2f}.csv"] = (
                0.05, 3.0,
                lambda v, b=b, al=al: _generic(ms.DetectorPair(wa, b), geom(al, v, 1.0)),
            )
    elif fig == "fig5":
        for al in (par, ort):
            curves[f"{al.value}.csv"] = (
                1e-4, 8.0, lambda v, al=al: _generic(pair, geom(al, 0.05, v))
            )
        free = _exact_steering(state_from_block(ms.boundary_free_correlations(pair, 0.05)))
        curves["boundary_free.csv"] = (1e-4, 8.0, lambda v: free)
    elif fig == "fig6":
        for al in (par, ort):
            for sep in (0.05, 2.0):
                curves[f"{al.value}_L_{sep:.2f}.csv"] = (
                    wa, 6.0,
                    lambda v, al=al, sep=sep: _generic(
                        ms.DetectorPair(wa, v), geom(al, sep, 1.0)
                    ),
                )
    else:
        for al in (par, ort):
            curves[f"{al.value}.csv"] = (
                0.05, 3.0, lambda v, al=al: _generic(pair, geom(al, v, 1.0))
            )

        def difference(v):
            o, p = _generic(pair, geom(ort, v, 1.0)), _generic(pair, geom(par, v, 1.0))
            return {"delta_s_ab": o["s_ab"] - p["s_ab"],
                    "delta_s_ba": o["s_ba"] - p["s_ba"]}

        curves["difference.csv"] = (0.05, 3.0, difference)
    return curves


def _read_csv(path: pathlib.Path) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [[float(x) for x in ln.split(",")] for ln in lines[1:]]


@dataclasses.dataclass(frozen=True)
class FigureOp:
    index: int
    figure: str
    omega_a: float
    omega_b: float


class Figures:
    """Canonical figure datasets written as CSV through ``cli.main``.

    One operation is one figure; each seeded gap pair runs all five.
    """

    name = "figures"
    ops_per_unit = 1
    host_reference = True
    # each figure runs twice and counts its faster run; see Search.repeats.
    # A third run would leave fewer than 200 figures in a run.
    repeats = 2

    def __init__(self, seed: int, workdir: pathlib.Path, resolution: int = 200):
        self.seed = seed
        self.workdir = workdir
        self.resolution = resolution

    def describe(self) -> str:
        return (f"5 canonical figures per seeded gap pair, resolution "
                f"{self.resolution}; one op is one figure")

    def units(self):
        rng = random.Random(self.seed)
        index = 0
        while True:
            wa = rng.uniform(0.0, FIG_OMEGA_A_MAX)
            wb = rng.uniform(wa, FIG_OMEGA_B_MAX)
            for fig in FIGURES:
                yield FigureOp(index, fig, wa, wb)
                index += 1

    def _argv(self, op: FigureOp) -> list[str]:
        return ["figure", op.figure, "--out", str(self.workdir / op.figure),
                "--resolution", str(self.resolution),
                "--omega-a", repr(op.omega_a), "--omega-b", repr(op.omega_b)]

    def warm_up(self) -> None:
        self.run(FigureOp(-1, "fig2", 0.05, 0.5))

    def run(self, op: FigureOp):
        shutil.rmtree(self.workdir / op.figure, ignore_errors=True)
        argv = self._argv(op)
        with contextlib.redirect_stdout(_Discard()):
            start = time.perf_counter()
            code = cli.main(argv)
            end = time.perf_counter()
        return [end - start], code

    def check(self, op: FigureOp, code) -> list[str]:
        if code != 0:
            return [f"{op.figure}: exit {code}"]
        rng = random.Random(f"{self.seed}:{op.index}")
        out_dir = self.workdir / op.figure
        curves = _figure_curves(op.figure, op.omega_a, op.omega_b)
        written = sorted(p.name for p in out_dir.iterdir())
        if written != sorted(curves):
            return [f"{op.figure}: wrote {written}, expected {sorted(curves)}"]
        errors = []
        for fname, (start, stop, expected) in curves.items():
            header, rows = _read_csv(out_dir / fname)
            if len(rows) != self.resolution:
                errors.append(f"{op.figure}/{fname}: {len(rows)} rows")
                continue
            if not (_close(rows[0][0], start) and _close(rows[-1][0], stop)):
                errors.append(f"{op.figure}/{fname}: axis {rows[0][0]}..{rows[-1][0]}")
            for i in rng.sample(range(len(rows)), ROWS_CHECKED):
                row = dict(zip(header, rows[i]))
                for col, want in expected(row["axis"]).items():
                    if not _close(row[col], want):
                        errors.append(f"{op.figure}/{fname} row {i} {col}: "
                                      f"{row[col]!r} vs generic {want!r}")
        return errors


# ---------------------------------------------------------------- verify

VERIFY_OPS = {"default": 20, "smoke": 4}
VERIFY_TOLERANCE = 1e-3


class Verify:
    """``mirrorsteer verify`` against the quadrature oracle.

    The configuration grid is fixed by the CLI, so the seed changes
    nothing.  One unit is one command; one operation is one configuration
    in one alignment, split out by the command's calls to ``correlations``.
    """

    name = "verify"
    host_reference = False
    repeats = 1

    def __init__(self, seed: int, workdir: pathlib.Path, grid: str = "default"):
        self.seed = seed
        self.workdir = workdir
        self.grid = grid
        self.ops_per_unit = VERIFY_OPS[grid]
        self.max_rel_dev = 0.0

    def describe(self) -> str:
        return (f"verify --grid {self.grid} (fixed grid, seed unused); one op is "
                f"one configuration x alignment, {VERIFY_OPS[self.grid]} per command")

    def units(self):
        index = 0
        while True:
            yield index
            index += 1

    def warm_up(self) -> None:
        # builds the cached Gauss-Legendre nodes shared by every kind
        ms.numeric_probability(0.1, 1.0)

    def run(self, index: int):
        out = self.workdir / f"verify-{index}.json"
        argv = ["verify", "--grid", self.grid, "--format", "json", "--out", str(out)]
        marks = OpMarks(cli, "correlations")
        try:
            with contextlib.redirect_stdout(_Discard()):
                start = time.perf_counter()
                code = cli.main(argv)
                end = time.perf_counter()
        finally:
            marks.close()
        bounds = [start] + marks.times[1:] + [end]
        durations = [b - a for a, b in zip(bounds, bounds[1:])]
        return durations, (code, out, len(marks.times))

    def check(self, index: int, output) -> list[str]:
        code, out, n_marks = output
        errors = []
        if n_marks != self.ops_per_unit:
            errors.append(f"verify evaluated {n_marks} configurations")
        if code != 0:
            errors.append(f"verify exit {code}")
        payload = json.loads(out.read_text())
        out.unlink()
        devs = payload["max_rel_deviation"]
        for key, dev in devs.items():
            if not (math.isfinite(dev) and dev <= VERIFY_TOLERANCE):
                errors.append(f"verify {key} deviation {dev!r}")
        self.max_rel_dev = max([self.max_rel_dev, *devs.values()])
        return errors


# ---------------------------------------------------------------- search

# Problem ranges, each taken from the axes of the canonical figures
# (``sweep_optimize.figure_dataset``) and the ``figure`` command's defaults.
# omega_a: up to the command's default 0.1, the limit the figures workload keeps
SEARCH_OMEGA_A_MAX = 0.1
# omega_b: up to the largest gap of the CLI's verify grid (and the figures
# workload's limit), the domain the program certifies against its oracle.
# Not fig6's axis to 6: above a gap of about 4, P_B is tiny and the library's
# generic steering route loses digits to cancellation, so the certification
# check below fails on about 1.4e-4 of problems (problem 1531 of seed
# 1658767466: s_ab off by 1.6e-12).  That is a program error; the check
# keeps its 1e-12 tolerance.
SEARCH_OMEGA_B_MAX = 1.0
# separation: the axis of fig2, fig4 and fig7
SEARCH_SEPARATION = (0.05, 3.0)
# mirror distance: the axis of fig5
SEARCH_DISTANCE = (1e-4, 8.0)
# coarse grid along the mirror distance that brackets each peak
COARSE_AXIS = ("boundary-distance", *SEARCH_DISTANCE, 24)
# far end of the separation bracket for the transition search
FAR_SEPARATION = SEARCH_SEPARATION[1]
OBJECTIVE_COLUMN = {"sab": "s_ab", "sba": "s_ba"}
OBJECTIVE_DIRECTION = {"sab": "ab", "sba": "ba"}


@dataclasses.dataclass(frozen=True)
class Problem:
    index: int
    pair: ms.DetectorPair
    geom: ms.BoundaryGeometry
    objective: str


def _steering(pair, geom, column: str) -> float:
    return getattr(ms.harvested_steering(pair, geom), column)


def _coarse_bracket(p: Problem) -> tuple[float, float] | None:
    """Neighbours of the coarse maximum along the mirror distance, or None
    when the maximum sits on the grid edge."""
    axis = ms.SweepAxis(*COARSE_AXIS)
    values = ms.sweep(p.pair, p.geom, axis).column(OBJECTIVE_COLUMN[p.objective])
    i = max(range(len(values)), key=values.__getitem__)
    if not 0 < i < len(values) - 1:
        return None
    grid = axis.grid()
    return float(grid[i - 1]), float(grid[i + 1])


class Search:
    """A seeded optimisation session.  One operation is one problem: a
    coarse sweep along the mirror distance, golden-section refinement of
    its peak, bisection for the separation where that steering direction
    dies or is born, and certification of both located states through the generic X-state route.
    """

    name = "search"
    ops_per_unit = 1
    host_reference = True
    # each problem runs three times and counts its fastest run: an operation
    # takes a few ms, and a stall of the shared host inside one run set the
    # tail.
    # Both runs get the same inputs, so a result cache in the program would
    # serve the second; such a change needs a workload of its own.
    repeats = 3

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.accepted = 0
        self.replaced_edge = 0
        self.replaced_no_transition = 0

    def describe(self) -> str:
        return ("one op is one problem: 24-point coarse sweep, find_peak along "
                "boundary-distance, find_transition along separation, certification")

    def _draw(self, rng: random.Random, index: int) -> Problem:
        wa = rng.uniform(0.0, SEARCH_OMEGA_A_MAX)
        pair = ms.DetectorPair(wa, rng.uniform(wa, SEARCH_OMEGA_B_MAX))
        alignment = rng.choice(("parallel", "orthogonal"))
        geom = ms.BoundaryGeometry(alignment, rng.uniform(*SEARCH_SEPARATION),
                                   rng.uniform(*SEARCH_DISTANCE))
        return Problem(index, pair, geom, rng.choice(("sab", "sba")))

    def _usable(self, p: Problem) -> bool:
        """Whether the coarse maximum is interior and strict, and the
        separation bracket straddles a transition.  Problems failing either
        are replaced, so that no operation is refused by the program."""
        column = OBJECTIVE_COLUMN[p.objective]
        bracket = _coarse_bracket(p)
        if bracket is None:
            self.replaced_edge += 1
            return False
        lo, hi = bracket

        # find_peak refuses a bracket whose midpoint does not dominate
        def at(dz):
            return _steering(p.pair, dataclasses.replace(p.geom, boundary_distance=dz), column)

        f_mid = at(0.5 * (lo + hi))
        if not (f_mid > at(lo) and f_mid > at(hi)):
            self.replaced_edge += 1
            return False
        near = _steering(p.pair, p.geom, column) > 0.0
        far = _steering(p.pair, dataclasses.replace(p.geom, separation=FAR_SEPARATION), column) > 0.0
        if near == far:
            self.replaced_no_transition += 1
            return False
        return True

    def units(self):
        rng = random.Random(self.seed)
        index = 0
        while True:
            p = self._draw(rng, index)
            if self._usable(p):
                self.accepted += 1
                yield p
                index += 1

    def warm_up(self) -> None:
        rng = random.Random(f"warm-up:{self.seed}")
        p = self._draw(rng, -1)
        while not self._usable(p):
            p = self._draw(rng, -1)
        self.accepted = self.replaced_edge = self.replaced_no_transition = 0
        self.run(p)

    @staticmethod
    def _certify(pair, geom):
        state = ms.joint_state(pair, geom)
        res = ms.steering_asymmetry(state)
        return (res.s_ab, res.s_ba,
                ms.concurrence(ms.build_tau_ab(state)),
                ms.concurrence(ms.build_tau_ba(state)))

    def run(self, p: Problem):
        start = time.perf_counter()
        bracket = _coarse_bracket(p)
        peak = ms.find_peak(p.pair, p.geom, "boundary-distance", bracket, p.objective)
        transition = ms.find_transition(
            p.pair, p.geom, "separation", (p.geom.separation, FAR_SEPARATION),
            OBJECTIVE_DIRECTION[p.objective],
        )
        peak_geom = dataclasses.replace(p.geom, boundary_distance=peak.location)
        transition_geom = dataclasses.replace(p.geom, separation=transition.location)
        certs = (self._certify(p.pair, peak_geom), self._certify(p.pair, transition_geom))
        end = time.perf_counter()
        return [end - start], (bracket, peak, transition, certs)

    def check(self, p: Problem, output) -> list[str]:
        bracket, peak, transition, certs = output
        column = OBJECTIVE_COLUMN[p.objective]
        errors = []
        if not bracket[0] <= peak.location <= bracket[1]:
            errors.append(f"problem {p.index}: peak {peak.location} outside {bracket}")
        peak_geom = dataclasses.replace(p.geom, boundary_distance=peak.location)
        if not _close(peak.value, _generic(p.pair, peak_geom)[column]):
            errors.append(f"problem {p.index}: peak value {peak.value!r} "
                          "disagrees with the generic route")
        for s_ab, s_ba, c_tau_ab, c_tau_ba in certs:
            if not (_close(c_tau_ab, CERT_FACTOR * s_ba)
                    and _close(c_tau_ba, CERT_FACTOR * s_ab)):
                errors.append(f"problem {p.index}: certification fails "
                              f"({c_tau_ab!r}, {c_tau_ba!r}) vs ({s_ba!r}, {s_ab!r})")
        live = [
            _generic(p.pair, dataclasses.replace(p.geom, separation=l))[column] > 0.0
            for l in (transition.location - REFINE_TOL, transition.location + REFINE_TOL)
        ]
        if live[0] == live[1]:
            errors.append(f"problem {p.index}: no transition across "
                          f"{transition.location} +- {REFINE_TOL}")
        return errors


WORKLOADS = {"figures": Figures, "verify": Verify, "search": Search}

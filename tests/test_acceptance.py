"""Acceptance gate: one test per criterion, one pass/fail line each.

Criteria 2, 7 and 8 contain clauses whose stated tolerances are not
attainable by the model itself (the image-term corrections decay only
algebraically, and the exchange coherence keeps the A-to-B direction
alive at large gaps).  Those tests assert the stated numbers faithfully
and are expected to fail; the failure messages carry the measured
magnitudes.  See README.md for the analysis, whose two explanations (the
1/dz² image tail, and the exchange coherence outgrowing its threshold) are
pinned by tests of their own after criterion 08.
"""

import cmath
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import erf_maclaurin, observe, random_x_entries, random_x_state
from mirrorsteer.cli import VERIFY_GRID_DEFAULT
from mirrorsteer.detector_model import (
    Alignment,
    BoundaryGeometry,
    DetectorPair,
    boundary_free_correlations,
    boundary_free_steering,
    config_difference,
    correlations,
    harvested_steering,
    steering_from_block,
    transition_probability,
)
from mirrorsteer.integral_oracle import numeric_correlations
from mirrorsteer.special_functions import erf_complex
from mirrorsteer.sweep_optimize import (
    Direction,
    Objective,
    SweepAxis,
    SweepVariable,
    TransitionKind,
    find_peak,
    find_transition,
    figure_dataset,
    sweep,
)
from mirrorsteer.xstate_steering import (
    _ARRAYS,
    _W_MINUS,
    _W_PLUS,
    XState,
    _tau_ab,
    _tau_ba,
    steering_a_to_b,
    steering_b_to_a,
)


def _finish(num: int, slug: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = f" ({'; '.join(failures)})" if failures else ""
    print(f"criterion {num:02d} [{slug}]: {status}{detail}")
    assert not failures, f"criterion {num:02d} unmet: " + "; ".join(failures)


def _rel(a, b) -> float:
    return abs(a - b) / abs(b)


def test_criterion_01_oracle_equivalence_grid():
    # closed-form P_A, P_B, C, X against the epsilon-extrapolated
    # double-integral oracle, 10 configurations x 2 alignments, 1e-3
    # relative, under two minutes
    started = time.perf_counter()
    failures = []
    worst = 0.0
    for omega_a, omega_b, separation, distance in VERIFY_GRID_DEFAULT:
        pair = DetectorPair(omega_a, omega_b)
        for alignment in (Alignment.PARALLEL, Alignment.ORTHOGONAL):
            geom = BoundaryGeometry(alignment, separation, distance)
            block = correlations(pair, geom)
            oracle = numeric_correlations(pair, geom)
            for name in ("p_a", "p_b", "c", "x"):
                dev = _rel(getattr(block, name), getattr(oracle, name))
                worst = max(worst, dev)
                if dev > 1e-3:
                    failures.append(
                        f"{name} deviates {dev:.2e} at "
                        f"{alignment.value} {omega_a}/{omega_b}/{separation}/{distance}"
                    )
    elapsed = time.perf_counter() - started
    if elapsed > 120.0:
        failures.append(f"grid took {elapsed:.1f}s, budget 120s")
    print(f"oracle grid: worst deviation {worst:.2e}, elapsed {elapsed:.1f}s")
    _finish(1, "oracle-equivalence", failures)


def test_criterion_02_limit_suite():
    failures = []
    # (a) boundary suppression of the transition probability
    for omega in (0.0, 0.1, 1.0):
        p = transition_probability(omega, 1e-4)
        if p > 1e-7:
            failures.append(f"P({omega}, 1e-4) = {p:.3e} > 1e-7")

    # (b) agreement with boundary-free formulas at dz = 8; the image
    # corrections decay like 1/dz^2, so the true gaps sit near 6e-4
    pair = DetectorPair(0.1, 0.1)
    free = boundary_free_correlations(pair, 1.0)
    for alignment in (Alignment.PARALLEL, Alignment.ORTHOGONAL):
        block = correlations(pair, BoundaryGeometry(alignment, 1.0, 8.0))
        gaps = {
            "p_a": abs(block.p_a - free.p_a),
            "p_b": abs(block.p_b - free.p_b),
            "c": abs(block.c - free.c),
            "x": abs(block.x - free.x),
        }
        for name, gap in gaps.items():
            if gap > 1e-9:
                failures.append(
                    f"{alignment.value} {name} gap to boundary-free at dz=8 "
                    f"is {gap:.3e} > 1e-9"
                )

    # (c) alignment agreement at L = 1e-3; the image separations still
    # differ at second order in L, leaving gaps of a few 1e-5
    geom_par = BoundaryGeometry(Alignment.PARALLEL, 1e-3, 1.0)
    geom_ort = BoundaryGeometry(Alignment.ORTHOGONAL, 1e-3, 1.0)
    par = correlations(pair, geom_par)
    ort = correlations(pair, geom_ort)
    for name, a, b in (
        ("p_b", par.p_b, ort.p_b),
        ("c", par.c, ort.c),
        ("x", par.x, ort.x),
    ):
        gap = abs(a - b)
        if gap > 1e-8:
            failures.append(f"alignment {name} gap at L=1e-3 is {gap:.3e} > 1e-8")
    _finish(2, "limit-suite", failures)


def test_criterion_03_symmetry_suite():
    failures = []
    # identical detectors, parallel alignment: both directions agree exactly
    for omega in (0.0, 0.1, 1.0):
        pair = DetectorPair(omega, omega)
        for separation in (0.3, 0.845, 2.0):
            for distance in (0.5, 1.0):
                geom = BoundaryGeometry(Alignment.PARALLEL, separation, distance)
                res = harvested_steering(pair, geom)
                if res.s_ab != res.s_ba:
                    failures.append(
                        f"s_ab != s_ba at omega={omega} L={separation} dz={distance}"
                    )

    # equal middle populations kill the asymmetry for any X-state
    rng = np.random.default_rng(4)
    for _ in range(1000):
        d11, mid, d44 = rng.dirichlet((1.0, 1.0, 1.0))
        d22 = d33 = mid / 2.0
        c14 = math.sqrt(d11 * d44) * rng.uniform(0, 1) * cmath.exp(2j * math.pi * rng.uniform())
        c23 = math.sqrt(d22 * d33) * rng.uniform(0, 1) * cmath.exp(2j * math.pi * rng.uniform())
        state = XState(d11, d22, d33, d44, c14, c23)
        if steering_a_to_b(state) != steering_b_to_a(state):
            failures.append(f"asymmetry nonzero for equal middle populations: {state}")
            break
    _finish(3, "symmetry-suite", failures)


def test_criterion_04_certification_equivalence():
    # steering positive exactly when the matching tau-matrix is entangled;
    # the states, and then each tau map of them, are one array pass each
    rng = np.random.default_rng(11)
    band = 1e-12
    draws = (random_x_entries(rng) for _ in range(100_000))
    entries = [np.array(column) for column in zip(*draws)]
    (_, _, s_ab, s_ba, *_), ok = observe(_ARRAYS, *entries)
    assert ok.all()
    state = SimpleNamespace(**dict(zip(("d11", "d22", "d33", "d44", "c14", "c23"), entries)))
    mismatches = 0
    for tau, steering in ((_tau_ab, s_ba), (_tau_ba, s_ab)):
        tau_columns, tau_ok = observe(_ARRAYS, *tau(_ARRAYS, state))
        # every tau operator is an X-state that XState accepts
        assert tau_ok.all()
        concurrence = tau_columns[5]
        mismatches += int(np.count_nonzero((steering > band) != (concurrence > band)))
    failures = [] if mismatches == 0 else [f"{mismatches} certification mismatches"]
    _finish(4, "certification-equivalence", failures)


def test_criterion_05_separation_sweep_trends():
    failures = []
    pair = DetectorPair(0.1, 0.1)
    geom = BoundaryGeometry(Alignment.PARALLEL, 1.0, 1.0)
    table = sweep(pair, geom, SweepAxis(SweepVariable.SEPARATION, 0.05, 3.0, 150))
    vals = table.column("s_ba")
    if not all(b <= a + 1e-15 for a, b in zip(vals, vals[1:])):
        failures.append("identical-detector steering not monotone in L")
    death = find_transition(
        pair, geom, SweepVariable.SEPARATION, (0.1, 2.0), Direction.B_TO_A
    )
    if death.kind is not TransitionKind.SUDDEN_DEATH or not 0.1 < death.location < 3.0:
        failures.append("no finite sudden-death point for identical detectors")

    wide = DetectorPair(0.1, 0.3)
    death_ab = find_transition(
        wide, geom, SweepVariable.SEPARATION, (0.1, 2.0), Direction.A_TO_B
    )
    death_ba = find_transition(
        wide, geom, SweepVariable.SEPARATION, (0.1, 2.0), Direction.B_TO_A
    )
    if not death_ab.location > death_ba.location:
        failures.append(
            f"s_ab death {death_ab.location:.4f} does not exceed "
            f"s_ba death {death_ba.location:.4f}"
        )
    print(
        f"death points: identical {death.location:.4f}, "
        f"gapped ab {death_ab.location:.4f} > ba {death_ba.location:.4f}"
    )
    _finish(5, "separation-sweep-trends", failures)


def test_criterion_06_orthogonal_direction_ordering():
    pair = DetectorPair(0.1, 0.1)
    geom = BoundaryGeometry(Alignment.ORTHOGONAL, 1.0, 1.0)
    table = sweep(pair, geom, SweepAxis(SweepVariable.SEPARATION, 0.05, 6.0, 200))
    failures = [
        f"s_ab > s_ba at L = {l:.4f}"
        for l, s_ab, s_ba in zip(*map(table.column, ("axis", "s_ab", "s_ba")))
        if s_ab > s_ba
    ]
    _finish(6, "orthogonal-direction-ordering", failures)


def test_criterion_07_mirror_distance_trends():
    failures = []
    pair = DetectorPair(0.1, 0.1)
    geom = BoundaryGeometry(Alignment.PARALLEL, 0.05, 1.0)
    axis = SweepAxis(SweepVariable.BOUNDARY_DISTANCE, 1e-4, 8.0, 300)
    table = sweep(pair, geom, axis)
    vals = table.column("s_ba")
    free = boundary_free_steering(pair, 0.05).s_ba

    peak = max(vals)
    if not vals[0] < 0.01 * peak:
        failures.append(f"sweep starts at {vals[0]:.3e}, not near zero")
    i_peak = vals.index(peak)
    if not (0 < i_peak < len(vals) - 1 and peak > free):
        failures.append("no interior peak above the boundary-free asymptote")
    end_gap = abs(vals[-1] - free)
    if end_gap > 1e-4:
        failures.append(
            f"gap to boundary-free value at dz=8 is {end_gap:.3e} > 1e-4 "
            f"(the image correction decays like 1/dz^2)"
        )

    # with distinct gaps the two directions peak at different distances;
    # between the peaks s_ba is already falling while s_ab still rises
    wide = DetectorPair(0.1, 0.5)
    coarse = sweep(wide, geom, SweepAxis(SweepVariable.BOUNDARY_DISTANCE, 0.2, 3.0, 120))
    grid = coarse.column("axis")
    i_ba = max(range(len(grid)), key=coarse.column("s_ba").__getitem__)
    i_ab = max(range(len(grid)), key=coarse.column("s_ab").__getitem__)
    peak_ba = find_peak(
        wide, geom, SweepVariable.BOUNDARY_DISTANCE,
        (grid[i_ba - 1], grid[i_ba + 1]), Objective.S_BA,
    )
    peak_ab = find_peak(
        wide, geom, SweepVariable.BOUNDARY_DISTANCE,
        (grid[i_ab - 1], grid[i_ab + 1]), Objective.S_AB,
    )
    if not peak_ba.location < peak_ab.location:
        failures.append("direction peaks are not ordered")
    else:
        lo = peak_ba.location + 1e-3
        hi = peak_ab.location - 1e-3
        window = np.linspace(lo, hi, 25)
        rows = [
            harvested_steering(wide, BoundaryGeometry(Alignment.PARALLEL, 0.05, d))
            for d in window
        ]
        if not all(b.s_ba < a.s_ba for a, b in zip(rows, rows[1:])):
            failures.append("s_ba not decreasing between the peaks")
        if not all(b.s_ab > a.s_ab for a, b in zip(rows, rows[1:])):
            failures.append("s_ab not increasing between the peaks")
    print(
        f"peak {peak:.6f} vs free {free:.6f}; end gap {end_gap:.3e}; "
        f"window ({peak_ba.location:.4f}, {peak_ab.location:.4f})"
    )
    _finish(7, "mirror-distance-trends", failures)


def test_criterion_08_gap_sweep_trends():
    failures = []
    pair = DetectorPair(0.1, 0.1)

    # small separation: the asymmetry rises to an interior peak, then decays
    near = BoundaryGeometry(Alignment.PARALLEL, 0.05, 1.0)
    table = sweep(pair, near, SweepAxis(SweepVariable.OMEGA_B, 0.1, 6.0, 250))
    asym = table.column("asymmetry")
    peak = max(asym)
    i_peak = asym.index(peak)
    if not (0 < i_peak < len(asym) - 1 and peak > 0.0):
        failures.append("asymmetry has no interior maximum at small L")
    if not asym[-1] < 0.1 * peak:
        failures.append("asymmetry does not decay after its peak")

    # large separation: only A-to-B steering ever appears
    far = BoundaryGeometry(Alignment.PARALLEL, 2.0, 1.0)
    table = sweep(pair, far, SweepAxis(SweepVariable.OMEGA_B, 0.1, 6.0, 250))
    if any(s != 0.0 for s in table.column("s_ba")):
        failures.append("s_ba not identically zero at large L")
    alive = [s > 0.0 for s in table.column("s_ab")]
    if not (not alive[0] and any(alive)):
        failures.append("s_ab shows no sudden birth at large L")
    else:
        birth = alive.index(True)
        if all(alive[birth:]):
            tail = table.column("s_ab")[-1]
            failures.append(
                f"s_ab never dies after its birth: still {tail:.3e} at the "
                f"gap sweep end (the exchange coherence outlives the "
                f"population threshold)"
            )
    _finish(8, "gap-sweep-trends", failures)


# The explanations README gives for the clauses of criteria 02, 07 and 08
# that fail by design, each pinned as it is stated there.


@pytest.mark.parametrize("alignment", list(Alignment))
def test_by_design_image_correction_decays_like_inverse_dz_squared(alignment):
    # dz² times each entry's distance from its boundary-free value settles
    # to a constant: the correction is algebraic in dz, not exponential
    pair = DetectorPair(0.1, 0.3)
    free = boundary_free_correlations(pair, 0.5)
    scaled = {}
    for dz in (128.0, 256.0):
        block = correlations(pair, BoundaryGeometry(alignment, 0.5, dz))
        scaled[dz] = [dz * dz * (block.p_a - free.p_a),
                      dz * dz * (abs(block.c) - abs(free.c)),
                      dz * dz * (abs(block.x) - abs(free.x))]
    for name, near, far in zip(("p_a", "|c|", "|x|"), scaled[128.0], scaled[256.0]):
        assert near != 0.0
        assert abs(far / near - 1.0) < 5e-3, (name, near, far)


def test_by_design_exchange_coherence_outgrows_its_threshold():
    # on fig6's parallel L = 2 curve |X| = |c14| against the A->B threshold
    # sqrt(g_a + g_b), whose populations decay faster in omega_b: the ratio
    # grows without a break, so S(A->B) never dies
    table = figure_dataset("fig6")["parallel L=2.00"]
    ratios = []
    for omega_b, p_a, p_b, abs_x, s_ab in zip(
        *map(table.column, ("axis", "p_a", "p_b", "abs_x", "s_ab"))
    ):
        if 3.0 <= omega_b <= 6.0:
            d11, d22, d33, d44 = 1.0 - p_a - p_b, p_b, p_a, 0.0
            g_sum = _W_MINUS * d11 * d44 + _W_PLUS * d22 * d33 + (d11 * d22 + d33 * d44) / 2.0
            ratios.append(abs_x / math.sqrt(g_sum))
            assert s_ab > 0.0, omega_b
    assert len(ratios) > 50
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] > 10.0 and ratios[-1] > 1e4


def test_criterion_09_alignment_difference_trends():
    failures = []
    diff = figure_dataset("fig7", resolution=200)["difference"]
    d_ab = diff.column("delta_s_ab")
    d_ba = diff.column("delta_s_ba")

    # the table is the difference of the two sweeps; the second route
    # evaluates each alignment afresh at every axis value
    pair = DetectorPair(omega_a=0.1, omega_b=0.1)
    worst = 0.0
    for l, delta_ab, delta_ba in zip(diff.column("axis"), d_ab, d_ba):
        direct_ab, direct_ba = config_difference(pair, l, 1.0)
        worst = max(
            worst,
            abs(delta_ab - direct_ab),
            abs(delta_ba - direct_ba),
        )
    if worst > 1e-12:
        failures.append(f"two evaluation routes disagree by {worst:.2e}")

    if not (d_ba[0] > 0.0 and min(d_ba) >= -1e-15 and d_ba[-1] == 0.0):
        failures.append("delta s_ba is not a nonnegative bump decaying to zero")
    if not (d_ab[0] < 0.0 and max(d_ab) <= 1e-15 and d_ab[-1] == 0.0):
        failures.append("delta s_ab is not a nonpositive dip returning to zero")
    _finish(9, "alignment-difference-trends", failures)


def test_criterion_10_kernel_accuracy():
    failures = []
    worst = 0.0
    for radius in (0.1, 0.5, 1.0, 1.7, 2.4, 3.0):
        for k in range(24):
            z = radius * cmath.exp(2j * math.pi * k / 24)
            dev = _rel(erf_complex(z), erf_maclaurin(z))
            worst = max(worst, dev)
    if worst > 1e-12:
        failures.append(f"series deviation {worst:.2e} > 1e-12")

    rng = np.random.default_rng(7)
    for _ in range(10_000):
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        w = erf_complex(z)
        if abs(w + erf_complex(-z)) > 1e-14 * max(1.0, abs(w)):
            failures.append(f"oddness violated at {z}")
            break
        if abs(w.conjugate() - erf_complex(z.conjugate())) > 1e-14 * max(1.0, abs(w)):
            failures.append(f"conjugation violated at {z}")
            break
    print(f"kernel: worst series deviation {worst:.2e}")
    _finish(10, "kernel-accuracy", failures)

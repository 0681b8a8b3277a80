"""Tests for the brute-force response integrals.

The oracle is validated against exactly solvable limits (rational
two-point values, the zero-gap free-space probability) and against its
own internal consistency checks (reduction identity, node doubling,
determinism); its agreement with the closed forms is exercised here at
single points and over the full grid in the acceptance suite.
"""

import functools
import gc
import math
import weakref

import mpmath
import numpy as np
import pytest

from mirrorsteer.detector_model import (
    Alignment,
    BoundaryGeometry,
    DetectorPair,
    boundary_free_correlations,
    correlations,
    transition_probability,
)
from mirrorsteer.cli import VERIFY_GRID_DEFAULT, VERIFY_GRID_SMOKE
from mirrorsteer.errors import ConvergenceError, ValidationError
from mirrorsteer import integral_oracle
from mirrorsteer.integral_oracle import (
    extrapolate_epsilon,
    numeric_c,
    numeric_correlation_blocks,
    numeric_correlations,
    numeric_probability,
    numeric_x,
    _distances,
    _panel_edges,
    _panel_rule,
    _regulated_values,
    _sbar_rows,
    _two_point,
    _u_meshes,
)

PAIR = DetectorPair(omega_a=0.1, omega_b=0.1)
GEOM_PAR = BoundaryGeometry(Alignment.PARALLEL, separation=1.0, boundary_distance=1.0)


def u_mesh(spatial, image, eps):
    """One regulator's u mesh on its own: the rule on its own panels, which
    the oracle's union of the schedule's panels must reproduce."""
    edges = _panel_edges((0.0, spatial, image), eps, 2.0 * integral_oracle.TRUNCATION)
    u, w = _panel_rule(edges[:-1], edges[1:])
    return u.ravel(), w.ravel()


# order of the reference rule's single Gauss-Legendre sum over each sbar
# section, independent of the oracle's panel order
FULL_RULE_NODES = 400


@functools.cache
def gauss_legendre(order):
    """The ``order``-point Gauss-Legendre nodes and weights on [-1, 1], from
    ``leggauss``: the rules the oracle does not store."""
    return np.polynomial.legendre.leggauss(order)


@pytest.fixture
def panel_order(monkeypatch):
    """A setter of the oracle's panel order: at any order but its own,
    :data:`NODES` and the rule's arrays are patched together."""

    def set_order(order):
        if order != integral_oracle.NODES:
            x, w = gauss_legendre(order)
            monkeypatch.setattr(integral_oracle, "NODES", order)
            monkeypatch.setattr(integral_oracle, "_LEGENDRE_X", x)
            monkeypatch.setattr(integral_oracle, "_LEGENDRE_W", w)

    return set_order


def full_rule(omega_a, omega_b, spatial, image, eps, time_ordered):
    """One regulated quadrature of the response integral with the complex
    phase, each sbar row its own FULL_RULE_NODES-point sum over [-h, h]:
    the reference the oracle's composite, shared rows must reproduce.
    Reads the regulator's u mesh (u_mesh) at call time."""
    beta = omega_a - omega_b
    alpha = (omega_a + omega_b) / 2.0
    u, uw = u_mesh(spatial, image, eps)
    warg = -np.abs(u) if time_ordered else u
    ku = (
        np.exp(-(u**2) / 4.0)
        * np.exp(-1j * alpha * u)
        * _two_point(warg, spatial, image, eps)
        * uw
    )
    xs, ws = gauss_legendre(FULL_RULE_NODES)
    h = np.maximum(integral_oracle.TRUNCATION - np.abs(u) / 2.0, 0.0)
    sb = h[:, None] * xs[None, :]
    srow = np.exp(-(sb**2)) * np.exp(-1j * beta * sb) @ ws * h
    return complex(np.sum(ku * srow))


def default_grid_cases():
    """The default ``verify`` grid's cases, in the command's order."""
    return [
        (DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, l, dz))
        for omega_a, omega_b, l, dz in VERIFY_GRID_DEFAULT
        for alignment in (Alignment.PARALLEL, Alignment.ORTHOGONAL)
    ]


def block_bits(block):
    """Every field of a correlation block as float.hex strings."""
    return [
        float(part).hex()
        for name in ("p_a", "p_b", "c", "x")
        for part in (complex(getattr(block, name)).real, complex(getattr(block, name)).imag)
    ]


def reduced_integral(omega_a, omega_b, spatial, image, time_ordered):
    """The oracle's response integral with the sbar integral done
    analytically over the whole real line instead of by quadrature over
    the diamond section. For static detectors the sbar dependence is a
    pure Gaussian times a phase, and the window beyond |sbar| = T - |u|/2
    is below 1e-14, so the two must agree."""
    beta = omega_a - omega_b
    alpha = (omega_a + omega_b) / 2.0
    values = []
    for eps in integral_oracle.EPSILONS:
        u, uw = u_mesh(spatial, image, eps)
        warg = -np.abs(u) if time_ordered else u
        ku = (
            np.exp(-(u**2) / 4.0)
            * np.exp(-1j * alpha * u)
            * _two_point(warg, spatial, image, eps)
            * uw
        )
        sbar = math.sqrt(math.pi) * math.exp(-beta * beta / 4.0)
        values.append((eps, sbar * complex(np.sum(ku))))
    limit, _ = extrapolate_epsilon(values)
    return limit


class TestWightman:
    def test_rational_point(self):
        # dt=1, spatial=2, image=3: limit -(1/4pi^2)(1/(1-4) - 1/(1-9))
        # = 5/(96 pi^2)
        got = _two_point(1.0, 2.0, 3.0, 1e-8)
        assert got.real == pytest.approx(5.0 / (96.0 * math.pi**2), rel=1e-6)
        assert got.real == pytest.approx(0.005277144981371759, rel=1e-6)
        assert abs(got.imag) < 1e-8

    def test_time_reversal_conjugates(self):
        a = _two_point(0.7, 1.0, 2.0, 0.01)
        b = _two_point(-0.7, 1.0, 2.0, 0.01)
        assert b == a.conjugate()

    def test_lightcone_enhancement(self):
        on = _two_point(2.0, 2.0, 5.0, 1e-4)
        off = _two_point(3.5, 2.0, 5.0, 1e-4)
        assert abs(on) > 100.0 * abs(off)

    def test_image_subtraction_kills_zero_separation(self):
        # identical direct and image distances cancel exactly
        w = _two_point(0.5, 1.0, 1.0, 0.01)
        assert w == 0j


class TestExtrapolateEpsilon:
    def test_exact_line(self):
        values = [(e, 3.0 + 2.0 * e) for e in (0.02, 0.01, 0.005)]
        limit, estimate = extrapolate_epsilon(values)
        assert limit == pytest.approx(3.0, abs=1e-14)
        assert estimate < 1e-13

    def test_complex_line(self):
        values = [(e, complex(1.0 - e, 0.5 + 3.0 * e)) for e in (0.04, 0.02, 0.01)]
        limit, _ = extrapolate_epsilon(values)
        assert limit == pytest.approx(1.0 + 0.5j, abs=1e-14)

    def test_quadratic_model_is_recovered(self):
        # three points fit the quadratic exactly; the error estimate is
        # the last-two-point linear extrapolant's miss, ~|c| e2 e3
        c = 10.0
        values = [(e, 1.0 - 0.5 * e + c * e * e) for e in (0.02, 0.01, 0.005)]
        limit, estimate = extrapolate_epsilon(values)
        assert limit == pytest.approx(1.0, abs=1e-13)
        assert estimate == pytest.approx(c * 0.01 * 0.005, rel=0.5)

    def test_requires_three_entries(self):
        with pytest.raises(ValidationError):
            extrapolate_epsilon([(0.02, 1.0), (0.01, 1.1)])

    def test_requires_decreasing_epsilons(self):
        with pytest.raises(ValidationError):
            extrapolate_epsilon([(0.01, 1.0), (0.02, 1.1), (0.005, 1.2)])

    @pytest.mark.parametrize(
        "epsilons",
        [(math.inf, 0.01, 0.005), (0.02, math.nan, 0.005), (math.nan,) * 3,
         (0.02, 0.01, math.nan)],
    )
    def test_refuses_non_finite_epsilons(self, epsilons):
        # an infinite first epsilon passed with a zero error estimate, and
        # nan passed every comparison
        with pytest.raises(ValidationError, match="epsilons must be finite"):
            extrapolate_epsilon([(e, 1.0) for e in epsilons])

    def test_keeps_the_ordering_message(self):
        with pytest.raises(ValidationError, match="positive and strictly decreasing"):
            extrapolate_epsilon([(math.nan, 1.0), (-0.01, 1.0), (0.005, 1.0)])

    def test_warns_on_nonmonotone_values(self):
        with pytest.warns(UserWarning, match="monotonically"):
            extrapolate_epsilon([(0.02, 1.0), (0.01, 1.5), (0.005, 0.7)])


class TestNumericProbability:
    def test_zero_gap_far_boundary_analytic_value(self):
        # at dz = 80 the boundary correction is ~1e-8, so the zero-gap
        # free-space value 1/4pi is reproduced to better than 1e-4
        got = numeric_probability(0.0, 80.0)
        assert got == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-4)

    def test_moderate_boundary_distance_is_not_free_space(self):
        # at dz = 8 the 1/dz^2 boundary tail is still ~0.8% of the value:
        # the integral matches the closed form, not the free-space limit
        got = numeric_probability(0.0, 8.0)
        assert got == pytest.approx(transition_probability(0.0, 8.0), rel=1e-3)
        rel_gap_to_free = abs(got - 1.0 / (4.0 * math.pi)) * 4.0 * math.pi
        assert 5e-3 < rel_gap_to_free < 1e-2

    def test_matches_closed_form(self):
        assert numeric_probability(0.1, 1.0) == pytest.approx(
            transition_probability(0.1, 1.0), rel=1e-3
        )
        assert numeric_probability(1.0, 0.5) == pytest.approx(
            transition_probability(1.0, 0.5), rel=1e-3
        )

    def test_reduction_identity(self):
        full = numeric_probability(0.1, 1.0)
        red = reduced_integral(0.1, 0.1, 0.0, 2.0, time_ordered=False)
        assert red.real == pytest.approx(full, rel=1e-6)

    def test_node_doubling_stable(self, panel_order):
        base = numeric_probability(0.1, 1.0)
        panel_order(2 * integral_oracle.NODES)
        fine = numeric_probability(0.1, 1.0)
        assert fine == pytest.approx(base, rel=1e-6)

    def test_deterministic(self):
        a = numeric_probability(0.3, 0.7)
        b = numeric_probability(0.3, 0.7)
        assert a == b

    def test_coupling_scaling(self):
        # every entry of the leading-order block carries lambda^2
        base = numeric_correlations(PAIR, GEOM_PAR)
        strong = numeric_correlations(DetectorPair(0.1, 0.1, coupling=2.0), GEOM_PAR)
        for name in ("p_a", "p_b", "c", "x"):
            ratio = getattr(strong, name) / getattr(base, name)
            assert abs(ratio - 4.0) <= 1e-12, name

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(integral_oracle, "RTOL", 1e-9)
        with pytest.raises(ConvergenceError):
            numeric_correlations(PAIR, GEOM_PAR)

    def test_small_probability_at_large_gap(self):
        # P ~ 1e-7 here: the imaginary residue of the sum, ~1e-15, is
        # rounding noise below the extrapolation error estimate
        got = numeric_probability(2.5, 0.3)
        assert got == pytest.approx(transition_probability(2.5, 0.3), rel=1e-6)

    def test_imaginary_residue_raises(self, monkeypatch):
        real_quadrature = integral_oracle._regulated_values

        def with_residue(*args):
            return real_quadrature(*args) * (1.0 + 1e-3j)

        monkeypatch.setattr(integral_oracle, "_regulated_values", with_residue)
        with pytest.raises(ConvergenceError, match="imaginary residue"):
            numeric_probability(0.1, 1.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            numeric_probability(-0.1, 1.0)
        with pytest.raises(ValidationError):
            numeric_probability(0.1, 0.0)


class TestNonFiniteExtrapolation:
    """A nan fails every comparison, so the convergence gate must refuse it
    explicitly: at a gap of 8e307 the quadrature overflows."""

    PAIR_HUGE = DetectorPair(8e307, 8e307)
    MATCH = "epsilon extrapolation is not finite"

    def test_probability(self):
        with pytest.raises(ConvergenceError, match=self.MATCH):
            numeric_probability(8e307, 1.0)

    @pytest.mark.parametrize("integral", [numeric_c, numeric_x, numeric_correlations])
    def test_correlations(self, integral):
        with pytest.raises(ConvergenceError, match=self.MATCH):
            integral(self.PAIR_HUGE, GEOM_PAR)


class TestNumericC:
    def test_matches_closed_form_parallel(self):
        got = numeric_c(PAIR, GEOM_PAR)
        want = correlations(PAIR, GEOM_PAR).c
        assert abs(got - want) <= 1e-3 * abs(want)

    def test_imaginary_part_vanishes(self):
        got = numeric_c(PAIR, GEOM_PAR)
        assert abs(got.imag) <= 1e-6 * abs(got)

    def test_large_gap_difference_suppressed(self):
        pair = DetectorPair(omega_a=0.0, omega_b=10.0)
        assert abs(numeric_c(pair, GEOM_PAR)) < 1e-8

    def test_far_boundary_keeps_algebraic_tail(self):
        # the image contribution decays like 1/dz^2, so at dz = 8 the
        # boundary-free value is still missed by ~1e-2 relative
        free_c = boundary_free_correlations(PAIR, 1.0).c
        at8 = numeric_c(PAIR, BoundaryGeometry(Alignment.PARALLEL, 1.0, 8.0))
        rel8 = abs(at8 - free_c) / abs(free_c)
        assert 5e-3 < rel8 < 5e-2
        at30 = numeric_c(PAIR, BoundaryGeometry(Alignment.PARALLEL, 1.0, 30.0))
        assert abs(at30 - free_c) / abs(free_c) < 1e-3

    def test_unreachable_tolerance_raises(self, monkeypatch):
        # the message names the fixed tolerance the schedule missed
        monkeypatch.setattr(integral_oracle, "RTOL", 1e-12)
        with pytest.raises(ConvergenceError, match="does not reach RTOL = 1e-12"):
            numeric_correlations(PAIR, GEOM_PAR)


class TestNumericX:
    def test_matches_closed_form_parallel(self):
        got = numeric_x(PAIR, GEOM_PAR)
        want = correlations(PAIR, GEOM_PAR).x
        assert abs(got - want) <= 1e-3 * abs(want)

    def test_matches_closed_form_orthogonal(self):
        geom = BoundaryGeometry(Alignment.ORTHOGONAL, 1.0, 1.0)
        got = numeric_x(PAIR, geom)
        want = correlations(PAIR, geom).x
        assert abs(got - want) <= 1e-3 * abs(want)

    def test_relabeling_symmetry(self):
        # exchanging the detector labels flips the sign of the u phase
        # only; the time-ordered integrand is even in u, so the value is
        # unchanged
        at = integral_oracle.EPSILONS.index(0.01)
        a, b = _regulated_values([(0.3, -0.7, True), (0.7, -0.3, True)], 1.0, 3.0)[:, at]
        assert abs(a - b) <= 1e-8 * abs(a)

    def test_reduction_identity(self):
        full = numeric_x(PAIR, GEOM_PAR)
        spatial, image, _ = _distances(GEOM_PAR)
        red = -reduced_integral(0.1, -0.1, spatial, image, time_ordered=True)
        assert abs(red - full) <= 1e-6 * abs(full)

    def test_node_doubling_stable(self, panel_order):
        base = numeric_x(PAIR, GEOM_PAR)
        panel_order(2 * integral_oracle.NODES)
        fine = numeric_x(PAIR, GEOM_PAR)
        assert abs(fine - base) <= 1e-6 * abs(base)

    def test_deterministic(self):
        geom = BoundaryGeometry(Alignment.ORTHOGONAL, 0.5, 0.8)
        assert numeric_x(PAIR, geom) == numeric_x(PAIR, geom)


class TestNumericCorrelations:
    @pytest.mark.parametrize("alignment", list(Alignment))
    def test_independent_of_closed_form_geometry(self, alignment, monkeypatch):
        # the oracle derives every distance itself: with the closed-form
        # geometry helpers disabled it still reproduces the closed forms
        pair = DetectorPair(0.1, 1.0)
        geom = BoundaryGeometry(alignment, 1.0, 2.0)
        want = correlations(pair, geom)

        def disabled(self):
            raise AssertionError("closed-form geometry used")

        # the closed forms' image separation and distance of B; a property
        # shadows the instance's own attribute
        monkeypatch.setattr(BoundaryGeometry, "_lengths", property(disabled), raising=False)
        got = numeric_correlations(pair, geom)
        for name in ("p_a", "p_b", "c", "x"):
            closed, oracle = getattr(want, name), getattr(got, name)
            assert abs(closed - oracle) <= 1e-3 * abs(oracle), name

    @pytest.mark.parametrize("alignment", list(Alignment))
    @pytest.mark.parametrize("omega_a, omega_b", [(0.1, 1.0), (0.3, 0.3)])
    def test_fields_equal_standalone_integrals(self, alignment, omega_a, omega_b):
        # batching shares sbar rows between integrals on one mesh; it
        # must not change a single bit of any of them
        pair = DetectorPair(omega_a, omega_b)
        geom = BoundaryGeometry(alignment, 0.5, 1.5)
        _, _, distance_b = _distances(geom)
        got = numeric_correlations(pair, geom)
        assert got.p_a == numeric_probability(omega_a, 1.5)
        assert got.p_b == numeric_probability(omega_b, distance_b)
        assert got.c == numeric_c(pair, geom)
        assert got.x == numeric_x(pair, geom)


    @pytest.mark.parametrize("grid", [VERIFY_GRID_SMOKE, VERIFY_GRID_DEFAULT])
    def test_shared_blocks_equal_one_case_calls(self, grid):
        # the iterator keeps each probability integral for its lifetime;
        # no block may differ by a bit from the case computed alone
        cases = [
            (DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, l, dz))
            for omega_a, omega_b, l, dz in grid
            for alignment in (Alignment.PARALLEL, Alignment.ORTHOGONAL)
        ]
        shared = list(numeric_correlation_blocks(cases))
        assert len(shared) == len(cases)
        for (pair, geom), block in zip(cases, shared):
            assert block_bits(block) == block_bits(numeric_correlations(pair, geom))

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_case_order_changes_no_bit(self, order):
        # the cases share meshes in another order, and so build them, keep
        # their correlators and sbar rows and drop them at other cases
        cases = default_grid_cases()
        if order == "reversed":
            cases.reverse()
        else:
            cases = [cases[i] for i in np.random.default_rng(23).permutation(len(cases))]
        shared = list(numeric_correlation_blocks(cases))
        assert len(shared) == len(cases)
        for (pair, geom), block in zip(cases, shared):
            assert block_bits(block) == block_bits(numeric_correlations(pair, geom))

    def test_interleaved_iterators_share_no_state(self):
        # two iterators advanced in turn, one case each: the smoke grid, and
        # its geometries in reverse order with other gaps and coupling, so
        # the two meet on the same meshes and image distances; each must
        # yield the blocks it yields when run alone
        smoke = [
            (DetectorPair(omega_a, omega_b), BoundaryGeometry(alignment, l, dz))
            for omega_a, omega_b, l, dz in VERIFY_GRID_SMOKE
            for alignment in (Alignment.PARALLEL, Alignment.ORTHOGONAL)
        ]
        other = [(DetectorPair(0.0, 0.1, 0.5), geom) for _, geom in reversed(smoke)]
        alone = [[block_bits(b) for b in numeric_correlation_blocks(c)] for c in (smoke, other)]
        iterators = [numeric_correlation_blocks(smoke), numeric_correlation_blocks(other)]
        interleaved = [[], []]
        for _ in smoke:
            for got, blocks in zip(interleaved, iterators):
                got.append(block_bits(next(blocks)))
        assert interleaved == alone

    def test_each_mesh_is_built_once_and_dropped_after_its_last_case(self, monkeypatch):
        # the default grid's 34 oracle calls are on 25 distinct (spatial,
        # image) pairs; no mesh outlives the last case that is on it
        real_u_meshes = integral_oracle._u_meshes
        built = []

        def counting(spatial, image):
            meshes = real_u_meshes(spatial, image)
            built.append(((spatial, image), weakref.ref(meshes[0])))
            return meshes

        monkeypatch.setattr(integral_oracle, "_u_meshes", counting)
        cases = default_grid_cases()
        blocks = numeric_correlation_blocks(cases)
        for _ in cases:
            next(blocks)
        gc.collect()
        assert len(built) == len({pair for pair, _ in built}) == 25
        assert [pair for pair, alive in built if alive() is not None] == []


def set_panel_edges(singular, eps, half_width):
    """Panel edges added one by one to a set, as the oracle first built
    them: the reference of the array builder, bit for bit."""
    pts = {-half_width, 0.0, half_width}
    for r in singular:
        for c in (r, -r):
            if not -half_width < c < half_width:
                continue
            pts.add(c)
            h = eps
            while h <= 2.0 * half_width:
                for q in (c - h, c + h):
                    if -half_width < q < half_width:
                        pts.add(q)
                h *= 2.0
    k = max(2, int(math.ceil(2.0 * half_width / integral_oracle._COARSE_WIDTH)))
    for i in range(k + 1):
        pts.add(-half_width + 2.0 * half_width * i / k)
    return np.array(sorted(pts))


def regulated_reference(terms, spatial, image):
    """Each regulator's quadrature on its own mesh, with the u factors
    evaluated per term and regulator: the route the shared union must
    reproduce bit for bit."""
    meshes = [u_mesh(spatial, image, eps) for eps in integral_oracle.EPSILONS]
    h_nodes = np.maximum(
        integral_oracle.TRUNCATION - np.abs(np.concatenate([u for u, _ in meshes])) / 2.0,
        0.0,
    )
    h, inverse = np.unique(h_nodes, return_inverse=True)
    splits = np.cumsum([len(u) for u, _ in meshes])[:-1]
    rows = _sbar_rows(h, [omega_a - omega_b for omega_a, omega_b, _ in terms])
    values = np.empty((len(terms), len(meshes)), dtype=complex)
    for k, (omega_a, omega_b, time_ordered) in enumerate(terms):
        alpha = (omega_a + omega_b) / 2.0
        srows = np.split(rows[k][inverse], splits)
        for i, (eps, (u, uw), srow) in enumerate(
            zip(integral_oracle.EPSILONS, meshes, srows)
        ):
            warg = -np.abs(u) if time_ordered else u
            ku = (
                np.exp(-(u**2) / 4.0)
                * np.exp(-1j * alpha * u)
                * _two_point(warg, spatial, image, eps)
                * uw
            )
            values[k, i] = np.sum(ku * srow)
    return values


def assert_mirrored_meshes(spatial, image, u, w, panels):
    """Each regulator's rows of the half union, mirrored, must be its whole
    u mesh (u_mesh), nodes and weights, bit for bit."""
    for eps, p in zip(integral_oracle.EPSILONS, panels):
        want_u, want_w = u_mesh(spatial, image, eps)
        half_u, half_w = u[p].ravel(), w[p].ravel()
        assert np.concatenate((-half_u[::-1], half_u)).tobytes() == want_u.tobytes()
        assert np.concatenate((half_w[::-1], half_w)).tobytes() == want_w.tobytes()


class TestSharedUMesh:
    """The edges are graded with whole arrays, and the regulators of one
    (spatial, image) pair share one union of panels; each regulator's mesh
    and every regulated value must stay as the per-regulator route gave
    them, bit for bit, whether or not the schedule's meshes are nested."""

    HALF_WIDTH = 2.0 * integral_oracle.TRUNCATION
    GEOMETRIES = [
        (0.0, 2.0),
        _distances(BoundaryGeometry(Alignment.PARALLEL, 0.05, 0.01))[:2],
        _distances(BoundaryGeometry(Alignment.ORTHOGONAL, 1.0, 2.0))[:2],
        (1.5, 1.5),
        (0.3, HALF_WIDTH - 1e-4),
        (0.3, HALF_WIDTH),
        (0.3, HALF_WIDTH + 3e-3),
    ]
    # (0.02, 0.015, 0.005) is not nested: 0.015 grades points that the
    # 0.005 mesh lacks
    SCHEDULES = [integral_oracle.EPSILONS, (0.02, 0.015, 0.005)]

    @pytest.mark.parametrize("spatial, image", GEOMETRIES)
    @pytest.mark.parametrize("eps", [0.02, 0.015, 0.01, 0.005, 0.003, 1e-3])
    def test_edges_match_set_builder(self, spatial, image, eps):
        singular = (0.0, spatial, image)
        got = _panel_edges(singular, eps, self.HALF_WIDTH)
        assert got.tobytes() == set_panel_edges(singular, eps, self.HALF_WIDTH).tobytes()
        # the mirrored centre r = 0 is -0.0; the edge must be +0.0
        assert 0.0 in got
        assert not np.signbit(got[got == 0.0]).any()

    def test_second_schedule_is_not_nested(self):
        singular = (0.0, *self.GEOMETRIES[1])
        coarse, fine = (_panel_edges(singular, eps, self.HALF_WIDTH) for eps in (0.015, 0.005))
        assert not set(coarse) <= set(fine)

    @pytest.mark.parametrize("truncation", [integral_oracle.TRUNCATION, 6.0])
    @pytest.mark.parametrize("spatial, image", GEOMETRIES)
    @pytest.mark.parametrize("eps", [0.02, 0.015, 0.01, 0.005, 0.003, 1e-3])
    def test_edges_are_antisymmetric(self, spatial, image, eps, truncation, monkeypatch):
        # the oracle builds the u > 0 half of each mesh and mirrors it, which
        # gives the whole mesh only if the edges are their own mirror image
        monkeypatch.setattr(integral_oracle, "TRUNCATION", truncation)
        got = _panel_edges((0.0, spatial, image), eps, 2.0 * integral_oracle.TRUNCATION)
        assert (-got[::-1] + 0.0).tobytes() == got.tobytes()
        assert got[len(got) // 2] == 0.0 and not np.signbit(got[len(got) // 2])

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("spatial, image", GEOMETRIES)
    def test_union_gives_each_regulator_mesh(self, spatial, image, schedule, monkeypatch):
        monkeypatch.setattr(integral_oracle, "EPSILONS", schedule)
        u, w, panels = _u_meshes(spatial, image)
        assert len(panels) == len(schedule)
        # the regulators share panels, so the union is smaller than the sum
        assert len(u) < sum(len(p) for p in panels)
        assert (u > 0.0).all()
        assert_mirrored_meshes(spatial, image, u, w, panels)

    # an odd order puts a Gauss-Legendre node at each panel's midpoint
    @pytest.mark.parametrize("name, value", [("TRUNCATION", 6.0), ("NODES", 17)])
    @pytest.mark.parametrize("spatial, image", GEOMETRIES[:4])
    def test_mirrored_mesh_at_other_settings(
        self, spatial, image, name, value, monkeypatch, panel_order
    ):
        if name == "NODES":
            panel_order(value)
        else:
            monkeypatch.setattr(integral_oracle, name, value)
        assert_mirrored_meshes(spatial, image, *_u_meshes(spatial, image))

    # (1.5, 1.5) and the parallel l = 1, dz = 1e-9, where hypot(l, 2 dz)
    # rounds to l, subtract the image exactly: the correlator is a signed zero
    @pytest.mark.parametrize(
        "spatial, image",
        GEOMETRIES + [_distances(BoundaryGeometry(Alignment.PARALLEL, 1.0, 1e-9))[:2]],
    )
    def test_mirrored_factors_equal_direct_evaluation(self, spatial, image):
        # the phase on each regulator's u > 0 nodes, conjugated and reversed,
        # and both halves of its correlator must equal their evaluation at
        # -u and at u bit for bit, signs of zeros included
        mesh = integral_oracle._Mesh(spatial, image)
        for i, (eps, p) in enumerate(zip(integral_oracle.EPSILONS, mesh.panels)):
            half = mesh.u[p].ravel()
            for alpha in (0.05, 0.1, 0.5, 0.55, 1.0, 2.5):
                f = mesh.gauss[p].ravel() * np.exp(-1j * alpha * half)
                for got, u in ((f.conj()[::-1], -half[::-1]), (f, half)):
                    want = np.exp(-(u**2) / 4.0) * np.exp(-1j * alpha * u)
                    assert got.tobytes() == want.tobytes(), alpha
            plus, minus = mesh.correlator(i)
            assert plus.tobytes() == _two_point(half, spatial, image, eps).tobytes()
            assert minus.tobytes() == _two_point(-half, spatial, image, eps).tobytes()

    def test_equal_path_c_and_x_are_signed_zeros(self):
        # at the parallel l = 1, dz = 1e-9, whose image path rounds to the
        # direct one, C is +0+0j and X is -0-0j: the values the oracle gave
        # when it evaluated both halves of the mesh
        geom = BoundaryGeometry(Alignment.PARALLEL, 1.0, 1e-9)
        for pair in (PAIR, DetectorPair(0.0, 1.0)):
            c, x = numeric_c(pair, geom), numeric_x(pair, geom)
            assert [math.copysign(1.0, v) for v in (c.real, c.imag)] == [1.0, 1.0]
            assert [math.copysign(1.0, v) for v in (x.real, x.imag)] == [-1.0, -1.0]
            assert c == x == 0.0

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize(
        "terms, spatial, image",
        [
            ([(0.1, 0.1, False), (1.0, 1.0, False)], 0.0, 2.0),
            ([(0.1, 1.0, False), (0.1, -1.0, True)], *GEOMETRIES[1]),
            ([(0.0, 0.0, False), (0.0, -0.0, True)], *GEOMETRIES[2]),
            ([(0.3, -0.7, True)], 1.0, 3.0),
        ],
    )
    def test_values_match_per_regulator_route(self, terms, spatial, image, schedule, monkeypatch):
        monkeypatch.setattr(integral_oracle, "EPSILONS", schedule)
        got = _regulated_values(terms, spatial, image)
        assert got.tobytes() == regulated_reference(terms, spatial, image).tobytes()


    def test_kept_rows_are_reused_bit_for_bit(self, monkeypatch):
        terms, later = [(0.1, 0.1, False), (1.0, 1.0, False)], [(0.3, 0.3, False)]
        meshes = {}
        first = _regulated_values(terms, 0.0, 2.0, meshes)
        # one mesh, and both terms have beta = 0: one row, kept on the mesh
        assert list(meshes) == [(0.0, 2.0)]
        assert list(meshes[0.0, 2.0].rows) == [0.0]

        def refused(*args):
            raise AssertionError("a kept mesh, correlator or sbar row was computed again")

        for name in ("_u_meshes", "_two_point", "_sbar_rows"):
            monkeypatch.setattr(integral_oracle, name, refused)
        again = _regulated_values(later, 0.0, 2.0, meshes)
        monkeypatch.undo()
        assert first.tobytes() == _regulated_values(terms, 0.0, 2.0).tobytes()
        assert again.tobytes() == _regulated_values(later, 0.0, 2.0).tobytes()


def exact_row(h, beta):
    """2 int_0^h exp(-s^2) cos(beta s) ds to 40 digits:
    sqrt(pi) exp(-beta^2/4) Re erf(h + i beta/2)."""
    with mpmath.workdps(40):
        h, beta = mpmath.mpf(h), mpmath.mpf(beta)
        return (
            mpmath.sqrt(mpmath.pi)
            * mpmath.exp(-beta * beta / 4)
            * mpmath.re(mpmath.erf(mpmath.mpc(h, beta / 2)))
        )


class TestSbarRows:
    """Each sbar row is a panel prefix plus one remainder piece; it must
    match the exact integral to 1e-14 of the row's scale, the beta = 0 row
    sqrt(pi) erf(h), and depend on (h, beta) alone."""

    BETAS = (0.0, 0.2, 1.1, 2.6, 6.0, 10.0)
    # from near zero to the truncation, with exact panel edges and h = T
    H = np.array(
        [1e-6, 1e-3, 0.1, 0.25, 0.5, 0.7, 1.0, 1.5, 2.0, 3.3, 4.0, 5.5, 7.0, 7.5,
         7.9999, integral_oracle.TRUNCATION]
    )

    def test_matches_exact_integral(self):
        rows = _sbar_rows(self.H, self.BETAS)
        for beta, row in zip(self.BETAS, rows):
            for h, got in zip(self.H, row):
                scale = math.sqrt(math.pi) * math.erf(h)
                assert abs(float(got - exact_row(h, beta))) <= 1e-14 * scale, (h, beta)

    def test_row_of_negated_beta_is_the_same(self):
        # the oracle keys its rows by |beta|
        for beta in self.BETAS:
            assert _sbar_rows(self.H, [-beta]).tobytes() == _sbar_rows(self.H, [beta]).tobytes()

    def test_rows_depend_on_h_and_beta_alone(self):
        rng = np.random.default_rng(7)
        h = np.unique(
            np.concatenate((rng.uniform(0.0, integral_oracle.TRUNCATION, 500), self.H))
        )
        rows = _sbar_rows(h, self.BETAS)
        subsets = [[0], [len(h) - 1], [3, 4], np.sort(rng.choice(len(h), 37, replace=False))]
        for subset in subsets:
            got = _sbar_rows(h[subset], self.BETAS[::-1])[::-1]
            assert got.tobytes() == rows[:, subset].tobytes()


class TestGaussLegendreTable:
    """The oracle's 16-point rule is a stored table; it must be the
    Gauss-Legendre rule in its own right, and what leggauss computes."""

    X, W = integral_oracle._LEGENDRE_X, integral_oracle._LEGENDRE_W

    def test_is_the_oracle_rule_and_read_only(self):
        assert integral_oracle.NODES == 16
        assert self.X.shape == self.W.shape == (16,)
        assert not (self.X.flags.writeable or self.W.flags.writeable)

    def test_nodes_antisymmetric_and_weights_symmetric(self):
        assert (-self.X[::-1]).tobytes() == self.X.tobytes()
        assert self.W[::-1].tobytes() == self.W.tobytes()
        assert (np.diff(self.X) > 0.0).all() and (self.W > 0.0).all()

    def test_within_one_ulp_of_leggauss(self):
        for got, want in zip((self.X, self.W), np.polynomial.legendre.leggauss(16)):
            assert (np.abs(got - want) <= np.spacing(np.abs(want))).all()

    def test_integrates_every_degree_below_32(self):
        for k in range(32):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(self.W * self.X**k) - exact) <= 1e-15, k


class TestCompositeSharedRows:
    """The oracle evaluates each sbar row once per node of the union of the
    regulators' u panels, from its composite panel rule; at every
    regulator it must agree with one full complex Gauss-Legendre sum per
    row to rounding, at the panel order, twice it and an odd order."""

    NODES = integral_oracle.NODES
    # (nodes, alignment, omega_a, omega_b, separation, boundary_distance);
    # l = 0.05, dz = 0.01 sits near the mirror, and omega_b = 2.5 makes
    # P_B tiny there
    CASES = [
        (NODES, Alignment.PARALLEL, 0.1, 1.0, 1.0, 2.0),
        (NODES, Alignment.ORTHOGONAL, 0.1, 1.0, 1.0, 2.0),
        (NODES, Alignment.PARALLEL, 0.1, 2.5, 0.05, 0.01),
        (NODES, Alignment.ORTHOGONAL, 0.1, 2.5, 0.05, 0.01),
        (NODES + 1, Alignment.ORTHOGONAL, 0.1, 2.5, 0.05, 0.01),
        (2 * NODES, Alignment.PARALLEL, 0.1, 1.0, 1.0, 2.0),
    ]

    @pytest.mark.parametrize("nodes, alignment, omega_a, omega_b, l, dz", CASES)
    def test_matches_full_complex_rule(
        self, nodes, alignment, omega_a, omega_b, l, dz, panel_order
    ):
        panel_order(nodes)
        spatial, image, distance_b = _distances(BoundaryGeometry(alignment, l, dz))
        p_a, p_b = (omega_a, omega_a, False), (omega_b, omega_b, False)
        # grouped as numeric_correlations groups them: one call per mesh
        if distance_b == dz:
            integrals = [([p_a, p_b], 0.0, 2.0 * dz)]
        else:
            integrals = [([p_a], 0.0, 2.0 * dz), ([p_b], 0.0, 2.0 * distance_b)]
        correlation_terms = [(omega_a, omega_b, False), (omega_a, -omega_b, True)]
        integrals.append((correlation_terms, spatial, image))
        for terms, spatial_t, image_t in integrals:
            values = _regulated_values(terms, spatial_t, image_t)
            for term, schedule in zip(terms, values):
                for eps, got in zip(integral_oracle.EPSILONS, schedule):
                    full = full_rule(*term[:2], spatial_t, image_t, eps, term[2])
                    assert abs(got - full) <= 1e-12 * abs(full) + 1e-14, (term, eps)

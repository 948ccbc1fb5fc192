"""Initial data: geometry validation, profiles, energy counts, projection."""

import math

import numpy as np
import pytest

from mpfc.dynamics import ModelKind, ModelSpec, constraint_violation, max_neighbor_jump
from mpfc.diagnostics import energy_measure
from mpfc.errors import ScenarioError
from mpfc.grid import GridSpec, torus_delta
from mpfc.scenarios import (
    Disk,
    DoubleStrip,
    FlatStrip,
    Scenario,
    TripleJunction,
    TwoDisks,
    build_scenario,
)

N = 256
SPEC = GridSpec(2, N)
EPS = 8.0 / N


def scenario_for(geometry, kind=ModelKind.MEAN_SHIFT, n_phases=2, eps=EPS, spec=SPEC):
    model = ModelSpec(kind, eps, n_phases)
    return Scenario(
        geometry=geometry, model=model, grid=spec, dt=spec.h**2, t_end=0.0
    )


class TestGeometryValidation:
    def test_disk_radius_window(self):
        with pytest.raises(ScenarioError):
            build_scenario(scenario_for(Disk(radius=0.02)))
        with pytest.raises(ScenarioError):
            build_scenario(scenario_for(Disk(radius=0.45)))

    def test_two_disks_separation(self):
        close = TwoDisks(centers=((0.35, 0.5), (0.65, 0.5)), radii=(0.14, 0.14))
        with pytest.raises(ScenarioError):
            build_scenario(scenario_for(close))

    def test_double_strip_gaps(self):
        tight = DoubleStrip(bands=((0.1, 0.3), (0.31, 0.5)))
        for geom in (tight, DoubleStrip(bands=((0.1, 0.5), (0.3, 0.7))),
                     DoubleStrip(bands=((0.3, 0.5), (0.1, 0.9)))):
            for kind in (ModelKind.SPHERE_LL, ModelKind.MEAN_SHIFT):
                with pytest.raises(ScenarioError, match="closer than 6 eps"):
                    build_scenario(scenario_for(geom, kind=kind))

    def test_two_disks_centres_of_different_dimensions(self):
        geom = TwoDisks(centers=((0.3, 0.3), (0.7, 0.7, 0.5)))
        with pytest.raises(ScenarioError, match="grid's 2 axes"):
            geom.validate(EPS, 2)

    def test_strip_inside_unit_interval(self):
        with pytest.raises(ScenarioError):
            build_scenario(scenario_for(FlatStrip(lo=-0.1, hi=0.5)))

    def test_wedge_angle_constraints(self):
        with pytest.raises(ScenarioError):
            TripleJunction(angles=(0.0, 10.0, 200.0)).validate(EPS, 2)
        with pytest.raises(ScenarioError, match="3 ray angles"):
            TripleJunction(angles=(0.0, 90.0, 180.0, 270.0)).validate(EPS, 2)

    def test_phase_count_must_cover_regions(self):
        with pytest.raises(ScenarioError, match="needs 3 phases"):
            scenario_for(TripleJunction(), n_phases=2)

    def test_scenario_checks_the_geometry_against_the_grid(self):
        # The Scenario rejects these before any data is built.
        spec3 = GridSpec(3, 16)
        with pytest.raises(ScenarioError, match="requires d = 2"):
            scenario_for(TripleJunction(), n_phases=3, spec=spec3)
        for geom in (Disk(), TwoDisks()):
            with pytest.raises(ScenarioError, match="grid's 3 axes"):
                scenario_for(geom, spec=spec3)
        with pytest.raises(ScenarioError, match="disk radius"):
            scenario_for(Disk(radius=0.05))
        assert scenario_for(Disk(center=(0.5,) * 3), spec=spec3).grid == spec3


class TestBuiltStates:
    def test_disk_energy_counts_both_phases(self):
        state = build_scenario(scenario_for(Disk(radius=0.3)))
        total = float(np.sum(energy_measure(state, EPS)))
        expected = 2.0 * 2.0 * np.pi * 0.3
        assert abs(total - expected) <= 0.1 * expected

    def test_flat_strip_energy_near_four(self):
        state = build_scenario(scenario_for(FlatStrip()))
        total = float(np.sum(energy_measure(state, EPS)))
        assert abs(total - 4.0) <= 0.05 * 4.0

    def test_double_strip_energy_near_eight(self):
        state = build_scenario(scenario_for(DoubleStrip()))
        total = float(np.sum(energy_measure(state, EPS)))
        assert abs(total - 8.0) <= 0.05 * 8.0

    def test_two_disks_energy(self):
        geom = TwoDisks()
        state = build_scenario(scenario_for(geom))
        total = float(np.sum(energy_measure(state, EPS)))
        expected = 2.0 * 2.0 * np.pi * 0.3
        assert abs(total - expected) <= 0.1 * expected

    def test_ball_interface_is_the_sphere_area(self):
        assert Disk(radius=0.3).interface_length(2) == pytest.approx(2.0 * np.pi * 0.3, rel=1e-15)
        assert Disk(radius=0.3).interface_length(3) == pytest.approx(4.0 * np.pi * 0.09, rel=1e-15)
        two = TwoDisks(centers=((0.25,) * 3, (0.75,) * 3), radii=(0.1, 0.2))
        assert two.interface_length(3) == pytest.approx(4.0 * np.pi * 0.05, rel=1e-15)

    def test_well_prepared_3d_ball_is_accepted(self):
        # n = 64, eps = 4h: the energy reads 2.3812 against 2 x 4 pi r^2 = 2.2619.
        spec = GridSpec(3, 64)
        eps = 4.0 * spec.h
        state = build_scenario(
            scenario_for(Disk(center=(0.5, 0.5, 0.5), radius=0.3), eps=eps, spec=spec)
        )
        total = float(np.sum(energy_measure(state, eps)))
        assert abs(total - 2.0 * 4.0 * np.pi * 0.09) <= 0.06 * 2.0 * 4.0 * np.pi * 0.09

    @pytest.mark.parametrize(
        "kind,n_phases",
        [
            (ModelKind.MEAN_SHIFT, 2),
            (ModelKind.WEIGHTED_SUM, 2),
            (ModelKind.WEIGHTED_SQUARE, 2),
            (ModelKind.SPHERE_LL, 3),
        ],
    )
    def test_constraint_exact_after_build(self, kind, n_phases):
        scn = scenario_for(Disk(radius=0.3), kind=kind, n_phases=n_phases)
        state = build_scenario(scn)
        tol = 1e-10 if kind == ModelKind.WEIGHTED_SQUARE else 1e-12
        assert constraint_violation(state, scn.model) <= tol

    def test_initial_data_is_smooth(self):
        for geom in (Disk(radius=0.3), FlatStrip(), TripleJunction()):
            n_phases = geom.n_regions
            scn = scenario_for(geom, n_phases=n_phases)
            state = build_scenario(scn)
            assert max_neighbor_jump(state) < 0.5

    def test_extra_phases_stay_near_zero(self):
        scn = scenario_for(Disk(radius=0.3), kind=ModelKind.MEAN_SHIFT, n_phases=3)
        state = build_scenario(scn)
        assert np.max(np.abs(state.values[2])) < 1e-6


class TestWedgeDistances:
    def test_every_point_has_one_positive_region(self):
        spec = GridSpec(2, 64)
        dist = TripleJunction().region_distances(spec)
        positive = np.sum(dist > 1e-12, axis=0)
        # interior points belong to exactly one wedge; boundary cells may tie
        assert np.all(positive <= 1)
        assert np.mean(positive == 1) > 0.95

    def test_signed_distance_antisymmetry(self):
        # d_i = dist(x, other regions) - dist(x, region i): at most one term
        # is nonzero, and the largest d_i is the distance to the interface.
        spec = GridSpec(2, 64)
        dist = TripleJunction().region_distances(spec)
        best = np.max(dist, axis=0)
        assert np.all(best >= -1e-12)
        # near the junction center the distance is small
        assert best[32, 32] < 0.05

    def test_wedge_ray_geometry(self):
        # ray at 90 degrees: points just right/left of the vertical ray above
        # the center belong to different wedges with tiny |distance|
        spec = GridSpec(2, 256)
        dist = TripleJunction(angles=(90.0, 210.0, 330.0)).region_distances(spec)
        i = 128 + 3
        j_up = 128 + 32  # x = (0.5117, 0.625): just right of the up ray
        labels = np.argmax(dist, axis=0)
        left = labels[128 - 3, j_up]
        right = labels[i, j_up]
        assert left != right
        d_expected = 3.0 / 256.0
        assert abs(dist[right, i, j_up] - d_expected) < 2.0 / 256.0


# The whole-array wedge distances the grid-shaped kernel replaced: one
# (n^2, 2) point stack per image and region, a matmul for rel . e, one sqrt
# per edge, and N np.delete copies for the signed distances.


def reference_polygon_distance(points, poly):
    p = points.reshape(-1, 2)
    m = len(poly)
    inside = np.ones(len(p), dtype=bool)
    best = np.full(len(p), np.inf)
    for i in range(m):
        a = poly[i]
        b = poly[(i + 1) % m]
        e = b - a
        rel = p - a
        cross = e[0] * rel[:, 1] - e[1] * rel[:, 0]
        inside &= cross >= 0
        t = np.clip((rel @ e) / (e @ e), 0.0, 1.0)
        diff = rel - t[:, None] * e
        best = np.minimum(best, np.sqrt(np.sum(diff * diff, axis=1)))
    dist = np.where(inside, 0.0, best)
    return dist.reshape(points.shape[:-1])


def reference_region_distances(junction, spec):
    axes = spec.meshgrid()
    p = np.stack(
        [torus_delta(axes[0], junction.center[0]), torus_delta(axes[1], junction.center[1])],
        axis=-1,
    )
    polys = junction._polygons()
    dist = np.empty((3,) + spec.shape)
    offsets = [np.array([i, j], dtype=float) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    for i, poly in enumerate(polys):
        d = np.full(spec.shape, np.inf)
        for k in offsets:
            d = np.minimum(d, reference_polygon_distance(p - k, poly))
        dist[i] = d
    signed = np.empty_like(dist)
    for i in range(3):
        other = np.min(np.delete(dist, i, axis=0), axis=0)
        signed[i] = other - dist[i]
    return signed


def scalar_polygon_distance(x, y, poly):
    """Plain-Python distance from (x, y) to a convex CCW polygon, 0 inside."""
    inside, best = True, math.inf
    for i in range(len(poly)):
        (ax, ay), (bx, by) = poly[i], poly[(i + 1) % len(poly)]
        ex, ey = bx - ax, by - ay
        rx, ry = x - ax, y - ay
        inside = inside and ex * ry - ey * rx >= 0.0
        t = min(max((rx * ex + ry * ey) / (ex * ex + ey * ey), 0.0), 1.0)
        best = min(best, math.hypot(rx - t * ex, ry - t * ey))
    return 0.0 if inside else best


class TestWedgeKernel:
    OFF_NODE = (0.4123, 0.5771)

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("center", [(0.5, 0.5), OFF_NODE])
    def test_default_angles_match_the_whole_array_form_bitwise(self, n, center):
        junction = TripleJunction(center=center)
        spec = GridSpec(2, n)
        assert np.array_equal(
            junction.region_distances(spec), reference_region_distances(junction, spec)
        )

    @pytest.mark.parametrize("angles", [(10.0, 100.0, 250.0), (0.0, 120.0, 240.0)])
    @pytest.mark.parametrize("n", [64, 256])
    def test_other_angles_within_an_ulp_of_the_whole_array_form(self, angles, n):
        # The reference forms rel . e by a matmul; the kernel forms the two
        # products and adds them, which can differ in the last bit.
        junction = TripleJunction(angles=angles, center=self.OFF_NODE)
        spec = GridSpec(2, n)
        diff = junction.region_distances(spec) - reference_region_distances(junction, spec)
        assert np.max(np.abs(diff)) <= 2e-16

    # A ray at 45 degrees cuts the fundamental square through a corner.
    @pytest.mark.parametrize("angles", [(90.0, 210.0, 330.0), (10.0, 100.0, 250.0),
                                        (45.0, 165.0, 285.0)])
    def test_scalar_oracle_at_random_nodes(self, angles):
        rng = np.random.default_rng(16)
        center = tuple(rng.uniform(0.0, 1.0, size=2))
        junction = TripleJunction(angles=angles, center=center)
        spec = GridSpec(2, 128)
        dist = junction.region_distances(spec)
        polys = junction._polygons()
        for i, j in rng.integers(0, spec.n, size=(200, 2)):
            x = float(torus_delta(i * spec.h, center[0]))
            y = float(torus_delta(j * spec.h, center[1]))
            region = [
                min(scalar_polygon_distance(x - kx, y - ky, poly)
                    for kx in (-1, 0, 1) for ky in (-1, 0, 1))
                for poly in polys
            ]
            for r in range(3):
                other = min(region[:r] + region[r + 1:])
                assert abs(dist[r, i, j] - (other - region[r])) <= 1e-15

    def test_ray_through_a_corner_builds(self):
        # Clipping through a corner used to repeat the vertex, and its
        # zero-length edge made every distance nan.
        junction = TripleJunction(angles=(45.0, 135.0, 270.0))
        assert all(len(np.unique(p, axis=0)) == len(p) for p in junction._polygons())
        state = build_scenario(scenario_for(junction, n_phases=3, spec=GridSpec(2, 64), eps=0.0625))
        assert np.all(np.isfinite(state.values))


class TestScenarioValidation:
    def test_bad_schedule_rejected(self):
        model = ModelSpec(ModelKind.MEAN_SHIFT, EPS, 2)
        with pytest.raises(ScenarioError):
            Scenario(geometry=Disk(), model=model, grid=SPEC, dt=-1.0, t_end=0.1)
        with pytest.raises(ScenarioError):
            Scenario(geometry=Disk(), model=model, grid=SPEC, dt=1e-5, t_end=0.1,
                     projection="sometimes")
        with pytest.raises(ScenarioError):
            Scenario(geometry=Disk(), model=model, grid=SPEC, dt=1e-5, t_end=0.1,
                     scheme="leapfrog")
        # A nan dt or t_end passes a sign test, and an infinite dt runs zero steps.
        for key, value in [("dt", math.nan), ("dt", math.inf), ("t_end", math.nan),
                           ("t_end", math.inf)]:
            schedule = {"dt": 1e-5, "t_end": 0.1, key: value}
            with pytest.raises(ScenarioError, match=f"{key} must be"):
                Scenario(geometry=Disk(), model=model, grid=SPEC, **schedule)

    @pytest.mark.parametrize("stride", [2.5, 2.0, True, "4", 0])
    def test_snapshot_every_must_be_a_positive_int(self, stride):
        # A float stride used to pass here and fail later inside
        # run_simulation with a bare TypeError from range().
        model = ModelSpec(ModelKind.MEAN_SHIFT, EPS, 2)
        with pytest.raises(ScenarioError, match="snapshot_every must be an int >= 1"):
            Scenario(geometry=Disk(), model=model, grid=SPEC, dt=1e-5, t_end=0.1,
                     snapshot_every=stride)
        Scenario(geometry=Disk(), model=model, grid=SPEC, dt=1e-5, t_end=0.1, snapshot_every=3)

"""Initial data: geometry validation, profiles, energy counts, projection."""

import numpy as np
import pytest

from mpfc.dynamics import ModelKind, ModelSpec, constraint_violation, max_neighbor_jump
from mpfc.diagnostics import energy_measure
from mpfc.errors import ScenarioError
from mpfc.grid import GridSpec
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

    def test_strip_inside_unit_interval(self):
        with pytest.raises(ScenarioError):
            build_scenario(scenario_for(FlatStrip(lo=-0.1, hi=0.5)))

    def test_wedge_angle_constraints(self):
        with pytest.raises(ScenarioError):
            TripleJunction(angles=(0.0, 10.0, 200.0)).validate(EPS)
        with pytest.raises(ScenarioError, match="3 ray angles"):
            TripleJunction(angles=(0.0, 90.0, 180.0, 270.0)).validate(EPS)

    def test_phase_count_must_cover_regions(self):
        scn = scenario_for(TripleJunction(), n_phases=2)
        with pytest.raises(ScenarioError):
            build_scenario(scn)


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

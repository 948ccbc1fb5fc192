"""Surface measures, discrepancy, BV proxy, first variation, curvature proxy."""

import numpy as np
import pytest

from conftest import (
    disk_state,
    manifold_pair,
    projected_sphere_state,
    random_smooth_state,
    same_bits,
    stacked_defect,
    strip_state,
)
from mpfc.analysis import mu_of_phi
from mpfc.diagnostics import (
    GRADIENT_FLOOR,
    SIGMA_INV,
    _one_sided_differences,
    energy_bv_gap,
    energy_densities,
    energy_measure,
    first_variation,
    mean_curvature_proxy,
    measure_junction_angles,
    measure_sample,
)
from mpfc.dynamics import ModelKind, ModelSpec, PhaseField, flow, project_constraint
from mpfc.errors import InputError
from mpfc.grid import GridSpec, ScalarField, grad_dot_raw, gradient_raw, integrate_raw
from mpfc.potential import SIGMA, double_well, sqrt_double_well
from mpfc.run import run_simulation
from mpfc.scenarios import Disk, Scenario, TripleJunction
from mpfc.testfields import (
    bump_field,
    constant_vector_field,
    radial_vector_field,
    random_smooth_vector_field,
)


def pure_state(spec, pattern):
    return PhaseField(spec, np.stack([np.full(spec.shape, v) for v in pattern]))


def sample_of(state, eps):
    """``measure_sample`` of a state under a MeanShift model with its phase count."""
    return measure_sample(state, ModelSpec(ModelKind.MEAN_SHIFT, eps, state.n_phases))


class TestEnergyMeasure:
    def test_pure_phases_have_zero_energy(self, spec64):
        state = pure_state(spec64, (1.0, 0.0))
        assert np.all(energy_measure(state, 0.05) == 0.0)

    def test_strip_counts_two_interfaces_twice(self):
        # two flat interfaces of length 1, seen by both phases: total 4.
        state = strip_state(256, 1.0 / 32.0)
        total = float(np.sum(energy_measure(state, 1.0 / 32.0)))
        assert abs(total - 4.0) < 0.05 * 4.0

    def test_weight_linearity(self, spec128):
        state = strip_state(128)
        eps = 8.0 / 128
        one = mu_of_phi(state, eps, np.ones(spec128.shape))
        two = mu_of_phi(state, eps, np.full(spec128.shape, 2.0))
        assert two == 2.0 * one


class TestDiscrepancyMeasure:
    def test_profile_discrepancy_discretization_error_is_second_order(self):
        # The single layer is exactly equipartitioned.  On the torus the two
        # periodic tails overlap and contribute a genuine cross term of size
        # ~ 2 exp(-separation/eps)/eps to |xi|, which is h-independent, so
        # the discretization part is isolated by successive differences.
        eps = 1.0 / 16.0
        vals = []
        for n in (64, 128, 256):
            state = strip_state(n, eps)
            vals.append(sample_of(state, eps).discrepancy_abs)
        diff_ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
        assert 3.0 <= diff_ratio <= 5.0
        # the converged value is the tail cross term: tiny against energy ~ 4
        assert vals[2] < 0.15

    def test_profile_discrepancy_small_at_thin_interface(self):
        # At eps = 1/32 the tail cross term is ~ exp(-16)/eps ~ 1e-5 and the
        # resolved profile is equipartitioned to a fraction of a percent.
        eps = 1.0 / 32.0
        state = strip_state(256, eps)
        sample = sample_of(state, eps)
        assert sample.discrepancy_abs < 0.01 * sample.energy_total

    def test_constant_half_state_value(self, spec64):
        eps = 0.05
        state = pure_state(spec64, (0.5, 0.5))
        signed = sample_of(state, eps).discrepancy_per_phase
        expected = -double_well(0.5) / (eps * SIGMA)
        assert np.allclose(signed, expected, rtol=1e-12)

    def test_signed_below_absolute(self):
        spec = GridSpec(2, 32)
        eps = 0.0625
        for seed in range(5):
            sample = sample_of(random_smooth_state(spec, 2, seed), eps)
            signed = sample.discrepancy_per_phase
            assert np.sum(np.abs(signed)) <= sample.discrepancy_abs + 1e-14


class TestBvProxy:
    def test_constant_state_is_zero(self, spec64):
        sample = sample_of(pure_state(spec64, (0.3, 0.7)), 0.05)
        assert np.all(sample.bv_proxy_per_phase == 0.0)

    def test_strip_one_bv_unit_per_interface(self):
        per_phase = sample_of(strip_state(256, 1.0 / 32.0), 1.0 / 32.0).bv_proxy_per_phase
        assert np.allclose(per_phase, 2.0, rtol=0.05)

    def test_domination_by_energy(self):
        spec = GridSpec(2, 32)
        eps = 0.0625
        for seed in range(10):
            sample = sample_of(random_smooth_state(spec, 3, seed), eps)
            assert np.all(sample.bv_proxy_per_phase <= sample.energy_per_phase + 1e-12)


class TestEnergyBvGap:
    def model(self, eps=1.0 / 32.0):
        return ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)

    def test_profile_state_has_small_gap(self):
        eps = 1.0 / 32.0
        state = strip_state(256, eps)
        sample = measure_sample(state, self.model(eps))
        gap = energy_bv_gap(sample)
        assert 0.0 <= gap < 0.01 * sample.energy_total

    def test_constant_state_gap_equals_energy(self, spec64):
        eps = 0.05
        state = pure_state(spec64, (0.5, 0.5))
        sample = measure_sample(state, ModelSpec(ModelKind.MEAN_SHIFT, eps, 2))
        assert energy_bv_gap(sample) == pytest.approx(sample.energy_total, rel=1e-12)

    def test_nonnegative_on_random_states(self):
        spec = GridSpec(2, 32)
        eps = 0.0625
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)
        for seed in range(100):
            state = random_smooth_state(spec, 2, seed)
            sample = measure_sample(state, model)
            assert energy_bv_gap(sample) >= -1e-12


class TestMeasureSample:
    def test_per_phase_domination_invariants(self):
        eps = 1.0 / 16.0
        state = disk_state(128, eps)
        sample = measure_sample(state, ModelSpec(ModelKind.MEAN_SHIFT, eps, 2))
        for i in range(2):
            assert abs(sample.discrepancy_per_phase[i]) <= sample.energy_per_phase[i] + 1e-12
            assert sample.bv_proxy_per_phase[i] <= sample.energy_per_phase[i] + 1e-12
        assert sample.overshoot < 1e-12
        assert sample.constraint_drift < 1e-12

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_single_pass_equals_the_public_measures(self, kind):
        # measure_sample derives every measure from one pass over the
        # densities; it must agree exactly with the densities written out
        # phase by phase.
        eps = 1.0 / 16.0
        state = random_smooth_state(GridSpec(2, 64), 3, seed=7)
        sample = measure_sample(state, ModelSpec(kind, eps, 3))
        h = state.spec.h

        def integral(dens):
            return 1.0 / SIGMA * integrate_raw(dens, h, 2)

        energy, signed, absolute, bv = [], [], [], []
        for u in state.values:
            grad_sq = grad_dot_raw(u, u, h)
            gradient = 0.5 * eps * grad_sq
            potential = double_well(u) / eps
            energy.append(integral(gradient + potential))
            signed.append(integral(gradient - potential))
            absolute.append(integral(np.abs(gradient - potential)))
            bv.append(integral(np.sqrt(grad_sq) * sqrt_double_well(u)))
        assert np.all(sample.energy_per_phase == energy)
        assert np.all(sample.energy_per_phase == energy_measure(state, eps))
        assert np.all(sample.discrepancy_per_phase == signed)
        assert sample.discrepancy_abs == float(np.sum(absolute))
        assert np.all(sample.bv_proxy_per_phase == bv)

    def test_mu_phi_is_mu_of_phi_per_test_function(self):
        # The sample's int phi dmu comes from its own pass over the densities;
        # it is mu_of_phi's, bit for bit, and empty when no phi is given.
        eps = 1.0 / 16.0
        state = random_smooth_state(GridSpec(2, 64), 3, seed=7)
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 3)
        phis = (bump_field(state.spec), ScalarField.constant(state.spec, 2.0))
        sample = measure_sample(state, model, phis)
        assert sample.mu_phi == tuple(mu_of_phi(state, eps, phi.values) for phi in phis)
        assert measure_sample(state, model).mu_phi == ()


    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_evaluates_no_flow(self, kind, monkeypatch):
        # Every field of the sample depends on the state alone; the rate
        # belongs to the flow evaluation, not to the sample.
        import mpfc.diagnostics
        import mpfc.dynamics

        def no_flow(*args, **kwargs):
            raise AssertionError("measure_sample evaluated the flow")

        state = random_smooth_state(GridSpec(2, 32), 3, seed=2)
        # diagnostics takes every flow evaluation as an argument (``fe``)
        assert not hasattr(mpfc.diagnostics, "flow")
        monkeypatch.setattr(mpfc.dynamics, "flow", no_flow)
        sample = measure_sample(state, ModelSpec(kind, 0.125, 3))
        assert sample.energy_total > 0.0


# Stacked forms of the per-plane density and sample kernels, the reference
# they must match bitwise: same ufuncs on the same operands, with the
# temporaries as whole stacks.


def stacked_energy_densities(state, eps):
    h = state.spec.h
    grad_sq = np.stack([grad_dot_raw(u, u, h) for u in state.values])
    energy = np.multiply(0.5 * eps, grad_sq)
    potential = double_well(state.values) / eps
    return grad_sq, energy + potential, energy - potential


def stacked_measure_sample(state, model):
    h, d, u = state.spec.h, state.spec.d, state.values
    grad_sq, energy_dens, disc_dens = stacked_energy_densities(state, model.eps)

    def integrals(dens):
        return np.array([SIGMA_INV * integrate_raw(x, h, d) for x in dens])

    energy = integrals(energy_dens)
    return {
        "time": state.time,
        "energy_per_phase": energy,
        "energy_total": float(np.sum(energy)),
        "discrepancy_per_phase": integrals(disc_dens),
        "discrepancy_abs": float(np.sum(integrals(np.abs(disc_dens)))),
        "bv_proxy_per_phase": integrals(np.sqrt(grad_sq) * sqrt_double_well(u)),
        "constraint_drift": float(np.max(np.abs(stacked_defect(u, model)))),
        "phase_volumes": np.array([integrate_raw(x, h, d) for x in u]),
        "phase_sup": np.max(u.reshape(state.n_phases, -1), axis=1),
        "overshoot": float(max(0.0, np.max(u) - 1.0, -np.min(u))),
    }


@pytest.mark.parametrize("n", [8, 256])
@pytest.mark.parametrize("n_phases", [2, 3])
@pytest.mark.parametrize("kind", list(ModelKind))
def test_densities_and_sample_match_stacked_forms(kind, n_phases, n):
    model, on, off = manifold_pair(kind, n_phases, n)
    for state in (on, off):
        for got, want in zip(energy_densities(state, model.eps),
                             stacked_energy_densities(state, model.eps), strict=True):
            assert same_bits(got, want)
        sample = measure_sample(state, model)
        for name, want in stacked_measure_sample(state, model).items():
            assert same_bits(getattr(sample, name), want), name


class TestFirstVariation:
    def setup_disk(self, n=128, radius=0.3):
        eps = 8.0 / n
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)
        state = project_constraint(disk_state(n, eps, radius), model, max_violation=np.inf)
        return state, model

    def off_center_disk(self, n, eps, radius=0.3):
        # sub-cell asymmetric placement (same fraction of h at every n) so
        # parity does not hide the O(h^2) error yet the error constant is
        # stable under refinement
        spec = GridSpec(2, n)
        from mpfc.potential import optimal_profile

        X, Y = spec.meshgrid()
        dx = X - (0.5 + 0.37 * spec.h)
        dx -= np.round(dx)
        dy = Y - (0.5 + 0.19 * spec.h)
        dy -= np.round(dy)
        q = optimal_profile(radius - np.sqrt(dx * dx + dy * dy), eps)
        return PhaseField(spec, np.stack([q, 1.0 - q]))

    def test_constant_field_gives_zero_varifold_form(self):
        state, model = self.setup_disk()
        gfield = constant_vector_field(state.spec, (1.0, 0.0))
        report = first_variation(state, model, flow(state, model), gfield)
        assert report.first_variation == 0.0
        # translation invariance: the chemical form is pure discretization error
        assert abs(report.chemical_form) < 5e-3

    def test_mean_one_sided_difference_is_the_central_difference(self):
        # The chemical and kinetic forms pair g with (D+u + D-u)/2, which
        # differs from the central difference by round-off alone.
        state = random_smooth_state(GridSpec(2, 64), 3, seed=4)
        h = state.spec.h
        for ui in state.values:
            bound = 4 * np.finfo(np.float64).eps * np.max(np.abs(ui)) / h
            forward, backward = _one_sided_differences(ui, h)
            for p, m, central in zip(forward, backward, gradient_raw(ui, h), strict=True):
                assert np.max(np.abs(0.5 * (p + m) - central)) <= bound

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("n_phases", [2, 3])
    def test_varifold_is_stress_plus_discrepancy(self, kind, n_phases):
        # (I - n x n) : grad g e = e div g - eps D.(grad g) D + (n x n : grad g) xi
        # per side and cell; floored cells give the varifold the stress density.
        model, on, off = manifold_pair(kind, n_phases, 32)
        plateau = off.values.copy()
        plateau[:, :3, :3] = 0.5  # floored cells where W(u)/eps is not 0
        spec = on.spec
        fields = (
            constant_vector_field(spec, (1.0, 0.0)),
            radial_vector_field(spec),
            random_smooth_vector_field(spec, seed=3),
        )
        for state in (on, off, PhaseField(spec, plateau)):
            norm_sq = sum(c * c for c in _one_sided_differences(state.values[0], spec.h)[0])
            assert np.any(norm_sq <= GRADIENT_FLOOR**2) == (state is not off)
            fe = flow(state, model)
            for gfield in fields:
                report = first_variation(state, model, fe, gfield)
                terms = report.stress_form + report.discrepancy_term
                scale = 1.0 + abs(report.stress_form) + abs(report.discrepancy_term)
                assert abs(report.first_variation - terms) <= 1e-12 * scale
            e1 = first_variation(state, model, fe, fields[0])
            assert e1.first_variation == e1.stress_form == e1.discrepancy_term == 0.0

    def test_stress_minus_chemical_is_second_order_in_h(self):
        # A MeanShift disk at a fixed eps under h refinement: the varifold
        # residual keeps the discrepancy term, an eps effect, while the
        # stress form's residual is grid error alone.
        eps = 1.0 / 16.0
        residuals = {"radial": [], "random": []}
        for n in (64, 128, 256):
            spec = GridSpec(2, n)
            model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)
            scenario = Scenario(geometry=Disk(radius=0.3), model=model, grid=spec,
                                dt=spec.h**2, t_end=0.01, snapshot_every=1 << 20)
            state = run_simulation(scenario, keep_states=True).states[-1]
            fe = flow(state, model)
            fields = {"radial": radial_vector_field(spec),
                      "random": random_smooth_vector_field(spec, seed=0)}
            for name, gfield in fields.items():
                report = first_variation(state, model, fe, gfield)
                residuals[name].append(report.residuals["stress_minus_chemical"])
        for vals in residuals.values():
            for coarse, fine in zip(vals, vals[1:]):
                assert 3.5 <= coarse / fine <= 4.5

    def test_chemical_form_constant_field_refines_second_order(self):
        eps = 1.0 / 16.0
        vals = []
        for n in (64, 128, 256):
            model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)
            state = project_constraint(
                self.off_center_disk(n, eps), model, max_violation=np.inf
            )
            gfield = constant_vector_field(state.spec, (1.0, 0.0))
            report = first_variation(state, model, flow(state, model), gfield)
            vals.append(abs(report.chemical_form))
        # translation invariance: decays at least second order under refinement
        assert vals[0] / vals[1] >= 3.5
        assert vals[1] / vals[2] >= 3.5
        assert vals[2] < 1e-6

    def test_planar_interface_varifold_form_vanishes(self):
        # g = phi(x1) e1 on a layer normal to e1: (I - n x n) kills e1 x e1.
        n = 256
        eps = 1.0 / 32.0
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)
        state = project_constraint(strip_state(n, eps), model, max_violation=np.inf)
        x = state.spec.meshgrid()[0]
        comp0 = np.sin(2 * np.pi * x)
        gfield = constant_vector_field(state.spec, (0.0, 0.0))
        gvals = np.stack([comp0, np.zeros_like(comp0)])
        from mpfc.grid import VectorField

        gfield = VectorField(state.spec, gvals)
        report = first_variation(state, model, flow(state, model), gfield)
        assert abs(report.first_variation) <= 1e-6

    def test_disk_chemical_form_matches_circle_curvature(self):
        # Shrinking-circle oracle: each of the two phases contributes
        # -(2 pi r)(1/r) to the pairing with the unit inward field, so the
        # chemical form is -4 pi up to O(eps^2/r^2) + O(h^2) corrections.
        state, model = self.setup_disk(n=256, radius=0.25)
        gfield = radial_vector_field(state.spec)
        report = first_variation(state, model, flow(state, model), gfield)
        assert report.chemical_form == pytest.approx(-4.0 * np.pi, rel=0.10)
        # kinetic and chemical forms agree up to the multiplier term, which
        # vanishes on sum-projected states
        scale = 1.0 + abs(report.kinetic_form)
        assert abs(report.residuals["kinetic_minus_chemical"]) <= 1e-8 * scale

    def sphere_multiplier_defect(self, state, model, gfield):
        # kinetic - chemical == SIGMA^{-1} int lam sum_i u_i (grad u_i . g),
        # and on projected states sum_i u_i grad u_i is the discrete
        # chain-rule defect of grad(sum u_i^2)/2 = 0, an O(h^2) quantity.
        from mpfc.grid import gradient_raw, laplacian_raw
        from mpfc.potential import double_well_prime

        h, d = state.spec.h, state.spec.d
        eps = model.eps
        mu = -eps * np.stack([laplacian_raw(ui, h) for ui in state.values]) + double_well_prime(
            state.values
        ) / eps
        lam = np.sum(state.values * mu, axis=0)
        defect = np.zeros(state.spec.shape)
        for i in range(state.n_phases):
            grads = gradient_raw(state.values[i], h)
            defect += state.values[i] * sum(gfield.values[a] * grads[a] for a in range(d))
        return integrate_raw(lam * defect, h, d) / SIGMA

    def test_kinetic_minus_chemical_is_exactly_the_multiplier_term(self):
        state, model = projected_sphere_state(n=64, seed=5)
        gfield = random_smooth_vector_field(state.spec, seed=17)
        report = first_variation(state, model, flow(state, model), gfield)
        expected = self.sphere_multiplier_defect(state, model, gfield)
        resid = report.residuals["kinetic_minus_chemical"]
        assert resid == pytest.approx(expected, abs=1e-12 * (1 + abs(expected)))

    def test_sphere_multiplier_term_decays_second_order(self):
        # The continuum multiplier term vanishes on the sphere; discretely it
        # is the central-difference chain-rule defect and shrinks like h^2.
        eps = 1.0 / 8.0
        vals = []
        for n in (32, 64, 128):
            spec = GridSpec(2, n)
            from conftest import random_smooth_state

            base = random_smooth_state(spec, 3, seed=5)
            state = project_constraint(
                PhaseField(spec, base.values + 0.5),
                ModelSpec(ModelKind.SPHERE_LL, eps, 3),
                max_violation=np.inf,
            )
            model = ModelSpec(ModelKind.SPHERE_LL, eps, 3)
            gfield = random_smooth_vector_field(spec, seed=17)
            report = first_variation(state, model, flow(state, model), gfield)
            vals.append(abs(report.residuals["kinetic_minus_chemical"]))
        assert 2.5 <= vals[0] / vals[1] <= 6.0
        assert 2.5 <= vals[1] / vals[2] <= 6.0


class TestMeanCurvatureProxy:
    def test_equilibrium_gives_zero(self, spec64):
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        state = pure_state(spec64, (1.0, 0.0))
        density, bound = mean_curvature_proxy(state, model, flow(state, model))
        assert np.all(density.values == 0.0)
        assert bound == 0.0

    def test_disk_pairing_reproduces_curvature_times_length(self):
        n = 256
        eps = 8.0 / n
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)
        state = project_constraint(disk_state(n, eps, 0.25), model, max_violation=np.inf)
        density, bound = mean_curvature_proxy(state, model, flow(state, model))
        gfield = radial_vector_field(state.spec)
        pairing = integrate_raw(
            np.sum(density.values * gfield.values, axis=0), state.spec.h, state.spec.d
        )
        # two phases each contribute circumference x curvature = 2 pi
        assert -pairing / 2.0 == pytest.approx(2.0 * np.pi, rel=0.10)
        assert bound == pytest.approx(4.0 * np.pi / 0.25, rel=0.15)

    def test_cauchy_schwarz_bound_for_random_fields(self):
        n = 128
        eps = 8.0 / n
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)
        state = project_constraint(disk_state(n, eps), model, max_violation=np.inf)
        density, bound = mean_curvature_proxy(state, model, flow(state, model))
        h, d = state.spec.h, state.spec.d
        du = flow(state, model).rhs
        for seed in range(5):
            gfield = random_smooth_vector_field(state.spec, seed=seed)
            gv = gfield.values
            pairing = integrate_raw(np.sum(density.values * gv, axis=0), h, d)
            # |pairing|^2 <= bound * (SIGMA^{-1} int |g|^2 eps |grad u|^2)
            from mpfc.grid import gradient_raw

            e_g = 0.0
            for i in range(2):
                grads = gradient_raw(state.values[i], h)
                e_g += integrate_raw(
                    np.sum(gv * gv, axis=0) * sum(c * c for c in grads), h, d
                )
            e_g *= eps / SIGMA
            assert pairing**2 <= bound * e_g * (1.0 + 1e-12)


class TestJunctionMetrology:
    def test_symmetric_wedges_measured_at_120_degrees(self):
        spec = GridSpec(2, 256)
        eps = 8.0 / 256
        geom = TripleJunction()
        u = geom.profiles(spec, eps)
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 3)
        state = project_constraint(PhaseField(spec, u), model, max_violation=np.inf)
        angles, junction = measure_junction_angles(state, (0.5, 0.5))
        assert np.allclose(angles, 120.0, atol=2.0)
        assert np.allclose(junction, 0.5, atol=2 * spec.h)

    def test_off_node_centres_measured_at_120_degrees(self):
        # Exact 120-degree wedges centred between grid nodes: snapping the
        # junction to the nearest node biases the sectors by up to ~10 degrees.
        spec = GridSpec(2, 128)
        eps = 8.0 / 128
        model = ModelSpec(ModelKind.WEIGHTED_SQUARE, eps, 3)
        rng = np.random.default_rng(0)
        for center in rng.uniform(0.4, 0.6, size=(24, 2)):
            u = TripleJunction(center=tuple(center)).profiles(spec, eps)
            state = project_constraint(PhaseField(spec, u), model, max_violation=np.inf)
            angles, junction = measure_junction_angles(state, tuple(center))
            offset = junction - center
            offset -= np.round(offset)
            assert np.allclose(angles, 120.0, atol=3.0), (center, angles)
            assert np.max(np.abs(offset)) <= 0.25 * spec.h, (center, junction)

    def test_unprojected_off_node_centres_measured_at_120_degrees(self):
        # Unprojected profiles have max_i u_i = 1/2 along every interface, so
        # only the spread of the three largest phases singles out the junction.
        spec = GridSpec(2, 128)
        eps = 8.0 / 128
        rng = np.random.default_rng(0)
        for center in rng.uniform(0.4, 0.6, size=(24, 2)):
            u = TripleJunction(center=tuple(center)).profiles(spec, eps)
            angles, junction = measure_junction_angles(PhaseField(spec, u), tuple(center))
            offset = junction - center
            offset -= np.round(offset)
            assert np.allclose(angles, 120.0, atol=3.0), (center, angles)
            assert np.max(np.abs(offset)) <= 0.25 * spec.h, (center, junction)

    def test_two_phase_state_rejected(self):
        with pytest.raises(InputError):
            measure_junction_angles(disk_state(64), (0.5, 0.5))

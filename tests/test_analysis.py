"""Backward heat kernel, Gaussian density, monotonicity, weighted balance."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import (
    disk_state,
    manifold_pair,
    random_smooth_state,
    same_bits,
    strip_state,
    written_out_brakke_integrand,
)
from mpfc.analysis import (
    KernelSpec,
    backward_heat_kernel,
    brakke_residual,
    brakke_rhs_integrand,
    gaussian_density,
    kernel_field,
    monotonicity_check,
    mu_of_phi,
)
from mpfc.diagnostics import measure_sample
from mpfc.dynamics import ModelKind, ModelSpec, PhaseField, dissipation_rate, flow
from mpfc.errors import InputError
from mpfc.grid import (
    GridSpec,
    ScalarField,
    grad_dot_raw,
    integrate_raw,
    laplacian_raw,
    torus_delta,
)
from mpfc.potential import SIGMA, SIGMA_INV, double_well, double_well_prime
from mpfc.run import run_simulation
from mpfc.scenarios import Disk, Scenario
from mpfc.testfields import bump_field, radial_vector_field


def image_sum_oracle(x, y, tau, radius=60):
    """Independent 1D lattice sum with a very large truncation."""
    delta = (x - y) - round(x - y)
    ks = np.arange(-radius, radius + 1)
    return float(np.sum(np.exp(-((delta + ks) ** 2) / (4 * tau))))


class TestBackwardHeatKernel:
    def test_surface_normalization_exponent_at_center(self):
        # x = y with a small variance: images are < 1e-14, so the value is the
        # bare prefactor (4 pi tau)^{-(d-1)/2}; in d = 2 that is a 1/2 power.
        tau = 1.0 / 400.0
        spec = KernelSpec(center_y=(0.3, 0.7), terminal_s=1.0)
        val = backward_heat_kernel((0.3, 0.7), 1.0 - tau, spec)
        assert val == pytest.approx((4 * np.pi * tau) ** (-0.5), rel=1e-13)

    def test_center_value_with_visible_images(self):
        # at tau = 1/(4 pi) the prefactor is exactly 1 and periodic images
        # contribute at the e^{-pi} level; compare with an independent sum.
        tau = 1.0 / (4 * np.pi)
        spec = KernelSpec(center_y=(0.5, 0.5), terminal_s=2.0)
        val = backward_heat_kernel((0.5, 0.5), 2.0 - tau, spec)
        oracle = image_sum_oracle(0.5, 0.5, tau) ** 2
        assert val == pytest.approx(oracle, rel=1e-13)

    def test_unit_exponent_point(self):
        tau = 1.0 / 400.0
        spec = KernelSpec(center_y=(0.5, 0.5), terminal_s=1.0)
        x = (0.5 + np.sqrt(4 * tau), 0.5)
        val = backward_heat_kernel(x, 1.0 - tau, spec)
        expected = (4 * np.pi * tau) ** (-0.5) * np.exp(-1.0)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_periodic_consistency(self):
        tau = 0.01
        spec = KernelSpec(center_y=(0.3, 0.6), terminal_s=1.0)
        a = backward_heat_kernel((0.11, 0.92), 1.0 - tau, spec)
        b = backward_heat_kernel((1.11, 0.92), 1.0 - tau, spec)
        assert a == pytest.approx(b, rel=1e-14)

    def test_truncation_stability(self):
        # Three more image shells per axis than the kernel sums change nothing.
        tau = 0.05
        spec = KernelSpec(center_y=(0.2, 0.4), terminal_s=1.0)
        x = (0.77, 0.13)
        a = backward_heat_kernel(x, 1.0 - tau, spec)
        radius = spec.truncation_for(1.0 - tau) + 3
        shells = np.arange(-radius, radius + 1)
        b = (4 * np.pi * tau) ** -0.5
        for xa, ya in zip(x, spec.center_y):
            z = torus_delta(xa, ya) + shells
            b *= np.sum(np.exp(-z * z / (4 * tau)))
        assert abs(a - b) <= 1e-14 * max(1.0, abs(a))

    @pytest.mark.parametrize("center", [(0.5,), (0.5, 0.5, 0.9)])
    def test_centre_of_wrong_dimension_rejected(self, center):
        # A 2D point or grid takes a centre of two coordinates, no more, no fewer.
        spec = KernelSpec(center_y=center, terminal_s=1.0)
        with pytest.raises(InputError, match="coordinates"):
            backward_heat_kernel((0.5, 0.5), 0.5, spec)
        with pytest.raises(InputError, match="coordinates"):
            kernel_field(GridSpec(2, 16), 0.5, spec)

    @pytest.mark.parametrize("center, terminal", [
        ((np.nan, 0.5), 1.0), ((0.5, np.inf), 1.0),
        ((0.5, 0.5), np.inf), ((0.5, 0.5), -np.inf), ((0.5, 0.5), np.nan),
    ])
    def test_non_finite_centre_or_terminal_rejected(self, center, terminal):
        with pytest.raises(InputError, match="not finite"):
            KernelSpec(center_y=center, terminal_s=terminal)

    def test_domain_error_at_terminal_time(self):
        spec = KernelSpec(center_y=(0.5, 0.5), terminal_s=0.5)
        with pytest.raises(InputError):
            backward_heat_kernel((0.5, 0.5), 0.5, spec)
        with pytest.raises(InputError):
            backward_heat_kernel((0.5, 0.5), 0.7, spec)


class TestGaussianDensity:
    def test_zero_energy_state(self):
        spec = GridSpec(2, 64)
        state = PhaseField(spec, np.stack([np.ones(spec.shape), np.zeros(spec.shape)]))
        kspec = KernelSpec(center_y=(0.5, 0.5), terminal_s=1.0)
        assert gaussian_density(state, 0.05, kspec) == 0.0

    def test_flat_interface_against_separable_oracle(self):
        # The strip state depends on x1 only, so the density factorizes into
        # (1D energy profile x 1D kernel sum) x (kernel sum over x2), which
        # the oracle evaluates by direct quadrature on the same lattice.
        n, eps = 256, 1.0 / 32.0
        state = strip_state(n, eps)
        kspec = KernelSpec(center_y=(0.25, 0.5), terminal_s=0.08)
        val = gaussian_density(state, eps, kspec)

        h = 1.0 / n
        x = np.arange(n) * h
        tau = 0.08
        u = state.values[0][:, 0]
        du = (np.roll(u, -1) - np.roll(u, 1)) / (2 * h)
        e1d = 2.0 * (0.5 * eps * du**2 + double_well(u) / eps) / SIGMA
        s1 = np.array([image_sum_oracle(xi, 0.25, tau) for xi in x])
        s2 = np.array([image_sum_oracle(xi, 0.5, tau) for xi in x])
        pref = (4 * np.pi * tau) ** (-0.5)
        oracle = pref * float(np.sum(e1d * s1) * h) * float(np.sum(s2) * h)
        assert val == pytest.approx(oracle, rel=0.01)

    def test_translation_invariance(self):
        n, eps = 128, 1.0 / 16.0
        state = disk_state(n, eps)
        kspec = KernelSpec(center_y=(0.5, 0.5), terminal_s=0.06)
        val = gaussian_density(state, eps, kspec)
        shift = 17
        shifted = PhaseField(
            state.spec, np.roll(state.values, shift, axis=1), state.time
        )
        kspec2 = KernelSpec(center_y=(0.5 + shift / n, 0.5), terminal_s=0.06)
        val2 = gaussian_density(shifted, eps, kspec2)
        assert val2 == pytest.approx(val, rel=1e-12)


def equilibrium_run(spec, n_snap=6, dt=1e-4):
    states = []
    u = np.stack([np.ones(spec.shape), np.zeros(spec.shape)])
    for k in range(n_snap):
        states.append(PhaseField(spec, u, time=k * dt))
    return states


class TestMonotonicityCheck:
    def test_equilibrium_run_passes_with_zero_terms(self):
        spec = GridSpec(2, 32)
        states = equilibrium_run(spec)
        kspec = KernelSpec(center_y=(0.5, 0.5), terminal_s=1.0)
        trace, verdict = monotonicity_check(states, 0.05, kspec)
        assert verdict
        assert np.allclose(trace.fd_derivative, 0.0)
        assert np.allclose(trace.rhs_bound, 0.0)

    def test_input_validation(self):
        spec = GridSpec(2, 32)
        states = equilibrium_run(spec, n_snap=2)
        kspec = KernelSpec(center_y=(0.5, 0.5), terminal_s=1.0)
        with pytest.raises(InputError):
            monotonicity_check(states, 0.05, kspec)
        states = equilibrium_run(spec, n_snap=4)
        bad = states[:2] + [PhaseField(spec, states[2].values, time=0.00021)]
        with pytest.raises(InputError):
            monotonicity_check(bad, 0.05, kspec)
        nan = states[:1] + [PhaseField(spec, states[1].values, time=np.nan)] + states[2:]
        with pytest.raises(InputError):
            monotonicity_check(nan, 0.05, kspec)
        late = KernelSpec(center_y=(0.5, 0.5), terminal_s=0.0003)
        with pytest.raises(InputError):
            monotonicity_check(states, 0.05, late)

    def test_eps_must_match_the_model(self):
        # The sphere terms evaluate the flow at model.eps; the densities use eps.
        spec = GridSpec(2, 32)
        states = equilibrium_run(spec, n_snap=4)
        kspec = KernelSpec(center_y=(0.5, 0.5), terminal_s=1.0)
        model = ModelSpec(ModelKind.SPHERE_LL, 0.05, 2)
        with pytest.raises(InputError):
            monotonicity_check(states, 0.06, kspec, model=model)

    def test_shrinking_disk_inequality_holds(self):
        n = 128
        eps = 8.0 / n
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)
        spec = GridSpec(2, n)
        scn = Scenario(
            geometry=Disk(radius=0.3), model=model, grid=spec,
            dt=spec.h**2, t_end=0.0078125, snapshot_every=16,
        )
        rec = run_simulation(scn, keep_states=True)
        states = rec.states
        times = [s.time for s in states]
        assert np.allclose(np.diff(times), times[1] - times[0])
        kspec = KernelSpec(center_y=(0.5, 0.5), terminal_s=1.1 * 0.045)
        trace, verdict = monotonicity_check(states, eps, kspec, model=model)
        assert verdict

    def test_sum_model_evaluates_no_flow(self, monkeypatch):
        # Only the sphere model's multiplier terms need du/dt; for the others
        # the model adds nothing to the trace, so no flow is evaluated.
        import mpfc.analysis

        n = 64
        model = ModelSpec(ModelKind.MEAN_SHIFT, 4.0 / n, 2)
        spec = GridSpec(2, n)
        scn = Scenario(
            geometry=Disk(radius=0.3), model=model, grid=spec,
            dt=spec.h**2, t_end=16 * spec.h**2, snapshot_every=4,
        )
        states = run_simulation(scn, keep_states=True).states
        kspec = KernelSpec(center_y=(0.5, 0.5), terminal_s=0.05)
        plain, plain_verdict = monotonicity_check(states, model.eps, kspec)

        def no_flow(*args, **kwargs):
            raise AssertionError("monotonicity_check evaluated the flow")

        monkeypatch.setattr(mpfc.analysis, "flow", no_flow)
        trace, verdict = monotonicity_check(states, model.eps, kspec, model=model)
        assert verdict == plain_verdict
        for f in dataclasses.fields(trace):
            a, b = getattr(trace, f.name), getattr(plain, f.name)
            assert (a is None and b is None) or np.array_equal(a, b), f.name

    def test_multiplier_terms_written_out(self):
        # a_i = (1/(2 SIGMA)) int rho lam d_t(u_i^2) and
        # b_i = (1/(2 SIGMA)) int lam grad_dot_raw(rho, u_i^2), the Brakke cross
        # term's pairing.  Off the sphere their sum does not cancel, so the
        # trace's sum and scale both read the pairing, bit for bit.
        from conftest import projected_sphere_state

        base, model = projected_sphere_state(n=64, seed=2)
        spec, h = base.spec, base.spec.h
        factor = 1.0 + 0.1 * np.sin(2 * np.pi * spec.meshgrid()[0])
        states = [PhaseField(spec, base.values * factor, time=k * 1e-4) for k in range(3)]
        kspec = KernelSpec(center_y=(0.4, 0.55), terminal_s=0.05)
        trace, _ = monotonicity_check(states, model.eps, kspec, model=model)
        for k, st in enumerate(states):
            fe, rho = flow(st, model), kernel_field(spec, st.time, kspec)
            lam = fe.multiplier
            total = scale = 0.0
            for u, du in zip(st.values, fe.rhs):
                a = 0.5 * SIGMA_INV * integrate_raw(rho * lam * (2.0 * u * du), h, 2)
                b = 0.5 * SIGMA_INV * integrate_raw(lam * grad_dot_raw(rho, u * u, h), h, 2)
                total += a + b
                scale += abs(a) + abs(b)
            assert abs(total) > 1e-3 * scale
            assert trace.multiplier_cancellation[k] == total
            assert trace.multiplier_scale[k] == scale

    def test_sphere_multiplier_cancellation(self):
        from conftest import projected_sphere_state

        spec = GridSpec(2, 64)
        model = ModelSpec(ModelKind.SPHERE_LL, 0.0625, 3)
        base, _ = projected_sphere_state(n=64, seed=2)
        states = [PhaseField(spec, base.values, time=k * 1e-4) for k in range(5)]
        kspec = KernelSpec(center_y=(0.5, 0.5), terminal_s=0.05)
        trace, _ = monotonicity_check(states, model.eps, kspec, model=model)
        assert trace.multiplier_cancellation is not None
        scale = max(float(np.max(trace.multiplier_scale)), 1e-300)
        assert np.max(np.abs(trace.multiplier_cancellation)) <= 1e-10 * scale


@pytest.mark.parametrize("n_phases", [2, 3])
@pytest.mark.parametrize("kind", list(ModelKind))
def test_brakke_integrand_matches_the_phase_sums(kind, n_phases):
    # The dissipation term reads the flow's rate_density; the reference
    # re-sums (du_i/dt)^2 over the phases itself.  Both must agree bit for bit.
    model, on, off = manifold_pair(kind, n_phases, 64)
    phi = bump_field(on.spec, center=(0.4, 0.5))
    for state in (on, off):
        fe = flow(state, model)
        got = brakke_rhs_integrand(state, model, fe, phi)
        assert same_bits(got, written_out_brakke_integrand(state, model, fe, phi.values))


class TestBrakkeResidual:
    def test_static_phi_series_equals_the_public_integrand(self):
        # A field keeps its differences once formed, so a static field is
        # differenced once for the whole run and a field per snapshot once per
        # snapshot; all must give the series formed from mu_of_phi and
        # brakke_rhs_integrand, bit for bit.
        spec = GridSpec(2, 64)
        model = ModelSpec(ModelKind.SPHERE_LL, 4.0 / 64, 3)
        scenario = Scenario(geometry=Disk(radius=0.25), model=model, grid=spec, dt=spec.h**2,
                            t_end=6 * spec.h**2, snapshot_every=2, projection="off")
        states = run_simulation(scenario, keep_states=True).states
        phi = bump_field(spec, center=(0.4, 0.5))
        lhs = np.array([mu_of_phi(st, model.eps, phi.values) for st in states])
        integrand = np.array(
            [brakke_rhs_integrand(st, model, flow(st, model), phi) for st in states]
        )
        assert integrand.tolist() == [
            written_out_brakke_integrand(st, model, flow(st, model), phi.values) for st in states
        ]
        dts = np.diff([st.time for st in states])
        want = np.diff(lhs) - 0.5 * dts * (integrand[:-1] + integrand[1:])
        copies = [ScalarField(spec, phi.values) for _ in states]
        for field in (phi, [phi] * len(states), copies):
            assert brakke_residual(states, model.eps, model, field).tobytes() == want.tobytes()

    def test_equilibrium_run_has_zero_residual(self):
        spec = GridSpec(2, 32)
        states = equilibrium_run(spec)
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        phi = bump_field(spec)
        res = brakke_residual(states, model.eps, model, phi)
        assert np.max(np.abs(res)) < 1e-14

    def test_negative_phi_rejected(self):
        spec = GridSpec(2, 32)
        states = equilibrium_run(spec)
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        phi = ScalarField.constant(spec, -1.0)
        with pytest.raises(InputError):
            brakke_residual(states, model.eps, model, phi)

    def test_phi_off_the_run_grid_rejected(self):
        spec = GridSpec(2, 32)
        states = equilibrium_run(spec)
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        with pytest.raises(InputError):
            brakke_residual(states, model.eps, model, bump_field(GridSpec(2, 16)))
        with pytest.raises(InputError, match="d_t phi"):
            brakke_residual(states, model.eps, model, bump_field(spec), bump_field(GridSpec(2, 16)))

    def test_eps_must_match_the_model(self):
        # mu_of_phi reads eps while the flow runs at model.eps.
        spec = GridSpec(2, 32)
        states = equilibrium_run(spec)
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        with pytest.raises(InputError):
            brakke_residual(states, 0.06, model, bump_field(spec))

    def test_run_series_phi_contract(self):
        # A run's series integrate a static, nonnegative phi on the run's grid.
        n = 64
        model = ModelSpec(ModelKind.MEAN_SHIFT, 4.0 / n, 2)
        spec = GridSpec(2, n)
        scn = Scenario(
            geometry=Disk(radius=0.3), model=model, grid=spec,
            dt=spec.h**2, t_end=4 * spec.h**2, snapshot_every=2,
        )
        bump = bump_field(spec)
        with pytest.raises(ValueError):
            run_simulation(scn, brakke_phis={"bump": (bump, bump)})
        for phi in (ScalarField.constant(spec, -1.0), bump_field(GridSpec(2, 32))):
            with pytest.raises(InputError):
                run_simulation(scn, brakke_phis={"phi": (phi, None)})

    def test_nan_time_rejected(self):
        spec = GridSpec(2, 32)
        states = equilibrium_run(spec, n_snap=4)
        states[1] = PhaseField(spec, states[1].values, time=np.nan)
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        with pytest.raises(InputError):
            brakke_residual(states, model.eps, model, bump_field(spec))

    def test_times_checked_before_any_state_is_evaluated(self, monkeypatch):
        import mpfc.analysis
        import mpfc.dynamics

        def no_flow(*args, **kwargs):
            raise AssertionError("brakke_residual evaluated a state before checking the times")

        spec = GridSpec(2, 32)
        states = equilibrium_run(spec, n_snap=4)[::-1]
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        monkeypatch.setattr(mpfc.dynamics, "flow", no_flow)
        monkeypatch.setattr(mpfc.analysis, "flow", no_flow)
        with pytest.raises(InputError):
            brakke_residual(states, model.eps, model, bump_field(spec))

    def test_one_flow_per_state(self, monkeypatch):
        import mpfc.analysis
        import mpfc.dynamics

        calls = []

        def counted(state, model):
            calls.append(state.time)
            return flow(state, model)

        spec = GridSpec(2, 32)
        model = ModelSpec(ModelKind.SPHERE_LL, 0.125, 3)
        states = [
            PhaseField(spec, random_smooth_state(spec, 3, seed=k).values + 0.5, time=k * 1e-4)
            for k in range(5)
        ]
        monkeypatch.setattr(mpfc.dynamics, "flow", counted)
        monkeypatch.setattr(mpfc.analysis, "flow", counted)
        brakke_residual(states, model.eps, model, bump_field(spec))
        assert calls == [st.time for st in states]

    def test_space_time_phi_is_linear_in_the_time_factor(self):
        # phi_k = c(t_k) psi with d_t phi_k = c'(t_k) psi must give the
        # residual assembled from the static pieces of psi.
        n = 64
        model = ModelSpec(ModelKind.MEAN_SHIFT, 4.0 / n, 2)
        spec = GridSpec(2, n)
        scn = Scenario(
            geometry=Disk(radius=0.3), model=model, grid=spec,
            dt=spec.h**2, t_end=32 * spec.h**2, snapshot_every=8,
        )
        states = run_simulation(scn, keep_states=True).states
        psi = bump_field(spec)
        times = np.array([st.time for st in states])
        c = 1.0 + 40.0 * times + 3e3 * times**2
        dc = 40.0 + 6e3 * times
        phis = [ScalarField(spec, ck * psi.values) for ck in c]
        dphis = [ScalarField(spec, dck * psi.values) for dck in dc]
        res = brakke_residual(states, model.eps, model, phis, dphis)

        lhs = np.array([ck * mu_of_phi(st, model.eps, psi.values) for ck, st in zip(c, states)])
        integrand = np.array([
            dck * mu_of_phi(st, model.eps, psi.values)
            + ck * brakke_rhs_integrand(st, model, flow(st, model), psi)
            for ck, dck, st in zip(c, dc, states)
        ])
        expected = np.diff(lhs) - 0.5 * np.diff(times) * (integrand[:-1] + integrand[1:])
        assert np.all(np.abs(dc * mu_of_phi(states[0], model.eps, psi.values)) > 0.0)
        assert np.max(np.abs(res - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_per_snapshot_fields_drop_their_differences(self):
        # A list of per-snapshot fields is differenced once per snapshot, and
        # the differences must not outlive the call while the caller holds the
        # list; a static phi passed once keeps them for the next call.
        n = 64
        spec = GridSpec(2, n)
        model = ModelSpec(ModelKind.MEAN_SHIFT, 4.0 / n, 2)
        scn = Scenario(geometry=Disk(radius=0.3), model=model, grid=spec,
                       dt=spec.h**2, t_end=32 * spec.h**2, snapshot_every=4)
        states = run_simulation(scn, keep_states=True).states
        assert len(states) == 9
        psi = bump_field(spec)
        brakke_residual(states, model.eps, model, psi)  # warms the scratch slots
        assert "forward_differences" in vars(psi)
        phis = [ScalarField(spec, psi.values) for _ in states]
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            res = brakke_residual(states, model.eps, model, phis)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained - base < 8 * n * n  # less than one grid array
        assert not any("forward_differences" in vars(phi) for phi in phis)
        assert res.tobytes() == brakke_residual(states, model.eps, model, psi).tobytes()

    def test_space_time_phi_list_length_must_match(self):
        spec = GridSpec(2, 32)
        states = equilibrium_run(spec, n_snap=4)
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        phi = bump_field(spec)
        with pytest.raises(InputError):
            brakke_residual(states, model.eps, model, [phi] * 3)
        with pytest.raises(InputError):
            brakke_residual(states, model.eps, model, [phi] * 4, [phi] * 5)

    def test_constant_phi_reduces_to_energy_balance(self):
        # phi == 1 kills the gradient and time-derivative terms, leaving the
        # dissipation identity evaluated on the same snapshots.
        n = 128
        eps = 8.0 / n
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)
        spec = GridSpec(2, n)
        scn = Scenario(
            geometry=Disk(radius=0.3), model=model, grid=spec,
            dt=spec.h**2, t_end=0.002, snapshot_every=8,
        )
        rec = run_simulation(scn, keep_states=True)
        states = rec.states
        res = brakke_residual(states, eps, model, ScalarField.constant(spec, 1.0))
        energies = np.array([measure_sample(s, model).energy_total for s in states])
        rates = np.array([dissipation_rate(s, model) for s in states])
        dts = np.diff([s.time for s in states])
        expected = np.diff(energies) + 0.5 * dts * (rates[:-1] + rates[1:])
        assert np.max(np.abs(res - expected)) <= 1e-12 * max(1.0, float(np.max(energies)))

    def test_run_record_one_series_shares_the_dissipation_accumulator(self):
        n = 128
        eps = 8.0 / n
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)
        spec = GridSpec(2, n)
        scn = Scenario(
            geometry=Disk(radius=0.3), model=model, grid=spec,
            dt=spec.h**2, t_end=0.002, snapshot_every=8,
        )
        rec = run_simulation(scn)
        lhs = rec.brakke["one"].residuals()
        rhs_series = np.diff(rec.energy_totals) + np.diff(rec.dissipated)
        assert np.array_equal(lhs, rhs_series)

    def test_run_record_one_series_is_the_energy_balance(self):
        n = 64
        model = ModelSpec(ModelKind.WEIGHTED_SUM, 4.0 / n, 2)
        spec = GridSpec(2, n)
        scn = Scenario(
            geometry=Disk(radius=0.3), model=model, grid=spec,
            dt=spec.h**2, t_end=32 * spec.h**2, snapshot_every=4,
        )
        rec = run_simulation(scn, brakke_phis={"bump": (bump_field(spec), None)})
        one = rec.brakke["one"]
        assert list(rec.brakke) == ["one", "bump"]
        assert np.all(one.mu_phi == rec.energy_totals)
        assert np.all(rec.dissipated == -one.rhs_cumulative)

    def test_mu_of_phi_matches_weighted_energy(self):
        n, eps = 128, 1.0 / 16.0
        state = strip_state(n, eps)
        phi = bump_field(state.spec).values
        h = state.spec.h
        direct = sum(
            integrate_raw(phi * (0.5 * eps * grad_dot_raw(u, u, h) + double_well(u) / eps), h, 2)
            for u in state.values
        ) / SIGMA
        assert mu_of_phi(state, eps, phi) == pytest.approx(direct, rel=1e-13)


class TestDiscreteVariationalIdentity:
    """d/ds mu_of_phi(u + s v) = SIGMA^{-1} <phi mu - eps X, v> at s = 0.

    mu is the flow's chemical potential and X_i the summation-by-parts cross
    term sum_a (D+phi D+u_i + D-phi D-u_i) / 2, written out here
    independently of the package.  The weighted energy is quartic in s, so
    the five-point difference is exact up to round-off.
    """

    @staticmethod
    def directional_derivatives(phi):
        spec = GridSpec(2, 32)
        h, eps = spec.h, 4.0 * spec.h
        u = random_smooth_state(spec, 2, seed=4).values
        v = np.random.default_rng(7).normal(size=u.shape)

        def f(s):
            return mu_of_phi(PhaseField(spec, u + s * v), eps, phi)

        s = 1e-2
        fd = (f(-2 * s) - 8 * f(-s) + 8 * f(s) - f(2 * s)) / (12 * s)

        def fwd(a, ax):
            return (np.roll(a, -1, axis=ax) - a) / h

        def bwd(a, ax):
            return (a - np.roll(a, 1, axis=ax)) / h

        mu = -eps * np.stack([laplacian_raw(ui, h) for ui in u]) + double_well_prime(u) / eps
        X = np.stack([
            sum(0.5 * (fwd(phi, ax) * fwd(ui, ax) + bwd(phi, ax) * bwd(ui, ax)) for ax in range(2))
            for ui in u
        ])
        expected = h**2 * float(np.sum((phi * mu - eps * X) * v)) / SIGMA
        return fd, expected

    def test_bump_phi(self):
        fd, expected = self.directional_derivatives(bump_field(GridSpec(2, 32)).values)
        assert abs(fd - expected) <= 1e-12 * abs(expected)

    def test_constant_phi_has_no_cross_term(self):
        fd, expected = self.directional_derivatives(np.ones((32, 32)))
        assert abs(fd - expected) <= 1e-12 * abs(expected)


class TestTestFieldCentres:
    def test_default_centre_follows_the_grid_dimension(self):
        spec = GridSpec(3, 16)
        bump = bump_field(spec)
        assert bump.values[8, 8, 8] == 1.0
        assert bump.values[0, 0, 0] == 0.0
        assert np.array_equal(bump.values, bump_field(spec, center=(0.5, 0.5, 0.5)).values)
        assert radial_vector_field(spec).values.shape == (3, 16, 16, 16)

    def test_centre_of_the_wrong_length_rejected(self):
        spec = GridSpec(3, 16)
        with pytest.raises(ValueError):
            bump_field(spec, center=(0.5, 0.5))
        with pytest.raises(ValueError):
            radial_vector_field(GridSpec(2, 16), center=(0.5, 0.5, 0.5))


class TestKernelField:
    def test_field_matches_the_pointwise_kernel(self):
        spec = GridSpec(2, 64)
        kspec = KernelSpec(center_y=(0.4, 0.6), terminal_s=0.1)
        rho = kernel_field(spec, 0.06, kspec)
        i, j = 20, 44
        assert rho[i, j] == pytest.approx(
            backward_heat_kernel((i * spec.h, j * spec.h), 0.06, kspec), rel=1e-13)

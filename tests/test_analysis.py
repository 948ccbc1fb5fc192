"""Backward heat kernel, Gaussian density, monotonicity, weighted balance."""

import dataclasses

import numpy as np
import pytest

from conftest import disk_state, random_smooth_state, strip_state
from mpfc.analysis import (
    KernelSpec,
    backward_heat_kernel,
    brakke_residual,
    gaussian_density,
    kernel_field,
    monotonicity_check,
    mu_of_phi,
)
from mpfc.diagnostics import measure_sample
from mpfc.dynamics import ModelKind, ModelSpec, PhaseField, dissipation_rate
from mpfc.errors import InputError
from mpfc.grid import GridSpec, ScalarField, laplacian_raw
from mpfc.potential import SIGMA, double_well, double_well_prime
from mpfc.run import run_simulation
from mpfc.scenarios import Disk, Scenario
from mpfc.testfields import bump_field


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
        tau = 0.05
        base = KernelSpec(center_y=(0.2, 0.4), terminal_s=1.0)
        wide = KernelSpec(center_y=(0.2, 0.4), terminal_s=1.0,
                          image_truncation=base.truncation_for(1.0 - tau) + 3)
        x = (0.77, 0.13)
        a = backward_heat_kernel(x, 1.0 - tau, base)
        b = backward_heat_kernel(x, 1.0 - tau, wide)
        assert abs(a - b) <= 1e-14 * max(1.0, abs(a))

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
        late = KernelSpec(center_y=(0.5, 0.5), terminal_s=0.0003)
        with pytest.raises(InputError):
            monotonicity_check(states, 0.05, late)

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


class TestBrakkeResidual:
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
        phi = bump_field(state.spec)
        from mpfc.diagnostics import energy_measure

        direct = float(np.sum(energy_measure(state, eps, phi)))
        assert mu_of_phi(state, eps, phi.values) == pytest.approx(direct, rel=1e-13)


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

        mu = -eps * laplacian_raw(u, h, axis_offset=1) + double_well_prime(u) / eps
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


class TestKernelField:
    def test_gradient_matches_finite_difference(self):
        spec = GridSpec(2, 64)
        kspec = KernelSpec(center_y=(0.4, 0.6), terminal_s=0.1)
        rho, grad = kernel_field(spec, 0.06, kspec, with_gradient=True)
        # analytic gradient vs a fine centered difference at a lattice point
        delta = 1e-6
        t = 0.06
        i, j = 20, 44
        x0, x1 = i * spec.h, j * spec.h
        assert rho[i, j] == pytest.approx(backward_heat_kernel((x0, x1), t, kspec), rel=1e-13)
        for axis in (0, 1):
            off = [0.0, 0.0]
            off[axis] = delta
            up = backward_heat_kernel((x0 + off[0], x1 + off[1]), t, kspec)
            dn = backward_heat_kernel((x0 - off[0], x1 - off[1]), t, kspec)
            fd = (up - dn) / (2 * delta)
            assert grad[axis][i, j] == pytest.approx(float(fd), rel=1e-6)

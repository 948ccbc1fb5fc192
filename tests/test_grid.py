"""Grid operators: stencil definitions, accuracy order, quadrature, solver."""

import numpy as np
import pytest

import mpfc.grid
from conftest import disk_state, random_smooth_state, strip_state
from mpfc.diagnostics import energy_densities, measure_sample
from mpfc.dynamics import (
    ModelKind,
    ModelSpec,
    PhaseField,
    advance,
    flow,
    max_neighbor_jump,
    project_constraint,
)
from mpfc.errors import BlowUpError, SolverFailureError
from mpfc.grid import (
    GridSpec,
    ScalarField,
    grad_dot_raw,
    gradient_raw,
    helmholtz_solve_raw,
    integrate_raw,
    laplacian_raw,
    stencil_symbol,
)


def trig_field(spec, kx=1, ky=0):
    x, y = spec.meshgrid()
    return np.cos(2 * np.pi * (kx * x + ky * y))


class TestGridSpec:
    def test_spacing_is_exact_reciprocal(self):
        spec = GridSpec(2, 64)
        assert spec.h * spec.n == 1.0
        assert spec.shape == (64, 64)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            GridSpec(1, 64)
        with pytest.raises(ValueError):
            GridSpec(2, 4)

    def test_fields_reject_nan_and_freeze(self):
        spec = GridSpec(2, 8)
        with pytest.raises(ValueError):
            ScalarField(spec, np.full(spec.shape, np.nan))
        f = ScalarField.constant(spec, 1.0)
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0


class TestLaplacian:
    def test_constant_maps_to_zero(self, spec64):
        f = ScalarField.constant(spec64, 3.25)
        assert np.all(laplacian_raw(f.values, spec64.h) == 0.0)

    def test_trig_eigenfunction_second_order(self):
        errs = []
        for n in (64, 128):
            spec = GridSpec(2, n)
            f = trig_field(spec)
            err = np.max(np.abs(laplacian_raw(f, spec.h) + (2 * np.pi) ** 2 * f))
            errs.append(err)
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_delta_stencil_values(self):
        # Kronecker delta: -2d/h^2 at the cell, +1/h^2 at each axis neighbor.
        spec = GridSpec(2, 8)
        vals = np.zeros(spec.shape)
        vals[3, 3] = 1.0
        lap = laplacian_raw(vals, spec.h)
        h2 = spec.h**2
        assert lap[3, 3] == pytest.approx(-4.0 / h2)
        for idx in ((2, 3), (4, 3), (3, 2), (3, 4)):
            assert lap[idx] == pytest.approx(1.0 / h2)
        assert np.count_nonzero(lap) == 5

    def test_periodic_wrap_of_delta(self):
        spec = GridSpec(2, 8)
        vals = np.zeros(spec.shape)
        vals[0, 0] = 1.0
        lap = laplacian_raw(vals, spec.h)
        h2 = spec.h**2
        assert lap[7, 0] == pytest.approx(1.0 / h2)
        assert lap[0, 7] == pytest.approx(1.0 / h2)


class TestGradient:
    def test_constant_maps_to_zero(self, spec64):
        g = gradient_raw(np.full(spec64.shape, -1.5), spec64.h)
        assert np.all(np.stack(g) == 0.0)

    def test_trig_derivative_second_order(self):
        errs = []
        for n in (64, 128):
            spec = GridSpec(2, n)
            x, _ = spec.meshgrid()
            g = gradient_raw(np.sin(2 * np.pi * x), spec.h)
            err = np.max(np.abs(g[0] - 2 * np.pi * np.cos(2 * np.pi * x)))
            errs.append(err)
            assert np.max(np.abs(g[1])) == 0.0
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_sawtooth_wrap_cells(self):
        # f = j*h is linear in the index; interior slope exact, wrap cells see
        # the periodic difference (f_1 - f_{n-1}) across the jump.
        spec = GridSpec(2, 16)
        x, _ = spec.meshgrid()
        g = gradient_raw(x, spec.h)[0]
        n, h = spec.n, spec.h
        assert np.allclose(g[1:-1, :], 1.0)
        expected_wrap = (h - (n - 1) * h) / (2 * h)
        assert np.allclose(g[0, :], expected_wrap)
        assert np.allclose(g[-1, :], expected_wrap)


class TestIntegrate:
    def test_unit_volume(self, spec64):
        assert integrate_raw(np.ones(spec64.shape), spec64.h, 2) == pytest.approx(1.0, abs=1e-15)

    def test_periodic_trig_quadrature_is_exact(self):
        # The h^d-weighted sum is the periodic trapezoid rule: exact on sin^2.
        spec = GridSpec(2, 64)
        x, _ = spec.meshgrid()
        val = integrate_raw(np.sin(2 * np.pi * x) ** 2, spec.h, spec.d)
        assert val == pytest.approx(0.5, abs=1e-14)

    def test_weighted(self, spec64):
        # A weighted integral is the integral of the caller's product.
        f = ScalarField.constant(spec64, 2.0)
        w = ScalarField.constant(spec64, 3.0)
        assert integrate_raw(f.values * w.values, spec64.h, 2) == pytest.approx(6.0, abs=1e-13)

    def test_repeated_calls_bitwise_identical(self):
        rng = np.random.default_rng(7)
        spec = GridSpec(2, 64)
        f = rng.normal(size=spec.shape)
        vals = {integrate_raw(f, spec.h, spec.d) for _ in range(5)}
        assert len(vals) == 1


class TestHelmholtz:
    def test_constant_solution(self, spec64):
        b, c = 0.7, 1.25
        rhs = np.full(spec64.shape, c)
        x = helmholtz_solve_raw(rhs, b, spec64)
        assert np.max(np.abs(x - c)) < 1e-12

    def test_exact_stencil_symbol(self):
        # rhs = (1 + b*s_1) cos(2 pi x) with s_1 the discrete eigenvalue gives
        # back the cosine to round-off.
        spec = GridSpec(2, 32)
        x, _ = spec.meshgrid()
        b = 0.3
        s1 = (4.0 / spec.h**2) * np.sin(np.pi / spec.n) ** 2
        rhs = (1.0 + b * s1) * np.cos(2 * np.pi * x)
        sol = helmholtz_solve_raw(rhs, b, spec)
        assert np.max(np.abs(sol - np.cos(2 * np.pi * x))) < 1e-12

    def test_identity_when_b_zero(self, spec64):
        rng = np.random.default_rng(3)
        rhs = rng.normal(size=spec64.shape)
        x = helmholtz_solve_raw(rhs, 0.0, spec64)
        assert np.max(np.abs(x - rhs)) < 1e-12

    def test_parameter_validation(self, spec64):
        rhs = np.ones(spec64.shape)
        with pytest.raises(ValueError):
            helmholtz_solve_raw(rhs, -1.0, spec64)

    def test_symbol_matches_laplacian_on_modes(self):
        spec = GridSpec(2, 16)
        sym = stencil_symbol(spec)
        x, y = spec.meshgrid()
        f = np.cos(2 * np.pi * (3 * x + 5 * y))
        lap = laplacian_raw(f, spec.h)
        lam = sym[3, 5]
        assert np.max(np.abs(lap - lam * f)) < 1e-9 * np.max(np.abs(lam))


class TestInvariants:
    def smooth_random(self, spec, seed=0):
        rng = np.random.default_rng(seed)
        axes = spec.meshgrid()
        f = np.zeros(spec.shape)
        for _ in range(6):
            k = rng.integers(-4, 5, size=2)
            f += rng.normal() * np.cos(2 * np.pi * (k[0] * axes[0] + k[1] * axes[1]) + rng.uniform(0, 7))
        return f

    def test_divergence_theorem(self, spec128):
        f = self.smooth_random(spec128, seed=5)
        h = spec128.h
        lap = laplacian_raw(f, h)
        total = integrate_raw(lap, h, 2)
        scale = integrate_raw(np.abs(lap), h, 2)
        assert abs(total) <= 1e-12 * max(1.0, scale)

    @pytest.mark.parametrize("shift", [(1, 0), (0, 3), (5, 2)])
    def test_shift_equivariance_bitwise(self, spec64, shift):
        f = self.smooth_random(spec64, seed=9)
        h = spec64.h
        rolled = np.roll(f, shift, axis=(0, 1))
        lap_then_roll = np.roll(laplacian_raw(f, h), shift, axis=(0, 1))
        roll_then_lap = laplacian_raw(rolled, h)
        assert np.array_equal(lap_then_roll, roll_then_lap)
        grad_then_roll = np.roll(np.stack(gradient_raw(f, h)), shift, axis=(1, 2))
        roll_then_grad = np.stack(gradient_raw(rolled, h))
        assert np.array_equal(grad_then_roll, roll_then_grad)


# np.roll forms of the stencils, the reference the slicing kernels must match
# bitwise: same operands, same operations, same summation order.


def roll_laplacian(a, h):
    out = np.zeros_like(a)
    for ax in range(a.ndim):
        out += np.roll(a, -1, axis=ax) + np.roll(a, 1, axis=ax)
    out -= 2.0 * a.ndim * a
    out /= h * h
    return out


def roll_gradient(a, h):
    inv = 1.0 / (2.0 * h)
    return [(np.roll(a, -1, axis=ax) - np.roll(a, 1, axis=ax)) * inv for ax in range(a.ndim)]


def roll_grad_dot(a, b, h):
    out = np.zeros(a.shape)
    for ax in range(out.ndim):
        p = (np.roll(a, -1, axis=ax) - a) * (np.roll(b, -1, axis=ax) - b)
        out += p + np.roll(p, 1, axis=ax)
    out *= 0.5 / (h * h)
    return out


def roll_max_jump(u):
    return max(float(np.max(np.abs(np.roll(u, -1, axis=ax) - u))) for ax in range(1, u.ndim))


# n = 8 is the smallest grid, where the two wrap faces are a quarter of the
# rows.  The large 3D case is n = 64: one 256^3 array alone is 134 MB.
@pytest.mark.parametrize("d, n", [(2, 8), (2, 256), (3, 8), (3, 64)])
class TestSliceKernelsMatchRoll:
    def fields(self, d, n, lead=()):
        rng = np.random.default_rng(10 * d + n)
        return rng.normal(size=lead + (n,) * d), rng.normal(size=lead + (n,) * d)

    def test_laplacian(self, d, n):
        h = 1.0 / n
        a, _ = self.fields(d, n)
        assert np.array_equal(laplacian_raw(a, h), roll_laplacian(a, h))
        out = np.full_like(a, np.nan)
        assert laplacian_raw(a, h, out=out) is out
        assert np.array_equal(out, roll_laplacian(a, h))
        assert np.array_equal(laplacian_raw(a.T, h), roll_laplacian(a.T, h))
        with pytest.raises(ValueError, match="C-contiguous"):
            laplacian_raw(a, h, out=np.empty_like(a).T)

    def test_gradient_and_grad_dot(self, d, n):
        h = 1.0 / n
        a, b = self.fields(d, n)
        for got, want in zip(gradient_raw(a, h), roll_gradient(a, h), strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(grad_dot_raw(a, b, h), roll_grad_dot(a, b, h))
        assert np.array_equal(grad_dot_raw(a, a, h), roll_grad_dot(a, a, h))
        assert np.array_equal(grad_dot_raw(a, a, h), grad_dot_raw(a, a.copy(), h))
        out = np.full_like(a, np.nan)  # whatever out holds is overwritten
        assert grad_dot_raw(a, b, h, out=out) is out
        assert np.array_equal(out, roll_grad_dot(a, b, h))
        with pytest.raises(ValueError, match="C-contiguous"):
            grad_dot_raw(a, b, h, out=np.empty_like(a).T)
        with pytest.raises(ValueError, match="C-contiguous"):
            grad_dot_raw(a, b, h, out=np.empty((2,) + a.shape))

    def test_grad_dot_reads_a_fields_differences(self, d, n):
        # A ScalarField forms its forward differences once and keeps them
        # frozen; grad_dot_raw reading them gives its own result bit for bit.
        h = 1.0 / n
        a, b = self.fields(d, n)
        phi = ScalarField(GridSpec(d, n), a)
        diffs = phi.forward_differences
        assert phi.forward_differences is diffs
        for ax, diff in enumerate(diffs):
            assert np.array_equal(diff, np.roll(a, -1, axis=ax) - a)
            assert not diff.flags.writeable
        assert np.array_equal(grad_dot_raw(phi.values, b, h, a_diffs=diffs), roll_grad_dot(a, b, h))
        out = np.empty_like(a)
        grad_dot_raw(phi.values, phi.values, h, out=out, a_diffs=diffs)
        assert np.array_equal(out, grad_dot_raw(a, a, h))

    def test_helmholtz_matches_irfftn(self, d, n):
        # The in-place inverse sequence against numpy's own irfftn.
        spec = GridSpec(d, n)
        rhs, _ = self.fields(d, n, lead=(2,))
        b = 0.37 * spec.h**2
        axes = tuple(range(1, d + 1))
        denom = 1.0 - b * stencil_symbol(spec)
        want = np.fft.irfftn(np.fft.rfftn(rhs, axes=axes) / denom, s=spec.shape, axes=axes)
        assert np.array_equal(helmholtz_solve_raw(rhs, b, spec), want)

    def test_max_neighbor_jump(self, d, n):
        stack, _ = self.fields(d, n, lead=(2,))
        state = PhaseField(GridSpec(d, n), stack)
        assert max_neighbor_jump(state) == roll_max_jump(stack)


class TestScratchNeverEscapes:
    """Per-thread scratch holds only temporaries; every returned array is fresh."""

    def test_laplacian_calls_return_distinct_arrays(self):
        spec = GridSpec(2, 32)
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2,) + spec.shape)
        first = laplacian_raw(a, spec.h)
        kept = first.copy()
        second = laplacian_raw(b, spec.h)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    def test_earlier_solve_output_unchanged_by_later_solve(self):
        spec = GridSpec(2, 32)
        rng = np.random.default_rng(5)
        r1, r2 = rng.normal(size=(2, 3) + spec.shape)
        x1 = helmholtz_solve_raw(r1, 0.01, spec)
        kept = x1.copy()
        x2 = helmholtz_solve_raw(r2, 0.01, spec)
        assert not np.shares_memory(x1, x2)
        assert np.array_equal(x1, kept)

    @pytest.mark.parametrize(
        "kind, n_phases",
        [(ModelKind.WEIGHTED_SQUARE, 3), (ModelKind.SPHERE_LL, 3), (ModelKind.MEAN_SHIFT, 2)],
    )
    def test_projection_and_advance_outputs_unchanged_by_later_ones(self, kind, n_phases):
        spec = GridSpec(2, 32)
        model = ModelSpec(kind, 8.0 / 32, n_phases)
        first, second = (
            project_constraint(
                PhaseField(spec, random_smooth_state(spec, n_phases, seed).values + 0.2),
                model, max_violation=np.inf,
            )
            for seed in (6, 7)
        )
        kept = first.values.copy()
        project_constraint(PhaseField(spec, second.values + 0.01), model)
        assert np.array_equal(first.values, kept)
        dt = spec.h**2
        stepped = advance(first, model, dt, "IMEX", flow(first, model), project=True)
        kept = stepped.values.copy()
        later = advance(second, model, dt, "IMEX", flow(second, model), project=True)
        assert not np.shares_memory(stepped.values, later.values)
        assert np.array_equal(stepped.values, kept)

    def test_flow_eval_unchanged_by_later_flow_and_solve(self):
        model = ModelSpec(ModelKind.MEAN_SHIFT, 8.0 / 64, 2)
        fe = flow(disk_state(n=64), model)
        kept = [np.copy(x) for x in fe]
        flow(strip_state(n=64), model)
        helmholtz_solve_raw(np.ones((2, 64, 64)), 0.01, GridSpec(2, 64))
        for field, before in zip(fe, kept, strict=True):
            assert np.array_equal(field, before)

    @pytest.mark.parametrize("kind", [ModelKind.SPHERE_LL, ModelKind.WEIGHTED_SQUARE])
    def test_three_phase_flow_eval_unchanged_by_later_calls(self, kind):
        n_phases = 3
        model = ModelSpec(kind, 8.0 / 64, n_phases)
        first, second = (
            project_constraint(disk_state(n=64, radius=r, n_phases=n_phases), model,
                               max_violation=np.inf)
            for r in (0.3, 0.2)
        )
        fe = flow(first, model)
        kept = [np.copy(x) for x in fe]
        later = flow(second, model)
        helmholtz_solve_raw(np.ones((n_phases, 64, 64)), 0.01, GridSpec(2, 64))
        advance(second, model, 0.01 * second.spec.h, "IMEX", later, project=True)
        energy_densities(second, model.eps)
        for field, before in zip(fe, kept, strict=True):
            assert np.array_equal(field, before)
        for field, other in zip(fe[:4], later[:4]):
            assert not np.shares_memory(field, other)

    def test_energy_densities_unchanged_by_later_calls(self):
        model = ModelSpec(ModelKind.SPHERE_LL, 8.0 / 64, 3)
        spec = GridSpec(2, 64)
        first, second = (
            project_constraint(PhaseField(spec, random_smooth_state(spec, 3, seed).values + 0.2),
                               model, max_violation=np.inf)
            for seed in (8, 9)
        )
        densities = energy_densities(first, model.eps)
        kept = [np.copy(x) for x in densities]
        later = energy_densities(second, model.eps)
        measure_sample(second, model)
        flow(second, model)
        for dens, before, other in zip(densities, kept, later, strict=True):
            assert np.array_equal(dens, before)
            assert not np.shares_memory(dens, other)


def test_helmholtz_residual_contract_fires(monkeypatch):
    # A solve that inverts a 0.1 % wrong symbol leaves a residual far above
    # the 1e-10 certificate, which must raise rather than return.
    spec = GridSpec(2, 32)
    true_symbol = stencil_symbol(spec)
    monkeypatch.setattr(mpfc.grid, "stencil_symbol", lambda s: 1.001 * true_symbol)
    x, y = spec.meshgrid()
    rhs = np.cos(2 * np.pi * x) + 0.5 * np.sin(2 * np.pi * 3 * y)
    with pytest.raises(SolverFailureError, match=r"helmholtz residual .* exceeds 1e-10 \* max\|rhs\|"):
        helmholtz_solve_raw(rhs, 1e-3, spec)


def test_helmholtz_residual_checked_on_every_plane(monkeypatch):
    # The same 0.1 % wrong symbol is exact on a constant (its symbol is 0
    # there), so a stack whose first plane is constant fails on its second
    # plane only: the check must reach every plane.
    spec = GridSpec(2, 32)
    true_symbol = stencil_symbol(spec)
    monkeypatch.setattr(mpfc.grid, "stencil_symbol", lambda s: 1.001 * true_symbol)
    x, y = spec.meshgrid()
    rhs = np.stack([np.full(spec.shape, 2.0), np.cos(2 * np.pi * x) + np.sin(2 * np.pi * 3 * y)])
    assert np.array_equal(helmholtz_solve_raw(rhs[:1], 1e-3, spec), np.full((1, 32, 32), 2.0))
    with pytest.raises(SolverFailureError, match="helmholtz residual"):
        helmholtz_solve_raw(rhs, 1e-3, spec)


def test_helmholtz_non_finite_rhs_is_reported_by_advance():
    # The residual contract covers a finite rhs.  A NaN or inf gives a NaN
    # residual, which fails no comparison, so the solve returns a non-finite
    # x without raising; advance's finiteness check reports it as
    # BlowUpError, and a failed run still writes its last good snapshot.
    spec = GridSpec(2, 8)
    for bad in (np.nan, np.inf):
        rhs = np.zeros((2,) + spec.shape)
        rhs[1, 3, 4] = bad
        with np.errstate(invalid="ignore"):
            x = helmholtz_solve_raw(rhs, 0.01, spec)
        assert np.array_equal(x[0], np.zeros(spec.shape))
        assert not np.isfinite(x[1]).any()
    model = ModelSpec(ModelKind.WEIGHTED_SUM, 0.05, 2)
    huge = PhaseField(spec, np.stack([np.full(spec.shape, 1e200), np.zeros(spec.shape)]))
    fe = flow(huge, model)
    assert not np.isfinite(fe.rhs).all()
    with pytest.raises(BlowUpError, match="non-finite"):
        advance(huge, model, 1e-8, "IMEX", fe)

"""Constrained flows: multipliers, conservation, stepping, projection."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (
    disk_state,
    double_profile,
    manifold_pair,
    projected_sphere_state,
    random_smooth_state,
    same_bits,
    stacked_defect,
    strip_state,
)
import mpfc.dynamics as dynamics
from mpfc.dynamics import (
    ModelKind,
    ModelSpec,
    PhaseField,
    _project_weighted_square,
    advance,
    constraint_values,
    constraint_violation,
    dissipation_rate,
    flow,
    max_neighbor_jump,
    project_constraint,
)
from mpfc.errors import (
    BlowUpError,
    ConfigurationError,
    ProjectionError,
    ProjectionSingularError,
)
from mpfc.grid import GridSpec, helmholtz_solve_raw, integrate_raw, laplacian_raw
from mpfc.potential import SIGMA, double_well_prime, sqrt_double_well, well_primitive
from mpfc.scenarios import TripleJunction


def wells_state(spec, pattern=(1.0, 0.0)) -> PhaseField:
    u = np.stack([np.full(spec.shape, v) for v in pattern])
    return PhaseField(spec, u)


class TestChemicalPotential:
    def test_wells_are_equilibria(self, spec64):
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        for c in (0.0, 1.0, 0.5):
            assert np.max(np.abs(flow(wells_state(spec64, (c, c)), model).mu)) == 0.0

    def test_profile_residual_is_second_order_in_h(self):
        # Fixed eps, refine h.  A single layer has zero continuum potential;
        # on the torus the periodic tails interact at exp(-separation/eps),
        # leaving a small h-independent offset A, so the residual behaves as
        # A + B h^2 and successive differences drop by exactly 4.
        eps = 1.0 / 16.0
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)
        errs = []
        for n in (64, 128, 256):
            spec = GridSpec(2, n)
            u = double_profile(spec, eps)
            mu = flow(PhaseField(spec, np.stack([u, 1.0 - u])), model).mu
            errs.append(np.max(np.abs(mu[0])))
        diff_ratio = (errs[0] - errs[1]) / (errs[1] - errs[2])
        assert 3.0 <= diff_ratio <= 5.0

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_flow_carries_the_same_chemical_potential(self, kind):
        eps = 1.0 / 16.0
        state = random_smooth_state(GridSpec(2, 64), 3, seed=7)
        mu = flow(state, ModelSpec(kind, eps, 3)).mu
        for i in range(3):
            u = state.values[i]
            expected = -eps * laplacian_raw(u, state.spec.h) + double_well_prime(u) / eps
            assert np.all(mu[i] == expected)


class TestMultiplier:
    def test_sphere_at_well_equilibrium(self, spec64):
        model = ModelSpec(ModelKind.SPHERE_LL, 0.05, 3)
        state = wells_state(spec64, (0.0, 0.0, 1.0))
        fe = flow(state, model)
        assert np.max(np.abs(fe.multiplier)) == 0.0
        assert fe.floored_fraction == 0.0

    def test_mean_shift_symmetric_value(self, spec64):
        # all phases at 1/N: Lambda_1 = W'(1/N)/eps exactly.
        eps = 0.05
        for n_phases in (2, 3):
            model = ModelSpec(ModelKind.MEAN_SHIFT, eps, n_phases)
            state = wells_state(spec64, (1.0 / n_phases,) * n_phases)
            multiplier = flow(state, model).multiplier
            expected = float(double_well_prime(1.0 / n_phases)) / eps
            assert np.max(np.abs(multiplier - expected)) < 1e-14
            if n_phases == 2:
                assert np.max(np.abs(multiplier)) == 0.0

    def test_weighted_sum_profile_pair_multiplier_vanishes(self):
        # u2 = 1 - u1 makes the chemical potentials exact negatives, so the
        # numerator cancels to round-off on healthy cells.
        eps = 1.0 / 16.0
        model = ModelSpec(ModelKind.WEIGHTED_SUM, eps, 2)
        state = strip_state(128, eps)
        multiplier = flow(state, model).multiplier
        weight_sum = np.sum(
            np.abs(state.values * (1 - state.values)), axis=0
        )
        healthy = weight_sum > 1e-3
        assert np.max(np.abs(multiplier[healthy])) < 1e-8

    def test_floored_fraction_counts_pure_cells(self, spec64):
        model = ModelSpec(ModelKind.WEIGHTED_SUM, 0.05, 2)
        state = wells_state(spec64, (1.0, 0.0))  # denominator zero everywhere
        fe = flow(state, model)
        assert fe.floored_fraction == 1.0
        assert np.all(fe.multiplier == 0.0)


class TestRhs:
    def test_equilibrium_states_are_stationary(self, spec64):
        cases = [
            (ModelSpec(ModelKind.SPHERE_LL, 0.05, 3), (0.0, 1.0, 0.0)),
            (ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2), (1.0, 0.0)),
            (ModelSpec(ModelKind.WEIGHTED_SUM, 0.05, 2), (0.0, 1.0)),
            (ModelSpec(ModelKind.WEIGHTED_SQUARE, 0.05, 2), (1.0, 0.0)),
        ]
        for model, pattern in cases:
            du = flow(wells_state(spec64, pattern), model).rhs
            assert np.max(np.abs(du)) == 0.0

    def test_sphere_orthogonality_on_projected_states(self):
        state, model = projected_sphere_state(n=64, seed=3)
        du = flow(state, model).rhs
        inner = np.sum(state.values * du, axis=0)
        assert np.max(np.abs(inner)) < 1e-12 * max(1.0, np.max(np.abs(du)))

    def test_mean_shift_rhs_sums_to_zero(self):
        spec = GridSpec(2, 64)
        state = random_smooth_state(spec, 3, seed=8)
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.0625, 3)
        du = flow(state, model).rhs
        scale = np.max(np.abs(du))
        assert np.max(np.abs(np.sum(du, axis=0))) < 1e-13 * scale

    def test_weighted_square_conserves_primitive_sum_rate(self):
        # d/dt sum_i k(u_i) = sum_i sqrt(2W(u_i)) du_i/dt = 0 by construction.
        spec = GridSpec(2, 64)
        state = random_smooth_state(spec, 2, seed=12, amplitude=0.2)
        model = ModelSpec(ModelKind.WEIGHTED_SQUARE, 0.0625, 2)
        du = flow(state, model).rhs
        from mpfc.potential import sqrt_double_well

        rate = np.sum(sqrt_double_well(state.values) * du, axis=0)
        assert np.max(np.abs(rate)) < 1e-10 * max(1.0, np.max(np.abs(du)))


class TestStep:
    def test_equilibrium_fixed_point(self, spec64):
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        state = wells_state(spec64, (1.0, 0.0))
        fe = flow(state, model)
        new = advance(state, model, (1.0 / 64) ** 2 / 8, "IMEX", fe)
        assert np.max(np.abs(new.values - state.values)) < 1e-13
        assert fe.rate == 0.0

    def test_symmetric_half_state_is_stationary(self, spec64):
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        state = wells_state(spec64, (0.5, 0.5))
        fe = flow(state, model)
        assert np.array_equal(fe.rhs, np.zeros_like(state.values))
        new = advance(state, model, 1e-5, "IMEX", fe)
        assert np.array_equal(new.values, state.values)

    def test_imex_vs_euler_local_difference_is_second_order(self):
        # One IMEX step against the forward-Euler step u + dt du/dt from the
        # same flow: they differ by dt^2 (Lap du/dt) + O(dt^3).
        eps = 1.0 / 16.0
        state = disk_state(128, eps)
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)
        fe = flow(state, model)
        diffs = []
        for dt in (2e-6, 1e-6):
            a = advance(state, model, dt, "IMEX", fe).values
            b = state.values + dt * fe.rhs
            diffs.append(np.max(np.abs(a - b)))
        assert 3.0 <= diffs[0] / diffs[1] <= 5.0

    def test_bad_inputs(self, spec64):
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        state = wells_state(spec64, (1.0, 0.0))
        with pytest.raises(ConfigurationError):
            advance(state, model, -1e-5, "IMEX", flow(state, model))
        with pytest.raises(ConfigurationError):
            advance(state, model, 1e-5, "RK4", flow(state, model))

    def test_blow_up_detected(self, spec64):
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        huge = wells_state(spec64, (1e200, 1.0 - 1e200))
        with pytest.raises(BlowUpError, match="non-finite values after step") as info:
            advance(huge, model, 1e-8, "IMEX", flow(huge, model))
        assert info.value.time == 1e-8

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_flow_overflow_is_silent(self, kind, spec64):
        # Overflow in du/dt or its rate surfaces as non-finite values after
        # the step, not as numpy warnings.
        model = ModelSpec(kind, 0.05, 2)
        for pattern in ((1e200, 1.0 - 1e200), (1e100, 1.0), (1e80, 0.5), (3e102, 0.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                flow(wells_state(spec64, pattern), model)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_flow_rate_is_the_dissipation_rate(self, kind):
        state = random_smooth_state(GridSpec(2, 64), 3, seed=5)
        model = ModelSpec(kind, 0.0625, 3)
        fe = flow(state, model)
        assert fe.rate > 0.0
        assert fe.rate == dissipation_rate(state, model)
        # One plane of sum_i (du_i/dt)^2 serves the rate and the Brakke integrand.
        assert fe.rate == dynamics.SIGMA_INV * model.eps * integrate_raw(fe.rate_density, state.spec.h, 2)

    def test_dissipation_rate_matches_standalone(self):
        # SIGMA^{-1} int eps |du/dt|^2 dx, written out from the flow's du/dt.
        eps = 1.0 / 16.0
        state = disk_state(128, eps)
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)
        du = flow(state, model).rhs
        expected = (1.0 / SIGMA) * eps * integrate_raw(np.sum(du * du, axis=0), state.spec.h, 2)
        assert dissipation_rate(state, model) == expected


class TestProjection:
    def test_idempotent_on_manifold(self, spec64):
        for kind, pattern in [
            (ModelKind.SPHERE_LL, (0.0, 0.0, 1.0)),
            (ModelKind.MEAN_SHIFT, (0.25, 0.75)),
            (ModelKind.WEIGHTED_SUM, (1.0, 0.0)),
            (ModelKind.WEIGHTED_SQUARE, (1.0, 0.0)),
        ]:
            model = ModelSpec(kind, 0.05, len(pattern))
            state = wells_state(spec64, pattern)
            out = project_constraint(state, model)
            assert np.max(np.abs(out.values - state.values)) < 1e-12

    def test_sphere_radial_projection(self, spec64):
        model = ModelSpec(ModelKind.SPHERE_LL, 0.05, 3)
        state = wells_state(spec64, (0.0, 0.0, 2.0))
        out = project_constraint(state, model, max_violation=np.inf)
        assert np.max(np.abs(out.values[2] - 1.0)) < 1e-15

    def test_sphere_projection_reads_one_sum_of_squares(self, spec64):
        # The violation comes from the extremes of sum u^2 and the norm from
        # its root; the result is bitwise u / |u| in whole-array form.
        model = ModelSpec(ModelKind.SPHERE_LL, 0.05, 3)
        state = random_smooth_state(spec64, 3, seed=16, amplitude=0.6)
        u = state.values
        violation = constraint_violation(state, model)
        out = project_constraint(state, model, max_violation=violation)
        assert np.array_equal(out.values, u / np.sqrt(np.sum(u * u, axis=0)))
        with pytest.raises(ProjectionError, match=f"{violation:.3e} from"):
            project_constraint(state, model, max_violation=0.999 * violation)

    def test_mean_shift_exact_values(self, spec64):
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        state = wells_state(spec64, (0.5, 0.6))
        out = project_constraint(state, model)
        assert np.max(np.abs(out.values[0] - 0.45)) <= 2e-16  # one ulp
        assert np.max(np.abs(out.values[1] - 0.55)) <= 2e-16
        assert constraint_violation(out, model) < 1e-15

    def test_mean_shift_two_phase_step_returns_its_input(self):
        # At N = 2 the step's last phase is fl(1 - u_0), and u_0 + fl(1 - u_0)
        # rounds back to 1, so the defect is +0 everywhere and the projection
        # returns the state it was given.
        n = 64
        model = ModelSpec(ModelKind.MEAN_SHIFT, 8.0 / n, 2)
        state = project_constraint(disk_state(n, model.eps), model, max_violation=np.inf)
        for _ in range(20):
            stepped = advance(state, model, state.spec.h**2, "IMEX", flow(state, model))
            state = project_constraint(stepped, model)
            assert state is stepped

    @pytest.mark.parametrize("kind", [ModelKind.MEAN_SHIFT, ModelKind.WEIGHTED_SUM])
    def test_sum_projection_returns_a_state_with_zero_defect(self, kind, spec64):
        # A state with any nonzero defect takes the shift; the stacked-form
        # tests below pin those values.
        model = ModelSpec(kind, 0.05, 3)
        on = wells_state(spec64, (0.25, 0.5, 0.25))
        assert project_constraint(on, model) is on

    def test_weighted_square_bisection_accuracy(self):
        spec = GridSpec(2, 32)
        model = ModelSpec(ModelKind.WEIGHTED_SQUARE, 0.05, 3)
        state = random_smooth_state(spec, 3, seed=21, amplitude=0.15)
        out = project_constraint(state, model, max_violation=np.inf)
        assert constraint_violation(out, model) <= 1e-10

    @staticmethod
    def scalar_shift(column: np.ndarray) -> float:
        """Reference root of sum_i k(u_i + t) = 1/6 for one cell, by brentq.

        Cells within 1e-13 of the manifold keep t = 0, as the projection
        promises.
        """
        def f(t):
            return float(np.sum(well_primitive(column + t))) - 1.0 / 6.0

        if abs(f(0.0)) <= 1e-13:
            return 0.0
        lo, hi = (-0.5, 0.0) if f(0.0) > 0 else (0.0, 0.5)
        while f(lo) > 0:
            lo *= 2.0
        while f(hi) < 0:
            hi *= 2.0
        return brentq(f, lo, hi, xtol=1e-15, maxiter=500)

    @pytest.mark.parametrize(
        "case, size", [("random", 0.3), ("wells", 1e-3), ("wells", 1e-5), ("junction", None)]
    )
    def test_weighted_square_shift_matches_scalar_root(self, case, size):
        spec = GridSpec(2, 24)
        model = ModelSpec(ModelKind.WEIGHTED_SQUARE, 0.05, 3)
        if case == "random":
            u = random_smooth_state(spec, 3, seed=21, amplitude=size).values
        elif case == "junction":
            u = TripleJunction().profiles(spec, 4.0 / 24)
        else:
            rng = np.random.default_rng(3)
            u = wells_state(spec, (1.0, 0.0, 0.0)).values + size * rng.uniform(-1, 1, (3,) + spec.shape)
        state = PhaseField(spec, u)
        out = project_constraint(state, model, max_violation=np.inf).values
        shift = out - u
        assert np.max(np.ptp(shift, axis=0)) <= 1e-15
        root = np.array([self.scalar_shift(u[:, i, j]) for i, j in np.ndindex(spec.shape)])
        root = root.reshape(spec.shape)
        # f is evaluated to about one ulp of 1/6, so where f'(t*) = sum_i g is
        # small (near the wells) every t within eps/f' of the root gives f = 0
        # exactly; no method resolves the root more finely than that.
        fuzz = np.finfo(float).eps / np.sum(sqrt_double_well(u + root[None]), axis=0)
        assert np.all(np.abs(shift[0] - root) <= 1e-12 + fuzz)
        assert constraint_violation(PhaseField(spec, out), model) <= 1e-13

    @pytest.mark.parametrize("case", ["overshoot", "past-branch-end", "raw-junction"])
    def test_weighted_square_branch_crossings_match_scalar_root(self, case):
        """Roots where phases cross a branch end (0 or 1), against brentq."""
        spec = GridSpec(2, 24)
        model = ModelSpec(ModelKind.WEIGHTED_SQUARE, 0.05, 3)
        if case == "overshoot":  # a phase above 1 and one below 0 in every cell
            a, b, c = np.random.default_rng(7).uniform(0.0, 0.05, (3,) + spec.shape)
            u = np.stack([1.0 + a, -b, c - 0.025])
        elif case == "past-branch-end":
            u = random_smooth_state(spec, 3, seed=21, amplitude=0.3).values.copy()
            u[0] += 1.5
        else:
            u = TripleJunction().profiles(spec, 2.0 / 24)
        out = project_constraint(PhaseField(spec, u), model, max_violation=np.inf).values
        shift = out - u
        assert np.max(np.ptp(shift, axis=0)) <= 1e-15
        root = np.array([self.scalar_shift(u[:, i, j]) for i, j in np.ndindex(spec.shape)])
        root = root.reshape(spec.shape)
        fuzz = np.finfo(float).eps / np.sum(sqrt_double_well(u + root[None]), axis=0)
        assert np.all(np.abs(shift[0] - root) <= 1e-12 + fuzz)
        assert constraint_violation(PhaseField(spec, out), model) <= 1e-13
        if case != "raw-junction":
            assert np.any(((u < 0.0) != (out < 0.0)) | ((u > 1.0) != (out > 1.0)))

    def test_weighted_square_newton_cycle_just_past_both_wells(self):
        # A cell of the off-manifold state of manifold_pair(WEIGHTED_SQUARE,
        # 2, 8).  Newton ends between two shifts 1.5e-12 apart, where
        # f = -/+ 2.8e-17 and f' = 1.9e-5: from each it lands exactly on the
        # other, so the cell ends on that bracket end instead of raising.
        spec = GridSpec(2, 8)
        model = ModelSpec(ModelKind.WEIGHTED_SQUARE, 3.7 / 8, 2)
        cell = np.array([1.0291651905859238, 0.029183982731276616])
        u = np.broadcast_to(cell[:, None, None], (2,) + spec.shape).copy()
        state = PhaseField(spec, u)
        out = project_constraint(state, model).values
        defect = constraint_values(state, model)
        assert np.array_equal(out, reference_project_weighted_square(u, defect))
        root = self.scalar_shift(cell)
        fuzz = np.finfo(float).eps / np.sum(sqrt_double_well(cell + root))
        assert np.max(np.abs(out - u - root)) <= 1e-12 + fuzz
        assert constraint_violation(PhaseField(spec, out), model) <= 1e-16

    def test_weighted_square_cells_on_manifold_unchanged(self):
        spec = GridSpec(2, 32)
        model = ModelSpec(ModelKind.WEIGHTED_SQUARE, 0.05, 3)
        u = project_constraint(
            random_smooth_state(spec, 3, seed=5), model, max_violation=np.inf
        ).values.copy()
        u[:, :16] = random_smooth_state(spec, 3, seed=6).values[:, :16]
        u[:, :, :8] = np.array([1.0, 0.0, 0.0])[:, None, None]
        state = PhaseField(spec, u)
        on = np.abs(constraint_values(state, model)) <= 1e-13
        assert 0 < np.sum(on) < on.size
        out = project_constraint(state, model, max_violation=np.inf).values
        assert np.array_equal(out[:, on].view(np.uint64), u[:, on].view(np.uint64))
        assert np.all(out[:, ~on] != u[:, ~on])

    def test_weighted_square_error_paths(self, spec64, monkeypatch):
        model = ModelSpec(ModelKind.WEIGHTED_SQUARE, 0.05, 3)
        state = random_smooth_state(GridSpec(2, 32), 3, seed=21, amplitude=0.3)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_SHIFT_MAX_ITER", 1)
            with pytest.raises(ProjectionError, match="did not reach tol=1e-12 in 1 iterations"):
                _project_weighted_square(state.values, constraint_values(state, model))
        far = wells_state(spec64, (1e4, 0.0, 0.0))
        with pytest.raises(ProjectionError, match="bracket"):
            project_constraint(far, model, max_violation=np.inf)

    def test_violation_that_could_overflow_is_rejected(self, spec64):
        # The projected state is not scanned for non-finite values.  Here the
        # mean shift of 5e307 would carry phase 0 from 1.5e308 to overflow.
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 3)
        state = wells_state(spec64, (1.5e308, -1.5e308, -1.5e308))
        with pytest.raises(ProjectionError, match="from the constraint manifold"):
            project_constraint(state, model, max_violation=np.inf)

    def test_sphere_zero_vector_is_singular(self, spec64):
        model = ModelSpec(ModelKind.SPHERE_LL, 0.05, 2)
        state = wells_state(spec64, (0.0, 0.0))
        with pytest.raises(ProjectionSingularError):
            project_constraint(state, model, max_violation=np.inf)

    def test_far_state_rejected_by_default(self, spec64):
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.05, 2)
        state = wells_state(spec64, (1.0, 1.0))
        with pytest.raises(ProjectionError):
            project_constraint(state, model)


# The weighted-square projection written with whole-array numpy expressions
# and the plain formulas of k and g: the reference the scratch version must
# match bitwise (same operands, same operations, same order).


def plain_k(s):
    inner = s * s * (0.5 - s / 3.0)
    outer = -inner
    return np.where(s < 0.0, outer, np.where(s > 1.0, outer + 1.0 / 3.0, inner))


def plain_g(s):
    return np.abs(s * (1.0 - s))


def reference_project_weighted_square(u, defect, max_iter=60, tol=1e-12, cap=1024.0):
    active = np.abs(defect) > 1e-13
    lo = np.full(defect.shape, -2.0 * cap)
    hi = np.full(defect.shape, 2.0 * cap)
    # Newton starts from the root of f's second-order expansion at t = 0.
    c1 = np.sum(plain_g(u), axis=0)
    c2 = 0.5 * u.shape[0] - np.sum(u, axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = defect / c1
        t = -(x * (c2 * x / c1 + 1.0))
    t = np.where((t >= lo) & (t <= hi) & active, t, 0.0)
    for _ in range(max_iter):
        v = u + t
        f = np.sum(plain_k(v), axis=0) - 1.0 / 6.0
        fprime = np.sum(plain_g(v), axis=0)
        hi = np.where(f >= 0.0, t, hi)
        lo = np.where(f <= 0.0, t, lo)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            new = t - f / fprime
        new = np.where((new >= lo) & (new <= hi), new, (lo + hi) * 0.5)
        # A step exactly onto the other end of the bracket ends the cell too.
        done = (np.abs(new - t) <= tol) | (new == lo) | (new == hi)
        t = np.where(active, new, t)
        active = active & ~done
        if not active.any():
            if np.max(np.abs(t)) > cap:
                raise ProjectionError("bracket failure in weighted-square projection")
            return u + t
    raise ProjectionError(
        f"weighted-square Newton iteration did not reach tol={tol} in {max_iter} iterations"
    )


class TestWeightedSquareProjectionMatchesReference:
    model = ModelSpec(ModelKind.WEIGHTED_SQUARE, 0.05, 3)

    def check(self, u):
        state = PhaseField(GridSpec(2, u.shape[-1]), u)
        defect = constraint_values(state, self.model)
        assert np.array_equal(defect, np.sum(plain_k(u), axis=0) - 1.0 / 6.0)
        want = reference_project_weighted_square(u, defect)
        assert np.array_equal(_project_weighted_square(u, defect), want)
        got = project_constraint(state, self.model, max_violation=np.inf).values
        assert np.array_equal(got, want)
        return want

    def test_junction_after_an_imex_step(self):
        spec = GridSpec(2, 64)
        model = ModelSpec(ModelKind.WEIGHTED_SQUARE, 8.0 / 64, 3)
        state = PhaseField(spec, TripleJunction().profiles(spec, 8.0 / 64))
        state = project_constraint(state, model, max_violation=np.inf)
        state = advance(state, model, spec.h**2, "IMEX", flow(state, model))
        self.check(state.values)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_random_smooth_states(self, seed):
        self.check(random_smooth_state(GridSpec(2, 32), 3, seed=seed, amplitude=0.3).values)

    def test_near_well_cells_need_many_newton_iterations(self, monkeypatch):
        # Near the wells f is flat (sum g is about 1e-5), and the cells need up
        # to eleven Newton passes.
        spec = GridSpec(2, 32)
        rng = np.random.default_rng(3)
        u = wells_state(spec, (1.0, 0.0, 0.0)).values + 1e-5 * rng.uniform(-1, 1, (3,) + spec.shape)
        defect = constraint_values(PhaseField(spec, u), self.model)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_SHIFT_MAX_ITER", 10)
            with pytest.raises(ProjectionError, match="did not reach"):
                _project_weighted_square(u, defect)
        self.check(u)

    def test_state_that_needs_bracket_doubling(self):
        u = random_smooth_state(GridSpec(2, 32), 3, seed=4, amplitude=0.3).values.copy()
        u[0] += 1.5
        # Phase 0 starts above 1, and the root lies past its branch end at 1.
        assert np.max(np.abs(self.check(u) - u)) > 0.5

    def test_frozen_cells_beside_cells_still_iterating(self, monkeypatch):
        # Cells a small step off the manifold converge in the first Newton
        # pass, the near-well block and the shifted block, whose roots lie past
        # a branch end, take up to thirteen, so frozen cells sit beside cells
        # still iterating.
        spec = GridSpec(2, 32)
        rng = np.random.default_rng(3)
        smooth = random_smooth_state(spec, 3, seed=4, amplitude=0.3).values
        u = reference_project_weighted_square(smooth, np.sum(plain_k(smooth), axis=0) - 1.0 / 6.0)
        u = u + 10.0 ** rng.uniform(-12, -4, spec.shape) * rng.uniform(-1, 1, u.shape)
        u[:, :, :12] = wells_state(spec, (1.0, 0.0, 0.0)).values[:, :, :12]
        u[:, :, :12] += 1e-5 * rng.uniform(-1, 1, (3, 32, 12))
        u[0, 20:, 16:] += 1.5
        defect = constraint_values(PhaseField(spec, u), self.model)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_SHIFT_MAX_ITER", 12)
            with pytest.raises(ProjectionError, match="did not reach"):
                _project_weighted_square(u, defect)
        assert np.max(np.abs(self.check(u) - u)) > 0.5


class TestConservationUnderStepping:
    def run_drift(self, kind, n_phases, dt_factor, t_end=0.004, n=128, junction=False):
        eps = 8.0 / n
        model = ModelSpec(kind, eps, n_phases)
        if junction:
            spec = GridSpec(2, n)
            state = PhaseField(spec, TripleJunction().profiles(spec, eps))
        else:
            state = disk_state(n, eps, n_phases=n_phases)
        state = project_constraint(state, model, max_violation=np.inf)
        dt = state.spec.h**2 * dt_factor
        for _ in range(int(round(t_end / dt))):
            state = advance(state, model, dt, "IMEX", flow(state, model))
        return constraint_violation(state, model)

    def test_mean_shift_conserves_exactly_without_projection(self):
        assert self.run_drift(ModelKind.MEAN_SHIFT, 2, 1.0) < 1e-13
        # N = 3: two solved phases, the third derived from the phase sum.
        assert self.run_drift(ModelKind.MEAN_SHIFT, 3, 1.0, junction=True) < 1e-13

    def test_weighted_sum_conserves_exactly_without_projection(self):
        assert self.run_drift(ModelKind.WEIGHTED_SUM, 2, 1.0) < 1e-13

    def test_sphere_drift_is_first_order_in_dt(self):
        d1 = self.run_drift(ModelKind.SPHERE_LL, 3, 1.0)
        d2 = self.run_drift(ModelKind.SPHERE_LL, 3, 0.5)
        assert 1.5 <= d1 / d2 <= 2.5

    def test_projection_every_step_pins_constraint(self):
        n, eps = 128, 1.0 / 16.0
        model = ModelSpec(ModelKind.SPHERE_LL, eps, 3)
        state = project_constraint(disk_state(n, eps, n_phases=3), model, max_violation=np.inf)
        dt = state.spec.h**2
        for _ in range(60):
            state = advance(state, model, dt, "IMEX", flow(state, model), project=True)
        assert constraint_violation(state, model) < 1e-12


class TestMeanShiftDerivedPhase:
    """MeanShift's IMEX step solves N - 1 phases; the last is the old phase sum
    minus the solved ones, on the constraint manifold and off it."""

    @pytest.mark.parametrize("on_manifold", [True, False], ids=["on-manifold", "off-manifold"])
    @pytest.mark.parametrize("n_phases", [2, 3])
    def test_imex_step_matches_the_full_solve(self, n_phases, on_manifold):
        n = 64
        spec = GridSpec(2, n)
        eps = 8.0 / n
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, n_phases)
        if on_manifold:
            u = disk_state(n, eps).values if n_phases == 2 else TripleJunction().profiles(spec, eps)
            state = project_constraint(PhaseField(spec, u), model, max_violation=np.inf)
        else:
            state = random_smooth_state(spec, n_phases, seed=11)
            assert constraint_violation(state, model) > 0.01
        dt = 2.0 * spec.h**2
        fe = flow(state, model)
        new = advance(state, model, dt, "IMEX", fe).values
        # The full N-phase IMEX right-hand side, in advance's order of operations.
        rhs = (fe.rhs - fe.lap) * dt + state.values
        full = helmholtz_solve_raw(rhs, dt, spec)
        assert np.all(new[:-1] == full[:-1])
        assert np.max(np.abs(new[-1] - full[-1])) <= 1e-13
        residual = new[-1] - dt * laplacian_raw(new[-1], spec.h) - rhs[-1]
        assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(rhs))


# Stacked forms of the per-plane kernels, the reference they must match
# bitwise: every sum over phases is np.sum(., axis=0) of a stack, and every
# other step is the same ufunc on the same operands.


def stacked_flow(state, model):
    u, eps, h = state.values, model.eps, state.spec.h
    lap = np.stack([laplacian_raw(phase, h) for phase in u])
    mu = np.multiply(-eps, lap) + double_well_prime(u) / eps
    floored_fraction = 0.0
    if model.kind == ModelKind.SPHERE_LL:
        lam = np.sum(u * mu, axis=0)
        du = lam[None] * u - mu
    elif model.kind == ModelKind.MEAN_SHIFT:
        lam = np.mean(mu, axis=0)
        du = lam[None] - mu
    else:
        weight = sqrt_double_well(u)
        if model.kind == ModelKind.WEIGHTED_SUM:
            num, den = np.sum(mu, axis=0), np.sum(weight, axis=0)
        else:
            num, den = np.sum(weight * mu, axis=0), np.sum(weight * weight, axis=0)
        floored = den < 1e-10
        lam = np.where(floored, 0.0, num / np.where(floored, 1.0, den))
        du = lam[None] * weight - mu
        floored_fraction = float(np.mean(floored))
    du /= eps
    density = np.sum(du * du, axis=0)
    rate = dynamics.SIGMA_INV * eps * integrate_raw(density, h, state.spec.d)
    return du, lap, mu, lam, floored_fraction, rate, density


def stacked_projection(u, model):
    if model.kind == ModelKind.SPHERE_LL:
        return u / np.sqrt(np.sum(u * u, axis=0))[None]
    if model.kind == ModelKind.WEIGHTED_SQUARE:
        return _project_weighted_square(u, stacked_defect(u, model))
    return u - (stacked_defect(u, model) / model.n_phases)[None]


@pytest.mark.parametrize("n", [8, 256])
@pytest.mark.parametrize("n_phases", [2, 3])
@pytest.mark.parametrize("kind", list(ModelKind))
class TestPlaneKernelsMatchStackedForms:
    def test_flow(self, kind, n_phases, n):
        model, on, off = manifold_pair(kind, n_phases, n)
        for state in (on, off):
            for got, want in zip(flow(state, model), stacked_flow(state, model), strict=True):
                assert same_bits(got, want)
        if kind in (ModelKind.WEIGHTED_SUM, ModelKind.WEIGHTED_SQUARE):
            assert flow(on, model).floored_fraction > 0.0

    def test_projection_and_constraint_values(self, kind, n_phases, n):
        model, on, off = manifold_pair(kind, n_phases, n)
        for state in (on, off):
            assert same_bits(constraint_values(state, model), stacked_defect(state.values, model))
            got = project_constraint(state, model, max_violation=np.inf).values
            assert same_bits(got, stacked_projection(state.values, model))

    def test_imex_right_hand_side(self, kind, n_phases, n):
        model, _, off = manifold_pair(kind, n_phases, n)
        dt = 0.7 * off.spec.h**2  # not a power of two, like eps
        fe = flow(off, model)
        m = n_phases - (kind == ModelKind.MEAN_SHIFT)
        want = helmholtz_solve_raw(((fe.rhs - fe.lap) * dt + off.values)[:m], dt, off.spec)
        assert same_bits(advance(off, model, dt, "IMEX", fe).values[:m], want)


class TestSmoothnessGuard:
    def test_indicator_detected(self):
        spec = GridSpec(2, 64)
        x, _ = spec.meshgrid()
        raw = (x > 0.5).astype(float)
        state = PhaseField(spec, np.stack([raw, 1 - raw]))
        assert max_neighbor_jump(state) == 1.0

    def test_profile_passes(self):
        state = strip_state(128)
        assert max_neighbor_jump(state) < 0.5


def steady_state_advance_peak(kind: ModelKind) -> float:
    """tracemalloc peak of one ``advance(..., project=True)`` after a warm-up
    step, in grid-sized float64 arrays (n = 64)."""
    n = 64
    spec = GridSpec(2, n)
    eps = 8.0 / n
    if kind == ModelKind.WEIGHTED_SQUARE:
        model = ModelSpec(kind, eps, 3)
        state = PhaseField(spec, TripleJunction().profiles(spec, eps))
    elif kind == ModelKind.SPHERE_LL:
        model = ModelSpec(kind, eps, 3)
        state = PhaseField(spec, disk_state(n, eps, n_phases=3).values + 0.05)
    else:
        model = ModelSpec(kind, eps, 2)
        state = disk_state(n, eps)
    state = project_constraint(state, model, max_violation=np.inf)
    dt = spec.h**2
    state = advance(state, model, dt, "IMEX", flow(state, model), project=True)
    fe = flow(state, model)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        advance(state, model, dt, "IMEX", fe, project=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - base) / (8 * n * n)


# Readings with numpy 2.4.6: before the step's temporaries moved to scratch
# SphereLL 15.8, MeanShift 10.7, WeightedSum 10.7, WeightedSquare 35.3; after
# 8.1, 6.1, 6.1 and 9.2, and WeightedSquare 8.1 once its projection dropped the
# compaction's index arrays.  MeanShift still reads 6.1 (6.07) with its IMEX
# step solving N - 1 phases into the new state.  What remains is the solve's
# output, the projected state, the finiteness masks and numpy's 64 KB
# iteration buffer for ufuncs with a broadcast operand (two grid arrays at
# n = 64, a constant in n).
@pytest.mark.parametrize(
    "kind, bound",
    [
        (ModelKind.SPHERE_LL, 9.0),
        (ModelKind.MEAN_SHIFT, 7.0),
        (ModelKind.WEIGHTED_SUM, 7.0),
        (ModelKind.WEIGHTED_SQUARE, 10.0),
    ],
)
def test_steady_state_step_allocates_few_grid_arrays(kind, bound):
    assert steady_state_advance_peak(kind) < bound


def test_weighted_square_projection_allocates_only_its_result():
    """A warm projection allocates its result and under 1/8 of a grid array besides."""
    n = 128
    spec = GridSpec(2, n)
    model = ModelSpec(ModelKind.WEIGHTED_SQUARE, 8.0 / n, 3)
    state = PhaseField(spec, TripleJunction().profiles(spec, 8.0 / n))
    state = project_constraint(state, model, max_violation=np.inf)
    u = advance(state, model, spec.h**2, "IMEX", flow(state, model)).values
    defect = constraint_values(PhaseField(spec, u), model)
    _project_weighted_square(u, defect)  # sizes the scratch
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        _project_weighted_square(u, defect)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base - u.nbytes < 8 * n * n / 8


def test_weighted_square_projection_is_one_stack_pass(monkeypatch):
    """A projection evaluates k and g on the (N, n, n) stack once per Newton
    pass, besides k for the defect and g for the start.  The first post-IMEX
    junction state at n = 128 takes two passes."""
    n = 128
    spec = GridSpec(2, n)
    model = ModelSpec(ModelKind.WEIGHTED_SQUARE, 8.0 / n, 3)
    state = PhaseField(spec, TripleJunction().profiles(spec, 8.0 / n))
    state = project_constraint(state, model, max_violation=np.inf)
    state = advance(state, model, spec.h**2, "IMEX", flow(state, model))
    calls = {"_well_primitive_into": 0, "_sqrt_double_well_into": 0}
    for name in calls:
        def counted(*args, _fn=getattr(dynamics, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(dynamics, name, counted)
    project_constraint(state, model)
    assert calls == {"_well_primitive_into": 3, "_sqrt_double_well_into": 3}


SKIPPING = [ModelKind.SPHERE_LL, ModelKind.WEIGHTED_SUM, ModelKind.WEIGHTED_SQUARE]


def padded(state: PhaseField, at: int) -> PhaseField:
    """``state`` with an all +0.0 phase inserted at index ``at``."""
    return PhaseField(state.spec, np.insert(state.values, at, 0.0, axis=0), state.time)


class TestAbsentPhases:
    """A phase whose entries are all +0.0 is absent.  The flow and step of the
    models whose coupling vanishes with the phase skip it, with the bits of
    the full evaluation; MeanShift never skips."""

    def test_absent_is_every_bit_zero(self):
        spec = GridSpec(2, 8)
        u = np.zeros((3,) + spec.shape)
        u[0] = 0.5
        u[1, 3, 4] = 5e-324  # one subnormal is present
        assert PhaseField(spec, u.copy()).absent == (False, False, True)
        u[2] = -0.0
        assert PhaseField(spec, u).absent == (False, False, False)

    @pytest.mark.parametrize("kind", SKIPPING)
    def test_padded_flow_is_the_flow_padded(self, kind):
        model2, _, state = manifold_pair(kind, 2, 64)
        model3 = ModelSpec(kind, model2.eps, 3)
        fe2, fe3 = flow(state, model2), flow(padded(state, 2), model3)
        assert same_bits(fe3.rhs[:2], fe2.rhs) and same_bits(fe3.lap[:2], fe2.lap)
        assert same_bits(fe3.mu[:2], fe2.mu) and same_bits(fe3.multiplier, fe2.multiplier)
        assert (fe3.rate, fe3.floored_fraction) == (fe2.rate, fe2.floored_fraction)
        zero = np.zeros(state.spec.shape)
        assert same_bits(fe3.lap[2], zero) and same_bits(fe3.mu[2], zero)
        # du_2 = lam * (+0): -0.0 where the multiplier is negative.
        assert same_bits(fe3.rhs[2], fe2.multiplier * 0.0)
        assert np.signbit(fe3.rhs[2]).any()

    @pytest.mark.parametrize("kind", SKIPPING)
    def test_absent_middle_phase_steps_as_the_last(self, kind):
        # (u0, 0, u1) steps to the permutation of what (u0, u1, 0) steps to:
        # the solved planes move up past the absent one.
        model2, _, state = manifold_pair(kind, 2, 64)
        model = ModelSpec(kind, model2.eps, 3)
        dt = 0.7 * state.spec.h**2
        middle, last = padded(state, 1), padded(state, 2)
        fe_middle, fe_last = flow(middle, model), flow(last, model)
        assert fe_middle.rate == fe_last.rate
        got = advance(middle, model, dt, "IMEX", fe_middle).values
        want = advance(last, model, dt, "IMEX", fe_last).values
        assert same_bits(got[[0, 2, 1]], want)
        assert advance(middle, model, dt, "IMEX", fe_middle).absent == (False, True, False)

    def test_mean_shift_moves_an_absent_phase(self):
        _, _, state = manifold_pair(ModelKind.MEAN_SHIFT, 2, 64)
        model = ModelSpec(ModelKind.MEAN_SHIFT, 3.7 / 64, 3)
        state = padded(state, 1)
        assert state.absent == (False, True, False)
        fe = flow(state, model)
        assert np.any(fe.rhs[1] != 0.0)
        assert not advance(state, model, state.spec.h**2, "IMEX", fe).absent[1]

    def test_sphere_step_skips_the_absent_phase(self, monkeypatch):
        # The flow forms two Laplacians and the solve checks two planes (one
        # Laplacian each): 4 calls, against 6 with the absent phase solved.
        n = 64
        model = ModelSpec(ModelKind.SPHERE_LL, 8.0 / n, 3)
        state = project_constraint(disk_state(n, n_phases=3), model, max_violation=np.inf)
        assert state.absent == (False, False, True)
        laplacians, planes = [], []
        laplacian, solve = dynamics.g.laplacian_raw, dynamics.g.helmholtz_solve_raw

        def counted_laplacian(*args, **kwargs):
            laplacians.append(1)
            return laplacian(*args, **kwargs)

        def counted_solve(rhs, *args, **kwargs):
            planes.append(rhs.shape[0])
            return solve(rhs, *args, **kwargs)

        monkeypatch.setattr(dynamics.g, "laplacian_raw", counted_laplacian)
        monkeypatch.setattr(dynamics.g, "helmholtz_solve_raw", counted_solve)
        new = advance(state, model, state.spec.h**2, "IMEX", flow(state, model), project=True)
        assert (len(laplacians), planes) == (4, [2])
        assert new.absent == (False, False, True)

    @pytest.mark.parametrize("kind", SKIPPING)
    def test_negative_zero_phase_is_not_skipped(self, kind, monkeypatch):
        model2, _, state = manifold_pair(kind, 2, 32)
        model = ModelSpec(kind, model2.eps, 3)
        state = PhaseField(state.spec, np.insert(state.values, 2, -0.0, axis=0))
        calls = []
        laplacian = dynamics.g.laplacian_raw

        def counted(*args, **kwargs):
            calls.append(1)
            return laplacian(*args, **kwargs)

        monkeypatch.setattr(dynamics.g, "laplacian_raw", counted)
        flow(state, model)
        assert len(calls) == 3

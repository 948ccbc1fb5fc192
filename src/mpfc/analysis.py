"""Gaussian-density monotonicity and the finite-width Brakke balance.

The backward heat kernel with surface normalization,

    rho_{y,s}(x, t) = (4 pi (s - t))^{-(d-1)/2} exp(-|x - y|^2 / (4 (s - t))),

is evaluated on the torus by summing over the periodic image lattice, with
the truncation radius chosen so the omitted image mass is below 1e-14.  The
exponent (d-1)/2 is deliberate: the kernel normalizes *surface* measure, and
a unit test pins it at x = y.

For flows of this package the Gaussian density G(t) = int rho d(mu_t) obeys

    dG/dt = - SIGMA^{-1} int eps rho (du_i/dt + grad u_i . grad rho / rho)^2 dx
            + (1 / (2 (s - t))) int rho d(xi_t)
            + multiplier terms                                   (per phase)

where xi is the signed discrepancy measure; dropping the negative square and
summing the multiplier terms leaves  dG/dt <= (1/(2(s-t))) int rho d(xi_t).
The multiplier terms pair grad rho with grad(u_i^2) through
``grid.grad_dot_raw``, the pairing of the Brakke cross term below, so their
sum cancels to round-off on sphere-projected states.
``monotonicity_check`` verifies that inequality along a run with a centered
finite difference in time, with the tolerance calibrated from the trace
itself by Richardson extrapolation rather than a fixed magic number.

``brakke_residual`` checks the exact time-integrated balance

    d/dt int phi dmu_t = int d_t phi dmu_t
        + SIGMA^{-1} int ( -eps phi |du/dt|^2
                           - sum_i eps (grad phi . grad u_i) du_i/dt ) dx

per interval with a trapezoid rule over the supplied snapshots.  On the grid
int phi dmu is the phi-weighted sum of the energy density built from
``grid.grad_dot_raw``, and grad phi . grad u_i is its exact discrete partner

    X_i = sum_a ( D+_a phi D+_a u_i + D-_a phi D-_a u_i ) / 2,

which summation by parts gives: for every direction v,

    d/ds int phi dmu(u + s v) |_{s=0} = SIGMA^{-1} sum_i < phi mu_i - eps X_i, v_i >

with mu_i = -eps Lap_h u_i + W'(u_i)/eps the flow's chemical potential.  The
balance therefore holds exactly for the semi-discrete flow, and the residual
is pure time-step error that halves under dt refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid as g
from .diagnostics import _phi_integrals, energy_densities, mu_of_phi
from .dynamics import FlowEval, ModelKind, ModelSpec, PhaseField, flow
from .errors import InputError
from .grid import GridSpec, ScalarField
from .potential import SIGMA_INV

__all__ = [
    "KernelSpec",
    "MonotonicityTrace",
    "backward_heat_kernel",
    "kernel_field",
    "gaussian_density",
    "monotonicity_check",
    "brakke_residual",
    "brakke_rhs_integrand",
    "check_test_function",
]


@dataclass(frozen=True)
class KernelSpec:
    """Backward heat kernel centered at ``center_y`` with terminal time ``terminal_s``.

    ``truncation_for(t)`` is the periodic image lattice radius: the smallest
    whose omitted tail mass is below 1e-14 at time t (the radius grows with
    the variance 2(s - t)).
    """

    center_y: tuple[float, ...]
    terminal_s: float

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.center_y):
            raise InputError(f"kernel centre {self.center_y} is not finite")
        if not math.isfinite(self.terminal_s):
            raise InputError(f"kernel terminal time {self.terminal_s} is not finite")

    def truncation_for(self, t: float) -> int:
        tau = self.terminal_s - t
        if tau <= 0:
            raise InputError(f"kernel requires t < s, got t={t}, s={self.terminal_s}")
        # exp(-K^2 / (4 tau)) <= 1e-17.5 makes the summed tail < 1e-14 of the
        # nearest-image mass even after the geometric factor.
        return max(1, math.ceil(math.sqrt(4.0 * tau * 40.3)))


def _axis_image_sums(coords: np.ndarray, y: float, tau: float, radius: int) -> np.ndarray:
    """1D lattice sums S(x) = sum_k exp(-(delta+k)^2/(4 tau))."""
    delta = g.torus_delta(coords, y)  # wrap to [-1/2, 1/2]; keeps the sum shift invariant
    z = delta[:, None] + np.arange(-radius, radius + 1)[None, :]
    return np.exp(-(z * z) / (4.0 * tau)).sum(axis=1)


def _kernel_terms(spec: KernelSpec, t: float, d: int) -> tuple[int, float, float]:
    """Image radius, s - t and surface prefactor of the kernel in d dimensions."""
    if len(spec.center_y) != d:
        raise InputError(f"kernel centre {spec.center_y} does not have {d} coordinates")
    tau = spec.terminal_s - t
    return spec.truncation_for(t), tau, (4.0 * np.pi * tau) ** (-(d - 1) / 2.0)


def backward_heat_kernel(x, t: float, spec: KernelSpec) -> float:
    """Evaluate the periodized backward heat kernel at one point."""
    x = np.asarray(x, dtype=np.float64)
    radius, tau, value = _kernel_terms(spec, t, x.size)
    for a in range(x.size):
        value *= _axis_image_sums(np.array([x[a]]), spec.center_y[a], tau, radius)[0]
    return float(value)


def kernel_field(grid_spec: GridSpec, t: float, spec: KernelSpec) -> np.ndarray:
    """The kernel sampled on the whole grid.

    The image sum factorizes over axes, so the cost is O(d n K) rather than
    O(n^d K^d).
    """
    d = grid_spec.d
    radius, tau, pref = _kernel_terms(spec, t, d)
    coords = np.arange(grid_spec.n) * grid_spec.h
    rho = np.array(pref)
    for a in range(d):
        sums = _axis_image_sums(coords, spec.center_y[a], tau, radius)
        rho = rho * sums.reshape((-1,) + (1,) * (d - 1 - a))
    return rho


def gaussian_density(state: PhaseField, eps: float, spec: KernelSpec) -> float:
    """int rho(., t) d(mu_t) at the state's own time."""
    return mu_of_phi(state, eps, kernel_field(state.spec, state.time, spec))


@dataclass(frozen=True)
class MonotonicityTrace:
    """Gaussian density along a run and the terms of its evolution identity."""

    times: np.ndarray
    gaussian_density: np.ndarray
    rhs_bound: np.ndarray                      # (1/(2(s-t))) int rho d(xi_t)
    multiplier_cancellation: np.ndarray | None  # summed multiplier terms (sphere model)
    multiplier_scale: np.ndarray | None         # sum of |individual terms|
    fd_derivative: np.ndarray                  # centered d/dt at interior times
    fd_tolerance: np.ndarray                   # calibrated allowance per interior time
    interior_index: np.ndarray                 # indices of interior times in ``times``


def _multiplier_terms(state: PhaseField, fe: FlowEval, rho: ScalarField):
    """Per-phase multiplier terms of the Gaussian-density identity (sphere model).

    term_i = (1/(2 SIGMA)) [ int rho lam d_t(u_i^2) dx + int lam X(rho, u_i^2) dx ],
    where X = ``grid.grad_dot_raw`` pairs grad rho with grad(u_i^2) as the
    Brakke cross term pairs grad phi with grad u_i; rho's differences are its
    cached ``forward_differences``.  Their sum cancels exactly when
    sum_i u_i^2 is constant: d_t uses the same pointwise products and X is
    linear in u_i^2, so both sums vanish to round-off on projected states.
    """
    h, d = state.spec.h, state.spec.d
    lam = fe.multiplier
    a, b = (g._scratch(state.spec.shape, slot) for slot in ("plane_a", "plane_b"))
    total = 0.0
    scale = 0.0
    for phase, du_i, absent in zip(state.values, fe.rhs, state.absent):
        if absent:  # u_i^2 = 0, so both terms are zero
            continue
        np.multiply(2.0, phase, out=a)
        a *= du_i  # d_t(u_i^2)
        a *= np.multiply(rho.values, lam, out=b)
        a_term = (0.5 * SIGMA_INV) * g.integrate_raw(a, h, d)
        np.multiply(phase, phase, out=b)
        g.grad_dot_raw(rho.values, b, h, out=a, a_diffs=rho.forward_differences)
        a *= lam
        b_term = (0.5 * SIGMA_INV) * g.integrate_raw(a, h, d)
        total += a_term + b_term
        scale += abs(a_term) + abs(b_term)
    return total, scale


def _off_stride(dts: np.ndarray) -> np.ndarray:
    """Per snapshot interval, whether it differs from the first by more than
    1e-9 of it: the spacings ``monotonicity_check`` refuses."""
    return np.abs(dts - dts[0]) > 1e-9 * dts[0]


def monotonicity_check(
    run: list[PhaseField],
    eps: float,
    spec: KernelSpec,
    model: ModelSpec,
) -> tuple[MonotonicityTrace, bool]:
    """Verify dG/dt <= rhs_bound + tolerance along uniformly spaced snapshots.

    The time derivative is a centered difference of the sampled Gaussian
    density.  Its tolerance is calibrated per point by comparing against the
    double-spacing centered difference (Richardson estimate of the finite
    difference error), scaled by a safety factor of 10, plus a small relative
    floor for the spatial discretization of both sides.  With a sphere model
    the multiplier cancellation sum is evaluated and reported in the trace.
    """
    if len(run) < 3:
        raise InputError("monotonicity_check needs at least 3 snapshots")
    _check_eps(eps, model)
    times = np.array([st.time for st in run])
    dts = np.diff(times)
    if not np.all(dts > 0):
        raise InputError("snapshot times must be strictly increasing")
    if _off_stride(dts).any():
        raise InputError("monotonicity_check needs uniformly spaced snapshots")
    if times[-1] >= spec.terminal_s:
        raise InputError("all snapshot times must precede the kernel terminal time")
    dt = float(dts[0])

    G = np.empty(len(run))
    bound = np.empty(len(run))
    sphere = model.kind == ModelKind.SPHERE_LL
    cancel = np.empty(len(run)) if sphere else None
    scale = np.empty(len(run)) if sphere else None
    for k, st in enumerate(run):
        rho = kernel_field(st.spec, st.time, spec)
        _, energy, discrepancy = energy_densities(st, eps)
        G[k] = _phi_integrals(st, energy, [rho])[0]
        bound[k] = _phi_integrals(st, discrepancy, [rho])[0] / (2.0 * (spec.terminal_s - st.time))
        if sphere:
            cancel[k], scale[k] = _multiplier_terms(st, flow(st, model), ScalarField(st.spec, rho))

    interior = np.arange(1, len(run) - 1)
    fd = (G[2:] - G[:-2]) / (2.0 * dt)
    if len(run) < 5:
        err = np.abs(fd) * 1e-2  # too few points to calibrate; coarse allowance
    else:
        # Richardson: compare with the 2*dt centered difference; the two end
        # points, which have none, take the largest estimate.
        err = np.pad(np.abs(fd[1:-1] - (G[4:] - G[:-4]) / (4.0 * dt)) / 3.0, 1, mode="maximum")
    tol = 10.0 * err + 1e-6 * (1.0 + np.abs(G[interior]))

    verdict = bool(np.all(fd <= bound[interior] + tol))
    trace = MonotonicityTrace(
        times=times,
        gaussian_density=G,
        rhs_bound=bound,
        multiplier_cancellation=cancel,
        multiplier_scale=scale,
        fd_derivative=fd,
        fd_tolerance=tol,
        interior_index=interior,
    )
    return trace, verdict


def _check_eps(eps: float, model: ModelSpec) -> None:
    """The flow runs at ``model.eps``; an ``eps`` beside it must be the same."""
    if eps != model.eps:
        raise InputError(f"eps={eps} differs from the model's eps={model.eps}")


def check_test_function(phi: ScalarField, spec: GridSpec) -> None:
    """Reject a weighted-balance test function that is negative or off the run's grid."""
    if phi.spec != spec:
        raise InputError(f"test function lives on {phi.spec}, the run on {spec}")
    if np.min(phi.values) < 0:
        raise InputError("Brakke test functions must be nonnegative")


def brakke_rhs_integrand(
    state: PhaseField,
    model: ModelSpec,
    fe: FlowEval,
    phi: ScalarField,
    dphi_dt: ScalarField | None = None,
) -> float:
    """The instantaneous right-hand side of the phi-weighted energy balance.

    ``fe`` is ``dynamics.flow(state, model)``.  The dissipation term is phi
    times its ``rate_density``, sum_i (du_i/dt)^2, the plane the flow's rate
    integrates.  The cross term pairs du_i/dt with
    X_i = ``grid.grad_dot_raw(phi, u_i)``, which makes this the exact time
    derivative of ``mu_of_phi`` along the semi-discrete flow; phi's
    differences are its cached ``forward_differences``.  ``dphi_dt``, if
    given, adds int d_t phi dmu.
    """
    h, d = state.spec.h, state.spec.d
    eps = model.eps
    du = fe.rhs
    value = 0.0
    if dphi_dt is not None:
        value += mu_of_phi(state, eps, dphi_dt.values)
    total = g._scratch(state.spec.shape, "plane_a")
    term = g._scratch(state.spec.shape, "plane_b")
    np.multiply(fe.rate_density, phi.values, out=total)
    value -= SIGMA_INV * eps * g.integrate_raw(total, h, d)
    # The cross terms accumulate from zero in phase order, which is how
    # np.sum(., axis=0) adds a stack, so the sum is bitwise that.
    total.fill(0.0)
    for i in range(state.n_phases):
        if state.absent[i]:  # X_i = +0; where du_i is nan, the dissipation term already is
            continue
        g.grad_dot_raw(phi.values, state.values[i], h, out=term, a_diffs=phi.forward_differences)
        total += np.multiply(term, du[i], out=term)
    value -= SIGMA_INV * eps * g.integrate_raw(total, h, d)
    return value


def brakke_residual(
    run: list[PhaseField],
    eps: float,
    model: ModelSpec,
    phi: ScalarField | list[ScalarField],
    dphi_dt: ScalarField | list[ScalarField] | None = None,
) -> np.ndarray:
    """Per-interval residual of the integrated phi-weighted energy balance.

    For each snapshot interval the left side is the increment of
    int phi d(mu_t) and the right side is the trapezoid-in-time integral of
    ``brakke_rhs_integrand`` with du/dt from one ``flow`` per snapshot.  A
    static phi may be passed once; a space-time phi as per-snapshot fields
    together with its time derivative; each of those fields drops the
    differences ``brakke_rhs_integrand`` caches on it once its snapshot is done,
    so a held list does not keep them alive.
    """
    if len(run) < 2:
        raise InputError("brakke_residual needs at least 2 snapshots")
    _check_eps(eps, model)
    n_snap = len(run)
    times = np.array([st.time for st in run])
    dts = np.diff(times)
    if not np.all(dts > 0):
        raise InputError("snapshot times must be strictly increasing")

    def as_list(f, name):
        if f is None:
            return [None] * n_snap
        if isinstance(f, ScalarField):
            return [f] * n_snap
        if len(f) != n_snap:
            raise InputError(f"{name} must match the number of snapshots")
        return list(f)

    phis = as_list(phi, "phi")
    dphis = as_list(dphi_dt, "dphi_dt")
    for f, df, st in zip(phis, dphis, run):
        check_test_function(f, st.spec)
        if df is not None and df.spec != st.spec:
            raise InputError(f"d_t phi lives on {df.spec}, the run on {st.spec}")

    lhs = np.empty(n_snap)
    integrand = np.empty(n_snap)
    for k, st in enumerate(run):
        lhs[k] = mu_of_phi(st, eps, phis[k].values)
        integrand[k] = brakke_rhs_integrand(st, model, flow(st, model), phis[k], dphis[k])
        if not isinstance(phi, ScalarField):
            vars(phis[k]).pop("forward_differences", None)

    rhs_int = 0.5 * dts * (integrand[:-1] + integrand[1:])
    return np.diff(lhs) - rhs_int

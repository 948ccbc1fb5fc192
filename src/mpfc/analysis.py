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
summing the multiplier terms (which cancel exactly on sphere-projected
states) leaves  dG/dt <= (1/(2(s-t))) int rho d(xi_t).
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
from .diagnostics import energy_densities
from .dynamics import FlowEval, ModelKind, ModelSpec, PhaseField, flow, rhs
from .errors import InputError
from .grid import GridSpec, ScalarField
from .potential import SIGMA

__all__ = [
    "KernelSpec",
    "MonotonicityTrace",
    "backward_heat_kernel",
    "kernel_field",
    "gaussian_density",
    "monotonicity_check",
    "brakke_residual",
    "brakke_rhs_integrand",
    "mu_of_phi",
]

SIGMA_INV = 1.0 / SIGMA


@dataclass(frozen=True)
class KernelSpec:
    """Backward heat kernel centered at ``center_y`` with terminal time ``terminal_s``.

    ``image_truncation`` is the periodic image lattice radius; ``None`` picks
    the smallest radius whose omitted tail mass is below 1e-14 at evaluation
    time (radius grows with the variance 2(s - t)).
    """

    center_y: tuple[float, ...]
    terminal_s: float
    image_truncation: int | None = None

    def truncation_for(self, t: float) -> int:
        tau = self.terminal_s - t
        if tau <= 0:
            raise InputError(f"kernel requires t < s, got t={t}, s={self.terminal_s}")
        if self.image_truncation is not None:
            return self.image_truncation
        # exp(-K^2 / (4 tau)) <= 1e-17.5 makes the summed tail < 1e-14 of the
        # nearest-image mass even after the geometric factor.
        return max(1, math.ceil(math.sqrt(4.0 * tau * 40.3)))


def _axis_image_sums(coords: np.ndarray, y: float, tau: float, radius: int):
    """1D lattice sums S(x) = sum_k exp(-(delta+k)^2/(4 tau)) and S'."""
    delta = g.torus_delta(coords, y)  # wrap to [-1/2, 1/2]; keeps the sum shift invariant
    z = delta[:, None] + np.arange(-radius, radius + 1)[None, :]
    e = np.exp(-(z * z) / (4.0 * tau))
    return e.sum(axis=1), (e * (-z / (2.0 * tau))).sum(axis=1)


def backward_heat_kernel(x, t: float, spec: KernelSpec) -> float:
    """Evaluate the periodized backward heat kernel at one point."""
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    radius = spec.truncation_for(t)
    tau = spec.terminal_s - t
    pref = (4.0 * np.pi * tau) ** (-(d - 1) / 2.0)
    value = pref
    for a in range(d):
        s, _ = _axis_image_sums(np.array([x[a]]), spec.center_y[a], tau, radius)
        value *= s[0]
    return float(value)


def kernel_field(
    grid_spec: GridSpec, t: float, spec: KernelSpec, with_gradient: bool = False
):
    """Kernel (and analytic gradient) sampled on the whole grid.

    The image sum factorizes over axes, so the cost is O(d n K) rather than
    O(n^d K^d).
    """
    d = grid_spec.d
    radius = spec.truncation_for(t)
    tau = spec.terminal_s - t
    coords = np.arange(grid_spec.n) * grid_spec.h
    pref = (4.0 * np.pi * tau) ** (-(d - 1) / 2.0)
    sums, dsums = [], []
    for a in range(d):
        s, ds = _axis_image_sums(coords, spec.center_y[a], tau, radius)
        sums.append(s)
        dsums.append(ds)

    def outer(axis_values):
        out = np.array(pref)
        for a in range(d):
            shape = [1] * d
            shape[a] = grid_spec.n
            out = out * axis_values[a].reshape(shape)
        return out

    rho = outer(sums)
    if not with_gradient:
        return rho, None
    grad = np.stack([outer([dsums[a] if b == a else sums[b] for b in range(d)]) for a in range(d)])
    return rho, grad


def _densities(state: PhaseField, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """SIGMA^{-1} sum_i of the energy and signed discrepancy densities, from one pass."""
    _, energy, discrepancy = energy_densities(state, eps)
    return SIGMA_INV * sum(energy), SIGMA_INV * sum(discrepancy)


def gaussian_density(state: PhaseField, eps: float, spec: KernelSpec) -> float:
    """int rho(., t) d(mu_t) at the state's own time."""
    return mu_of_phi(state, eps, kernel_field(state.spec, state.time, spec)[0])


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


def _multiplier_terms(state: PhaseField, fe: FlowEval, rho: np.ndarray, grad_rho: np.ndarray):
    """Per-phase multiplier terms of the Gaussian-density identity (sphere model).

    term_i = (1/(2 SIGMA)) [ int rho lam d_t(u_i^2) dx + int lam grad rho . grad(u_i^2) dx ].
    Their sum cancels exactly when sum_i u_i^2 is constant: d_t uses the same
    pointwise products and the discrete gradient of u_i^2 is linear, so both
    sums vanish to round-off on projected states.
    """
    h, d = state.spec.h, state.spec.d
    lam = fe.multiplier
    total = 0.0
    scale = 0.0
    for i in range(state.n_phases):
        dsq_dt = 2.0 * state.values[i] * fe.rhs[i]
        a_term = (0.5 * SIGMA_INV) * g.integrate_raw(rho * lam * dsq_dt, h, d)
        grads_sq = g.gradient_raw(state.values[i] * state.values[i], h)
        b_term = (0.5 * SIGMA_INV) * g.integrate_raw(
            lam * sum(grad_rho[a] * grads_sq[a] for a in range(d)), h, d
        )
        total += a_term + b_term
        scale += abs(a_term) + abs(b_term)
    return total, scale


def monotonicity_check(
    run: list[PhaseField],
    eps: float,
    spec: KernelSpec,
    model: ModelSpec | None = None,
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
    times = np.array([st.time for st in run])
    dts = np.diff(times)
    if np.any(dts <= 0):
        raise InputError("snapshot times must be strictly increasing")
    if np.max(np.abs(dts - dts[0])) > 1e-9 * dts[0]:
        raise InputError("monotonicity_check needs uniformly spaced snapshots")
    if times[-1] >= spec.terminal_s:
        raise InputError("all snapshot times must precede the kernel terminal time")
    dt = float(dts[0])

    G = np.empty(len(run))
    bound = np.empty(len(run))
    sphere = model is not None and model.kind == ModelKind.SPHERE_LL
    cancel = np.empty(len(run)) if sphere else None
    scale = np.empty(len(run)) if sphere else None
    for k, st in enumerate(run):
        rho, grad_rho = kernel_field(st.spec, st.time, spec, with_gradient=sphere)
        energy, discrepancy = _densities(st, eps)
        G[k] = g.integrate_raw(rho * energy, st.spec.h, st.spec.d)
        tau = spec.terminal_s - st.time
        bound[k] = g.integrate_raw(rho * discrepancy, st.spec.h, st.spec.d) / (2.0 * tau)
        if sphere:
            cancel[k], scale[k] = _multiplier_terms(st, flow(st, model), rho, grad_rho)

    interior = np.arange(1, len(run) - 1)
    fd = (G[interior + 1] - G[interior - 1]) / (2.0 * dt)
    # Richardson: compare with the 2*dt centered difference where available.
    err = np.full(len(interior), np.nan)
    for j, k in enumerate(interior):
        if 2 <= k <= len(run) - 3:
            fd2 = (G[k + 2] - G[k - 2]) / (4.0 * dt)
            err[j] = abs(fd[j] - fd2) / 3.0
    if np.isnan(err).all():
        err[:] = np.abs(fd) * 1e-2  # too few points to calibrate; coarse allowance
    else:
        fill = np.nanmax(err)
        err = np.where(np.isnan(err), fill, err)
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


def mu_of_phi(state: PhaseField, eps: float, phi_values: np.ndarray) -> float:
    """int phi d(mu_t) for a nonnegative test function sampled on the grid."""
    return g.integrate_raw(phi_values * _densities(state, eps)[0], state.spec.h, state.spec.d)


def brakke_rhs_integrand(
    state: PhaseField,
    model: ModelSpec,
    phi_values: np.ndarray,
    dphi_dt_values: np.ndarray | float = 0.0,
    rhs_values: np.ndarray | None = None,
) -> float:
    """The instantaneous right-hand side of the phi-weighted energy balance.

    The cross term pairs du_i/dt with X_i = ``grid.grad_dot_raw(phi, u_i)``,
    which makes this the exact time derivative of ``mu_of_phi`` along the
    semi-discrete flow.
    """
    h, d = state.spec.h, state.spec.d
    eps = model.eps
    if rhs_values is None:
        rhs_values = rhs(state, model)
    value = 0.0
    dphi = np.asarray(dphi_dt_values)
    if dphi.ndim > 0 or dphi != 0.0:
        value += mu_of_phi(state, eps, dphi)
    value -= SIGMA_INV * eps * g.integrate_raw(phi_values * np.sum(rhs_values * rhs_values, axis=0), h, d)
    cross = np.zeros(state.spec.shape)
    for i in range(state.n_phases):
        cross += rhs_values[i] * g.grad_dot_raw(phi_values, state.values[i], h)
    value -= SIGMA_INV * eps * g.integrate_raw(cross, h, d)
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
    ``brakke_rhs_integrand`` with du/dt taken from the flow.  A static phi
    may be passed once; a space-time phi as per-snapshot fields together with
    its time derivative.
    """
    if len(run) < 2:
        raise InputError("brakke_residual needs at least 2 snapshots")
    n_snap = len(run)

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
    for f in phis:
        if np.min(f.values) < 0:
            raise InputError("Brakke test functions must be nonnegative")

    lhs = np.empty(n_snap)
    integrand = np.empty(n_snap)
    for k, st in enumerate(run):
        pv = phis[k].values
        lhs[k] = mu_of_phi(st, eps, pv)
        dv = dphis[k].values if dphis[k] is not None else 0.0
        integrand[k] = brakke_rhs_integrand(st, model, pv, dv)

    times = np.array([st.time for st in run])
    dts = np.diff(times)
    if np.any(dts <= 0):
        raise InputError("snapshot times must be strictly increasing")
    rhs_int = 0.5 * dts * (integrand[:-1] + integrand[1:])
    return np.diff(lhs) - rhs_int

"""Discrete surface measures and variational diagnostics for phase fields.

Per phase i the diffuse surface measure and the discrepancy measure are

    energy_i(phi)      = SIGMA^{-1} int phi ( eps |grad u_i|^2 / 2 + W(u_i)/eps ) dx
    discrepancy_i(phi) = SIGMA^{-1} int phi ( eps |grad u_i|^2 / 2 - W(u_i)/eps ) dx

with |grad u_i|^2 = ``grid.grad_dot_raw(u_i, u_i)``, the symmetric
forward/backward density.  Its grid sum is the forward-difference energy,
whose exact variational derivative is the compact Laplacian the flow uses, so
the measured energy is the one the semi-discrete flow dissipates and balance
residuals carry no spatial defect.  The discrepancy vanishes exactly on the
optimal 1D profile (equipartition); its absolute variant integrates |.| and
measures how far a state is from being well prepared.  The BV proxy

    bv_i = SIGMA^{-1} int |grad u_i| sqrt(2 W(u_i)) dx

with the same |grad u_i| is, by chain rule, the total variation of
k(u_i) / SIGMA with k = ``potential.well_primitive``.  Pointwise AM-GM gives
bv_i <= energy_i, with equality exactly at equipartition, so
``energy_bv_gap`` = energy_total - sum_i bv_i is the cell-by-cell AM-GM
defect of equipartition.  It vanishes on any equipartitioned profile,
whatever its multiplicity, so it cannot see a hidden boundary: it is not the
matching of the energy with the total variation of the singular limit that
the paper's convergence hypothesis assumes.

``first_variation`` pairs a test vector field g with the first variation of
the energy on the energy's own one-sided differences D+u and D-u (those
``grid.grad_dot_raw`` pairs): the stress form, the discrepancy term, their
sum the varifold form, and the chemical and kinetic forms, with their
residuals (``VariationReport``).  The kinetic form is the paper's mean
curvature read through the first variation; its upper bound for
int |h|^2 dmu is the flow's dissipation rate, ``FlowEval.rate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid as g
from .dynamics import FlowEval, ModelSpec, PhaseField, constraint_violation
from .errors import InputError
from .grid import ScalarField, VectorField
from .potential import SIGMA_INV, _double_well_into, _sqrt_double_well_into, double_well

__all__ = [
    "MeasureSample",
    "VariationReport",
    "energy_measure",
    "energy_bv_gap",
    "measure_sample",
    "mu_of_phi",
    "first_variation",
    "measure_junction_angles",
]

GRADIENT_FLOOR = 1e-12


@dataclass(frozen=True)
class MeasureSample:
    """Scalar diagnostics of one state, recorded along a run."""

    time: float
    energy_per_phase: np.ndarray
    energy_total: float
    discrepancy_per_phase: np.ndarray  # signed
    discrepancy_abs: float             # sum_i of the absolute variants
    bv_proxy_per_phase: np.ndarray
    constraint_drift: float
    phase_volumes: np.ndarray
    phase_sup: np.ndarray
    overshoot: float                   # max distance of any value outside [0, 1]
    mu_phi: tuple[float, ...] = ()     # int phi dmu per test function asked for


def energy_densities(
    state: PhaseField, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked (grad_sq, energy, discrepancy) densities, before the SIGMA^{-1} factor.

    Every energy-type density of the package (energy, discrepancy, BV,
    weighted balances, Gaussian density) is built from this one pass.  Phase
    by phase, grad_sq is ``grid.grad_dot_raw(u_i, u_i)`` and the energy and
    discrepancy are formed in place from 0.5 eps grad_sq and W/eps; all three
    are +0 for an absent phase (``PhaseField.absent``).
    """
    u, h = state.values, state.spec.h
    grad_sq, energy, discrepancy = np.empty(u.shape), np.empty(u.shape), np.empty(u.shape)
    potential, tmp = (g._scratch(state.spec.shape, slot) for slot in ("plane_a", "plane_b"))
    for phase, gs, en, disc, absent in zip(u, grad_sq, energy, discrepancy, state.absent):
        if absent:
            for plane in (gs, en, disc):
                plane.fill(0.0)
            continue
        g.grad_dot_raw(phase, phase, h, out=gs)
        np.multiply(0.5 * eps, gs, out=en)
        _double_well_into(phase, potential, tmp)
        potential /= eps
        np.subtract(en, potential, out=disc)
        en += potential
    return grad_sq, energy, discrepancy


def mu_of_phi(state: PhaseField, eps: float, phi_values: np.ndarray) -> float:
    """int phi d(mu_t) for a nonnegative test function sampled on the grid."""
    return _phi_integrals(state, energy_densities(state, eps)[1], [phi_values])[0]


def _phi_integrals(state: PhaseField, dens: np.ndarray, phis: list) -> tuple[float, ...]:
    """SIGMA^{-1} int phi sum_i dens_i dx for each grid-sampled phi: ``mu_of_phi``
    from the stacked energy densities, int phi d(xi_t) from the discrepancy ones."""
    total = SIGMA_INV * sum(dens) if phis else None
    return tuple(g.integrate_raw(phi * total, state.spec.h, state.spec.d) for phi in phis)


def _integrate_phases(state: PhaseField, dens: np.ndarray) -> np.ndarray:
    """SIGMA^{-1} int dens_i dx for each phase."""
    h, d = state.spec.h, state.spec.d
    return np.array([SIGMA_INV * g.integrate_raw(x, h, d) for x in dens])


def energy_measure(state: PhaseField, eps: float) -> np.ndarray:
    """Per-phase diffuse surface energy."""
    return _integrate_phases(state, energy_densities(state, eps)[1])


def energy_bv_gap(sample: MeasureSample) -> float:
    """energy_total minus the summed BV proxies; >= 0 up to round-off by AM-GM."""
    return sample.energy_total - float(np.sum(sample.bv_proxy_per_phase))


def measure_sample(
    state: PhaseField, model: ModelSpec, phis: tuple[ScalarField, ...] = ()
) -> MeasureSample:
    """All scalar diagnostics that depend on the state alone, in one record.

    It evaluates no flow: the dissipation rate is the ``rate`` of
    ``dynamics.flow`` and ``run_simulation`` records it with each sample.
    The BV proxy of phase i integrates SIGMA^{-1} |grad u_i| sqrt(2 W(u_i)),
    the total variation of G(u_i) by chain rule; |grad u_i| is the square
    root of the energy's gradient density, so AM-GM, eps a^2/2 + W/eps >=
    a sqrt(2W), gives bv_i <= energy_i cell by cell.  ``mu_phi`` is
    ``mu_of_phi`` of each test function in ``phis``, from the same densities.
    """
    h, d = state.spec.h, state.spec.d
    u = state.values
    grad_sq, energy_dens, disc_dens = energy_densities(state, model.eps)
    energy = _integrate_phases(state, energy_dens)
    # |disc_i| and |grad u_i| sqrt(2 W(u_i)), each formed in plane scratch.
    a, b = (g._scratch(state.spec.shape, slot) for slot in ("plane_a", "plane_b"))
    disc_abs = _integrate_phases(state, (np.abs(x, out=a) for x in disc_dens))
    bv = _integrate_phases(state, (
        np.multiply(np.sqrt(gs, out=a), _sqrt_double_well_into(phase, b), out=a)
        for gs, phase in zip(grad_sq, u)
    ))
    return MeasureSample(
        time=state.time,
        energy_per_phase=energy,
        energy_total=float(np.sum(energy)),
        discrepancy_per_phase=_integrate_phases(state, disc_dens),
        discrepancy_abs=float(np.sum(disc_abs)),
        bv_proxy_per_phase=bv,
        constraint_drift=constraint_violation(state, model),
        phase_volumes=np.array([g.integrate_raw(phase, h, d) for phase in u]),
        phase_sup=np.max(u.reshape(state.n_phases, -1), axis=1),
        overshoot=float(max(0.0, np.max(u) - 1.0, -np.min(u))),
        mu_phi=_phi_integrals(state, energy_dens, [phi.values for phi in phis]),
    )


@dataclass(frozen=True)
class VariationReport:
    """The first variation of the energy paired with one test field g.

    Each form averages a forward (+) and a backward (-) side, read on the
    differences D±u that ``grid.grad_dot_raw`` pairs, with n_± = D±u/|D±u|,
    the energy half e_± = SIGMA^{-1} (eps |D±u|^2 / 2 + W(u)/eps) and the
    discrepancy half xi_± = SIGMA^{-1} (eps |D±u|^2 / 2 - W(u)/eps).
    ``stress_form`` integrates e_± div g - eps SIGMA^{-1} D±u . (grad g) D±u;
    ``discrepancy_term`` integrates (n_± x n_± : grad g) xi_±, which the
    Brakke limit needs to vanish as eps -> 0; ``first_variation``, the
    varifold form, integrates
    (I - n_± x n_±) : grad g e_±, their sum cell by cell.  Where |D±u| <=
    ``GRADIENT_FLOOR`` n_± is undefined, and the varifold takes the stress
    density and the discrepancy nothing.  ``chemical_form`` pairs
    g . (D+u + D-u)/2 with the chemical potential, ``kinetic_form`` with
    du/dt; they differ by the multiplier-orthogonality residual, 0 on
    constraint-projected states.  ``stress_minus_chemical`` is grid error,
    O(h^2); ``varifold_minus_chemical`` adds the discrepancy term.
    """

    first_variation: float
    chemical_form: float
    kinetic_form: float
    stress_form: float
    discrepancy_term: float
    residuals: dict = field(default_factory=dict)


def _one_sided_differences(u: np.ndarray, h: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(D+u, D-u): per axis, (u[j+1] - u[j]) / h and (u[j] - u[j-1]) / h.

    Their mean (D+u + D-u) / 2 is the central difference up to round-off.
    """
    return tuple(
        [g._periodic_pair(np.subtract, u, shift, u, shift - 1, ax, np.empty(u.shape)) / h
         for ax in range(u.ndim)]
        for shift in (1, 0)
    )


def first_variation(
    state: PhaseField, model: ModelSpec, fe: FlowEval, test_field: VectorField
) -> VariationReport:
    """Pair ``test_field`` with the forms of ``VariationReport``; ``fe`` is
    ``dynamics.flow(state, model)``.  A field on another grid or an ``fe`` of
    another shape raises ``InputError``."""
    if test_field.spec != state.spec:
        raise InputError(f"test field lives on {test_field.spec}, the state on {state.spec}")
    if fe.rhs.shape != state.values.shape or fe.mu.shape != state.values.shape:
        raise InputError("the flow evaluation does not have the state's shape")
    eps = model.eps
    h, d = state.spec.h, state.spec.d
    gv = test_field.values
    grad_g = [g.gradient_raw(gv[a], h) for a in range(d)]  # grad_g[a][b] = d_b g_a
    div_g = sum(grad_g[a][a] for a in range(d))

    stress = discrepancy = varifold = chemical = kinetic = 0.0
    for ui, mu, rhs in zip(state.values, fe.mu, fe.rhs):
        well = double_well(ui) / eps
        sides = _one_sided_differences(ui, h)
        for grads in sides:
            norm_sq = sum(c * c for c in grads)
            # D±u . (grad g) D±u
            stretch = sum(grads[a] * grad_g[a][b] * grads[b] for a in range(d) for b in range(d))
            energy = SIGMA_INV * (0.5 * eps * norm_sq + well)
            stress_dens = energy * div_g - SIGMA_INV * eps * stretch
            resolved = norm_sq > GRADIENT_FLOOR**2
            nn_gg = stretch / np.where(resolved, norm_sq, 1.0)  # (n x n) : grad g
            disc_dens = np.where(resolved, nn_gg * SIGMA_INV * (0.5 * eps * norm_sq - well), 0.0)
            stress += 0.5 * g.integrate_raw(stress_dens, h, d)
            discrepancy += 0.5 * g.integrate_raw(disc_dens, h, d)
            varifold += 0.5 * g.integrate_raw(
                np.where(resolved, energy * (div_g - nn_gg), stress_dens), h, d
            )
        g_dot_grad = sum(ga * (0.5 * (p + m)) for ga, p, m in zip(gv, *sides))
        chemical += -SIGMA_INV * g.integrate_raw(g_dot_grad * mu, h, d)
        kinetic += SIGMA_INV * eps * g.integrate_raw(rhs * g_dot_grad, h, d)

    return VariationReport(
        first_variation=varifold,
        chemical_form=chemical,
        kinetic_form=kinetic,
        stress_form=stress,
        discrepancy_term=discrepancy,
        residuals={
            "varifold_minus_chemical": varifold - chemical,
            "stress_minus_chemical": stress - chemical,
            "kinetic_minus_chemical": kinetic - chemical,
            "varifold_minus_kinetic": varifold - kinetic,
        },
    )


def _bilinear_periodic(values: np.ndarray, points: np.ndarray, n: int) -> np.ndarray:
    """Sample a 2D periodic grid function at fractional positions (M, 2)."""
    pos = points * n
    i0 = np.floor(pos).astype(int)
    frac = pos - i0
    i0 %= n
    i1 = (i0 + 1) % n
    fx, fy = frac[:, 0], frac[:, 1]
    v00 = values[i0[:, 0], i0[:, 1]]
    v10 = values[i1[:, 0], i0[:, 1]]
    v01 = values[i0[:, 0], i1[:, 1]]
    v11 = values[i1[:, 0], i1[:, 1]]
    return (
        v00 * (1 - fx) * (1 - fy)
        + v10 * fx * (1 - fy)
        + v01 * (1 - fx) * fy
        + v11 * fx * fy
    )


def _junction_offset(state: PhaseField, cell: tuple[int, ...]) -> np.ndarray:
    """Offset from ``cell`` to the point where its three largest phases are equal.

    Least-squares planes fitted to the two differences of those phases over
    the 3x3 block centred on the cell are solved for their common zero.  The
    offset is zero when the planes are parallel or meet outside the block.
    """
    n, h = state.spec.n, state.spec.h
    top = np.argsort(state.values[(slice(None),) + cell])[-3:]
    rows, cols = (np.asarray(cell)[:, None] + np.arange(-1, 2)) % n
    diffs = np.diff(state.values[np.ix_(top, rows, cols)], axis=0)
    steps = np.arange(-1, 2) * h
    # On the symmetric stencil the fitted slope along an axis is
    # sum(d * x) / sum(x^2), with sum(x^2) = 6 h^2 over the nine points.
    slopes = np.stack(
        [np.einsum("pij,i->p", diffs, steps), np.einsum("pij,j->p", diffs, steps)], axis=1
    ) / (6.0 * h * h)
    try:
        offset = np.linalg.solve(slopes, -diffs.mean(axis=(1, 2)))
    except np.linalg.LinAlgError:
        return np.zeros(2)
    return offset if np.all(np.abs(offset) <= h) else np.zeros(2)


def measure_junction_angles(
    state: PhaseField, center_hint: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Sector angles of the phases around a triple junction, in degrees.

    Protocol: locate the junction as the cell minimizing u_(1) - u_(3), the
    spread of the three largest phases, within distance 0.1 of the hint
    (max_i u_i would not do: it is flat at 1/2 along every interface of
    unprojected profiles), refined to the sub-cell point where those three
    phases are equal (plane fits on its 3x3 block); then walk 9 circles of
    radius r in [5h, 15h], assign each of their 1440 angular samples its
    dominant phase by bilinear interpolation, and read off the boundary
    directions where the dominant phase switches.  Boundary directions are
    averaged over radii per phase pair; the returned sector widths sum to 360.

    Returns (sector_angles_deg, junction_location).
    """
    if state.spec.d != 2:
        raise InputError("junction metrology is implemented for d = 2 only")
    if state.n_phases < 3:
        raise InputError(f"a triple junction needs 3 phases, the state has {state.n_phases}")
    n = state.spec.n
    h = state.spec.h
    n_theta = 1440

    X, Y = state.spec.meshgrid()
    dx = g.torus_delta(X, center_hint[0])
    dy = g.torus_delta(Y, center_hint[1])
    near = dx * dx + dy * dy <= 0.1**2
    ranked = np.sort(state.values, axis=0)
    masked = np.where(near, ranked[-1] - ranked[-3], np.inf)
    jidx = np.unravel_index(np.argmin(masked), masked.shape)
    junction = (np.array([X[jidx], Y[jidx]]) + _junction_offset(state, jidx)) % 1.0

    thetas = np.arange(n_theta) * (2 * np.pi / n_theta)
    boundary_by_pair: dict[tuple[int, int], list[float]] = {}
    for r in np.linspace(5 * h, 15 * h, 9):
        pts = (junction[None, :] + r * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)) % 1.0
        samples = np.stack(
            [_bilinear_periodic(state.values[i], pts, n) for i in range(state.n_phases)]
        )
        dom = np.argmax(samples, axis=0)
        switches = np.nonzero(dom != np.roll(dom, 1))[0]
        if len(switches) != 3:
            continue  # circle misses the junction structure at this radius
        for s in switches:
            pair = (int(dom[s - 1]), int(dom[s]))
            # boundary angle: midpoint between the two samples, circularly
            ang = thetas[s] - np.pi / n_theta
            boundary_by_pair.setdefault(pair, []).append(ang % (2 * np.pi))
    if len(boundary_by_pair) != 3:
        raise InputError(
            f"junction boundary extraction found {len(boundary_by_pair)} phase pairs, expected 3"
        )
    boundaries = []
    for angles in boundary_by_pair.values():
        a = np.asarray(angles)
        mean = np.angle(np.mean(np.exp(1j * a)))
        boundaries.append(mean % (2 * np.pi))
    boundaries = np.sort(boundaries)
    widths = np.diff(np.concatenate([boundaries, [boundaries[0] + 2 * np.pi]]))
    return np.degrees(widths), junction

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

with the same |grad u_i| is the total variation of the transformed field
G(u_i) evaluated by chain rule; pointwise AM-GM gives bv_i <= energy_i, with
equality exactly at equipartition, so ``energy_bv_gap`` = energy_total -
sum_i bv_i is a nonnegative health metric for the energy-vs-total-variation
matching that the sharp-interface theory needs.

``first_variation`` evaluates three independent discretizations of the first
variation of the interface varifold against a test vector field g and reports
their pairwise residuals; ``mean_curvature_proxy`` returns the kinetic vector
density whose pairing with g reproduces the first variation, together with
the kinetic upper bound for int |h|^2 dmu.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid as g
from .dynamics import (
    ModelSpec,
    PhaseField,
    constraint_violation,
    dissipation_rate,
    flow,
    rhs,
)
from .errors import InputError
from .grid import ScalarField, VectorField
from .potential import SIGMA, double_well, sqrt_double_well

__all__ = [
    "MeasureSample",
    "VariationReport",
    "energy_measure",
    "discrepancy_measure",
    "bv_proxy",
    "energy_bv_gap",
    "measure_sample",
    "first_variation",
    "mean_curvature_proxy",
    "measure_junction_angles",
]

SIGMA_INV = 1.0 / SIGMA

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
    dissipation_rate: float
    constraint_drift: float
    phase_volumes: np.ndarray
    phase_sup: np.ndarray
    overshoot: float                   # max distance of any value outside [0, 1]


def _grad_sq(state: PhaseField) -> np.ndarray:
    """Stacked ``grid.grad_dot_raw(u_i, u_i)``, the squared-gradient density per phase."""
    h = state.spec.h
    return np.stack([g.grad_dot_raw(ui, ui, h) for ui in state.values])


def energy_densities(
    state: PhaseField, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked (grad_sq, energy, discrepancy) densities, before the SIGMA^{-1} factor.

    Every energy-type density of the package (energy, discrepancy, BV,
    weighted balances, Gaussian density) is built from this one pass.
    """
    grad_sq = _grad_sq(state)
    gradient = 0.5 * eps * grad_sq
    potential = double_well(state.values) / eps
    return grad_sq, gradient + potential, gradient - potential


def _integrate_phases(
    state: PhaseField, dens: np.ndarray, test_fn: ScalarField | None = None
) -> np.ndarray:
    """SIGMA^{-1} int dens_i (times the test function) dx for each phase."""
    if test_fn is not None:
        if test_fn.spec != state.spec:
            raise ValueError("test function lives on a different grid")
        dens = dens * test_fn.values
    h, d = state.spec.h, state.spec.d
    return np.array([SIGMA_INV * g.integrate_raw(x, h, d) for x in dens])


def _bv_density(state: PhaseField, grad_sq: np.ndarray) -> np.ndarray:
    return np.sqrt(grad_sq) * sqrt_double_well(state.values)


def energy_measure(
    state: PhaseField, eps: float, test_fn: ScalarField | None = None
) -> np.ndarray:
    """Per-phase diffuse surface energy, optionally weighted by a test function."""
    return _integrate_phases(state, energy_densities(state, eps)[1], test_fn)


def discrepancy_measure(
    state: PhaseField,
    eps: float,
    test_fn: ScalarField | None = None,
    signed: bool = True,
) -> np.ndarray:
    """Per-phase gradient-minus-potential discrepancy (signed or absolute)."""
    dens = energy_densities(state, eps)[2]
    return _integrate_phases(state, dens if signed else np.abs(dens), test_fn)


def bv_proxy(state: PhaseField) -> np.ndarray:
    """Per-phase total variation of G(u_i), via |grad G(u)| = SIGMA^{-1}|grad u| sqrt(2W(u)).

    |grad u| is the square root of the energy's gradient density, so AM-GM,
    eps a^2/2 + W/eps >= a sqrt(2W), gives bv_i <= energy_i cell by cell.
    """
    return _integrate_phases(state, _bv_density(state, _grad_sq(state)))


def energy_bv_gap(sample: MeasureSample) -> float:
    """energy_total minus the summed BV proxies; >= 0 up to round-off by AM-GM."""
    return sample.energy_total - float(np.sum(sample.bv_proxy_per_phase))


def measure_sample(
    state: PhaseField, model: ModelSpec, rhs_values: np.ndarray | None = None
) -> MeasureSample:
    """All scalar diagnostics of a state in one record.

    The dissipation rate is ``dynamics.dissipation_rate`` with du/dt from the
    flow itself, not from snapshot differencing, so it is the rate that
    ``run_simulation`` integrates into D(t).
    """
    h, d = state.spec.h, state.spec.d
    grad_sq, energy_dens, disc_dens = energy_densities(state, model.eps)
    energy = _integrate_phases(state, energy_dens)
    volumes = np.array([g.integrate_raw(state.values[i], h, d) for i in range(state.n_phases)])
    return MeasureSample(
        time=state.time,
        energy_per_phase=energy,
        energy_total=float(np.sum(energy)),
        discrepancy_per_phase=_integrate_phases(state, disc_dens),
        discrepancy_abs=float(np.sum(_integrate_phases(state, np.abs(disc_dens)))),
        bv_proxy_per_phase=_integrate_phases(state, _bv_density(state, grad_sq)),
        dissipation_rate=dissipation_rate(state, model, rhs_values),
        constraint_drift=constraint_violation(state, model),
        phase_volumes=volumes,
        phase_sup=np.max(state.values.reshape(state.n_phases, -1), axis=1),
        overshoot=float(max(0.0, np.max(state.values) - 1.0, -np.min(state.values))),
    )


@dataclass(frozen=True)
class VariationReport:
    """Three discretizations of the first variation paired with one test field.

    ``first_variation`` is the varifold pairing: over cells with a resolved
    normal it integrates (I - n x n) : grad g against the energy measure, and
    cells below the gradient floor contribute the isotropic well term
    -SIGMA^{-1} (div g) W(u)/eps.  ``chemical_form`` pairs g . grad u with the
    chemical potential; ``kinetic_form`` pairs it with the time derivative.
    The kinetic and chemical forms agree up to the multiplier-orthogonality
    residual, which vanishes identically on constraint-projected states.
    """

    test_field_id: str
    first_variation: float
    chemical_form: float
    kinetic_form: float
    residuals: dict = field(default_factory=dict)


def first_variation(
    state: PhaseField,
    model: ModelSpec,
    test_field: VectorField,
    test_field_id: str = "g",
) -> VariationReport:
    if test_field.spec != state.spec:
        raise ValueError("test field lives on a different grid")
    eps = model.eps
    spec = state.spec
    h, d = spec.h, spec.d
    gv = test_field.values
    grad_g = [g.gradient_raw(gv[a], h) for a in range(d)]  # grad_g[a][b] = d_b g_a
    div_g = sum(grad_g[a][a] for a in range(d))
    fe = flow(state, model)

    varifold = 0.0
    chemical = 0.0
    kinetic = 0.0
    for i in range(state.n_phases):
        ui = state.values[i]
        grads = g.gradient_raw(ui, h)
        norm_sq = sum(c * c for c in grads)
        norm = np.sqrt(norm_sq)
        well = double_well(ui)

        # (n x n) : grad g = sum_ab n_a n_b d_a g_b; guard the floored cells.
        mask = norm > GRADIENT_FLOOR
        safe = np.where(mask, norm_sq, 1.0)
        nn_gg = sum(grads[a] * grads[b] * grad_g[b][a] for a in range(d) for b in range(d)) / safe
        energy_dens = SIGMA_INV * (0.5 * eps * norm_sq + well / eps)
        varifold += g.integrate_raw(
            np.where(mask, (div_g - nn_gg) * energy_dens, -SIGMA_INV * div_g * well / eps),
            h, d,
        )

        g_dot_grad = sum(gv[a] * grads[a] for a in range(d))
        chemical += -SIGMA_INV * g.integrate_raw(g_dot_grad * fe.mu[i], h, d)
        kinetic += SIGMA_INV * eps * g.integrate_raw(fe.rhs[i] * g_dot_grad, h, d)

    return VariationReport(
        test_field_id=test_field_id,
        first_variation=varifold,
        chemical_form=chemical,
        kinetic_form=kinetic,
        residuals={
            "varifold_minus_chemical": varifold - chemical,
            "kinetic_minus_chemical": kinetic - chemical,
            "varifold_minus_kinetic": varifold - kinetic,
        },
    )


def mean_curvature_proxy(
    state: PhaseField, model: ModelSpec
) -> tuple[VectorField, float]:
    """Kinetic mean-curvature density and the kinetic bound for int |h|^2 dmu.

    Returns (v, bound) with v = SIGMA^{-1} sum_i eps (du_i/dt) grad u_i, whose
    pairing integral with a test field g equals the first variation evaluated
    through the kinetic form, and bound = SIGMA^{-1} int eps |du/dt|^2 dx.
    """
    spec = state.spec
    h, d = spec.h, spec.d
    eps = model.eps
    du = rhs(state, model)
    comps = [np.zeros(spec.shape) for _ in range(d)]
    for i in range(state.n_phases):
        grads = g.gradient_raw(state.values[i], h)
        for a in range(d):
            comps[a] += SIGMA_INV * eps * du[i] * grads[a]
    return VectorField(spec, np.stack(comps)), dissipation_rate(state, model, du)


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
    state: PhaseField,
    center_hint: tuple[float, float],
    search_radius: float = 0.1,
    annulus: tuple[float, float] | None = None,
    n_theta: int = 1440,
    n_radii: int = 9,
) -> tuple[np.ndarray, np.ndarray]:
    """Sector angles of the phases around a triple junction, in degrees.

    Protocol: locate the junction as the cell minimizing u_(1) - u_(3), the
    spread of the three largest phases, within ``search_radius`` of the hint
    (max_i u_i would not do: it is flat at 1/2 along every interface of
    unprojected profiles), refined to the sub-cell point where those three
    phases are equal (plane fits on its 3x3 block); then walk circles of
    radius r in the annulus (default [5h, 15h]), assign each angular sample
    its dominant phase by bilinear interpolation, and read off the boundary
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
    if annulus is None:
        annulus = (5 * h, 15 * h)

    X, Y = state.spec.meshgrid()
    dx = g.torus_delta(X, center_hint[0])
    dy = g.torus_delta(Y, center_hint[1])
    near = dx * dx + dy * dy <= search_radius**2
    ranked = np.sort(state.values, axis=0)
    masked = np.where(near, ranked[-1] - ranked[-3], np.inf)
    jidx = np.unravel_index(np.argmin(masked), masked.shape)
    junction = (np.array([X[jidx], Y[jidx]]) + _junction_offset(state, jidx)) % 1.0

    thetas = np.arange(n_theta) * (2 * np.pi / n_theta)
    boundary_by_pair: dict[tuple[int, int], list[float]] = {}
    for r in np.linspace(annulus[0], annulus[1], n_radii):
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

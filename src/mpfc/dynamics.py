"""The four constrained Allen-Cahn systems and their time integration.

Every model evolves N order parameters u_1..u_N on the torus by

    du_i/dt = Lap u_i - W'(u_i)/eps^2 + (coupling_i)/eps

which is the eps-scaled gradient flow of the diffuse interface energy plus a
pointwise Lagrange multiplier term that enforces an algebraic constraint.  In
this time normalization interfaces move with normal velocity equal to mean
curvature.  Writing mu_i = -eps Lap u_i + W'(u_i)/eps for the chemical
potential, the four couplings and their conserved quantities are

    SphereLL        coupling_i = lam * u_i,        lam  = sum_j u_j mu_j
                    conserves sum_j u_j^2 = 1 pointwise
    WeightedSum     coupling_i = Lam * g(u_i),     Lam  = sum_j mu_j / sum_j g(u_j)
                    conserves sum_j u_j = 1
    MeanShift       coupling_i = Lam1,             Lam1 = (1/N) sum_j mu_j
                    conserves sum_j u_j = 1
    WeightedSquare  coupling_i = Lam2 * g(u_i),    Lam2 = sum_j g(u_j) mu_j / sum_j g(u_j)^2
                    conserves sum_j k(u_j) = 1/6

with g = sqrt(2W) and k its primitive.  SphereLL with N = 3 is the
Landau-Lifshitz flow of a unit vector field written in multiplier form; for
other N the same equations are integrated but the sphere reading is formal.

Quotient multipliers degenerate where every phase sits in a well.  Cells whose
denominator falls below ``denom_floor`` get multiplier zero; this is
consistent with the formal limit because the coupling carries another factor
of g that vanishes at the same order.  The floored cell fraction is reported
so runs can detect over-flooring.

States are never clamped: overshoot outside [0, 1] is reported by the
diagnostics, not repaired, because clamping would corrupt the energy
dissipation identity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import grid as g
from .errors import (
    BlowUpError,
    ConfigurationError,
    DegenerateDenominatorError,
    ProjectionError,
    ProjectionSingularError,
)
from .grid import GridSpec, ScalarField
from .potential import SIGMA, double_well_prime, sqrt_double_well, well_primitive

__all__ = [
    "ModelKind",
    "ModelSpec",
    "PhaseField",
    "MultiplierField",
    "StepResult",
    "FlowEval",
    "chemical_potential",
    "compute_multiplier",
    "flow",
    "dissipation_rate",
    "step",
    "advance",
    "project_constraint",
    "constraint_violation",
    "explicit_dt_limit",
    "max_neighbor_jump",
]

SIGMA_INV = 1.0 / SIGMA


class ModelKind(str, enum.Enum):
    SPHERE_LL = "SphereLL"
    WEIGHTED_SUM = "WeightedSum"
    MEAN_SHIFT = "MeanShift"
    WEIGHTED_SQUARE = "WeightedSquare"


@dataclass(frozen=True)
class ModelSpec:
    """Which system to integrate, with interface width and multiplier policy."""

    kind: ModelKind
    eps: float
    n_phases: int
    denom_floor: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.n_phases < 2:
            raise ValueError(f"n_phases must be >= 2, got {self.n_phases}")
        if self.denom_floor < 0:
            raise ValueError("denom_floor must be >= 0")


@dataclass(frozen=True)
class PhaseField:
    """N order parameters on a shared grid at one instant."""

    spec: GridSpec
    values: np.ndarray  # shape (N,) + spec.shape, frozen
    time: float = 0.0

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.ndim != self.spec.d + 1 or arr.shape[1:] != self.spec.shape:
            raise ValueError(
                f"phase array must have shape (N,)+{self.spec.shape}, got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("phase field contains non-finite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_phases(self) -> int:
        return self.values.shape[0]

    def with_values(self, values: np.ndarray, time: float | None = None) -> "PhaseField":
        return PhaseField(self.spec, values, self.time if time is None else time)


@dataclass(frozen=True)
class MultiplierField:
    """Pointwise multiplier with regularization bookkeeping."""

    values: ScalarField
    floored_fraction: float
    constraint_warning: bool = False


class StepResult(NamedTuple):
    state: PhaseField
    dissipation_rate: float  # SIGMA^{-1} int eps |du/dt|^2 dx at the pre-step state
    floored_fraction: float


class FlowEval(NamedTuple):
    """One evaluation of the flow at a state: du/dt and the pieces it is built from."""

    rhs: np.ndarray         # du/dt, shaped like the state's values
    lap: np.ndarray         # Lap_h u per phase
    mu: np.ndarray          # chemical potential per phase
    multiplier: np.ndarray  # Lagrange multiplier, grid shaped
    floored_fraction: float
    rate: float             # SIGMA^{-1} int eps |du/dt|^2 dx, the dissipation rate


def _check_state(state: PhaseField, model: ModelSpec) -> None:
    if state.n_phases != model.n_phases:
        raise ValueError(
            f"state has {state.n_phases} phases but model expects {model.n_phases}"
        )


def constraint_values(state: PhaseField, model: ModelSpec) -> np.ndarray:
    """Pointwise deviation of the model's conserved quantity from its target."""
    u = state.values
    if model.kind == ModelKind.SPHERE_LL:
        return np.sum(u * u, axis=0) - 1.0
    if model.kind == ModelKind.WEIGHTED_SQUARE:
        return np.sum(well_primitive(u), axis=0) - 1.0 / 6.0
    return np.sum(u, axis=0) - 1.0


def constraint_violation(state: PhaseField, model: ModelSpec) -> float:
    return float(np.max(np.abs(constraint_values(state, model))))


def _chemical_potential(u: np.ndarray, lap: np.ndarray, eps: float) -> np.ndarray:
    return -eps * lap + double_well_prime(u) / eps


def chemical_potential(u_i: ScalarField, eps: float) -> ScalarField:
    """mu = -eps Lap u + W'(u)/eps, one component of the energy gradient."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    lap = g.laplacian_raw(u_i.values, u_i.spec.h)
    return ScalarField(u_i.spec, _chemical_potential(u_i.values, lap, eps))


def flow(state: PhaseField, model: ModelSpec) -> FlowEval:
    """Evaluate du/dt together with the Laplacian, chemical potential, multiplier
    and dissipation rate.

    du/dt = Lap u_i - W'(u_i)/eps^2 + coupling_i/eps; the eps-scaled form makes
    the sharp-interface motion law V = H hold in simulation time directly.
    """
    _check_state(state, model)
    u = state.values
    eps = model.eps
    floored_fraction = 0.0
    # Overflow in the polynomial terms is legitimate blow-up; it surfaces via
    # the finiteness check after stepping, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        lap = g.laplacian_raw(u, state.spec.h, axis_offset=1)
        mu = _chemical_potential(u, lap, eps)

        if model.kind == ModelKind.SPHERE_LL:
            lam = np.sum(u * mu, axis=0)
            coupling = lam[None] * u
        elif model.kind == ModelKind.MEAN_SHIFT:
            lam = np.mean(mu, axis=0)
            coupling = lam[None]
        else:
            weight = sqrt_double_well(u)
            if model.kind == ModelKind.WEIGHTED_SUM:
                num = np.sum(mu, axis=0)
                den = np.sum(weight, axis=0)
            else:  # WEIGHTED_SQUARE
                num = np.sum(weight * mu, axis=0)
                den = np.sum(weight * weight, axis=0)

            floored = den < model.denom_floor
            if model.denom_floor == 0.0 and np.any(den == 0.0):
                cell = tuple(int(i) for i in np.argwhere(den == 0.0)[0])
                raise DegenerateDenominatorError(
                    f"zero multiplier denominator at cell {cell} with denom_floor=0", cell
                )
            lam = np.where(floored, 0.0, num / np.where(floored, 1.0, den))
            coupling = lam[None] * weight
            floored_fraction = float(np.mean(floored))
    du = (coupling - mu) / eps
    rate = SIGMA_INV * eps * g.integrate_raw(np.sum(du * du, axis=0), state.spec.h, state.spec.d)
    return FlowEval(du, lap, mu, lam, floored_fraction, rate)


def compute_multiplier(state: PhaseField, model: ModelSpec) -> MultiplierField:
    """Pointwise Lagrange multiplier of the model at this state.

    Sets ``constraint_warning`` when the state is further than 1e-3 from its
    constraint manifold, since the multiplier formulas assume the constraint.
    """
    fe = flow(state, model)
    return MultiplierField(
        values=ScalarField(state.spec, np.ascontiguousarray(fe.multiplier)),
        floored_fraction=fe.floored_fraction,
        constraint_warning=constraint_violation(state, model) > 1e-3,
    )


def dissipation_rate(state: PhaseField, model: ModelSpec) -> float:
    """SIGMA^{-1} int eps |du/dt|^2 dx, the ``rate`` of the flow at ``state``."""
    return flow(state, model).rate


def explicit_dt_limit(spec: GridSpec, eps: float) -> float:
    """Stability policy for the explicit scheme: dt <= min(h^2/(4d), eps^2/10)."""
    h = spec.h
    return min(h * h / (4.0 * spec.d), eps * eps / 10.0)


def max_neighbor_jump(state: PhaseField) -> float:
    """Largest |u_i(x+h e_a) - u_i(x)| over phases, axes, and cells."""
    u = state.values
    jump = np.empty(u.shape)
    worst = 0.0
    for ax in range(1, u.ndim):
        g._periodic_pair(np.subtract, u, 1, u, 0, ax, jump)
        worst = max(worst, float(np.max(np.abs(jump, out=jump))))
    return worst


def check_scheme(spec: GridSpec, model: ModelSpec, dt: float, scheme: str) -> None:
    """Validate scheme name and the explicit stability policy before stepping."""
    if not dt > 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if scheme == "ExplicitEuler":
        limit = explicit_dt_limit(spec, model.eps)
        if dt > limit * (1.0 + 1e-12):
            raise ConfigurationError(
                f"ExplicitEuler stability policy requires dt <= {limit:.6e}, got {dt:.6e}"
            )
    elif scheme != "IMEX":
        raise ConfigurationError(f"unknown scheme {scheme!r}")


def advance(
    state: PhaseField,
    model: ModelSpec,
    dt: float,
    scheme: str,
    fe: FlowEval,
    project: bool = False,
) -> PhaseField:
    """Apply one step of the chosen scheme using the flow evaluation ``fe`` at ``state``."""
    check_scheme(state.spec, model, dt, scheme)
    u = state.values
    if scheme == "ExplicitEuler":
        new = u + dt * fe.rhs
    else:
        explicit = fe.rhs - fe.lap
        new = g.helmholtz_solve_raw(u + dt * explicit, 1.0, dt, state.spec)
    if not np.isfinite(new).all():
        raise BlowUpError("non-finite values after step", time=state.time + dt)
    out = PhaseField(state.spec, new, state.time + dt)
    if project:
        out = project_constraint(out, model)
    return out


def step(
    state: PhaseField,
    model: ModelSpec,
    dt: float,
    scheme: str = "IMEX",
    project: bool = False,
) -> StepResult:
    """Advance one time step.

    ``ExplicitEuler`` advances with the full right-hand side and enforces the
    stability policy ``dt <= min(h^2/(4d), eps^2/10)`` before stepping.
    ``IMEX`` treats the Laplacian implicitly through the Helmholtz solve
    (a=1, b=dt) and the potential/multiplier terms explicitly.  With
    ``project=True`` the model's constraint projection is applied to the
    result.  The returned dissipation rate is evaluated at the pre-step state.
    """
    fe = flow(state, model)
    out = advance(state, model, dt, scheme, fe, project)
    return StepResult(out, fe.rate, fe.floored_fraction)


def _project_weighted_square(
    u: np.ndarray, defect: np.ndarray, max_iter: int = 60, tol: float = 1e-12
) -> np.ndarray:
    """Per-cell scalar shift t with sum_i k(u_i + t) = 1/6, by safeguarded Newton.

    ``defect`` is f(0) = sum_i k(u_i) - 1/6 per cell.  f is nondecreasing and
    unbounded both ways with f'(t) = sum_i g(u_i + t), so a bracket always
    exists; it is located by doubling from [-0.5, 0.5] (one end is t = 0, on
    the side the sign of f(0) gives).  Newton then starts at t = 0 and each
    step shrinks the bracket by the sign of f; where the Newton step is not
    finite or leaves the bracket the midpoint is taken instead (rtsafe,
    Numerical Recipes 9.4).  Near the wells sum g vanishes and f behaves like
    s|s|, where Newton alone only halves the error.  Only cells that have not
    converged (|step| > tol) are iterated, gathered by index.

    Cells already on the manifold (|f(0)| <= 1e-13) keep t = 0 exactly: near
    wells the defect is quadratic in t and floating point flattens it, so a
    root search would wander to the plateau edge instead of staying put.
    """
    target = 1.0 / 6.0
    shift = np.zeros(defect.size)
    cells = np.flatnonzero(np.abs(defect) > 1e-13)
    v = np.take(u.reshape(u.shape[0], -1), cells, axis=1)
    f = defect.ravel()[cells]

    side = np.where(f > 0.0, -0.5, 0.5)
    for _ in range(12):
        short = np.sign(np.sum(well_primitive(v + side), axis=0) - target) == np.sign(f)
        if not short.any():
            break
        side = np.where(short, 2.0 * side, side)
    else:
        raise ProjectionError("bracket failure in weighted-square projection")
    lo = np.minimum(side, 0.0)
    hi = np.maximum(side, 0.0)

    t = np.zeros(cells.size)
    fprime = np.sum(sqrt_double_well(v), axis=0)
    for _ in range(max_iter):
        hi = np.where(f >= 0.0, t, hi)
        lo = np.where(f <= 0.0, t, lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = t - f / fprime
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        done = np.abs(new - t) <= tol
        t = new
        shift[cells[done]] = t[done]
        keep = ~done
        cells, t, lo, hi = cells[keep], t[keep], lo[keep], hi[keep]
        if cells.size == 0:
            return u + shift.reshape(defect.shape)[None]
        v = np.compress(keep, v, axis=1)
        s = v + t
        f = np.sum(well_primitive(s), axis=0) - target
        fprime = np.sum(sqrt_double_well(s), axis=0)
    raise ProjectionError(
        f"weighted-square Newton iteration did not reach tol={tol} in {max_iter} iterations"
    )


def project_constraint(
    state: PhaseField, model: ModelSpec, max_violation: float = 0.1
) -> PhaseField:
    """Return the state projected exactly onto the model's constraint manifold.

    SphereLL normalizes radially; the sum models shift all phases by the mean
    defect; WeightedSquare solves the per-cell scalar shift by safeguarded
    Newton (see ``_project_weighted_square``), starting from the same defect
    that the violation check reads.  Raises ProjectionError when the state is
    further than ``max_violation`` from the manifold (pass
    ``max_violation=inf`` for initial-data projection).
    """
    _check_state(state, model)
    defect = constraint_values(state, model)
    violation = float(np.max(np.abs(defect)))
    if violation > max_violation * (1.0 + 1e-12):
        raise ProjectionError(
            f"state is {violation:.3e} from the constraint manifold "
            f"(limit {max_violation:.3e})"
        )
    u = state.values
    if model.kind == ModelKind.SPHERE_LL:
        norm = np.sqrt(np.sum(u * u, axis=0))
        if np.any(norm < 1e-150):
            raise ProjectionSingularError("zero phase vector: radial projection undefined")
        new = u / norm[None]
    elif model.kind == ModelKind.WEIGHTED_SQUARE:
        new = _project_weighted_square(u, defect)
    else:
        new = u - defect[None] / model.n_phases
    return state.with_values(new)

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
denominator falls below ``_DENOM_FLOOR`` get multiplier zero; this is
consistent with the formal limit because the coupling carries another factor
of g that vanishes at the same order.  The floored cell fraction is returned
in ``FlowEval.floored_fraction``; no run records it yet.

MeanShift's IMEX step solves N - 1 phases: its multiplier keeps sum_j u_j
fixed pointwise, on or off the manifold, so the last phase is the old sum
minus the others.  WeightedSum floors its multiplier, so it solves them all.
At N = 2 on the manifold the old sum S is exactly 1 and the last phase is
fl(1 - u_0), and u_0 + fl(1 - u_0) rounds back to 1 (exactly for u_0 in
[1/2, 2] by Sterbenz, within half an ulp elsewhere), so the step's defect
is +0 in every cell and ``project_constraint`` returns its input.  Any other
sum-model state takes the shift whenever a cell's defect is not +0.

A phase is absent when every entry is +0.0 (``PhaseField.absent``; -0.0 is
present).  The SphereLL, WeightedSum and WeightedSquare couplings, lam u_i
and Lam g(u_i), vanish with the phase, so an absent phase has
Lap u_i = mu_i = +0 and du_i = lam * (+0), and adds nothing to the
multiplier or the rate.  ``flow`` skips its work, and ``advance`` solves
only the present phases and sets the absent ones to +0, the exact solution
of their zero right-hand side; the SphereLL projection leaves them out of
its sum of squares and writes +0, which +0 / norm is.  An absent phase
stays absent and costs nothing.  MeanShift never skips, because its
coupling Lam1 moves an absent phase.  The values are the full evaluation's bit for bit, except that at
grid sizes with a large prime factor (n = 113, 127, ...) the FFT solve of a
zero plane leaves some -0.0 entries where the skip writes +0.0.

The WeightedSquare projection shifts a cell's phases by the t that solves
sum_j k(u_j + t) = 1/6: grid-shaped safeguarded Newton on that equation,
started from the root of its second-order expansion at t = 0.

States are never clamped: overshoot outside [0, 1] is reported by the
diagnostics, not repaired, because clamping would corrupt the energy
dissipation identity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import grid as g
from .errors import (
    BlowUpError,
    ConfigurationError,
    ProjectionError,
    ProjectionSingularError,
)
from .grid import GridSpec
from .potential import (
    SIGMA_INV,
    _double_well_prime_into,
    _sqrt_double_well_into,
    _well_primitive_into,
)

__all__ = [
    "ModelKind",
    "ModelSpec",
    "PhaseField",
    "FlowEval",
    "SCHEMES",
    "flow",
    "dissipation_rate",
    "advance",
    "project_constraint",
    "constraint_violation",
    "max_neighbor_jump",
]

# Time-stepping schemes that ``advance`` implements.
SCHEMES = ("IMEX",)
# Newton steps of the weighted-square projection at most this long count as converged.
_SHIFT_TOL = 1e-12
# Its root search reaches shifts up to this size; a root further out is a
# bracket failure.
_SHIFT_CAP = 1024.0
# A cell still moving by more than the tolerance after this many Newton steps
# fails the projection.
_SHIFT_MAX_ITER = 60
# Quotient multipliers are zero where their denominator is below this.
_DENOM_FLOOR = 1e-10

# The step's temporaries live in per-thread scratch (``grid._scratch``).  The
# float "stack_a/b/c" and bool "stack_mask" slots have the state's shape and
# are shared by this module's functions, as the grid-shaped "plane_a/b" are by
# the package's per-phase loops: each fills them and reads them back before it
# returns, holding none across a call that uses them.  Other slots ("flow_*",
# "project_*": the projection's Newton state) are grid shaped and belong to
# one function.  Arrays a caller receives are fresh allocations.  Sums over
# phases run plane by plane in phase order, which is how np.sum(., axis=0)
# adds a stack, so they are bitwise that sum.


class ModelKind(str, enum.Enum):
    SPHERE_LL = "SphereLL"
    WEIGHTED_SUM = "WeightedSum"
    MEAN_SHIFT = "MeanShift"
    WEIGHTED_SQUARE = "WeightedSquare"


@dataclass(frozen=True)
class ModelSpec:
    """Which system to integrate, with interface width and phase count."""

    kind: ModelKind
    eps: float
    n_phases: int

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.n_phases < 2:
            raise ValueError(f"n_phases must be >= 2, got {self.n_phases}")


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

    @cached_property
    def absent(self) -> tuple[bool, ...]:
        """Per phase, whether every entry is +0.0 (all bits zero; -0.0 is present)."""
        planes = self.values.reshape(self.n_phases, -1).view(np.int64)
        # A nonzero first entry settles a present phase without a scan.
        return tuple(not (bits[0] or bits.any()) for bits in planes)

    def _with_finite_values(self, values: np.ndarray) -> "PhaseField":
        """This state's grid and time with ``values``, unchecked: a fresh C-contiguous
        float64 array of this state's shape whose entries are known finite."""
        new = object.__new__(PhaseField)
        values.flags.writeable = False
        object.__setattr__(new, "spec", self.spec)
        object.__setattr__(new, "values", values)
        object.__setattr__(new, "time", self.time)
        return new


class FlowEval(NamedTuple):
    """One evaluation of the flow at a state: du/dt and the pieces it is built from."""

    rhs: np.ndarray         # du/dt, shaped like the state's values
    lap: np.ndarray         # Lap_h u per phase
    mu: np.ndarray          # chemical potential per phase
    multiplier: np.ndarray  # Lagrange multiplier, grid shaped
    floored_fraction: float
    rate: float             # SIGMA^{-1} int eps |du/dt|^2 dx, the dissipation rate
    rate_density: np.ndarray  # sum_i (du_i/dt)^2, grid shaped; rate = SIGMA^{-1} eps int of it


def _check_state(state: PhaseField, model: ModelSpec) -> None:
    if state.n_phases != model.n_phases:
        raise ValueError(
            f"state has {state.n_phases} phases but model expects {model.n_phases}"
        )


def _primitive_defect(s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_i k(s_i) - 1/6, the WeightedSquare constraint defect, written to ``out``."""
    k = _well_primitive_into(s, g._scratch(s.shape, "stack_a"), g._scratch(s.shape, "stack_b"),
                             g._scratch(s.shape, "stack_mask", bool))
    np.sum(k, axis=0, out=out)
    out -= 1.0 / 6.0
    return out


def _phase_sum(u: np.ndarray, out: np.ndarray, square: bool = False) -> np.ndarray:
    """sum_i u_i, or sum_i u_i^2 with ``square``, written to ``out`` plane by plane
    from the first (zero with none).  That is the zero-filled sum bit for bit
    for squares, which are +0 or more, and for a plain sum but for the sign of
    a zero, which the ``- 1.0`` that always follows it drops."""
    if not len(u):
        out.fill(0.0)
    elif square:
        np.multiply(u[0], u[0], out=out)
    else:
        np.copyto(out, u[0])
    for phase in u[1:]:
        out += np.multiply(phase, phase, out=g._scratch(out.shape, "plane_a")) if square else phase
    return out


def _constraint_defect(u: np.ndarray, model: ModelSpec, out: np.ndarray) -> np.ndarray:
    """``constraint_values`` of the phases ``u``, written to ``out``."""
    if model.kind == ModelKind.WEIGHTED_SQUARE:
        return _primitive_defect(u, out)
    _phase_sum(u, out, square=model.kind == ModelKind.SPHERE_LL)
    out -= 1.0
    return out


def constraint_values(state: PhaseField, model: ModelSpec) -> np.ndarray:
    """Pointwise deviation of the model's conserved quantity from its target."""
    return _constraint_defect(state.values, model, np.empty(state.spec.shape))


def constraint_violation(state: PhaseField, model: ModelSpec) -> float:
    return float(np.max(np.abs(constraint_values(state, model))))


def _skipped_phases(state: PhaseField, model: ModelSpec) -> tuple[bool, ...]:
    """Per phase, whether the step keeps it at +0: ``state.absent``, except under
    MeanShift, whose coupling Lam1 moves an absent phase."""
    if model.kind == ModelKind.MEAN_SHIFT:
        return (False,) * state.n_phases
    return state.absent


def flow(state: PhaseField, model: ModelSpec) -> FlowEval:
    """Evaluate du/dt together with the Laplacian, chemical potential, multiplier
    and dissipation rate.

    du/dt = Lap u_i - W'(u_i)/eps^2 + coupling_i/eps; the eps-scaled form makes
    the sharp-interface motion law V = H hold in simulation time directly.
    One pass over the phases forms Lap u_i, mu_i = -eps Lap u_i + W'(u_i)/eps
    and the multiplier's sums; a second forms du_i and sums du_i^2 into
    ``rate_density``, which the rate integrates and the Brakke integrand weights.
    """
    _check_state(state, model)
    u = state.values
    eps, kind = model.eps, model.kind
    grid_shape = state.spec.shape
    skip = _skipped_phases(state, model)
    lap, mu, du = np.empty(u.shape), np.empty(u.shape), np.empty(u.shape)
    a, b = g._scratch(grid_shape, "plane_a"), g._scratch(grid_shape, "plane_b")
    # The multiplier's numerator sum, then the multiplier; the quotients sum
    # their denominator in its own slot.
    lam = np.zeros(grid_shape)
    weighted = kind in (ModelKind.WEIGHTED_SUM, ModelKind.WEIGHTED_SQUARE)
    if weighted:
        den = g._scratch(grid_shape, "flow_den")
        den.fill(0.0)
    floored_fraction = 0.0
    # Overflow anywhere in du/dt or its rate is legitimate blow-up; it surfaces
    # via the finiteness check after stepping, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for phase, lap_i, mu_i, du_i, absent in zip(u, lap, mu, du, skip):
            if absent:  # Lap u_i = mu_i = g(u_i) = +0 add nothing; du_i becomes lam * (+0)
                for plane in (lap_i, mu_i, du_i):
                    plane.fill(0.0)
                continue
            g.laplacian_raw(phase, state.spec.h, out=lap_i)
            np.multiply(-eps, lap_i, out=mu_i)
            mu_i += np.divide(_double_well_prime_into(phase, a, b), eps, out=a)
            if weighted:  # the weight g(u_i) waits in du_i for the coupling
                weight = _sqrt_double_well_into(phase, du_i)
                den += weight if kind == ModelKind.WEIGHTED_SUM else np.multiply(
                    weight, weight, out=b)
            if kind == ModelKind.SPHERE_LL:
                lam += np.multiply(phase, mu_i, out=a)
            elif kind == ModelKind.WEIGHTED_SQUARE:
                lam += np.multiply(weight, mu_i, out=a)
            else:
                lam += mu_i
        if kind == ModelKind.MEAN_SHIFT:
            lam /= u.shape[0]
        elif weighted:
            floored = np.less(den, _DENOM_FLOOR, out=g._scratch(grid_shape, "flow_floored", bool))
            np.copyto(den, 1.0, where=floored)
            lam /= den
            np.copyto(lam, 0.0, where=floored)
            floored_fraction = float(np.mean(floored))

        # du_i = (coupling_i - mu_i) / eps, and |du|^2 summed over phases from
        # the first square, which is the zero-filled sum: squares are +0 or more.
        density = np.empty(grid_shape)
        for i, (phase, mu_i, du_i) in enumerate(zip(u, mu, du)):
            if kind == ModelKind.MEAN_SHIFT:
                np.subtract(lam, mu_i, out=du_i)
            else:
                np.multiply(lam, phase if kind == ModelKind.SPHERE_LL else du_i, out=du_i)
                du_i -= mu_i
            du_i /= eps
            if i:
                density += np.multiply(du_i, du_i, out=a)
            else:
                np.multiply(du_i, du_i, out=density)
        rate = SIGMA_INV * eps * g.integrate_raw(density, state.spec.h, state.spec.d)
    return FlowEval(du, lap, mu, lam, floored_fraction, rate, density)


def dissipation_rate(state: PhaseField, model: ModelSpec) -> float:
    """SIGMA^{-1} int eps |du/dt|^2 dx, the ``rate`` of the flow at ``state``."""
    return flow(state, model).rate


def max_neighbor_jump(state: PhaseField) -> float:
    """Largest |u_i(x+h e_a) - u_i(x)| over phases, axes, and cells."""
    u = state.values
    jump = np.empty(u.shape)
    worst = 0.0
    for ax in range(1, u.ndim):
        g._periodic_pair(np.subtract, u, 1, u, 0, ax, jump)
        worst = max(worst, float(np.max(np.abs(jump, out=jump))))
    return worst


def advance(
    state: PhaseField,
    model: ModelSpec,
    dt: float,
    scheme: str,
    fe: FlowEval,
    project: bool = False,
) -> PhaseField:
    """Advance one IMEX time step, given ``fe = flow(state, model)``.

    The Laplacian is treated implicitly, solving (I - dt Lap_h) x = rhs, and
    the potential/multiplier terms explicitly; ``scheme`` must name it, and
    ``dt`` must be positive.  With ``project=True`` the model's
    constraint projection is applied to the result.  The step's result is
    scanned once for non-finite values, which raise BlowUpError; the
    projection maps that finite state to a finite one (see
    ``project_constraint``), so its result is not scanned again.

    MeanShift's IMEX step solves phases 0..N-2 and sets the last to S minus
    them, S = sum_i u_i of the old state.  This is exact off the manifold too:
    sum_i du_i = (N mean(mu) - sum mu)/eps is zero to round-off, so the
    right-hand sides sum to (I - dt Lap_h) S and, by linearity, the solutions
    to S.  The last phase's IMEX residual is at most the sum of the solved
    phases' (each checked by the solve) plus round-off.  WeightedSum does not
    qualify: its multiplier is zero in floored cells, where sum_i du_i is not.
    An absent phase of the other models is not solved; it stays +0.
    """
    if not dt > 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    u = state.values
    # u + dt (rhs - lap) for the k unskipped phases among the first m,
    # formed in scratch and solved into new[:k].
    m = u.shape[0] - (model.kind == ModelKind.MEAN_SHIFT)
    skip = _skipped_phases(state, model)
    solved = [i for i in range(m) if not skip[i]]
    k = len(solved)
    imex_rhs = g._scratch(u.shape, "stack_a")[:k]
    for out, i in zip(imex_rhs, solved):
        np.subtract(fe.rhs[i], fe.lap[i], out=out)
        out *= dt
        out += u[i]
    new = np.empty(u.shape)
    if k:
        g.helmholtz_solve_raw(imex_rhs, dt, state.spec, out=new[:k])
    for j in reversed(range(k)):  # the solved planes move up to their phases
        if solved[j] != j:
            new[solved[j]] = new[j]
    for i in range(m):  # +0 solves a skipped phase's zero right-hand side
        if skip[i]:
            new[i].fill(0.0)
    if m < u.shape[0]:  # the last phase is S minus the solved ones
        last = np.add(u[0], u[1], out=new[-1])
        for phase in u[2:]:
            last += phase
        for phase in new[:-1]:
            last -= phase
    try:
        out = PhaseField(state.spec, new, state.time + dt)
    except ValueError as exc:  # non-finite entries; the shape is the state's
        raise BlowUpError("non-finite values after step", time=state.time + dt) from exc
    if project:
        out = project_constraint(out, model)
    return out


def _project_weighted_square(u: np.ndarray, defect: np.ndarray) -> np.ndarray:
    """Per-cell scalar shift t with f(t) = sum_i k(u_i + t) - 1/6 = 0, by
    safeguarded Newton on f itself (rtsafe, Numerical Recipes 9.4).

    ``defect`` is f(0) per cell.  f is nondecreasing with f' = sum_i g(u_i + t),
    so every root the cap allows lies in the bracket [-2 cap, 2 cap]
    (cap = ``_SHIFT_CAP``), which each pass shrinks by the sign of f at the
    iterate.  Newton starts from the root of f's second-order expansion at 0,
    tau1 (1 - c2 tau1 / c1) with tau1 = -f(0) / c1, c1 = f'(0) and
    c2 = N/2 - sum_i u_i, which is f''(0)/2 where every phase lies in [0, 1];
    where that start is not finite, outside the bracket or the cell inactive,
    it starts from 0.  Where a step is not finite or leaves the bracket the
    midpoint is taken.  A pass evaluates k and g once on u + t, grid shaped
    with temporaries in per-thread scratch; a cell takes each pass's new t
    until its step is within ``_SHIFT_TOL`` or lands exactly on the other end
    of its bracket (Newton cycling where f is flat at rounding level), then
    freezes, still evaluated but ignored.  A converged shift beyond the cap
    raises "bracket failure".
    Cells on the manifold (|f(0)| <= 1e-13) keep t = 0 exactly: near wells
    floating point flattens f, so a root search would wander off.
    """
    def slot(name, dtype=np.float64):
        return g._scratch(defect.shape, "project_" + name, dtype)

    t, lo, hi, f, fprime, tmp = map(slot, ("t", "lo", "hi", "f", "fprime", "tmp"))
    active, mask, done = (slot(name, bool) for name in ("active", "mask", "done"))
    stack_a, v = g._scratch(u.shape, "stack_a"), g._scratch(u.shape, "stack_c")

    np.greater(np.abs(defect, out=tmp), 1e-13, out=active)
    lo.fill(-2.0 * _SHIFT_CAP)
    hi.fill(2.0 * _SHIFT_CAP)
    # The start, with c1 in fprime and c2 in f.
    np.sum(_sqrt_double_well_into(u, stack_a), axis=0, out=fprime)
    np.subtract(0.5 * u.shape[0], np.sum(u, axis=0, out=f), out=f)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(defect, fprime, out=t)
        np.divide(np.multiply(f, t, out=tmp), fprime, out=tmp)
        tmp += 1.0
        t *= tmp
        np.negative(t, out=t)
    np.greater_equal(t, lo, out=mask)
    mask &= np.less_equal(t, hi, out=done)
    mask &= active
    np.copyto(t, 0.0, where=np.logical_not(mask, out=mask))
    for _ in range(_SHIFT_MAX_ITER):
        for phase, shifted in zip(u, v):
            np.add(phase, t, out=shifted)
        _primitive_defect(v, f)
        np.sum(_sqrt_double_well_into(v, stack_a), axis=0, out=fprime)
        np.copyto(hi, t, where=np.greater_equal(f, 0.0, out=mask))
        np.copyto(lo, t, where=np.less_equal(f, 0.0, out=mask))
        new = fprime
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.subtract(t, np.divide(f, fprime, out=new), out=new)
        # Where new is outside [lo, hi] (or not finite) take 0.5 (lo + hi).
        np.greater_equal(new, lo, out=mask)
        mask &= np.less_equal(new, hi, out=done)
        np.multiply(np.add(lo, hi, out=tmp), 0.5, out=tmp)
        np.copyto(new, tmp, where=np.logical_not(mask, out=mask))
        np.less_equal(np.abs(np.subtract(new, t, out=tmp), out=tmp), _SHIFT_TOL, out=done)
        done |= np.equal(new, lo, out=mask)
        done |= np.equal(new, hi, out=mask)
        np.copyto(t, new, where=active)
        active &= np.logical_not(done, out=done)
        if not active.any():
            break
    else:
        raise ProjectionError(
            f"weighted-square Newton iteration did not reach tol={_SHIFT_TOL} "
            f"in {_SHIFT_MAX_ITER} iterations"
        )
    if np.max(np.abs(t, out=tmp)) > _SHIFT_CAP:
        raise ProjectionError("bracket failure in weighted-square projection")
    out = np.empty(u.shape)
    for phase, shifted in zip(u, out):
        np.add(phase, t, out=shifted)
    return out


def project_constraint(
    state: PhaseField, model: ModelSpec, max_violation: float = 0.1
) -> PhaseField:
    """Return the state projected exactly onto the model's constraint manifold.

    SphereLL normalizes radially; the sum models shift all phases by the mean
    defect, and return ``state`` itself when every cell's defect is +0;
    WeightedSquare solves the per-cell scalar shift by safeguarded
    Newton (see ``_project_weighted_square``), starting from the same defect
    that the violation check reads.  Raises ProjectionError when the
    state is further than ``max_violation`` from the manifold (pass
    ``max_violation=inf`` for initial-data projection), or when its violation
    is not finite or reaches 2**969.

    The result is not scanned for non-finite values: a finite state that
    passes the check projects to a finite one.  SphereLL divides each phase
    by a norm that is at least its magnitude and at least 1e-150; the sum
    models shift by the mean defect, at most the violation; WeightedSquare
    shifts by at most ``_SHIFT_CAP``.  A shift below 2**970 cannot carry a
    finite float64 past the largest finite one.
    """
    _check_state(state, model)
    u = state.values
    buf = g._scratch(state.spec.shape, "project_defect")
    skip = state.absent if model.kind == ModelKind.SPHERE_LL else (False,) * model.n_phases
    if model.kind == ModelKind.SPHERE_LL:
        # sum u^2 once: rounding is monotone, so max(sq - 1) = max(sq) - 1.
        sq = _phase_sum([phase for phase, absent in zip(u, skip) if not absent], buf, square=True)
        violation = float(max(np.max(sq) - 1.0, 1.0 - np.min(sq)))
    else:
        defect = _constraint_defect(u, model, buf)
        violation = float(max(np.max(defect), -np.min(defect)))
    # nan fails this test too; past 2**969 a shift could overflow the result.
    if not violation <= min(max_violation * (1.0 + 1e-12), 2.0**969):
        raise ProjectionError(
            f"state is {violation:.3e} from the constraint manifold "
            f"(limit {max_violation:.3e})"
        )
    if model.kind == ModelKind.WEIGHTED_SQUARE:
        return state._with_finite_values(_project_weighted_square(u, defect))
    if model.kind == ModelKind.SPHERE_LL:
        norm = np.sqrt(sq, out=sq)
        if np.any(norm < 1e-150):
            raise ProjectionSingularError("zero phase vector: radial projection undefined")
        op, plane = np.divide, norm
    elif not defect.view(np.int64).any():  # u - (+0) / N is u, bit for bit
        return state
    else:
        defect /= model.n_phases
        op, plane = np.subtract, defect
    new = np.empty(u.shape)
    for phase, out, absent in zip(u, new, skip):
        if absent:
            out.fill(0.0)
        else:
            op(phase, plane, out=out)
    return state._with_finite_values(new)

"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from mpfc.dynamics import ModelKind, ModelSpec, PhaseField, project_constraint
from mpfc.grid import GridSpec, ScalarField, grad_dot_raw, integrate_raw
from mpfc.potential import SIGMA, optimal_profile, well_primitive


def double_profile(spec: GridSpec, eps: float, lo: float = 0.25, hi: float = 0.75, axis: int = 0) -> np.ndarray:
    """Smooth periodic slab profile along one axis (image-summed, C-infinity)."""
    x = spec.meshgrid()[axis]
    u = np.zeros(spec.shape)
    for k in range(-2, 3):
        u += optimal_profile(x - lo + k, eps) - optimal_profile(x - hi + k, eps)
    return u


def strip_state(n: int = 128, eps: float | None = None, n_phases: int = 2) -> PhaseField:
    spec = GridSpec(2, n)
    eps = 8.0 / n if eps is None else eps
    q = double_profile(spec, eps)
    u = np.zeros((n_phases,) + spec.shape)
    u[0] = q
    u[1] = 1.0 - q
    return PhaseField(spec, u)


def disk_state(n: int = 128, eps: float | None = None, radius: float = 0.3, n_phases: int = 2) -> PhaseField:
    spec = GridSpec(2, n)
    eps = 8.0 / n if eps is None else eps
    X, Y = spec.meshgrid()
    dx = X - 0.5
    dx -= np.round(dx)
    dy = Y - 0.5
    dy -= np.round(dy)
    q = optimal_profile(radius - np.sqrt(dx * dx + dy * dy), eps)
    u = np.zeros((n_phases,) + spec.shape)
    u[0] = q
    u[1] = 1.0 - q
    return PhaseField(spec, u)


def random_smooth_state(spec: GridSpec, n_phases: int, seed: int, amplitude: float = 0.3) -> PhaseField:
    """Band-limited random phases around 1/N, mildly overshooting [0, 1]."""
    rng = np.random.default_rng(seed)
    axes = spec.meshgrid()
    u = np.zeros((n_phases,) + spec.shape)
    for i in range(n_phases):
        comp = np.full(spec.shape, 1.0 / n_phases)
        for _ in range(4):
            k = rng.integers(-3, 4, size=spec.d)
            phase = rng.uniform(0, 2 * np.pi)
            arg = 2 * np.pi * sum(int(k[a]) * axes[a] for a in range(spec.d))
            comp += amplitude * rng.normal() / 4.0 * np.cos(arg + phase)
        u[i] = comp
    return PhaseField(spec, u)


def projected_sphere_state(n: int = 64, eps: float = 0.0625, seed: int = 0) -> tuple[PhaseField, ModelSpec]:
    model = ModelSpec(ModelKind.SPHERE_LL, eps, 3)
    spec = GridSpec(2, n)
    st = random_smooth_state(spec, 3, seed)
    # keep vectors well away from the origin before normalizing
    vals = st.values + 0.5
    st = PhaseField(spec, vals)
    return project_constraint(st, model, max_violation=np.inf), model


# Sums over phases as np.sum(., axis=0) of a stack: the reference that the
# package's per-plane sums match bitwise.
def stacked_defect(u, model):
    if model.kind == ModelKind.SPHERE_LL:
        return np.sum(u * u, axis=0) - 1.0
    if model.kind == ModelKind.WEIGHTED_SQUARE:
        return np.sum(well_primitive(u), axis=0) - 1.0 / 6.0
    return np.sum(u, axis=0) - 1.0


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def manifold_pair(kind, n_phases, n):
    """The model, a state on its constraint manifold with a patch of pure
    cells (floored for the quotient multipliers), and a state off it.  eps is
    not a power of two, so dividing by it and multiplying by 1/eps differ."""
    spec = GridSpec(2, n)
    model = ModelSpec(kind, 3.7 / n, n_phases)
    raw = random_smooth_state(spec, n_phases, seed=n + n_phases).values
    on = project_constraint(PhaseField(spec, raw + 0.2), model, max_violation=np.inf).values.copy()
    on[:, :3, :3] = np.eye(n_phases)[:, 0, None, None]
    return model, PhaseField(spec, on), PhaseField(spec, on + 0.05 * raw)


def written_out_brakke_integrand(state, model, fe, phi_values) -> float:
    """``analysis.brakke_rhs_integrand`` for a static phi, from the public
    ``grad_dot_raw`` and in the same order of operations."""
    h, d, eps, du = state.spec.h, state.spec.d, model.eps, fe.rhs
    sigma_inv = 1.0 / SIGMA
    total = np.zeros(state.spec.shape)
    for i in range(state.n_phases):
        total += du[i] * du[i]
    value = 0.0 - sigma_inv * eps * integrate_raw(total * phi_values, h, d)
    total = np.zeros(state.spec.shape)
    for i in range(state.n_phases):
        total += grad_dot_raw(phi_values, state.values[i], h) * du[i]
    return value - sigma_inv * eps * integrate_raw(total, h, d)


def write_raw_snapshot(path, values: np.ndarray | None = None, **header) -> None:
    """Write snapshot bytes by hand, so header and payload can disagree with the types.

    The header defaults to a 2-phase MeanShift state on a 16^2 grid; ``header``
    overrides single keys (as text) and ``values`` replaces the zero payload.
    """
    fields = {"d": "2", "n": "16", "N": "2", "eps": "0.25", "time": "0", "model": "MeanShift"}
    fields.update(header)
    if values is None:
        values = np.zeros(int(fields["N"]) * int(fields["n"]) ** int(fields["d"]))
    text = "".join(f"{k}={v}\n" for k, v in fields.items())
    path.write_bytes(b"MPFC0001\n" + text.encode("ascii") + b"\n" + values.astype("<f8").tobytes())


def constant_field(spec: GridSpec, value: float) -> ScalarField:
    return ScalarField.constant(spec, value)


@pytest.fixture
def spec64() -> GridSpec:
    return GridSpec(2, 64)


@pytest.fixture
def spec128() -> GridSpec:
    return GridSpec(2, 128)

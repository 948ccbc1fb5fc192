"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from mpfc.dynamics import ModelKind, ModelSpec, PhaseField, project_constraint
from mpfc.grid import GridSpec, ScalarField
from mpfc.potential import optimal_profile


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

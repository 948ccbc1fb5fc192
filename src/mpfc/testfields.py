"""Standard test functions and vector fields used by diagnostics and checks.

All of these are smooth and periodic on the torus: radial constructions are
cut off before the fundamental-cell boundary since a radial direction field
cannot be continued periodically.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, ScalarField, VectorField, torus_delta

__all__ = [
    "bump_field",
    "constant_vector_field",
    "radial_vector_field",
    "random_smooth_vector_field",
]


def _torus_radius(spec: GridSpec, center) -> tuple[np.ndarray, list[np.ndarray]]:
    axes = spec.meshgrid()
    deltas = [torus_delta(axes[a], center[a]) for a in range(spec.d)]
    rho = np.sqrt(sum(d * d for d in deltas))
    return rho, deltas


def _smoothstep(x: np.ndarray) -> np.ndarray:
    """C^1 ramp: 0 for x<=0, 1 for x>=1, 3x^2-2x^3 between."""
    t = np.clip(x, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def bump_field(
    spec: GridSpec,
    center=(0.5, 0.5),
    plateau: float = 0.15,
    support: float = 0.45,
) -> ScalarField:
    """Nonnegative radial bump: 1 inside ``plateau``, 0 outside ``support``."""
    if not 0.0 < plateau < support < 0.5:
        raise ValueError("need 0 < plateau < support < 0.5")
    rho, _ = _torus_radius(spec, center)
    return ScalarField(spec, 1.0 - _smoothstep((rho - plateau) / (support - plateau)))


def constant_vector_field(spec: GridSpec, direction) -> VectorField:
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != (spec.d,):
        raise ValueError(f"direction must have {spec.d} components")
    return VectorField(
        spec, np.stack([np.full(spec.shape, direction[a]) for a in range(spec.d)])
    )


def radial_vector_field(
    spec: GridSpec,
    center=(0.5, 0.5),
    inward: bool = True,
    inner: float = 0.05,
    plateau: tuple[float, float] = (0.1, 0.4),
    outer: float = 0.49,
) -> VectorField:
    """Unit radial field around ``center``, ramped to zero near the center and
    before the periodic seam so it is smooth on the torus.

    The field has unit magnitude on ``plateau`` and points inward by default.
    """
    rho, deltas = _torus_radius(spec, center)
    ramp_in = _smoothstep((rho - inner) / (plateau[0] - inner))
    ramp_out = 1.0 - _smoothstep((rho - plateau[1]) / (outer - plateau[1]))
    mag = ramp_in * ramp_out
    safe = np.where(rho > 1e-12, rho, 1.0)
    sign = -1.0 if inward else 1.0
    comps = [sign * mag * d / safe for d in deltas]
    return VectorField(spec, np.stack(comps))


def random_smooth_vector_field(
    spec: GridSpec, seed: int, max_mode: int = 3
) -> VectorField:
    """Band-limited random vector field with reproducible coefficients."""
    rng = np.random.default_rng(seed)
    axes = spec.meshgrid()
    comps = []
    for _ in range(spec.d):
        comp = np.zeros(spec.shape)
        for _ in range(6):
            k = rng.integers(-max_mode, max_mode + 1, size=spec.d)
            amp = rng.normal()
            phase = rng.uniform(0, 2 * np.pi)
            arg = 2.0 * np.pi * sum(int(k[a]) * axes[a] for a in range(spec.d))
            comp += amp * np.cos(arg + phase)
        comps.append(comp)
    return VectorField(spec, np.stack(comps))

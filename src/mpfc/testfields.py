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
    """Torus distance to ``center`` (default: the middle of the cell) and its components."""
    if center is None:
        center = (0.5,) * spec.d
    elif len(center) != spec.d:
        raise ValueError(f"center must have {spec.d} components, got {len(center)}")
    axes = spec.meshgrid()
    deltas = [torus_delta(axes[a], center[a]) for a in range(spec.d)]
    rho = np.sqrt(sum(d * d for d in deltas))
    return rho, deltas


def _smoothstep(x: np.ndarray) -> np.ndarray:
    """C^1 ramp: 0 for x<=0, 1 for x>=1, 3x^2-2x^3 between."""
    t = np.clip(x, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def bump_field(spec: GridSpec, center=None) -> ScalarField:
    """Nonnegative radial bump around ``center``: 1 within radius 0.15, 0 beyond 0.45."""
    rho, _ = _torus_radius(spec, center)
    return ScalarField(spec, 1.0 - _smoothstep((rho - 0.15) / (0.45 - 0.15)))


def constant_vector_field(spec: GridSpec, direction) -> VectorField:
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != (spec.d,):
        raise ValueError(f"direction must have {spec.d} components")
    return VectorField(
        spec, np.stack([np.full(spec.shape, direction[a]) for a in range(spec.d)])
    )


def radial_vector_field(spec: GridSpec, center=None) -> VectorField:
    """Unit inward radial field around ``center``, ramped to zero near the center
    and before the periodic seam so it is smooth on the torus.

    The field has unit magnitude for radii in [0.1, 0.4] and vanishes inside
    0.05 and beyond 0.49.
    """
    rho, deltas = _torus_radius(spec, center)
    ramp_in = _smoothstep((rho - 0.05) / (0.1 - 0.05))
    ramp_out = 1.0 - _smoothstep((rho - 0.4) / (0.49 - 0.4))
    mag = ramp_in * ramp_out
    safe = np.where(rho > 1e-12, rho, 1.0)
    comps = [-mag * d / safe for d in deltas]
    return VectorField(spec, np.stack(comps))


def random_smooth_vector_field(spec: GridSpec, seed: int) -> VectorField:
    """Band-limited random vector field (wavenumbers up to 3) with reproducible coefficients."""
    rng = np.random.default_rng(seed)
    axes = spec.meshgrid()
    comps = []
    for _ in range(spec.d):
        comp = np.zeros(spec.shape)
        for _ in range(6):
            k = rng.integers(-3, 4, size=spec.d)
            amp = rng.normal()
            phase = rng.uniform(0, 2 * np.pi)
            arg = 2.0 * np.pi * sum(int(k[a]) * axes[a] for a in range(spec.d))
            comp += amp * np.cos(arg + phase)
        comps.append(comp)
    return VectorField(spec, np.stack(comps))

"""Periodic uniform grid on the flat unit torus with finite-difference calculus.

The domain is the d-dimensional torus of period 1 in every axis, sampled at the
n^d points x_k = k*h with h = 1/n.  All operators wrap periodically:

    laplacian:  (2d+1)-point second-order stencil,
                sum over axes of (f_{j+1} - 2 f_j + f_{j-1}) / h^2
    gradient:   central differences, (f_{j+1} - f_{j-1}) / (2h) per axis
    grad_dot_raw: symmetric edge pairing of two grid functions,
                sum over axes of (D+f D+g + D-f D-g) / 2 with
                D+f = (f_{j+1} - f_j)/h and D-f = (f_j - f_{j-1})/h
    integrate:  h^d * sum(f), with numpy's pairwise-tree reduction over the
                flattened C-order array, so repeated calls are bitwise
                identical and independent of thread count

``helmholtz_solve`` inverts (a*I - b*Lap_h) by diagonalizing the exact stencil
symbol with the FFT, so its Laplacian matches ``laplacian`` to round-off.

``grad_dot_raw(f, f)`` is the squared-gradient density of every energy-type
diagnostic.  It is the node average of the squared forward differences on the
2d edges at a node, so h^d * sum(grad_dot_raw(f, f)) = -h^d * sum(f Lap_h f)
exactly: its variational derivative is -Lap_h, the operator the flow uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailureError

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "laplacian",
    "gradient",
    "integrate",
    "helmholtz_solve",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: d axes, n points per axis, spacing h = 1/n."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"spatial dimension must be >= 2, got {self.d}")
        if self.n < 8:
            raise ValueError(f"points per axis must be >= 8, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def cell_count(self) -> int:
        return self.n**self.d

    def coordinates(self) -> list[np.ndarray]:
        """Per-axis 1D coordinate arrays x_k = k*h."""
        ax = np.arange(self.n) * self.h
        return [ax.copy() for _ in range(self.d)]

    def meshgrid(self) -> list[np.ndarray]:
        """Full coordinate arrays, one per axis, each of shape ``self.shape``."""
        return list(np.meshgrid(*self.coordinates(), indexing="ij"))


def _frozen_array(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("field contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ScalarField:
    """A scalar grid function.  Values are validated finite and frozen."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, self.spec.shape))

    @classmethod
    def constant(cls, spec: GridSpec, value: float) -> "ScalarField":
        return cls(spec, np.full(spec.shape, float(value)))


@dataclass(frozen=True)
class VectorField:
    """A d-component vector grid function, stored as one (d, n, ..., n) array."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        shape = (self.spec.d,) + self.spec.shape
        object.__setattr__(self, "values", _frozen_array(self.values, shape))

    def component(self, axis: int) -> ScalarField:
        return ScalarField(self.spec, self.values[axis].copy())


# Raw-array kernels.  The axes of a scalar array are the grid axes; stacked
# arrays (N phases first) pass axis_offset=1 to ``laplacian_raw``.


def torus_delta(x: np.ndarray, c) -> np.ndarray:
    """Minimum-image displacement x - c on the unit torus, in [-1/2, 1/2]."""
    d = x - c
    return d - np.round(d)


def laplacian_raw(a: np.ndarray, h: float, axis_offset: int = 0) -> np.ndarray:
    d = a.ndim - axis_offset
    out = np.zeros_like(a)
    for ax in range(axis_offset, axis_offset + d):
        out += np.roll(a, -1, axis=ax) + np.roll(a, 1, axis=ax)
    out -= 2.0 * d * a
    out /= h * h
    return out


def gradient_raw(a: np.ndarray, h: float) -> list[np.ndarray]:
    inv = 1.0 / (2.0 * h)
    return [(np.roll(a, -1, axis=ax) - np.roll(a, 1, axis=ax)) * inv for ax in range(a.ndim)]


def grad_dot_raw(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """Node density sum_ax (D+a D+b + D-a D-b) / 2 of two same-shape scalar arrays.

    The forward-difference product p lives on the edge (j, j+1); the backward
    product at node j is p at j-1, so each node averages its two edges.
    """
    out = np.zeros(a.shape)
    for ax in range(out.ndim):
        p = (np.roll(a, -1, axis=ax) - a) * (np.roll(b, -1, axis=ax) - b)
        out += p + np.roll(p, 1, axis=ax)
    out *= 0.5 / (h * h)
    return out


def integrate_raw(a: np.ndarray, h: float, d: int) -> float:
    # np.sum uses pairwise (tree) summation on contiguous float64 input, which
    # is the fixed deterministic reduction order documented for this package.
    return float(h**d) * float(np.sum(a))


def laplacian(f: ScalarField) -> ScalarField:
    """Second-order (2d+1)-point periodic Laplacian."""
    return ScalarField(f.spec, laplacian_raw(f.values, f.spec.h))


def gradient(f: ScalarField) -> VectorField:
    """Second-order central-difference periodic gradient."""
    return VectorField(f.spec, np.stack(gradient_raw(f.values, f.spec.h)))


def integrate(f: ScalarField, weight: ScalarField | None = None) -> float:
    """h^d-weighted sum of f (or f*weight) with a fixed reduction order."""
    if weight is not None:
        if weight.spec != f.spec:
            raise ValueError("weight field has a different grid spec")
        return integrate_raw(f.values * weight.values, f.spec.h, f.spec.d)
    return integrate_raw(f.values, f.spec.h, f.spec.d)


_symbol_cache: dict[tuple[int, int], np.ndarray] = {}


def stencil_symbol(spec: GridSpec) -> np.ndarray:
    """Eigenvalues of the discrete Laplacian on the rfftn layout.

    Mode k on axis a contributes (2 cos(2 pi k / n) - 2) / h^2; the symbol is
    the sum over axes, broadcast to the shape of ``rfftn`` output.
    """
    key = (spec.d, spec.n)
    sym = _symbol_cache.get(key)
    if sym is None:
        n, h = spec.n, spec.h
        per_axis = (2.0 * np.cos(2.0 * np.pi * np.arange(n) / n) - 2.0) / (h * h)
        half = per_axis[: n // 2 + 1]
        sym = np.zeros((n,) * (spec.d - 1) + (n // 2 + 1,))
        for ax in range(spec.d):
            vec = half if ax == spec.d - 1 else per_axis
            shape = [1] * spec.d
            shape[ax] = len(vec)
            sym = sym + vec.reshape(shape)
        sym.flags.writeable = False
        _symbol_cache[key] = sym
    return sym


def helmholtz_solve_raw(rhs: np.ndarray, a: float, b: float, spec: GridSpec) -> np.ndarray:
    """``helmholtz_solve`` on a raw array; axes before the last ``spec.d`` stack fields."""
    if not a > 0:
        raise ValueError(f"helmholtz_solve requires a > 0, got a={a}")
    if b < 0:
        raise ValueError(f"helmholtz_solve requires b >= 0, got b={b}")
    axis_offset = rhs.ndim - spec.d
    axes = tuple(range(axis_offset, rhs.ndim))
    denom = a - b * stencil_symbol(spec)
    x = np.fft.irfftn(np.fft.rfftn(rhs, axes=axes) / denom, s=spec.shape, axes=axes)
    residual = a * x - b * laplacian_raw(x, spec.h, axis_offset) - rhs
    bound = 1e-10 * max(np.max(np.abs(rhs)), np.finfo(np.float64).tiny)
    if np.max(np.abs(residual)) > bound:
        raise SolverFailureError(
            f"helmholtz residual {np.max(np.abs(residual)):.3e} exceeds "
            f"1e-10 * max|rhs| = {bound:.3e}"
        )
    return x


def helmholtz_solve(rhs: ScalarField, a: float, b: float) -> ScalarField:
    """Solve (a*I - b*Lap_h) x = rhs on the torus.

    The solve diagonalizes the exact stencil symbol by FFT, so the operator
    being inverted is identical to ``laplacian``.  The residual contract
    ``max|a x - b Lap x - rhs| <= 1e-10 max|rhs|`` is verified on every call.
    """
    return ScalarField(
        rhs.spec, helmholtz_solve_raw(rhs.values, a, b, rhs.spec)
    )

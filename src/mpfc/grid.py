"""Periodic uniform grid on the flat unit torus with finite-difference calculus.

The domain is the d-dimensional torus of period 1 in every axis, sampled at the
n^d points x_k = k*h with h = 1/n.  All operators act on raw arrays and wrap
periodically:

    laplacian_raw:  (2d+1)-point second-order stencil,
                    sum over axes of (f_{j+1} - 2 f_j + f_{j-1}) / h^2
    gradient_raw:   central differences, (f_{j+1} - f_{j-1}) / (2h) per axis;
                    only a test vector field's gradient reads them
    grad_dot_raw:   symmetric edge pairing of two grid functions,
                    sum over axes of (D+f D+g + D-f D-g) / 2 with
                    D+f = (f_{j+1} - f_j)/h and D-f = (f_j - f_{j-1})/h
    integrate_raw:  h^d * sum(f), with numpy's pairwise-tree reduction over the
                    flattened C-order array, so repeated calls are bitwise
                    identical and independent of thread count

Every stencil is a slicing kernel (``_periodic_pair``) with the summation
order of its ``np.roll`` form, so every value equals that form's.

Temporaries of the time step live in per-thread scratch (``_scratch``), which
this module, ``dynamics``, ``diagnostics`` and ``analysis`` share.  The rule: a
scratch buffer never leaves the function that fills it.  Every array a caller
receives (a stencil's result, a solve's output, a ``FlowEval`` field, a new
state) is freshly allocated or the caller's own ``out=``, so no later call
changes it.  Stack kernels loop over phase planes, so their temporaries are
planes (one fits in L2 at n = 256, a stack does not), in slots that belong to
one function or in the grid-shaped "plane_a" and "plane_b" that the per-phase
loops of those modules share.

``helmholtz_solve_raw`` inverts (a*I - b*Lap_h) by diagonalizing the exact
stencil symbol with the FFT, so its Laplacian matches ``laplacian_raw`` to
round-off.

``grad_dot_raw(f, f)`` is the squared-gradient density of every energy-type
diagnostic.  It is the node average of the squared forward differences on the
2d edges at a node, so h^d * sum(grad_dot_raw(f, f)) = -h^d * sum(f Lap_h f)
exactly: its variational derivative is -Lap_h, the operator the flow uses.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SolverFailureError

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "torus_delta",
    "laplacian_raw",
    "gradient_raw",
    "grad_dot_raw",
    "integrate_raw",
    "stencil_symbol",
    "helmholtz_solve_raw",
    "release_scratch",
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

    def meshgrid(self) -> list[np.ndarray]:
        """Full coordinate arrays x_k = k*h, one per axis, each of shape ``self.shape``."""
        ax = np.arange(self.n) * self.h
        return list(np.meshgrid(*(ax,) * self.d, indexing="ij"))


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

    @cached_property
    def forward_differences(self) -> tuple[np.ndarray, ...]:
        """values[j+1] - values[j] per axis, formed on first use and frozen like the values."""
        a = self.values
        diffs = tuple(_periodic_pair(np.subtract, a, 1, a, 0, ax, np.empty(a.shape))
                      for ax in range(a.ndim))
        for diff in diffs:
            diff.flags.writeable = False
        return diffs


@dataclass(frozen=True)
class VectorField:
    """A d-component vector grid function, stored as one (d, n, ..., n) array."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        shape = (self.spec.d,) + self.spec.shape
        object.__setattr__(self, "values", _frozen_array(self.values, shape))


# Raw-array kernels.  The axes of a scalar array are the grid axes.


def torus_delta(x: np.ndarray, c) -> np.ndarray:
    """Minimum-image displacement x - c on the unit torus, in [-1/2, 1/2]."""
    d = x - c
    return d - np.round(d)


def _periodic_pair(op, x: np.ndarray, sx: int, y: np.ndarray, sy: int, axis: int,
                   out: np.ndarray) -> np.ndarray:
    """out[j] = op(x[j+sx], y[j+sy]) along ``axis`` with periodic wrap, for shifts in {-1, 0, 1}.

    ``out`` must be C-contiguous.  One slice assignment on the flattened
    arrays, then one per wrap face j = 0 and j = n-1.  The flat run shifts by
    one stride of ``axis``, so it is contiguous even along the last axis; its
    entries where an index wraps pair the wrong cells and are overwritten by
    the faces.  Each entry is the one ufunc ``op`` on the operands of the
    ``np.roll`` form, so the values match it bitwise.
    """
    n = out.shape[axis]
    stride = math.prod(out.shape[axis + 1:])
    lo, hi = stride * max(0, -sx, -sy), out.size - stride * max(0, sx, sy)
    xf, yf = x.reshape(-1), y.reshape(-1)
    op(xf[lo + sx * stride:hi + sx * stride], yf[lo + sy * stride:hi + sy * stride],
       out=out.reshape(-1)[lo:hi])
    lead = (slice(None),) * axis
    for j in (0, n - 1):
        jx, jy = (j + sx) % n, (j + sy) % n
        op(x[lead + (slice(jx, jx + 1),)], y[lead + (slice(jy, jy + 1),)],
           out=out[lead + (slice(j, j + 1),)])
    return out


class _Scratch(threading.local):
    def __init__(self):
        self.buffers: dict[tuple, np.ndarray] = {}


_scratch_local = _Scratch()


def _scratch(shape: tuple[int, ...], slot: str, dtype=np.float64) -> np.ndarray:
    """This thread's uninitialised ``dtype`` buffer for ``slot`` at ``shape``.

    A buffer never leaves the function that fills it: that function reads it
    back before it returns, and holds it across no call that uses the same
    slot.  The next call that asks for the slot overwrites it.  Buffers are
    kept, one per (shape, slot, dtype), until ``release_scratch`` drops them;
    ``run.run_simulation`` does so when it returns or raises.
    """
    key = (shape, slot, np.dtype(dtype))
    buffers = _scratch_local.buffers
    buf = buffers.get(key)
    if buf is None:
        buf = buffers[key] = np.empty(shape, dtype)
    return buf


def release_scratch() -> None:
    """Drop this thread's scratch buffers; the next ``_scratch`` call allocates afresh."""
    _scratch_local.buffers.clear()


def laplacian_raw(a: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over axes of (a[j+1] + a[j-1]), minus 2d a, over h^2, written to ``out``.

    The neighbour sums accumulate onto the first axis's in axis order, then
    2d a is subtracted and h^2 divided out; tests pin this order bitwise.
    ``out``, if given, is a C-contiguous float64 array of ``a``'s shape.
    """
    if out is None:
        out = np.empty(a.shape)
    elif not (out.flags.c_contiguous and out.shape == a.shape):
        raise ValueError("laplacian_raw needs a C-contiguous out of the input's shape")
    pair = _scratch(a.shape, "laplacian")
    _periodic_pair(np.add, a, 1, a, -1, 0, out)
    for ax in range(1, a.ndim):
        _periodic_pair(np.add, a, 1, a, -1, ax, pair)
        out += pair
    np.multiply(a, 2.0 * a.ndim, out=pair)
    out -= pair
    out /= h * h
    return out


def gradient_raw(a: np.ndarray, h: float) -> list[np.ndarray]:
    inv = 1.0 / (2.0 * h)
    grads = []
    for ax in range(a.ndim):
        da = np.empty(a.shape)
        _periodic_pair(np.subtract, a, 1, a, -1, ax, da)
        da *= inv
        grads.append(da)
    return grads


def grad_dot_raw(
    a: np.ndarray, b: np.ndarray, h: float, out: np.ndarray | None = None,
    a_diffs: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """Node density sum_ax (D+a D+b + D-a D-b) / 2 of two same-shape scalar arrays.

    The forward-difference product p lives on the edge (j, j+1); the backward
    product at node j is p at j-1, so each node averages its two edges.
    ``out``, if given, is a C-contiguous float64 array of ``a``'s shape; it is
    zeroed and accumulated into, as a fresh result would be.  With ``b is a``
    each difference is formed once and squared in place.  ``a_diffs``, if
    given, are a's forward differences a[j+1] - a[j] per axis (a test
    function's ``ScalarField.forward_differences``), read instead of formed.
    """
    if out is None:
        out = np.empty(a.shape)
    elif not (out.flags.c_contiguous and out.shape == a.shape):
        raise ValueError("grad_dot_raw needs a C-contiguous out of the input's shape")
    out.fill(0.0)
    p, q = _scratch(a.shape, "grad_dot_p"), _scratch(a.shape, "grad_dot_q")
    for ax in range(out.ndim):
        if a_diffs is None:
            _periodic_pair(np.subtract, a, 1, a, 0, ax, p)
        da = p if a_diffs is None else a_diffs[ax]
        if b is not a:
            _periodic_pair(np.subtract, b, 1, b, 0, ax, q)
        np.multiply(da, da if b is a else q, out=p)
        _periodic_pair(np.add, p, 0, p, -1, ax, q)
        out += q
    out *= 0.5 / (h * h)
    return out


def integrate_raw(a: np.ndarray, h: float, d: int) -> float:
    # np.sum uses pairwise (tree) summation on contiguous float64 input, which
    # is the fixed deterministic reduction order documented for this package.
    return float(h**d) * float(np.sum(a))


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


def helmholtz_solve_raw(rhs: np.ndarray, a: float, b: float, spec: GridSpec,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Solve (a*I - b*Lap_h) x = rhs on the torus; axes before the last ``spec.d`` stack fields.

    The solve diagonalizes the exact stencil symbol by FFT, so the operator
    being inverted is identical to ``laplacian_raw``.  For a finite ``rhs``
    every call checks ``max|a x - b Lap x - rhs| <= 1e-10 max|rhs|`` and
    raises ``SolverFailureError`` where it fails.  A NaN or inf in ``rhs``
    gives a non-finite x and a NaN residual, which fails no comparison: x is
    returned, and ``dynamics.advance`` reports it as ``BlowUpError``.
    ``out``, if given, is a caller-owned C-contiguous float64 array of
    ``rhs``'s shape that receives x; it is not scratch, and x is ``out``.
    """
    if not a > 0:
        raise ValueError(f"helmholtz_solve_raw requires a > 0, got a={a}")
    if b < 0:
        raise ValueError(f"helmholtz_solve_raw requires b >= 0, got b={b}")
    axis_offset = rhs.ndim - spec.d
    axes = tuple(range(axis_offset, rhs.ndim))
    symbol = stencil_symbol(spec)
    denom = np.multiply(b, symbol, out=_scratch(symbol.shape, "helmholtz_denom"))
    np.subtract(a, denom, out=denom)
    spectrum = _scratch(rhs.shape[:axis_offset] + symbol.shape, "helmholtz_spectrum",
                        np.complex128)
    np.fft.rfftn(rhs, axes=axes, out=spectrum)
    spectrum /= denom
    # irfftn's own sequence, with the complex inverses in place: ifft along
    # every axis but the last, then irfft along the last into ``out`` or a fresh x.
    for ax in axes[:-1]:
        np.fft.ifft(spectrum, axis=ax, out=spectrum)
    x = np.fft.irfft(spectrum, n=spec.n, axis=axes[-1], out=out)
    # Plane by plane, residual = a x - b Lap x - rhs in that order: b Lap x in
    # the residual slot, a x in the Laplacian's neighbour-sum slot, free once
    # it returns.  Each plane keeps its max |residual|, max rhs and -min rhs.
    residual = _scratch(spec.shape, "residual")
    a_x = _scratch(spec.shape, "laplacian")
    planes = zip(x.reshape((-1,) + spec.shape), rhs.reshape((-1,) + spec.shape))
    stats = np.empty((3, math.prod(rhs.shape[:axis_offset])))
    for k, (x_k, rhs_k) in enumerate(planes):
        laplacian_raw(x_k, spec.h, out=residual)
        residual *= b
        np.subtract(np.multiply(x_k, a, out=a_x), residual, out=residual)
        residual -= rhs_k
        stats[:, k] = np.max(np.abs(residual, out=residual)), np.max(rhs_k), -np.min(rhs_k)
    worst, high, low = (float(v) for v in np.max(stats, axis=1))
    bound = 1e-10 * max(high, low, np.finfo(np.float64).tiny)
    if worst > bound:
        raise SolverFailureError(
            f"helmholtz residual {worst:.3e} exceeds 1e-10 * max|rhs| = {bound:.3e}"
        )
    return x

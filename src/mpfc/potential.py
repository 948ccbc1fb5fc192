"""The quartic double-well potential and its derived profile functions.

    W(s)  = (1-s)^2 s^2 / 2          wells at 0 and 1
    W'(s) = s (1-s) (1-2s)
    sqrt(2 W(s)) = |s (1-s)|

SIGMA = integral_0^1 sqrt(2 W) = 1/6 is the surface-tension normalizer: the
energy of a flat optimal transition layer equals SIGMA per unit interface
area, so SIGMA^{-1}-weighted energies count interface area directly.

The primitive k(s) = integral_0^s sqrt(2 W) is extended outside [0, 1] with
the primitive of |y(1-y)|, so it stays monotone when a numerical solution
overshoots the wells.

All functions accept scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SIGMA",
    "SIGMA_INV",
    "double_well",
    "double_well_prime",
    "sqrt_double_well",
    "well_primitive",
    "optimal_profile",
]

SIGMA = 1.0 / 6.0
SIGMA_INV = 1.0 / SIGMA


def double_well(s):
    """W(s) = (1-s)^2 s^2 / 2."""
    s = np.asarray(s, dtype=np.float64)
    out = _double_well_into(s, np.empty(s.shape), np.empty(s.shape))
    return out if out.ndim else out[()]


def _double_well_into(s: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """W(s) = (0.5 s^2) (1-s)^2 into ``out``, with ``tmp`` as work space; both s-shaped."""
    np.multiply(s, s, out=out)
    out *= 0.5
    np.subtract(1.0, s, out=tmp)
    tmp *= tmp
    out *= tmp
    return out


def double_well_prime(s):
    """W'(s) = s (1-s) (1-2s)."""
    s = np.asarray(s, dtype=np.float64)
    out = _double_well_prime_into(s, np.empty(s.shape), np.empty(s.shape))
    return out if out.ndim else out[()]


def _double_well_prime_into(s: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """W'(s) written to ``out`` as (s (1-s)) (1-2s), with ``tmp`` as work space.

    1 - 2s is formed as -2s + 1, which IEEE rounding makes the same value.
    ``out`` and ``tmp`` are float64 arrays of s's shape.
    """
    np.subtract(1.0, s, out=out)
    out *= s
    np.multiply(s, -2.0, out=tmp)
    tmp += 1.0
    out *= tmp
    return out


def sqrt_double_well(s):
    """sqrt(2 W(s)) = |s (1-s)|, the multiplier weight."""
    s = np.asarray(s, dtype=np.float64)
    out = _sqrt_double_well_into(s, np.empty(s.shape))
    return out if out.ndim else out[()]


def _sqrt_double_well_into(s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|s (1-s)| written to ``out``, a float64 array of s's shape."""
    np.subtract(1.0, s, out=out)
    out *= s
    return np.abs(out, out=out)


def well_primitive(s):
    """k(s) = integral_0^s |y(1-y)| dy; k(0) = 0, k(1) = 1/6.

    Closed form, piecewise in the sign pattern of y(1-y):
        s <= 0:       s^3/3 - s^2/2
        0 <= s <= 1:  s^2/2 - s^3/3
        s >= 1:       s^3/3 - s^2/2 + 1/3
    """
    s = np.asarray(s, dtype=np.float64)
    return _well_primitive_into(
        s, np.empty(s.shape), np.empty(s.shape), np.empty(s.shape, dtype=bool)
    )


def _well_primitive_into(
    s: np.ndarray, out: np.ndarray, tmp: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """k(s) written to ``out``, with float ``tmp`` and bool ``mask`` of s's shape as work space.

    inner = (s s)(1/2 - s/3) everywhere, then -inner where s < 0 and
    -inner + 1/3 (formed as 1/3 - inner, the same IEEE value) where s > 1.
    """
    # Products, not s**3: numpy's pow is ~20x slower for negative bases,
    # which the weighted-square projection evaluates on every step.
    np.divide(s, 3.0, out=tmp)
    np.subtract(0.5, tmp, out=tmp)
    np.multiply(s, s, out=out)
    out *= tmp
    np.negative(out, out=out, where=np.less(s, 0.0, out=mask))
    np.subtract(1.0 / 3.0, out, out=out, where=np.greater(s, 1.0, out=mask))
    return out


def optimal_profile(z, eps: float):
    """The logistic transition layer q(z) = 1 / (1 + exp(-z/eps)).

    Solves eps q' = sqrt(2 W(q)) = q (1 - q), so the layer is exactly
    equipartitioned: eps q'^2 / 2 == W(q) / eps pointwise.
    """
    if not eps > 0:
        raise ValueError(f"optimal_profile requires eps > 0, got {eps}")
    z = np.asarray(z, dtype=np.float64)
    # exp overflows to inf far on the negative side, where q is then exactly 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z / eps))

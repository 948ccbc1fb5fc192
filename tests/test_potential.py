"""Double-well potential, its primitive, and the optimal profile."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

from mpfc.potential import (
    SIGMA,
    double_well,
    double_well_prime,
    optimal_profile,
    sqrt_double_well,
    well_primitive,
)


class TestDoubleWell:
    def test_wells(self):
        assert double_well(0.0) == 0.0
        assert double_well(1.0) == 0.0

    def test_midpoint_and_outside(self):
        assert double_well(0.5) == pytest.approx(1.0 / 32.0, rel=1e-15)
        assert double_well(2.0) == pytest.approx(2.0, rel=1e-15)

    def test_positive_between_wells(self):
        s = np.linspace(1e-3, 1 - 1e-3, 200)
        assert np.all(double_well(s) > 0)


def plain_well_primitive(s):
    inner = s * s * (0.5 - s / 3.0)
    outer = -inner
    return np.where(s < 0.0, outer, np.where(s > 1.0, outer + 1.0 / 3.0, inner))


class TestInPlaceEvaluationOrder:
    """W, W', g and k are built in place but keep the operation order of the plain formulas."""

    def inputs(self):
        rng = np.random.default_rng(8)
        return [rng.uniform(-0.5, 1.5, size=(3, 64, 64)), np.linspace(-2.0, 3.0, 101),
                np.array([-0.0, 0.0, 1.0, -1e-300, 1.0 + 1e-15])]

    def test_arrays_bitwise(self):
        for s in self.inputs():
            assert np.array_equal(double_well(s), 0.5 * np.square(s) * np.square(1.0 - s))
            assert np.array_equal(double_well_prime(s), s * (1.0 - s) * (1.0 - 2.0 * s))
            assert np.array_equal(sqrt_double_well(s).view(np.uint64),
                                  np.abs(s * (1.0 - s)).view(np.uint64))
            assert np.array_equal(well_primitive(s).view(np.uint64),
                                  plain_well_primitive(s).view(np.uint64))

    def test_scalars_stay_floats(self):
        for s in (0.5, 0.3, -0.25, 1.75, np.float64(0.1)):
            w, wp, g = double_well(s), double_well_prime(s), sqrt_double_well(s)
            assert isinstance(w, float) and isinstance(wp, float) and isinstance(g, float)
            assert np.array_equal(w, 0.5 * np.square(s) * np.square(1.0 - s))
            assert np.array_equal(wp, s * (1.0 - s) * (1.0 - 2.0 * s))
            assert np.array_equal(g, np.abs(s * (1.0 - s)))
            assert np.array_equal(well_primitive(s), plain_well_primitive(np.float64(s)))


class TestDoubleWellPrime:
    def test_critical_points(self):
        assert np.all(double_well_prime(np.array([0.0, 0.5, 1.0])) == 0.0)

    def test_quarter_value(self):
        assert double_well_prime(0.25) == pytest.approx(3.0 / 32.0, rel=1e-15)

    def test_finite_difference_oracle(self):
        s = np.linspace(-0.5, 1.5, 100)
        delta = 1e-4
        fd = (double_well(s + delta) - double_well(s - delta)) / (2 * delta)
        # |W'''| <= 24 on [-0.5, 1.5], so the centered error is under 4 delta^2
        assert np.max(np.abs(fd - double_well_prime(s))) < 5 * delta**2


class TestSqrtDoubleWell:
    def test_values(self):
        assert sqrt_double_well(0.5) == pytest.approx(0.25, rel=1e-15)
        assert sqrt_double_well(0.0) == 0.0
        assert sqrt_double_well(1.0) == 0.0

    def test_square_identity(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(-1.0, 2.0, size=100)
        lhs = sqrt_double_well(s) ** 2
        rhs = 2.0 * double_well(s)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * (1.0 + np.max(np.abs(rhs)))


class TestWellPrimitive:
    def test_anchors(self):
        assert well_primitive(0.0) == 0.0
        assert well_primitive(1.0) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_midpoint_against_quadrature(self):
        oracle, _ = quad(lambda y: abs(y * (1 - y)), 0.0, 0.5)
        assert well_primitive(0.5) == pytest.approx(oracle, abs=1e-13)
        assert well_primitive(0.5) == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_strictly_increasing(self):
        s = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        assert np.all(np.diff(well_primitive(s)) > 0)

    def test_monotone_extension_outside(self):
        s = np.linspace(-1.0, 2.0, 400)
        assert np.all(np.diff(well_primitive(s)) >= 0)

    def test_continuity_at_pieces(self):
        for s0 in (0.0, 1.0):
            left = well_primitive(s0 - 1e-12)
            right = well_primitive(s0 + 1e-12)
            assert abs(float(left) - float(right)) < 1e-11


class TestSigma:
    def test_quadrature_matches_stored_constant(self):
        val, err = quad(lambda a: np.sqrt(2.0 * double_well(a)), 0.0, 1.0)
        assert err < 1e-12
        assert val == pytest.approx(SIGMA, abs=1e-10)


class TestOptimalProfile:
    def test_center_and_saturation(self):
        eps = 0.05
        assert optimal_profile(0.0, eps) == pytest.approx(0.5, rel=1e-15)
        assert optimal_profile(1000 * eps, eps) == pytest.approx(1.0, abs=1e-12)
        assert optimal_profile(-1000 * eps, eps) == pytest.approx(0.0, abs=1e-12)

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            optimal_profile(0.0, 0.0)

    def test_matches_expit(self):
        # Same formula; only the exp implementations may differ in the last bits.
        eps = 0.03
        z = eps * np.append(np.linspace(-800.0, 800.0, 16001), 0.0)
        np.testing.assert_array_max_ulp(optimal_profile(z, eps), expit(z / eps), maxulp=4)

    def test_equipartition_with_analytic_derivative(self):
        # eps q' = q (1 - q) exactly, so eps q'^2/2 - W(q)/eps vanishes.
        eps = 0.03
        z = np.linspace(-10 * eps, 10 * eps, 100)
        q = optimal_profile(z, eps)
        qp = q * (1.0 - q) / eps
        residual = 0.5 * eps * qp**2 - double_well(q) / eps
        assert np.max(np.abs(residual)) < 1e-12

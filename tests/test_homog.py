import math

import numpy as np
import pytest

from anisotex import (
    Anisotropy,
    HomogeneousFunction,
    check_homogeneity,
    check_integrability,
    evaluate,
    matrix_power,
    rho_power_sum,
)


class TestPowerSum:
    def test_value_at_ones(self):
        rho = rho_power_sum(1.0)
        assert evaluate(rho, (1.0, 1.0)) == 2.0

    def test_homogeneity_forced_by_exponents(self):
        # scaling (1,1) by 2^{E0} doubles the value: rho = 4 = 2 * rho(1,1)
        rho = rho_power_sum(0.6)
        got = evaluate(rho, (2.0 ** 0.6, 2.0 ** 1.4))
        assert got == pytest.approx(4.0, abs=1e-12)

    def test_zero_only_at_origin(self):
        rho = rho_power_sum(0.6)
        assert evaluate(rho, (0.0, 0.0)) == 0.0

    def test_axis_values(self):
        assert evaluate(rho_power_sum(0.6), (1.0, 0.0)) == pytest.approx(1.0)
        assert evaluate(rho_power_sum(0.6), (0.0, 1.0)) == pytest.approx(1.0)
        assert evaluate(rho_power_sum(0.5), (4.0, 0.0)) == pytest.approx(16.0)

    def test_alpha0_domain(self):
        with pytest.raises(ValueError):
            rho_power_sum(0.0)
        with pytest.raises(ValueError):
            rho_power_sum(2.0)

    def test_positive_minimum_on_unit_circle(self):
        theta = np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False)
        for alpha0 in (0.3, 0.6, 1.0, 1.5):
            rho = rho_power_sum(alpha0)
            vals = evaluate(rho, (np.cos(theta), np.sin(theta)))
            assert float(np.min(vals)) > 0.0

    def test_isotropic_degree_one_scaling(self):
        rho = rho_power_sum(1.0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            xi = rng.normal(size=2)
            c = rng.uniform(0.1, 10.0)
            assert evaluate(rho, c * xi) == pytest.approx(c * evaluate(rho, xi), rel=1e-12)

    def test_vectorized_evaluation(self):
        rho = rho_power_sum(0.6)
        x = np.array([1.0, 0.0, 2.0 ** 0.6])
        y = np.array([0.0, 1.0, 2.0 ** 1.4])
        np.testing.assert_allclose(evaluate(rho, (x, y)), [1.0, 1.0, 4.0], rtol=1e-12)


class TestHomogeneityCheck:
    @pytest.mark.parametrize("alpha0", [0.3, 0.6, 1.0, 1.5])
    def test_power_sum_exactly_homogeneous(self, alpha0):
        rep = check_homogeneity(rho_power_sum(alpha0), trials=1000)
        assert rep.max_relative_error <= 1e-10

    def test_unit_scale_is_exact(self):
        rho = rho_power_sum(1.0)
        xi = np.array([0.3, -0.7])
        M = matrix_power(rho.anisotropy, 1.0).T
        assert evaluate(rho, M @ xi) == evaluate(rho, xi)

    def test_mistagged_function_detected(self):
        # power-sum profile for alpha0=0.6 falsely tagged as isotropic:
        # at a=4, xi=(1,0) the mismatch is (4^{1/0.6} - 4)/4 = 1.52 > 0.1
        mistagged = HomogeneousFunction(Anisotropy.diagonal(1.0), 0.6)
        expected_pointwise = (4.0 ** (1 / 0.6) - 4.0) / 4.0
        assert expected_pointwise > 0.1
        rep = check_homogeneity(mistagged, trials=1000)
        assert rep.max_relative_error > 0.1

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            check_homogeneity(rho_power_sum(1.0), trials=0)


class TestIntegrability:
    def test_admissible_case_finite(self):
        rep = check_integrability(rho_power_sum(0.6), hurst=0.4)
        assert rep.finite
        assert math.isfinite(rep.estimate) and rep.estimate > 0

    def test_inadmissible_case_infinite(self):
        rep = check_integrability(rho_power_sum(0.6), hurst=0.7)
        assert not rep.finite

    def test_near_boundary_isotropic_still_finite(self):
        rep = check_integrability(rho_power_sum(1.0), hurst=0.99)
        assert rep.finite

    def test_hurst_must_be_positive(self):
        with pytest.raises(ValueError):
            check_integrability(rho_power_sum(1.0), hurst=0.0)


import math
import warnings

import numpy as np
import pytest

from anisotex import (
    HomogeneousFunction,
    check_homogeneity,
    check_integrability,
    evaluate,
    homog,
    matrix_power,
    rho_power_sum,
)
from anisotex.synth import _gauss_panel


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
        for alpha0 in (0.0, 2.0, math.nan):
            with pytest.raises(ValueError):
                rho_power_sum(alpha0)
        # the weight's own constructor refuses it too
        with pytest.raises(ValueError, match=r"alpha0 must lie in \(0, 2\), got 2.5"):
            HomogeneousFunction(2.5)

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

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            check_homogeneity(rho_power_sum(1.0), trials=0)

    @pytest.mark.parametrize("trials", [-3, 1.5, True, "10", None])
    def test_trials_must_be_integer(self, trials):
        with pytest.raises(ValueError, match="trials"):
            check_homogeneity(rho_power_sum(1.0), trials=trials)


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

    @pytest.mark.parametrize("hurst", [-0.5, math.nan, math.inf, True, "x", None])
    def test_hurst_must_be_finite_real(self, hurst):
        with pytest.raises(ValueError, match="hurst"):
            check_integrability(rho_power_sum(1.0), hurst=hurst)

    @pytest.mark.parametrize("hurst", [1e-300, 1.0, 30.0, 1e300])
    def test_any_finite_hurst_reports_without_warning(self, hurst):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha0 in (0.3, 1.0, 1.7):
                rep = check_integrability(rho_power_sum(alpha0), hurst=hurst)
                assert not rep.finite and rep.estimate == math.inf


def reference_shell_integral(rho, hurst, lo, hi):
    """The shell integral by a full 16 x 96 Gauss grid in the warped polar
    coordinates of its anisotropy, evaluating rho and min(1, |xi|^2) at every
    node. The exponents lam1 and lam2 act on xi1 and xi2: each eigenvalue
    goes to the axis of its eigenvector."""
    E = rho.anisotropy
    lam1, lam2 = np.square(np.column_stack(E.eigenvectors)) @ E.eigenvalues
    q = -2.0 * (hurst + 1.0)
    r, wr = _gauss_panel(lo, hi, 16)
    theta, wt = _gauss_panel(0.0, 2.0 * math.pi, 96)
    ct, st = np.cos(theta), np.sin(theta)
    X = r[:, None] ** lam1 * ct
    Y = r[:, None] ** lam2 * st
    jac = (r ** (lam1 + lam2 - 1.0))[:, None] * np.abs(lam1 * ct ** 2 + lam2 * st ** 2)[None, :]
    vals = evaluate(rho, (X, Y)) ** q * np.minimum(1.0, X * X + Y * Y)
    return float(((wr[:, None] * wt[None, :]) * jac * vals).sum())


def reference_shells(alpha0, hurst):
    rho = rho_power_sum(alpha0)
    return np.array([reference_shell_integral(rho, hurst, 2.0 ** j, 2.0 ** (j + 1))
                     for j in range(homog._J_INNER, homog._J_OUTER + 1)])


class TestShellSums:
    @pytest.mark.parametrize("alpha0,hurst", [(0.3, 0.1), (0.6, 0.4), (1.0, 0.5), (1.0, 1.2),
                                              (1.5, 0.2), (1.7, 0.28), (0.05, 0.9)])
    def test_match_full_grid_on_every_shell(self, alpha0, hurst):
        inner, outer = homog._shell_sums(alpha0, hurst)
        got = np.concatenate([inner.sum(axis=0), outer])
        ref = reference_shells(alpha0, hurst)
        assert got.shape == ref.shape == (homog._J_OUTER + 1 - homog._J_INNER,)
        # every shell, [1/2, 1) and [1, 2) among them, where min(1, |xi|^2) changes form
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_finite_decision_matches_full_grid_on_criterion_5_grid(self):
        for alpha0 in (0.3, 0.6, 1.0, 1.4, 1.7):
            lam_min = min(alpha0, 2 - alpha0)
            for frac in (0.5, 0.75, 0.9, 1.1, 1.25):
                hurst = frac * lam_min
                ref = reference_shells(alpha0, hurst)
                inner, outer = ref[:-homog._J_INNER], ref[-homog._J_INNER:]
                finite = homog._limit_ratio(inner[::-1]) < 1.0 and homog._limit_ratio(outer) < 1.0
                rep = check_integrability(rho_power_sum(alpha0), hurst)
                assert rep.finite == finite == (frac < 1.0), (alpha0, hurst)

    @pytest.mark.parametrize("alpha0,hurst", [(0.6, 0.4), (1.0, 0.5), (1.5, 0.2), (0.3, 0.1)])
    def test_ratios_are_the_geometric_limits(self, alpha0, hurst):
        rep = check_integrability(rho_power_sum(alpha0), hurst)
        lam_min = min(alpha0, 2 - alpha0)
        assert rep.inner_ratio == pytest.approx(2.0 ** -(2 * lam_min - 2 * hurst), rel=1e-6)
        assert rep.outer_ratio == pytest.approx(2.0 ** (-2 * hurst), rel=1e-6)

    # the finite cut is at ratio 1: a cut at 0.995 called 120 admissible
    # specs of this scan infinite, and every hurst <= 0.0036 at any alpha0.
    # At H/lam_min = 1.001 near alpha0 = 1 the summed inner shells read a
    # ratio below 1 (0.9994 at 0.97); their two parts read 1.0013 and 0.92
    def test_finite_decision_exact_over_domain_scan(self):
        for alpha0 in np.linspace(0.02, 1.98, 197):
            lam_min = min(alpha0, 2 - alpha0)
            for frac in (0.9, 0.95, 0.98, 0.99, 0.999, 1.001, 1.01, 1.02, 1.05, 1.1):
                rep = check_integrability(rho_power_sum(alpha0), frac * lam_min)
                assert rep.finite == (frac < 1.0), (alpha0, frac)
        for hurst in (1e-3, 1e-6):
            assert check_integrability(rho_power_sum(0.6), hurst).finite


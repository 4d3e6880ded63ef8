import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from anisotex import (
    Anisotropy,
    AnisotropyError,
    FieldSpec,
    SampledField,
    anisotropy_violations,
    matrix_power,
    validate_anisotropy,
)
from anisotex.core import check_order

RNG = np.random.default_rng(42)


def random_anisotropy(rng):
    """Random trace-2 anisotropy with a random (non-orthogonal) eigenbasis."""
    l1 = rng.uniform(0.2, 1.0)
    th1 = rng.uniform(0, 2 * np.pi)
    th2 = th1 + rng.uniform(0.4, np.pi - 0.4)
    e1 = (np.cos(th1), np.sin(th1))
    e2 = (np.cos(th2), np.sin(th2))
    return validate_anisotropy(l1, 2 - l1, e1, e2)


class TestMatrixPower:
    def test_identity_at_one(self):
        for _ in range(10):
            D = random_anisotropy(RNG)
            assert_allclose(matrix_power(D, 1.0), np.eye(2), atol=1e-12)

    def test_diagonal_case_reduces_to_scalar_powers(self):
        D = Anisotropy.diagonal(0.6)
        got = matrix_power(D, 4.0)
        assert_allclose(got, np.diag([4.0 ** 0.6, 4.0 ** 1.4]), rtol=1e-12)
        assert_allclose(got, np.diag([2.2973967099940698, 6.9644045063689964]), rtol=1e-12)

    def test_semigroup_diagonal_example(self):
        D = Anisotropy.diagonal(0.6)
        prod = matrix_power(D, 2.0) @ matrix_power(D, 3.0)
        assert_allclose(prod, matrix_power(D, 6.0), atol=1e-12)

    def test_semigroup_property_random(self):
        for _ in range(200):
            D = random_anisotropy(RNG)
            a, b = RNG.uniform(0.1, 10.0, size=2)
            lhs = matrix_power(D, a) @ matrix_power(D, b)
            rhs = matrix_power(D, a * b)
            assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_eigenvector_action(self):
        for _ in range(50):
            D = random_anisotropy(RNG)
            a = RNG.uniform(0.1, 10.0)
            M = matrix_power(D, a)
            for lam, vec in zip(D.eigenvalues, D.eigenvectors):
                assert_allclose(M @ vec, a ** lam * np.asarray(vec), rtol=1e-10, atol=1e-10)

    def test_determinant_is_a_squared(self):
        for _ in range(50):
            D = random_anisotropy(RNG)
            a = RNG.uniform(0.1, 10.0)
            assert np.linalg.det(matrix_power(D, a)) == pytest.approx(a ** 2, rel=1e-10)

    def test_nonpositive_base_rejected(self):
        D = Anisotropy.diagonal(1.0)
        with pytest.raises(ValueError):
            matrix_power(D, 0.0)
        with pytest.raises(ValueError):
            matrix_power(D, -2.0)


class TestValidateAnisotropy:
    def test_isotropic_valid(self):
        D = validate_anisotropy(1.0, 1.0, (1, 0), (0, 1))
        assert D.eigenvalues == (1.0, 1.0)
        assert_allclose(D.matrix(), np.eye(2), atol=1e-15)

    def test_diagonal_aniso_valid(self):
        D = validate_anisotropy(0.6, 1.4, (1, 0), (0, 1))
        assert_allclose(D.matrix(), np.diag([0.6, 1.4]), atol=1e-15)

    def test_trace_violation(self):
        with pytest.raises(AnisotropyError) as exc:
            validate_anisotropy(0.5, 1.0, (1, 0), (0, 1))
        assert any("trace" in v for v in exc.value.violations)

    def test_all_violations_collected(self):
        bad = anisotropy_violations(-0.5, 1.0, (2, 0), (2, 0))
        assert any("trace" in v for v in bad)
        assert any("not positive" in v for v in bad)
        assert any("norm" in v for v in bad)
        assert any("collinear" in v for v in bad)

    def test_canonical_order(self):
        D = validate_anisotropy(1.4, 0.6, (1, 0), (0, 1))
        assert D.lambda1 == 0.6
        assert D.e1 == (0.0, 1.0)

    def test_trace_normalized_rescale_is_exact(self):
        # scan invariant support: c * D renormalized must equal D to 1e-12
        D = Anisotropy.diagonal(0.6)
        D2 = Anisotropy.from_eigen(2 * 0.6, 2 * 1.4, (1, 0), (0, 1), normalize=True)
        assert abs(D2.lambda1 - D.lambda1) <= 1e-12
        assert abs(D2.lambda2 - D.lambda2) <= 1e-12


class TestFieldSpec:
    def test_valid_spec(self):
        spec = FieldSpec.make(0.6, 0.4, grid_n=256, seed=7)
        assert spec.alpha0 == 0.6
        assert spec.anisotropy.eigenvalues == (0.6, 1.4)

    def test_alpha0_above_one(self):
        spec = FieldSpec.make(1.4, 0.5, grid_n=64)
        assert spec.alpha0 == 1.4  # eigenvalue paired with axis 0

    def test_hurst_admissibility(self):
        with pytest.raises(ValueError, match=r"min\(0.6, 1.4\)"):
            FieldSpec.make(0.6, 0.7)
        with pytest.raises(ValueError):
            FieldSpec.make(0.6, 0.0)
        FieldSpec.make(0.6, 0.599)  # inside the open interval

    def test_grid_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            FieldSpec.make(1.0, 0.5, grid_n=100)
        with pytest.raises(ValueError, match="power of two"):
            FieldSpec.make(1.0, 0.5, grid_n=32)

    def test_weight_is_a_class_constant(self):
        spec = FieldSpec.make(0.6, 0.4)
        assert FieldSpec.rho == spec.rho == "power_sum"
        assert "rho" not in {f.name for f in dataclasses.fields(FieldSpec)}

    def test_seed_range(self):
        FieldSpec.make(1.0, 0.5, seed=2 ** 64 - 1)
        with pytest.raises(ValueError, match="64-bit"):
            FieldSpec.make(1.0, 0.5, seed=2 ** 64)
        with pytest.raises(ValueError, match="64-bit"):
            FieldSpec.make(1.0, 0.5, seed=-1)


class TestCheckOrder:
    @pytest.mark.parametrize("p", [1, 1.0, 2.5, 400.0, math.inf])
    def test_legal_orders_returned(self, p):
        assert check_order(p) is p

    @pytest.mark.parametrize("p", [0.999, 0.0, -1.0, -math.inf, math.nan])
    def test_illegal_orders_rejected(self, p):
        with pytest.raises(ValueError, match=rf"order p must be >= 1 or inf, got {p}"):
            check_order(p)


class TestSampledField:
    def test_origin_must_be_zero(self):
        spec = FieldSpec.make(1.0, 0.5, grid_n=64)
        vals = np.ones((64, 64))
        with pytest.raises(ValueError, match=r"values\[0,0\]"):
            SampledField(values=vals, spec=spec)

    def test_nonfinite_rejected(self):
        spec = FieldSpec.make(1.0, 0.5, grid_n=64)
        vals = np.zeros((64, 64))
        vals[3, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            SampledField(values=vals, spec=spec)

    def test_shape_must_match_spec(self):
        spec = FieldSpec.make(1.0, 0.5, grid_n=64)
        with pytest.raises(ValueError, match="shape"):
            SampledField(values=np.zeros((32, 32)), spec=spec)

    def test_values_immutable(self):
        spec = FieldSpec.make(1.0, 0.5, grid_n=64)
        f = SampledField(values=np.zeros((64, 64)), spec=spec)
        with pytest.raises(ValueError):
            f.values[1, 1] = 3.0

    def test_spacing(self):
        spec = FieldSpec.make(1.0, 0.5, grid_n=128)
        f = SampledField(values=np.zeros((128, 128)), spec=spec)
        assert f.spacing == 1.0 / 128

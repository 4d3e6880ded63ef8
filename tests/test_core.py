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
    matrix_power,
)
from anisotex.core import ALPHA0_FLOOR, _check_moment, _line_fit, _moment, check_order

RNG = np.random.default_rng(42)


def random_anisotropy(rng):
    """Random trace-2 anisotropy with a random (non-orthogonal) eigenbasis."""
    l1 = rng.uniform(0.2, 1.0)
    th1 = rng.uniform(0, 2 * np.pi)
    th2 = th1 + rng.uniform(0.4, np.pi - 0.4)
    e1 = (np.cos(th1), np.sin(th1))
    e2 = (np.cos(th2), np.sin(th2))
    return Anisotropy(l1, 2 - l1, e1, e2)


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
        D = Anisotropy(1, 1, (1, 0), (0, 1))
        assert D.eigenvalues == (1.0, 1.0)
        assert (D.e1, D.e2) == ((1.0, 0.0), (0.0, 1.0))

    def test_diagonal_aniso_valid(self):
        D = Anisotropy(0.6, 1.4, (1, 0), (0, 1))
        assert D == Anisotropy.diagonal(0.6)
        assert (D.eigenvalues, D.e1, D.e2) == ((0.6, 1.4), (1.0, 0.0), (0.0, 1.0))

    def test_trace_violation(self):
        # the raw constructor validates: there is no other way to build one
        with pytest.raises(AnisotropyError) as exc:
            Anisotropy(0.5, 1.0)
        assert exc.value.violations == ["trace = 1.5 != 2"]

    def test_all_violations_collected(self):
        with pytest.raises(AnisotropyError) as exc:
            Anisotropy(-0.5, 1.0, (2, 0), (2, 0))
        bad = exc.value.violations
        assert any("trace" in v for v in bad)
        assert any("not positive" in v for v in bad)
        assert any("norm" in v for v in bad)
        assert any("collinear" in v for v in bad)

    def test_second_eigenvalue_not_positive(self):
        with pytest.raises(AnisotropyError) as exc:
            Anisotropy(2.5, -0.5, (1, 0), (0, 1))
        assert exc.value.violations == ["eigenvalue lambda2 = -0.5 not positive"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", ["lambda1", "lambda2", "e1_x", "e1_y", "e2_x", "e2_y"])
    def test_non_finite_refused(self, slot, bad):
        args = {"lambda1": 1.0, "lambda2": 1.0, "e1_x": 1.0, "e1_y": 0.0, "e2_x": 0.0, "e2_y": 1.0}
        args[slot] = bad
        with pytest.raises(AnisotropyError):
            Anisotropy(args["lambda1"], args["lambda2"], (args["e1_x"], args["e1_y"]),
                       (args["e2_x"], args["e2_y"]))

    def test_constructor_domain_errors(self):
        with pytest.raises(AnisotropyError, match="eigenvalue lambda2 = -0.5 not positive"):
            Anisotropy.diagonal(2.5)

    def test_canonical_order(self):
        D = Anisotropy(1.4, 0.6, (1, 0), (0, 1))
        assert D.eigenvalues == (0.6, 1.4)
        assert (D.e1, D.e2) == ((0.0, 1.0), (1.0, 0.0))


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

    @pytest.mark.parametrize("alpha0", [0.0999, 1.9001, 0.01, 1.99, math.nan, math.inf, -math.inf])
    def test_alpha0_below_floor_refused(self, alpha0):
        with pytest.raises(ValueError, match=rf"alpha0 = {alpha0} is beyond the floor: .* >= 0\.1"):
            FieldSpec.make(alpha0, 0.05)

    def test_alpha0_at_floor_builds(self):
        assert FieldSpec.make(0.1, 0.05).alpha0 == 0.1
        assert FieldSpec.make(1.9, 0.05).alpha0 == 1.9
        assert ALPHA0_FLOOR == 0.1

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


def lstsq_line(x, y, w=None):
    """The fit directional_exponent made before the shared line fit: LAPACK
    least squares, on rows scaled by sqrt(w) when weighted; (slope, Sxx, RSS)."""
    sw = np.sqrt(np.ones_like(x) if w is None else w)
    A = np.column_stack([x, np.ones_like(x)]) * sw[:, None]
    coef, res, *_ = np.linalg.lstsq(A, y * sw, rcond=None)
    ww = sw ** 2
    xb = np.sum(ww * x) / np.sum(ww)
    return coef[0], float(np.sum(ww * (x - xb) ** 2)), float(res[0])


class TestLineFit:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_lstsq_and_polyfit(self, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-4.0, 3.0, size=9))
        y = 0.7 * x - 1.3 + 0.1 * rng.standard_normal(9)
        slope, sxx, rss = _line_fit(x, y)
        ref = lstsq_line(x, y)
        assert_allclose((slope, sxx, rss), ref, rtol=1e-12)
        # homog._limit_ratio fitted with np.polyfit
        assert slope == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_matches_scaled_rows(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 10.0, size=12)
        y = -1.1 * x + rng.standard_normal(12)
        w = rng.uniform(0.05, 1.0, size=12)
        assert_allclose(_line_fit(x, y, w), lstsq_line(x, y, w), rtol=1e-12)

    def test_hand_written_ridge_fit(self):
        # the weighted fit hywave.ratio_maximize wrote out, to the bit
        rng = np.random.default_rng(7)
        xs, ys, ws = rng.uniform(1, 5, 8), rng.standard_normal(8), rng.uniform(0.1, 1, 8)
        xb = float(np.sum(ws * xs) / ws.sum())
        den = float(np.sum(ws * (xs - xb) ** 2))
        yb = float(np.sum(ws * ys) / ws.sum())
        slope = float(np.sum(ws * (xs - xb) * (ys - yb)) / den)
        assert _line_fit(xs, ys, ws)[:2] == (slope, den)

    def test_exact_line_has_no_residual(self):
        x = np.arange(6.0)
        slope, sxx, rss = _line_fit(x, 2.0 * x + 1.0)
        assert (slope, sxx, rss) == (2.0, 17.5, 0.0)

    def test_zero_spread_is_nan_without_warning(self):
        # RuntimeWarnings are errors under the test settings
        slope, sxx, rss = _line_fit(np.full(4, 3.0), np.arange(4.0))
        assert sxx == 0.0 and math.isnan(slope) and math.isnan(rss)


def former_moments(x, p):
    """The two p-th moment formulas the shared kernel replaced: the scratch
    loop of structure_function, then the pyramid block moments' expression."""
    inc = x.copy()
    if p == math.inf:
        sf = float(np.max(np.abs(inc, out=inc)))
    else:
        if p != 2:
            np.abs(inc, out=inc)
        inc **= p
        sf = float(np.mean(inc))
    if p == math.inf:
        block = float(np.max(np.abs(x)))
    else:
        block = float(np.mean((x if p == 2 else np.abs(x)) ** p))
    return sf, block


class TestMoment:
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, 4, math.inf])
    def test_equals_both_former_formulas(self, p):
        x = np.random.default_rng(11).standard_normal((67, 45))
        sf, block = former_moments(x, p)
        got = _moment(x, p, np.empty_like(x))
        assert got == sf and got == block

    @pytest.mark.parametrize("p", [1.5, 2, 4, math.inf])
    def test_scratch_overwritten_in_place(self, p):
        x = np.random.default_rng(3).standard_normal((16, 16))
        keep = x.copy()
        sf, _ = former_moments(keep, p)
        assert _moment(x, p, x) == sf
        expected = np.abs(keep) if p == math.inf else np.abs(keep) ** p
        assert np.array_equal(x, expected)

    def test_source_untouched(self):
        x = np.random.default_rng(4).standard_normal((8, 8))
        keep = x.copy()
        out = np.empty_like(x)
        _moment(x, 3.0, out)
        assert np.array_equal(x, keep)
        assert np.array_equal(out, np.abs(keep) ** 3.0)

    def test_overflow_and_underflow_silent(self):
        # the judgment is _check_moment's; RuntimeWarnings are errors here
        assert _moment(np.full(4, 1e200), 2, np.empty(4)) == math.inf
        assert _moment(np.full(4, 1e-200), 2, np.empty(4)) == 0.0

    def test_range_check(self):
        _check_moment(1.0, 2.0, lambda: True, "the moment")
        _check_moment(0.0, 2.0, lambda: False, "the moment")  # all-zero data
        with pytest.raises(ValueError, match=r"^order p=4.0: the moment of x overflows float64$"):
            _check_moment(math.inf, 4.0, lambda: True, "the moment of x")
        with pytest.raises(ValueError, match=r"^order p=2: the moment of x underflows to 0"):
            _check_moment(0.0, 2, lambda: True, "the moment of x")


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

    def test_spec_required(self):
        # the spec gives the grid size the values are checked against
        with pytest.raises(TypeError, match="spec"):
            SampledField(values=np.zeros((64, 64)))

import math

import numpy as np
import pytest

from anisotex import (
    FieldSpec,
    coefficient_energy,
    hyperbolic_transform,
    inverse_hyperbolic_transform,
    pooled_scale_statistics,
    ratio_maximize,
    scale_statistics,
    synthesize,
)
from anisotex import hywave
from anisotex.hywave import FREQ_ANCHOR, ScaleStats, default_ratio_grid


def random_field(n=64, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, n))
    v[0, 0] = 0.0
    return v


def reference_dwt_step(arr, h, g, axis):
    """Periodic analysis step by window gather (reference for the kernel)."""
    a = np.moveaxis(arr, axis, -1)
    N = a.shape[-1]
    idx = (2 * np.arange(N // 2)[:, None] + np.arange(len(h))[None, :]) % N
    windows = a[..., idx]
    return np.moveaxis(windows @ h, -1, axis), np.moveaxis(windows @ g, -1, axis)


def reference_idwt_step(lo, hi, h, g, axis):
    """Periodic synthesis step by scatter-add (reference for the kernel)."""
    lo = np.moveaxis(lo, axis, -1)
    hi = np.moveaxis(hi, axis, -1)
    N2 = lo.shape[-1]
    out = np.zeros(lo.shape[:-1] + (2 * N2,))
    base = 2 * np.arange(N2)
    for m in range(len(h)):
        np.add.at(out, (..., (base + m) % (2 * N2)), h[m] * lo + g[m] * hi)
    return np.moveaxis(out, -1, axis)


class TestTransform:
    def test_constant_field_all_details_zero(self, zero_field):
        pyr = hyperbolic_transform(zero_field, filt="haar")
        assert all(np.all(b == 0.0) for key, b in pyr.blocks.items() if key != (0, 0))

    def test_block_shapes(self):
        v = random_field(64)
        J1, J2 = 3, 4
        pyr = hyperbolic_transform(v, filt="haar", levels=(J1, J2))
        # exactly {0..J1} x {0..J2}, j2 outer: statistics and ray sums follow this order
        assert list(pyr.blocks) == [(a, b) for b in range(J2 + 1) for a in range(J1 + 1)]
        for (j1, j2), block in pyr.blocks.items():
            assert block.shape == (64 >> (j1 or J1), 64 >> (j2 or J2))

    def test_legacy_views_are_slices_of_blocks(self):
        pyr = hyperbolic_transform(random_field(64), filt="d4", levels=(2, 5))
        b = pyr.blocks
        assert pyr.approx is b[(0, 0)]
        detail = {(j1, j2): b[(j1, j2)] for j2 in range(1, 6) for j1 in range(1, 3)}
        assert pyr.detail == detail and list(pyr.detail) == list(detail)
        assert pyr.detail_approx == {j1: b[(j1, 0)] for j1 in (1, 2)}
        assert pyr.approx_detail == {j2: b[(0, j2)] for j2 in range(1, 6)}
        with pytest.raises(AttributeError):
            pyr.approx = b[(0, 0)]

    @pytest.mark.parametrize("filt", ["haar", "d4"])
    def test_perfect_reconstruction_white_noise(self, filt):
        v = random_field(64, seed=3)
        pyr = hyperbolic_transform(v, filt=filt)
        rec = inverse_hyperbolic_transform(pyr)
        assert float(np.max(np.abs(rec - v))) < 1e-9

    @pytest.mark.parametrize("filt", ["haar", "d4"])
    def test_energy_conservation(self, filt):
        v = random_field(128, seed=4)
        pyr = hyperbolic_transform(v, filt=filt, levels=(5, 6))
        assert coefficient_energy(pyr) == pytest.approx(float(np.sum(v ** 2)), rel=1e-9)

    def test_single_tensor_haar_wavelet_roundtrip(self):
        # a field equal to one tensor basis function has exactly one unit coefficient
        base = hyperbolic_transform(np.zeros((64, 64)), filt="haar", levels=(4, 4))
        target = (2, 3)
        base.blocks[target][1, 2] = 1.0
        v = inverse_hyperbolic_transform(base)
        assert v[0, 0] == pytest.approx(0.0, abs=1e-12)  # support away from origin
        pyr = hyperbolic_transform(v, filt="haar", levels=(4, 4))
        for key, block in pyr.blocks.items():
            expect = 1.0 if key == target else 0.0
            assert float(np.max(np.abs(block))) == pytest.approx(expect, abs=1e-10)
        assert pyr.blocks[target][1, 2] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("filt", ["haar", "d4"])
    @pytest.mark.parametrize("levels", [(1, 1), (5, 3), (6, 6)])
    def test_matches_reference_kernels(self, filt, levels, monkeypatch):
        v = random_field(64, seed=6)
        for values in (v, v.T):
            pyr = hyperbolic_transform(values, filt=filt, levels=levels)
            rec = inverse_hyperbolic_transform(pyr)
            with monkeypatch.context() as m:
                m.setattr(hywave, "_dwt_step", reference_dwt_step)
                m.setattr(hywave, "_idwt_step", reference_idwt_step)
                ref = hyperbolic_transform(values, filt=filt, levels=levels)
                ref_rec = inverse_hyperbolic_transform(ref)
            tol = dict(rtol=1e-13, atol=1e-13)
            assert list(pyr.blocks) == list(ref.blocks)
            for key, block in ref.blocks.items():
                np.testing.assert_allclose(pyr.blocks[key], block, **tol)
            np.testing.assert_allclose(rec, ref_rec, **tol)
            np.testing.assert_allclose(rec, values, **tol)

    def test_infeasible_levels(self):
        v = random_field(64)
        with pytest.raises(ValueError, match="infeasible"):
            hyperbolic_transform(v, filt="haar", levels=(7, 2))
        with pytest.raises(ValueError, match="infeasible"):
            hyperbolic_transform(v, filt="haar", levels=(0, 2))
        # 96 = 3 * 2^5: depth 6 does not halve evenly
        with pytest.raises(ValueError, match="infeasible"):
            hyperbolic_transform(random_field(96), filt="d4", levels=(6, 6))

    def test_unknown_filter(self):
        with pytest.raises(ValueError, match="filter"):
            hyperbolic_transform(random_field(64), filt="db9")


class TestScaleStatistics:
    def test_zero_blocks_flagged_minus_inf(self, zero_field):
        pyr = hyperbolic_transform(zero_field, filt="haar")
        stats = scale_statistics(pyr, 2.0)
        assert all(v == -math.inf for v in stats.log2_stat.values())
        with pytest.raises(ValueError, match="usable"):
            ratio_maximize(stats)

    def test_constant_magnitude_block(self):
        pyr = hyperbolic_transform(random_field(64), filt="haar", levels=(3, 3))
        c = 0.37
        pyr.blocks[(2, 2)][:] = c
        for p in (1.0, 2.0, 4.0, math.inf):
            stats = scale_statistics(pyr, p)
            assert stats.log2_stat[(2, 2)] == pytest.approx(math.log2(c), rel=1e-12)

    def test_lp_monotone_in_p(self):
        pyr = hyperbolic_transform(random_field(128, seed=9), filt="d4", levels=(4, 4))
        orders = (1.0, 2.0, 4.0, math.inf)
        tables = [scale_statistics(pyr, p).log2_stat for p in orders]
        for key in tables[0]:
            seq = [t[key] for t in tables]
            assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))

    def test_pooled_matches_single(self):
        v = random_field(64, seed=5)
        pyr = hyperbolic_transform(v, filt="haar", levels=(3, 3))
        single = scale_statistics(pyr, 2.0)
        pooled = pooled_scale_statistics([pyr], 2.0)
        for key in single.log2_stat:
            assert pooled.log2_stat[key] == pytest.approx(single.log2_stat[key], rel=1e-12)


def planted_tent_stats(n, levels, alpha_star, hurst=0.4, const=2.0):
    """Exact tent-law table: stat = const - (H+1) max((u1+c)/a, (u2+c)/(2-a))."""
    J = levels
    L = math.log2(n)
    table = {}
    for j1 in range(1, J + 1):
        for j2 in range(1, J + 1):
            u1, u2 = L - j1, L - j2
            m = max((u1 + FREQ_ANCHOR) / alpha_star, (u2 + FREQ_ANCHOR) / (2 - alpha_star))
            table[(j1, j2)] = const - (hurst + 1.0) * m
    return ScaleStats(grid_n=n, levels=(J, J), p=2.0, log2_stat=table)


class TestRatioMaximize:
    def test_planted_tent_recovered_exactly_on_grid(self):
        # grid points inside the identifiable window for n=1024, J=9;
        # beyond it the tent's kink leaves the observable block range
        grid = default_ratio_grid()
        for r_star in grid[6:15]:  # 0.473 .. 2.114
            alpha_star = 2 * r_star / (1 + r_star)
            stats = planted_tent_stats(1024, 9, alpha_star)
            scan = ratio_maximize(stats)
            assert scan.best_ratio == pytest.approx(r_star, rel=1e-12)
            assert scan.slope_at_best == pytest.approx(-1.4, rel=1e-9)

    def test_grid_closed_under_inversion(self):
        grid = np.asarray(default_ratio_grid())
        inv = np.sort(1.0 / grid)
        np.testing.assert_allclose(np.sort(grid), inv, rtol=1e-12)
        assert grid.min() >= 0.15 and grid.max() <= 6.5

    def test_transpose_equivariance(self):
        spec = FieldSpec.make(0.6, 0.4, grid_n=256, seed=99)
        f = synthesize(spec)
        p1 = hyperbolic_transform(f.values, filt="d4", levels=(7, 7))
        p2 = hyperbolic_transform(f.values.T, filt="d4", levels=(7, 7))
        s1 = scale_statistics(p1, 2.0)
        s2 = scale_statistics(p2, 2.0)
        for (j1, j2), v in s1.log2_stat.items():
            assert s2.log2_stat[(j2, j1)] == pytest.approx(v, rel=1e-12)
        r1 = ratio_maximize(s1)
        r2 = ratio_maximize(s2)
        assert r2.best_ratio == pytest.approx(1.0 / r1.best_ratio, rel=1e-12)
        assert r2.slope_at_best == pytest.approx(r1.slope_at_best, rel=1e-9)

    def test_implied_alpha(self):
        stats = planted_tent_stats(1024, 9, 1.0)
        scan = ratio_maximize(stats)
        assert scan.implied_alpha0 == pytest.approx(1.0, abs=0.02)

    def test_too_few_rays(self):
        # a single usable block cannot support any ray
        table = {(1, 1): -1.0, (1, 2): -math.inf}
        stats = ScaleStats(grid_n=64, levels=(2, 2), p=2.0, log2_stat=table)
        with pytest.raises(ValueError, match="usable"):
            ratio_maximize(stats)

    def test_statistics_decay_linearly_along_matched_ray(self):
        # statistics of blocks on the ray matched to the texture ratio
        # decay linearly in the scale coordinate; fully observable in the
        # isotropic case, where the matched ray is the diagonal
        from anisotex import synthesize_ensemble

        fields = synthesize_ensemble(FieldSpec.make(1.0, 0.5, grid_n=512, seed=8), 6)
        pyrs = [hyperbolic_transform(f, filt="d4", levels=(8, 8)) for f in fields]
        stats = pooled_scale_statistics(pyrs, 2.0)
        L = math.log2(512)
        # octave coordinate along the diagonal ray: u1 + u2, ascending = finer
        xs = np.array([2 * (L - j) for j in range(1, 8)])
        ys = np.array([stats.log2_stat[(j, j)] for j in range(1, 8)])
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = ys - (slope * xs + intercept)
        r2 = 1.0 - float(np.sum(resid ** 2)) / float(np.sum((ys - ys.mean()) ** 2))
        # per unit (u1 + u2)/2 the decay rate is about -(hurst + 1)
        assert 2 * slope == pytest.approx(-1.5, abs=0.25)
        assert r2 > 0.99


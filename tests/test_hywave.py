import dataclasses
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


def _phase(arr, r, axis):
    """Strided view of the samples whose index along ``axis`` has parity r."""
    idx = [slice(None)] * arr.ndim
    idx[axis] = slice(r, None, 2)
    return arr[tuple(idx)]


def whole_array_dwt_step(arr, h, g, axis):
    """The whole-array analysis step the strip kernel replaced (exact reference)."""
    # lo[k] = sum_m h[m] arr[(2k + m) mod N]: tap m reads phase m % 2
    # advanced by m // 2 samples (periodically), likewise hi with g.
    even, odd = _phase(arr, 0, axis), _phase(arr, 1, axis)
    lo = h[0] * even + h[1] * odd
    hi = g[0] * even + g[1] * odd
    for m in range(2, len(h)):
        x = np.roll(_phase(arr, m % 2, axis), -(m // 2), axis=axis)
        lo += h[m] * x
        hi += g[m] * x
    return lo, hi


def whole_array_idwt_step(lo, hi, h, g, axis):
    """The whole-array synthesis step the strip kernel replaced (exact reference)."""
    # out[(2k + m) mod N] += h[m] lo[k] + g[m] hi[k]: tap m writes phase
    # m % 2 delayed by m // 2 samples (periodically).
    shape = list(lo.shape)
    shape[axis] *= 2
    out = np.empty(shape)
    delayed = [(lo, hi)] + [(np.roll(lo, q, axis=axis), np.roll(hi, q, axis=axis))
                            for q in range(1, len(h) // 2)]
    for r in (0, 1):
        phase = _phase(out, r, axis)
        phase[...] = h[r] * lo + g[r] * hi
        for m in range(r + 2, len(h), 2):
            lo_q, hi_q = delayed[m // 2]
            phase += h[m] * lo_q + g[m] * hi_q
    return out


def whole_array_pooled_log2_stat(pyramids, p):
    """The pooled statistic with |d| taken for every p (exact reference)."""
    out = {}
    for key in pyramids[0].blocks:
        if 0 in key:
            continue
        if p == math.inf:
            v = max(float(np.max(np.abs(pyr.blocks[key]))) for pyr in pyramids)
        else:
            v = np.mean([np.mean(np.abs(pyr.blocks[key]) ** p) for pyr in pyramids]) ** (1.0 / p)
        out[key] = math.log2(v) if v > 0 else -math.inf
    return out


def assert_matches_whole_array(values, filt, levels, monkeypatch):
    """Every block and the inverse are bit-identical to the whole-array kernels."""
    pyr = hyperbolic_transform(values, filt=filt, levels=levels)
    rec = inverse_hyperbolic_transform(pyr)
    with monkeypatch.context() as m:
        m.setattr(hywave, "_dwt_step", whole_array_dwt_step)
        m.setattr(hywave, "_idwt_step", whole_array_idwt_step)
        ref = hyperbolic_transform(values, filt=filt, levels=levels)
        ref_rec = inverse_hyperbolic_transform(ref)
    assert list(pyr.blocks) == list(ref.blocks)
    for key, block in ref.blocks.items():
        assert np.array_equal(pyr.blocks[key], block), key
    assert np.array_equal(rec, ref_rec)


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

    @pytest.mark.parametrize("filt", ["haar", "d4"])
    @pytest.mark.parametrize("n,levels", [(64, (6, 6)), (192, (6, 4)), (1024, (9, 9)), (1536, (9, 9))])
    def test_bit_identical_to_whole_array_kernels(self, n, levels, filt, monkeypatch):
        # 1024 and 1536 run many strips and wrap in the last one; at 1536 the
        # strip row count (e.g. 42 rows of 768) does not divide the axis
        v = random_field(n, seed=n)
        for values in (v, v.T):
            assert_matches_whole_array(values, filt, levels, monkeypatch)

    @pytest.mark.parametrize("filt", ["haar", "d4"])
    @pytest.mark.parametrize("strip", [1, 7, 100])
    def test_bit_identical_for_any_strip_size(self, strip, filt, monkeypatch):
        # one-row strips, partial strips and a wrap in the first or last strip
        monkeypatch.setattr(hywave, "_STRIP", strip)
        v = random_field(96, seed=strip)
        for values in (v, v.T):
            assert_matches_whole_array(values, filt, (5, 3), monkeypatch)

    @pytest.mark.parametrize("filt", ["haar", "d4"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("shape", [(2, 2), (2, 6), (8, 2), (96, 40)])
    def test_steps_bit_identical_on_any_layout(self, shape, axis, filt):
        # direct calls, C- and Fortran-ordered inputs, down to one output sample
        h = hywave.FILTERS[filt]
        g = hywave._qmf(h)
        a = np.random.default_rng(7).standard_normal(shape)
        for arr in (a, np.asfortranarray(a)):
            lo, hi = hywave._dwt_step(arr, h, g, axis)
            ref_lo, ref_hi = whole_array_dwt_step(arr, h, g, axis)
            assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
            out = hywave._idwt_step(lo, np.asfortranarray(hi), h, g, axis)
            assert np.array_equal(out, whole_array_idwt_step(lo, hi, h, g, axis))

    @pytest.mark.parametrize("filt", ["haar", "d4"])
    def test_strided_sources_gathered_contiguous(self, filt, monkeypatch):
        # np.take copies a strided source whole on every call, so each step
        # makes its source C-contiguous once; strided blocks and inputs give
        # the same coefficients as C-ordered ones
        monkeypatch.setattr(hywave, "_STRIP", 100)  # several strips per step
        v = random_field(128, seed=5)
        pyr = hyperbolic_transform(v, filt=filt, levels=(5, 5))
        ref = inverse_hyperbolic_transform(pyr)
        h = hywave.FILTERS[filt]
        g = hywave._qmf(h)
        ref_lo, ref_hi = hywave._dwt_step(v, h, g, 0)
        take, seen = np.take, []

        def spy(a, *args, **kwargs):
            seen.append(a.flags.c_contiguous)
            return take(a, *args, **kwargs)

        monkeypatch.setattr(np, "take", spy)
        strided = dataclasses.replace(pyr, blocks={k: np.asfortranarray(b) for k, b in pyr.blocks.items()})
        assert not all(b.flags.c_contiguous for b in strided.blocks.values())
        assert np.array_equal(inverse_hyperbolic_transform(strided), ref)
        lo, hi = hywave._dwt_step(np.asfortranarray(v), h, g, 0)
        assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        assert seen and all(seen)

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

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"expected a square array, got \(64, 32\)"):
            hyperbolic_transform(np.zeros((64, 32)))


class TestScaleStatistics:
    def test_zero_blocks_flagged_minus_inf(self, zero_field):
        pyr = hyperbolic_transform(zero_field, filt="haar")
        stats = pooled_scale_statistics([pyr], 2.0)
        assert all(v == -math.inf for v in stats.log2_stat.values())
        with pytest.raises(ValueError, match="usable"):
            ratio_maximize(stats)

    def test_constant_magnitude_block(self):
        pyr = hyperbolic_transform(random_field(64), filt="haar", levels=(3, 3))
        c = 0.37
        pyr.blocks[(2, 2)][:] = c
        for p in (1.0, 2.0, 4.0, math.inf):
            stats = pooled_scale_statistics([pyr], p)
            assert stats.log2_stat[(2, 2)] == pytest.approx(math.log2(c), rel=1e-12)

    def test_lp_monotone_in_p(self):
        pyr = hyperbolic_transform(random_field(128, seed=9), filt="d4", levels=(4, 4))
        orders = (1.0, 2.0, 4.0, math.inf)
        tables = [pooled_scale_statistics([pyr], p).log2_stat for p in orders]
        for key in tables[0]:
            seq = [t[key] for t in tables]
            assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
    def test_block_moments_leave_pyramid_untouched(self, p):
        pyr = hyperbolic_transform(random_field(64, seed=2), filt="d4", levels=(4, 4))
        before = {k: b.copy() for k, b in pyr.blocks.items()}
        stats = pooled_scale_statistics([pyr], p)
        for key, b in pyr.blocks.items():
            assert np.array_equal(b, before[key])
        assert stats.log2_stat == whole_array_pooled_log2_stat([pyr], p)

    @pytest.mark.parametrize("filt,levels", [("haar", (2, 3)), ("d4", (3, 3))],
                             ids=["levels", "filter"])
    def test_pooled_rejects_mismatched_pyramids(self, filt, levels):
        v = random_field(64, seed=5)
        ref = hyperbolic_transform(v, filt="haar", levels=(3, 3))
        other = hyperbolic_transform(v, filt=filt, levels=levels)
        with pytest.raises(ValueError, match="do not share grid, levels, and filter"):
            pooled_scale_statistics([ref, other], 2.0)

    @pytest.mark.parametrize("p", [1, 2, 2.0, 3.0, 4.0, math.inf])
    def test_pooled_matches_whole_array_formula(self, p):
        # seeds 9 and 17 hold coefficients d with d ** 4 != |d| ** 4 that move a
        # single pyramid's log2 statistic, so skipping |d| for p = 4 shows here
        for seeds in ((9,), (17,), (9, 17, 29)):
            pyrs = [hyperbolic_transform(random_field(64, seed=s), filt="d4", levels=(5, 5))
                    for s in seeds]
            stats = pooled_scale_statistics(pyrs, p)
            assert stats.log2_stat == whole_array_pooled_log2_stat(pyrs, p)

    def test_pool_needs_a_pyramid(self):
        with pytest.raises(ValueError, match="need at least one pyramid"):
            pooled_scale_statistics([], 2.0)

    @pytest.mark.parametrize("p", [0.5, -1.0, math.nan])
    def test_illegal_order(self, p):
        pyr = hyperbolic_transform(random_field(64), filt="haar", levels=(3, 3))
        with pytest.raises(ValueError, match="order p must be >= 1 or inf"):
            pooled_scale_statistics([pyr], p)


class TestScaleStatsType:
    @pytest.mark.parametrize("table,p,message", [
        ({(0, 0): -1.0, (9, 9): -2.0}, 2.0, r"blocks \[\(0, 0\), \(9, 9\)\] lie outside levels"),
        ({(1, 4): -1.0}, 2.0, "outside levels"),
        ({(1, 1): -1.0}, 0.5, "order p must be >= 1 or inf"),
        ({(1, 1): -1.0}, math.nan, "order p must be >= 1 or inf"),
    ], ids=["outside_both", "outside_j2", "order", "nan_order"])
    def test_refused(self, table, p, message):
        with pytest.raises(ValueError, match=message):
            ScaleStats(grid_n=64, levels=(3, 3), p=p, log2_stat=table)

    # a grid_n of 0 once passed and ratio_maximize then failed in log2(0)
    @pytest.mark.parametrize("grid_n,levels,message", [
        (0, (3, 3), "grid_n must be a power of two >= 2, got 0"),
        (1, (1, 1), "grid_n must be a power of two >= 2, got 1"),
        (96, (3, 3), "grid_n must be a power of two >= 2, got 96"),
        (64.0, (3, 3), "grid_n must be a power of two >= 2, got 64.0"),
        (8, (5, 5), r"levels must be two integers in 1\.\.3 = log2\(grid_n\), got \(5, 5\)"),
        (64, (0, 3), r"levels must be two integers in 1\.\.6"),
        (64, (3, 7), r"levels must be two integers in 1\.\.6"),
        (64, (3,), r"levels must be two integers in 1\.\.6"),
    ], ids=["grid_0", "grid_1", "grid_96", "grid_float", "levels_past_grid", "level_0",
            "level_7", "one_level"])
    def test_sizes_refused(self, grid_n, levels, message):
        with pytest.raises(ValueError, match=message):
            ScaleStats(grid_n=grid_n, levels=levels, p=2.0, log2_stat={(1, 1): -1.0})

    def test_sizes_at_their_ends(self):
        # the smallest grid and levels down to one coefficient per block
        assert ScaleStats(grid_n=2, levels=(1, 1), p=2.0, log2_stat={(1, 1): -1.0}).levels == (1, 1)
        assert ScaleStats(grid_n=np.int64(64), levels=(6, 6), p=2.0, log2_stat={(6, 6): -1.0}).grid_n == 64


def test_public_names():
    import anisotex

    assert len(set(anisotex.__all__)) == len(anisotex.__all__)
    for name in anisotex.__all__:
        assert getattr(anisotex, name) is not None
    # one block statistic: pooled_scale_statistics of a list of pyramids
    for gone in ("BlockMoments", "block_moments", "pool_block_moments", "scale_statistics"):
        assert gone not in anisotex.__all__
        assert not hasattr(anisotex, gone) and not hasattr(hywave, gone)


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

    def test_usable_rays_window(self):
        # whatever the statistic, a full d4 (9, 9) table at n = 1024 gives 3
        # blocks within RAY_BAND to 9 of the 21 default ratios only, so the
        # implied alpha0 cannot leave [0.642, 1.358]
        table = {(j1, j2): -float(j1 + j2) for j1 in range(1, 10) for j2 in range(1, 10)}
        scan = ratio_maximize(ScaleStats(grid_n=1024, levels=(9, 9), p=2.0, log2_stat=table))
        grid = default_ratio_grid()
        assert len(grid) == 21 and scan.ratios == grid[6:15]
        assert round(scan.ratios[0], 3) == 0.473 and round(scan.ratios[-1], 3) == 2.114
        implied = [2.0 * r / (1.0 + r) for r in scan.ratios]
        assert round(implied[0], 3) == 0.642 and round(implied[-1], 3) == 1.358

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
        s1 = pooled_scale_statistics([p1], 2.0)
        s2 = pooled_scale_statistics([p2], 2.0)
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

    # one ratio with two rates raised IndexError from best_ratio
    @pytest.mark.parametrize("ratios,rates", [((0.8, 1.2), (-1.0, math.inf)),
                                              ((0.8, 1.2), (math.nan, -1.0)), ((), ()),
                                              ((0.8,), (-2.0, -1.0))],
                             ids=["inf", "nan", "empty", "one_ratio_two_rates"])
    def test_scan_refuses_non_finite_rates(self, ratios, rates):
        with pytest.raises(ValueError, match="finite decay_rate"):
            hywave.RatioScan(ratios, rates)

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


import functools
import math

import numpy as np
import pytest

from anisotex import (
    Anisotropy,
    DegenerateDirectionError,
    ExponentScan,
    FieldSpec,
    SampledField,
    StructureFunction,
    average_structure_functions,
    critical_exponent,
    default_lags,
    directional_exponent,
    scan_anisotropy,
    snap_direction,
    structure_function,
    synthesize_ensemble,
    tent_prediction,
)
from anisotex import besov, synth
from anisotex.besov import INTERIOR_MARGIN, default_lags as _default_lags


def reference_structure_function(field, direction, p, lags=None):
    """The per-lag loop structure_function ran before its single scratch
    buffer: one fresh increment, abs and power array per lag."""
    n = field.grid_n
    u, v = snap_direction(direction)
    step_len = math.hypot(u, v)
    if lags is None:
        lags = [t * step_len for t in _default_lags(n) if t * step_len <= 0.25 + 1e-12]
    ms = sorted({max(1, round(t * n / step_len)) for t in lags})
    vals = field.values
    margin = n // INTERIOR_MARGIN
    out_t, out_s = [], []
    for m in ms:
        du, dv = m * u, m * v
        i0 = margin + max(0, -du)
        i1 = (n - margin) - max(0, du)
        j0 = margin + max(0, -dv)
        j1 = (n - margin) - max(0, dv)
        if i1 <= i0 or j1 <= j0:
            continue
        inc = vals[i0 + du:i1 + du, j0 + dv:j1 + dv] - vals[i0:i1, j0:j1]
        if p == math.inf:
            s = float(np.max(np.abs(inc)))
        else:
            s = float(np.mean(np.abs(inc) ** p))
        out_t.append(m * step_len / n)
        out_s.append(s)
    return StructureFunction(lattice_step=(u, v), p=float(p), lags=tuple(out_t),
                             values=tuple(out_s), grid_n=n)


def reference_exponents(field, directions, p):
    """Directional exponents from full reference tables and the default window."""
    return [directional_exponent(reference_structure_function(field, d, p)).h
            for d in directions]


class TestSnapDirection:
    def test_axes(self):
        assert snap_direction((1, 0)) == (1, 0)
        assert snap_direction((0, 1)) == (0, 1)
        assert snap_direction((-1, 0)) == (1, 0)
        assert snap_direction((0, -2)) == (0, 1)

    def test_rational_directions(self):
        assert snap_direction((0.6, 0.8)) == (3, 4)
        assert snap_direction((1, 1)) == (1, 1)
        assert snap_direction((2, 1)) == (2, 1)

    def test_nearby_angle_snaps(self):
        assert snap_direction((1.0, 0.001)) == (1, 0)
        assert snap_direction((0.74, 0.75)) == (1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            snap_direction((0.0, 0.0))

    @pytest.mark.parametrize("direction", [(math.nan, 1.0), (1.0, math.inf),
                                           (-math.inf, 0.0)])
    def test_non_finite_rejected(self, direction):
        with pytest.raises(ValueError, match="finite"):
            snap_direction(direction)

    def test_cache_keyed_by_components(self):
        # a tuple, a list and an array of one direction take one search: the
        # cache key is the float pair, not the unhashable array
        besov._snap_search.cache_clear()
        steps = [snap_direction(d) for d in ((0.6, 0.8), [0.6, 0.8], np.array([0.6, 0.8]))]
        assert steps == [(3, 4)] * 3
        info = besov._snap_search.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert besov._snap_search.cache_parameters()["maxsize"] is not None

    @pytest.mark.parametrize("direction", [(math.nan, 1), (math.inf, 0), (0, 0),
                                           (1, 0, 3), (1,), 5])
    def test_bad_direction_raises_on_every_call(self, direction):
        # checked before the cache: a bad direction neither hits nor fills it
        info = besov._snap_search.cache_info()
        for _ in range(2):
            with pytest.raises(ValueError):
                snap_direction(direction)
        after = besov._snap_search.cache_info()
        assert (after.hits, after.misses) == (info.hits, info.misses)


class TestStructureFunction:
    def test_constant_field_vanishes(self, zero_field):
        sf = structure_function(zero_field, (1, 0), 2.0)
        assert all(v == 0.0 for v in sf.values)

    def test_linear_ramp_exact(self, ramp_field):
        # f(x) = x1: increments along (1,0) at lag t equal t exactly
        sf = structure_function(ramp_field, (1, 0), 2.0)
        for t, s in zip(sf.lags, sf.values):
            assert s == pytest.approx(t ** 2, rel=1e-12)

    def test_ramp_flat_across(self, ramp_field):
        sf = structure_function(ramp_field, (0, 1), 2.0)
        assert all(v == 0.0 for v in sf.values)

    def test_sup_order(self, ramp_field):
        sf = structure_function(ramp_field, (1, 0), math.inf)
        for t, s in zip(sf.lags, sf.values):
            assert s == pytest.approx(t, rel=1e-12)

    def test_lags_strictly_increasing_lattice_multiples(self, ramp_field):
        sf = structure_function(ramp_field, (1, 0), 2.0)
        n = ramp_field.grid_n
        assert all(b > a for a, b in zip(sf.lags, sf.lags[1:]))
        for t in sf.lags:
            assert round(t * n) == pytest.approx(t * n, abs=1e-9)

    def test_lag_domain(self, ramp_field):
        with pytest.raises(ValueError, match="1/4"):
            structure_function(ramp_field, (1, 0), 2.0, lags=[0.3])
        with pytest.raises(ValueError):
            structure_function(ramp_field, (1, 0), 2.0, lags=[-0.1])
        with pytest.raises(ValueError, match="no valid lags"):
            structure_function(ramp_field, (1, 0), 2.0, lags=[])

    @pytest.mark.parametrize("p", [0.5, -1.0, math.nan])
    def test_illegal_order(self, ramp_field, p):
        with pytest.raises(ValueError, match="order p must be >= 1 or inf"):
            structure_function(ramp_field, (1, 0), p)

    def test_off_axis_direction(self, ramp_field):
        # along (1,1)/sqrt2 the ramp rises by t/sqrt(2) per unit lag length
        sf = structure_function(ramp_field, (1, 1), 2.0)
        for t, s in zip(sf.lags, sf.values):
            assert s == pytest.approx((t / math.sqrt(2)) ** 2, rel=1e-12)

    @pytest.mark.parametrize("step,p,lags,values,message", [
        ((0, 0), 2.0, (0.1, 0.2), (1.0, 2.0), "direction 0,0 is not a nonzero integer step"),
        ((1.0, 0), 2.0, (0.1, 0.2), (1.0, 2.0), "not a nonzero integer step"),
        ((math.nan, 1), 2.0, (0.1, 0.2), (1.0, 2.0), "not a nonzero integer step"),
        ((1, 0), 0.5, (0.1, 0.2), (1.0, 2.0), "order p must be >= 1 or inf"),
        ((1, 0), math.nan, (0.1, 0.2), (1.0, 2.0), "order p must be >= 1 or inf"),
        ((1, 0), 2.0, (0.1, 0.2), (1.0,), "one value per lag"),
        ((1, 0), 2.0, (0.0, 0.2), (1.0, 2.0), "each lag finite and > 0"),
        ((1, 0), 2.0, (math.nan, 0.2), (1.0, 2.0), "each lag finite and > 0"),
        ((1, 0), 2.0, (0.1, math.inf), (1.0, 2.0), "each lag finite and > 0"),
    ], ids=["zero_step", "float_step", "nan_step", "order", "nan_order", "lengths",
            "zero_lag", "nan_lag", "inf_lag"])
    def test_table_validates_itself(self, step, p, lags, values, message):
        # (0, 0) used to build and then raise ZeroDivisionError from direction
        with pytest.raises(ValueError, match=message):
            StructureFunction(lattice_step=step, p=p, lags=lags, values=values, grid_n=64)

    def test_default_lags_log_spaced(self):
        lags = default_lags(1024)
        ms = [round(t * 1024) for t in lags]
        assert ms == [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256]


class TestDirectionalExponent:
    def test_exact_power_law(self):
        # synthetic S(t) = t^{1.0 * p}: slope recovers h = 1, stderr ~ 0
        p = 2.0
        lags = tuple(m / 256 for m in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64))
        sf = StructureFunction(lattice_step=(1, 0), p=p, lags=lags,
                               values=tuple(t ** (1.0 * p) for t in lags),
                               grid_n=256)
        de = directional_exponent(sf)
        assert de.h == pytest.approx(1.0, abs=1e-12)
        assert de.stderr == pytest.approx(0.0, abs=1e-10)

    def test_degenerate_direction_errors_not_nan(self, zero_field):
        sf = structure_function(zero_field, (1, 0), 2.0)
        with pytest.raises(DegenerateDirectionError):
            directional_exponent(sf)

    def test_needs_enough_lags(self, ramp_field):
        sf = structure_function(ramp_field, (1, 0), 2.0, lags=[4 / 128, 8 / 128, 16 / 128])
        with pytest.raises(ValueError, match="at least 4"):
            directional_exponent(sf, fit_range=(0.0, 0.25))
        # and the default window needs enough survivors too
        with pytest.raises(ValueError, match="at least 4"):
            directional_exponent(sf)

    @pytest.mark.parametrize("step,ms,window", [
        # the default lags along (2, 1) at n = 256: the [4/n, 1/8] clip keeps
        # m = 2 (2 sqrt 5 >= 4), so only dropping the two finest lags starts
        # the window at m = 3
        ((2, 1), (1, 2, 3, 4, 6, 8, 12, 16, 24), (3, 12)),
        # every lag inside the clip: only dropping the two coarsest ends the
        # window before 1/8
        ((1, 0), (4, 6, 8, 12, 16, 20, 24, 28, 32), (8, 24)),
    ])
    def test_default_window_drops_two_lags_at_each_end(self, step, ms, window):
        s = math.hypot(*step)
        lags = tuple(m * s / 256 for m in ms)
        sf = StructureFunction(lattice_step=step, p=2.0, lags=lags,
                               values=tuple(t ** 0.8 for t in lags), grid_n=256)
        assert sf.direction == (step[0] / s, step[1] / s)
        assert directional_exponent(sf).fit_range == (window[0] * s / 256, window[1] * s / 256)

    def test_zero_inside_window_is_degenerate(self):
        # one zero among nonzero values: no log is taken of it
        lags = tuple(m / 256 for m in (4, 6, 8, 12, 16, 24, 32))
        values = tuple(0.0 if m == 12 else (m / 256) ** 0.8 for m in (4, 6, 8, 12, 16, 24, 32))
        sf = StructureFunction(lattice_step=(1, 0), p=2.0, lags=lags, values=values, grid_n=256)
        with pytest.raises(DegenerateDirectionError, match="vanishes in the fit range"):
            directional_exponent(sf, fit_range=(0.0, 1.0))

    def test_sup_order_slope_not_divided(self):
        lags = tuple(m / 256 for m in (4, 6, 8, 12, 16, 24, 32))
        sf = StructureFunction(lattice_step=(1, 0), p=math.inf, lags=lags,
                               values=tuple(t ** 0.7 for t in lags), grid_n=256)
        de = directional_exponent(sf, fit_range=(0.0, 1.0))
        assert de.h == pytest.approx(0.7, abs=1e-12)


class TestScanPeak:
    # realization (h1, h2) = (0.5, 0.5 + d): the means at alpha 0.9 and 1.1
    # are 0.45 and 0.45 + 0.9 d
    @pytest.mark.parametrize("d,argmax", [(0.0, 0.9), (1e-10, 0.9), (1e-8, 1.1)])
    def test_ties_within_1e_9_pick_the_first_alpha(self, d, argmax):
        scan = besov.scan_exponents([(0.5, 0.5 + d)], [0.9, 1.1])
        assert scan.argmax_alpha == argmax
        assert scan.peak == max(scan.exponents)

    def test_non_finite_means_rejected(self):
        with pytest.raises(ValueError, match="finite exponent_mean"):
            besov.scan_exponents([(math.nan, 0.5)], [0.9, 1.1])
        # the scan's own constructor refuses them, an empty scan, and columns
        # of unequal length (argmax_alpha raised StopIteration on one)
        for alphas, exponents, stderrs in [((0.9, 1.1), (0.45, math.nan), (0.0, 0.0)), ((), (), ()),
                                           ((0.9,), (0.3, 0.4), (0.0, 0.0)),
                                           ((0.9, 1.1), (0.3, 0.4), (0.0,))]:
            with pytest.raises(ValueError, match="finite exponent_mean"):
                ExponentScan(alphas, exponents, stderrs)

    def test_no_realization_rejected(self):
        with pytest.raises(ValueError, match="need at least one field"):
            besov.scan_exponents([], [0.9, 1.1])
        with pytest.raises(ValueError, match="need at least one field"):
            scan_anisotropy([], [0.9, 1.1], 2.0)


class TestTentPrediction:
    def test_peak_value_is_hurst(self):
        for alpha0, hurst in ((0.6, 0.4), (1.0, 0.5), (1.3, 0.55)):
            assert tent_prediction(alpha0, alpha0, hurst) == hurst

    def test_isotropic_analysis_of_aniso_field(self):
        got = tent_prediction(1.0, 0.6, 0.4)
        assert got == pytest.approx(0.4 * min(1.0 / 0.6, 1.0 / 1.4), rel=1e-12)
        assert got == pytest.approx(0.2857142857142857, rel=1e-12)

    def test_vanishes_toward_zero(self):
        assert tent_prediction(1e-9, 0.6, 0.4) < 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            tent_prediction(0.0, 0.6, 0.4)
        with pytest.raises(ValueError):
            tent_prediction(2.0, 0.6, 0.4)
        with pytest.raises(ValueError):
            tent_prediction(1.0, 2.0, 0.4)

    def test_unimodal(self):
        # strictly increasing before alpha0, strictly decreasing after
        alpha0, hurst = 0.6, 0.4
        grid = np.linspace(0.05, 1.95, 191)
        vals = [tent_prediction(a, alpha0, hurst) for a in grid]
        i0 = int(np.argmax(vals))
        assert grid[i0] == pytest.approx(alpha0, abs=0.011)
        before = vals[: i0 + 1]
        after = vals[i0:]
        assert all(b > a for a, b in zip(before, before[1:]))
        assert all(b < a for a, b in zip(after, after[1:]))


@pytest.fixture(scope="module")
def small_aniso_ensemble():
    return synthesize_ensemble(FieldSpec.make(0.6, 0.4, grid_n=512, seed=314), 4)


class TestOnSynthesizedFields:
    def test_directional_exponents_match_model(self, small_aniso_ensemble):
        # h along axis i targets hurst / lambda_i
        for vec, lam in (((1, 0), 0.6), ((0, 1), 1.4)):
            sfs = [structure_function(f, vec, 2.0) for f in small_aniso_ensemble]
            de = directional_exponent(average_structure_functions(sfs))
            assert de.h == pytest.approx(0.4 / lam, abs=0.05)

    def test_scan_parallel_matches_sequential(self, small_aniso_ensemble, monkeypatch):
        grid = [0.4, 0.6, 0.8, 1.0, 1.2]
        monkeypatch.setattr(synth, "worker_count", lambda: 1)
        seq = scan_anisotropy(small_aniso_ensemble, grid, 2.0)
        monkeypatch.setattr(synth, "worker_count", lambda: 4)
        par = scan_anisotropy(small_aniso_ensemble, grid, 2.0)
        assert seq == par

    def test_critical_exponent_at_matched_anisotropy(self, small_aniso_ensemble):
        vals = [critical_exponent(f, Anisotropy.diagonal(0.6), 2.0)
                for f in small_aniso_ensemble]
        assert float(np.mean(vals)) == pytest.approx(0.4, abs=0.06)

    def test_critical_exponent_isotropic_analysis(self, small_aniso_ensemble):
        vals = [critical_exponent(f, Anisotropy.diagonal(1.0), 2.0)
                for f in small_aniso_ensemble]
        assert float(np.mean(vals)) == pytest.approx(0.2857, abs=0.06)

    def test_scan_tent_shape(self, small_aniso_ensemble):
        grid = [round(0.3 + 0.1 * i, 10) for i in range(15)]
        scan = scan_anisotropy(small_aniso_ensemble, grid, 2.0)
        assert abs(scan.argmax_alpha - 0.6) <= 0.2
        assert scan.peak == pytest.approx(0.4, abs=0.08)
        assert len(scan.exponents) == len(grid)
        assert all(e >= 0 for e in scan.stderrs)

    def test_scan_requires_shared_spec(self, small_aniso_ensemble):
        other = synthesize_ensemble(FieldSpec.make(1.0, 0.5, grid_n=512, seed=1), 1)
        with pytest.raises(ValueError, match="share"):
            scan_anisotropy(list(small_aniso_ensemble) + other, [0.5, 1.0], 2.0)

    def test_scan_spec_check_ignores_seed_only(self, small_aniso_ensemble):
        # relabelled copies: hurst alone differs (rejected), seed alone (accepted)
        f = small_aniso_ensemble[0]
        spec = f.spec
        hurst = SampledField(values=f.values, spec=FieldSpec.make(0.6, 0.35, grid_n=512, seed=spec.seed))
        with pytest.raises(ValueError, match="share"):
            scan_anisotropy([f, hurst], [0.5, 1.0], 2.0)
        reseeded = SampledField(values=f.values, spec=spec.with_seed(spec.seed + 99))
        assert (scan_anisotropy([f, reseeded], [0.5, 1.0], 2.0)
                == scan_anisotropy([f, f], [0.5, 1.0], 2.0))

    def test_scan_grid_validation(self, small_aniso_ensemble):
        with pytest.raises(ValueError, match="empty"):
            scan_anisotropy(small_aniso_ensemble, [], 2.0)
        with pytest.raises(ValueError, match="range"):
            scan_anisotropy(small_aniso_ensemble, [0.1], 2.0)
        with pytest.raises(ValueError, match="range"):
            scan_anisotropy(small_aniso_ensemble, [1.9], 2.0)

    def test_regression_robustness_under_more_realizations(self, small_aniso_ensemble):
        # doubling the realization count must not worsen |h - oracle| by
        # more than the 95% CI of the larger fit (seed-pinned)
        oracle = 0.4 / 0.6
        half = [structure_function(f, (1, 0), 2.0) for f in small_aniso_ensemble[:2]]
        full = [structure_function(f, (1, 0), 2.0) for f in small_aniso_ensemble]
        de_half = directional_exponent(average_structure_functions(half))
        de_full = directional_exponent(average_structure_functions(full))
        ci = 1.96 * de_full.stderr
        assert abs(de_full.h - oracle) <= abs(de_half.h - oracle) + ci


class TestAveraging:
    def test_average_structure_functions(self, ramp_field, zero_field):
        sf1 = structure_function(ramp_field, (1, 0), 2.0)
        avg = average_structure_functions([sf1, sf1, sf1])
        assert avg.values == sf1.values
        sf2 = structure_function(zero_field, (1, 0), 2.0)
        with pytest.raises(ValueError, match="share"):
            average_structure_functions([sf1, sf2])


REFERENCE_ORDERS = (1.0, 1.5, 2.0, 3.0, 4.0, math.inf)
REFERENCE_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (2, -1))
_DIAG = math.sqrt(0.5)  # components of the unit vector along (1, 1)


@functools.lru_cache(maxsize=None)
def _reference_field(n):
    return synthesize_ensemble(FieldSpec.make(0.6, 0.4, grid_n=n, seed=n + 5), 1)[0]


@pytest.fixture(params=[64, 128, 256])
def reference_field(request):
    return _reference_field(request.param)


class TestMatchesReference:
    """The scratch-buffer loop and the fit-window scan reproduce the
    per-lag reference loop exactly (==, not approx)."""

    @pytest.mark.parametrize("p", REFERENCE_ORDERS)
    @pytest.mark.parametrize("direction", REFERENCE_DIRECTIONS)
    def test_structure_function(self, reference_field, direction, p):
        got = structure_function(reference_field, direction, p)
        assert got == reference_structure_function(reference_field, direction, p)

    @pytest.mark.parametrize("p", REFERENCE_ORDERS)
    def test_explicit_lags(self, reference_field, p):
        lags = [0.25, 3 / reference_field.grid_n, 0.1]
        got = structure_function(reference_field, (1, 1), p, lags=lags)
        assert got == reference_structure_function(reference_field, (1, 1), p, lags=lags)

    @pytest.mark.parametrize("p", REFERENCE_ORDERS)
    @pytest.mark.parametrize("D", [Anisotropy.diagonal(0.6), Anisotropy.diagonal(1.3),
                                   Anisotropy(0.8, 1.2, (_DIAG, _DIAG), (_DIAG, -_DIAG))],
                             ids=["diag_0.6", "diag_1.3", "rotated"])
    @pytest.mark.parametrize("n", [128, 256])  # the default fit needs n >= 128
    def test_critical_exponent(self, n, D, p):
        field = _reference_field(n)
        expect = min(lam * h for lam, h in
                     zip(D.eigenvalues, reference_exponents(field, D.eigenvectors, p)))
        assert critical_exponent(field, D, p) == expect

    @pytest.mark.parametrize("p", REFERENCE_ORDERS)
    @pytest.mark.parametrize("n", [128, 256])
    def test_scan(self, n, p, monkeypatch):
        fields = synthesize_ensemble(FieldSpec.make(0.6, 0.4, grid_n=n, seed=21), 3)
        grid = [round(0.2 + 0.1 * k, 10) for k in range(17)]
        got = scan_anisotropy(fields, grid, p)
        monkeypatch.setattr(besov, "_exponents", reference_exponents)
        assert got == scan_anisotropy(fields, grid, p)

    def test_scan_requests_only_fit_window_lags(self, small_aniso_ensemble, monkeypatch):
        requested = []

        def spy(field, direction, p, lags=None):
            sf = structure_function(field, direction, p, lags)
            requested.append((field.grid_n, direction, lags, sf.lags))
            return sf

        monkeypatch.setattr(besov, "structure_function", spy)
        scan_anisotropy(small_aniso_ensemble[:2], [0.6, 1.0], 2.0)
        assert len(requested) == 4
        for n, direction, lags, got in requested:
            assert lags is not None
            full = structure_function(small_aniso_ensemble[0], direction, 2.0).lags
            kept = tuple(t for t, k in zip(full, besov._default_fit_mask(full, n)) if k)
            assert got == kept
            assert [round(t * n) for t in got] == [4, 6, 8, 12, 16, 24, 32, 48, 64]


class TestOverflowingMoments:
    @pytest.fixture(scope="class")
    def field(self):
        return synthesize_ensemble(FieldSpec.make(0.6, 0.4, grid_n=256, seed=7), 1)[0]

    @staticmethod
    def scaled(field, factor):
        return SampledField(values=field.values * factor, spec=field.spec)

    @pytest.mark.parametrize("factor,p", [(1e200, 2.0), (1.0, 400.0), (None, math.inf)],
                             ids=["scaled_p2", "p400", "sup_of_huge_values"])
    def test_overflow_names_p(self, field, factor, p):
        if factor is None:  # finite values whose differences exceed the float64 range
            factor = 1.5e308 / np.abs(field.values).max()
        with pytest.raises(ValueError, match=rf"order p={p}: .* overflows float64"):
            structure_function(self.scaled(field, factor), (0, 1), p)

    def test_underflow_on_nonzero_increments(self, field):
        with pytest.raises(ValueError, match=r"order p=2.0: .* underflows to 0"):
            structure_function(self.scaled(field, 1e-200), (1, 0), 2.0)

    def test_zero_increments_are_not_underflow(self, zero_field):
        sf = structure_function(zero_field, (1, 0), 400.0)
        assert all(v == 0.0 for v in sf.values)

    @pytest.mark.parametrize("factor,p", [(1e200, 2.0), (1.0, 400.0)])
    def test_scan_names_p(self, field, factor, p):
        with pytest.raises(ValueError, match=f"order p={p}"):
            scan_anisotropy([self.scaled(field, factor)], [0.6, 1.0], p)

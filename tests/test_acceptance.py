"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion with the measured numbers.
"""
import math
import time

import numpy as np
import pytest

from anisotex import (
    Anisotropy,
    DegenerateDirectionError,
    FieldSpec,
    SampledField,
    average_structure_functions,
    check_homogeneity,
    check_integrability,
    coefficient_energy,
    directional_exponent,
    hyperbolic_transform,
    inverse_hyperbolic_transform,
    matrix_power,
    monte_carlo_scaling_check,
    pooled_scale_statistics,
    ratio_maximize,
    reduce_synthesis,
    rho_power_sum,
    scan_anisotropy,
    spectral_coefficients,
    structure_function,
    synthesize,
    synthesize_ensemble,
    tent_prediction,
    variogram_oracle,
)

ANISO = FieldSpec.make(0.6, 0.4, grid_n=1024, seed=20260101)
ISO = FieldSpec.make(1.0, 0.5, grid_n=1024, seed=777)
MC_SPEC = FieldSpec.make(0.6, 0.4, grid_n=256, seed=901)
ALPHA_GRID = [round(0.2 + 0.05 * i, 10) for i in range(33)]


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


_TIMINGS = {}


@pytest.fixture(scope="module")
def aniso_run():
    # streamed: each realization is synthesized, reduced to its axis
    # exponents and d4 (9, 9) block moments, and dropped on the worker pool
    t0 = time.perf_counter()
    run = reduce_synthesis(ANISO, 16, ALPHA_GRID, 2.0, levels=(9, 9))
    _TIMINGS["aniso_run"] = time.perf_counter() - t0
    return run


@pytest.fixture(scope="module")
def iso_fields():
    return synthesize_ensemble(ISO, 16)


@pytest.fixture(scope="module")
def mc_fields():
    return synthesize_ensemble(MC_SPEC, 200)


def test_criterion_1_tent_curve(aniso_run):
    scan = aniso_run.scan
    rms = math.sqrt(np.mean([
        (e - tent_prediction(a, 0.6, 0.4)) ** 2
        for a, e in zip(scan.alphas, scan.exponents) if 0.3 <= a <= 1.7
    ]))
    elapsed = _TIMINGS["aniso_run"]
    ok = (abs(scan.argmax_alpha - 0.6) <= 0.1
          and abs(scan.peak - 0.4) <= 0.05
          and rms <= 0.07
          and elapsed <= 300.0)
    report(1, "tent-curve reproduction", ok,
           f"argmax={scan.argmax_alpha:.3f} (|d|<=0.1), peak={scan.peak:.4f} (|d|<=0.05), "
           f"rms={rms:.4f} (<=0.07), streamed ensemble, scan and pyramids {elapsed:.1f}s (<=300s)")


def test_criterion_2_isotropic_benchmark(iso_fields):
    hs = {}
    for vec in ((1, 0), (0, 1)):
        sfs = [structure_function(f, vec, 2.0) for f in iso_fields]
        hs[vec] = directional_exponent(average_structure_functions(sfs)).h
    scan = scan_anisotropy(iso_fields, ALPHA_GRID, 2.0)
    ok = (all(abs(h - 0.5) <= 0.04 for h in hs.values())
          and abs(scan.argmax_alpha - 1.0) <= 0.1)
    report(2, "isotropic benchmark", ok,
           f"h_axis0={hs[(1, 0)]:.4f}, h_axis1={hs[(0, 1)]:.4f} (0.5 +- 0.04), "
           f"argmax={scan.argmax_alpha:.3f} (1.0 +- 0.1)")


def test_criterion_3_scaling_law():
    worst_quad = 0.0
    E0 = ANISO.anisotropy
    for a in (0.5, 2.0, 4.0):
        M = matrix_power(E0, a)
        for x in ((0.25, 0.25), (0.1, 0.3)):
            y = M @ np.asarray(x)
            lhs = variogram_oracle(ANISO, y)
            rhs = a ** (2 * ANISO.hurst) * variogram_oracle(ANISO, x)
            worst_quad = max(worst_quad, abs(lhs - rhs) / rhs)
    mc = []
    for a, x in ((2.0, (0.2, 0.1)), (4.0, (0.08, 0.03)), (0.5, (0.2, 0.2))):
        res = monte_carlo_scaling_check(MC_SPEC, a, x, 200)
        mc.append((a, (res.ratio - res.target) / res.target))
    ok = worst_quad <= 1e-3 and all(abs(rel) <= 0.10 for _, rel in mc)
    report(3, "scaling law", ok,
           f"quadrature identity worst rel={worst_quad:.2e} (<=1e-3); MC ratio rel: "
           + ", ".join(f"a={a}: {rel:+.1%}" for a, rel in mc) + " (each <=10%)")


def test_criterion_4_synthesis_correctness(mc_fields):
    n = MC_SPEC.grid_n
    pts = [(24, 40), (32, 32), (32, 48)]
    devs = []
    for (i, j) in pts:
        sample_var = float(np.mean([f.values[i, j] ** 2 for f in mc_fields]))
        oracle = variogram_oracle(MC_SPEC, (i / n, j / n))
        devs.append((sample_var - oracle) / oracle)
    origins_zero = all(f.values[0, 0] == 0.0 for f in mc_fields)
    C = spectral_coefficients(MC_SPEC)
    Y = np.fft.ifft2(C) * n * n
    residue = float(np.max(np.abs(Y.imag)) / np.max(np.abs(Y)))
    f1 = synthesize(MC_SPEC)
    f2 = synthesize(MC_SPEC)
    deterministic = bool(np.array_equal(f1.values, f2.values))
    ok = (all(abs(d) <= 0.10 for d in devs) and origins_zero
          and residue < 1e-9 and deterministic)
    report(4, "synthesis correctness", ok,
           "variance dev: " + ", ".join(f"{d:+.1%}" for d in devs)
           + f" (each <=10%); X(0)=0: {origins_zero}; imag residue={residue:.1e} (<1e-9); "
             f"bit-identical repeat: {deterministic}")


def test_criterion_5_homogeneity_and_admissibility():
    worst = 0.0
    for alpha0 in (0.3, 0.6, 1.0, 1.5):
        rep = check_homogeneity(rho_power_sum(alpha0), trials=1000)
        worst = max(worst, rep.max_relative_error)
    grid_ok = True
    wrong = []
    for alpha0 in (0.3, 0.6, 1.0, 1.4, 1.7):
        lam_min = min(alpha0, 2 - alpha0)
        for frac in (0.5, 0.75, 0.9, 1.1, 1.25):
            rep = check_integrability(rho_power_sum(alpha0), hurst=frac * lam_min)
            if rep.finite != (frac < 1.0):
                grid_ok = False
                wrong.append((alpha0, round(frac * lam_min, 4)))
    ok = worst <= 1e-10 and grid_ok
    report(5, "homogeneity and admissibility", ok,
           f"max homogeneity err={worst:.2e} (<=1e-10); 5x5 integrability grid "
           f"{'all correct' if grid_ok else f'wrong at {wrong}'}")


def test_criterion_6_hyperbolic_ridge(aniso_run, iso_fields):
    aniso_scan = aniso_run.scan
    rscan = ratio_maximize(aniso_run.stats)
    target = 0.6 / 1.4
    d_ratio = abs(rscan.best_ratio - target)
    d_alpha = abs(rscan.implied_alpha0 - aniso_scan.argmax_alpha)
    # isotropic control: the ridge sits at ratio 1 by symmetry
    ipyrs = [hyperbolic_transform(f, filt="d4", levels=(9, 9)) for f in iso_fields]
    iso_best = ratio_maximize(pooled_scale_statistics(ipyrs, 2.0)).best_ratio
    ok = d_ratio <= 0.15 and d_alpha <= 0.12 and abs(iso_best - 1.0) <= 0.15
    report(6, "hyperbolic ridge consistency", ok,
           f"best_ratio={rscan.best_ratio:.4f} vs {target:.4f} (|d|={d_ratio:.4f}<=0.15); "
           f"implied_alpha0={rscan.implied_alpha0:.4f} vs scan argmax="
           f"{aniso_scan.argmax_alpha:.3f} (|d|={d_alpha:.4f}<=0.12); "
           f"isotropic control best_ratio={iso_best:.4f} (1.0 +- 0.15)")


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    # matrix power semigroup
    for _ in range(200):
        l1 = rng.uniform(0.2, 1.0)
        th = rng.uniform(0, 2 * np.pi, size=2)
        D = Anisotropy(l1, 2 - l1, (np.cos(th[0]), np.sin(th[0])),
                       (np.cos(th[0] + 1 + th[1] % 1), np.sin(th[0] + 1 + th[1] % 1)))
        a, b = rng.uniform(0.1, 10.0, size=2)
        assert np.allclose(matrix_power(D, a) @ matrix_power(D, b),
                           matrix_power(D, a * b), rtol=1e-10, atol=1e-10)

    # perfect reconstruction and energy conservation
    v = rng.standard_normal((128, 128))
    v[0, 0] = 0.0
    for filt in ("haar", "d4"):
        pyr = hyperbolic_transform(v, filt=filt)
        assert float(np.max(np.abs(inverse_hyperbolic_transform(pyr) - v))) < 1e-9
        assert coefficient_energy(pyr) == pytest.approx(float(np.sum(v * v)), rel=1e-9)

    # l^p monotonicity in p
    pyr = hyperbolic_transform(v, filt="d4", levels=(4, 4))
    tables = [pooled_scale_statistics([pyr], p).log2_stat for p in (1.0, 2.0, 4.0, math.inf)]
    for key in tables[0]:
        seq = [t[key] for t in tables]
        assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))

    # tent unimodality
    grid = np.linspace(0.01, 1.99, 397)
    vals = [tent_prediction(al, 0.7, 0.45) for al in grid]
    i0 = int(np.argmax(vals))
    assert abs(grid[i0] - 0.7) < 0.006
    assert all(b > a for a, b in zip(vals[:i0], vals[1:i0 + 1]))
    assert all(b < a for a, b in zip(vals[i0:], vals[i0 + 1:]))

    # constant-field degeneracy: errors, never NaN
    spec = FieldSpec.make(0.6, 0.4, grid_n=128, seed=0)
    const = SampledField(values=np.zeros((128, 128)), spec=spec)
    with pytest.raises(DegenerateDirectionError):
        directional_exponent(structure_function(const, (1, 0), 2.0))
    with pytest.raises(ValueError):
        ratio_maximize(pooled_scale_statistics([hyperbolic_transform(const, "haar")], 2.0))

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(7, "property suites", ok, f"all properties hold, {elapsed:.1f}s (< 60s)")

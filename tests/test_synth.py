import functools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats as sps
from scipy.special import beta as beta_fn, betainc, gamma as gamma_fn, gammainc, gammaincc, gammaln

from anisotex import (
    FieldSpec,
    evaluate_at_points,
    monte_carlo_scaling_check,
    spectral_coefficients,
    spectral_grid,
    synth,
    synthesize,
    synthesize_ensemble,
    variogram_oracle,
)
from anisotex.core import ALPHA0_FLOOR


def refused_below_floor(alpha0):
    """False inside the field domain; beyond its floor, True once FieldSpec
    is seen to refuse alpha0. Tests that took such an alpha0 before the
    floor keep it as this twin: no spec, and so no synthesis or oracle call,
    exists there."""
    if min(alpha0, 2.0 - alpha0) >= ALPHA0_FLOOR:
        return False
    with pytest.raises(ValueError, match="floor"):
        FieldSpec.make(alpha0, 0.005, grid_n=64)
    return True


def axis_oracle(alpha0, hurst, axis, r):
    """Independent closed form for the axis variogram of the power-sum model.

    Derived by substituting u = |x| c^lambda r^lambda in the radial
    integral: v = 8 * lambda_other * K(2H/lambda) * B(lambda + 2H,
    lambda_other) * |r|^{2H/lambda}, K(s) = Gamma(2-s) cos(pi s/2)/(s(1-s)).
    """
    lam = alpha0 if axis == 0 else 2.0 - alpha0
    other = (2.0 - alpha0) if axis == 0 else alpha0
    s = 2.0 * hurst / lam
    return 8.0 * other * cosine_moment(s) * beta_fn(lam + 2.0 * hurst, other) * abs(r) ** s


def cosine_moment(s):
    """K(s) = int_0^inf (1 - cos u) u^(-1-s) du, 0 < s < 2."""
    if abs(s - 1.0) < 1e-12:
        return math.pi / 2.0
    return gamma_fn(2.0 - s) * math.cos(math.pi * s / 2.0) / (s * (1.0 - s))


def quad_kernel(beta, ly):
    """D_beta(y) = 2 int_0^inf (1 - cos yu) e^(-u^beta) du at y = e^ly by
    scipy quad alone (no series, no panels): the sin^2 form while [0, U],
    U = 40^(1/beta), holds few periods of cos(yu), else G(0) = 2 Gamma(1 +
    1/beta) less a QAWO cos-weighted integral over [0, U]. (QAWF, the
    cos-weighted integral to infinity, is not accurate enough at beta = 4.)"""
    U = 40.0 ** (1.0 / beta)
    g0 = 2.0 * gamma_fn(1.0 + 1.0 / beta)
    if ly > math.log(1e15):
        return g0
    y = math.exp(ly)
    with warnings.catch_warnings():  # quad flags roundoff near its tolerance floor
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if y * U < 50.0:
            return integrate.quad(lambda u: 4.0 * math.sin(0.5 * y * u) ** 2 * math.exp(-u ** beta),
                                  0.0, U, epsabs=0.0, epsrel=1e-12, limit=500)[0]
        c = integrate.quad(lambda u: math.exp(-u ** beta), 0.0, U, weight="cos", wvar=y,
                           epsabs=1e-14 * g0, epsrel=1e-12, limit=500)[0]
    return g0 - 2.0 * c


@functools.lru_cache(maxsize=None)
def quad_variogram(alpha0, hurst, x):
    """Var X(x) = 2/Gamma(2H+2) int e^(2Hv) [G1(0) D2 + (G2(0) - D2) D1] dv,
    D_i = D_beta_i(|x_i| e^(-lam_i v)), beta_i = 1/lam_i, by nested scipy
    quad over the whole v line with ``quad_kernel``. The tests check this
    reference against the closed forms on the axes and at alpha0 = 1."""
    lam = (alpha0, 2.0 - alpha0)
    g0 = [2.0 * gamma_fn(1.0 + l) for l in lam]
    lx = [math.log(abs(c)) for c in x]

    def f(v):
        D1, D2 = (quad_kernel(1.0 / lam[i], lx[i] - lam[i] * v) for i in (0, 1))
        bracket = g0[0] * D2 + (g0[1] - D2) * D1
        return math.exp(2.0 * hurst * v + math.log(bracket)) if bracket > 0.0 else 0.0

    turn = sorted(lx[i] / lam[i] for i in (0, 1))  # where each kernel turns over
    edges = [-math.inf, turn[0] - 10.0, turn[0], turn[1], turn[1] + 10.0, math.inf]
    with warnings.catch_warnings():  # quad flags roundoff near its tolerance floor
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        total = sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                    for a, b in zip(edges[:-1], edges[1:]) if b > a)
    return 2.0 / gamma_fn(2.0 * hurst + 2.0) * total


def equal_exponent_variogram(hurst, a, b):
    """Var X((a, b)) at alpha0 = 1 in closed form. There D(y) = 2y^2/(1 + y^2),
    and the v integral splits into partial fractions:
    4 pi / (Gamma(2H+2) sin(pi H)) (a^(2H+2) - b^(2H+2)) / (a^2 - b^2),
    written with expm1 so that it stays exact as a -> b."""
    p = 2.0 * hurst + 2.0
    a, b = max(a, b), min(a, b)
    L = math.log(a / b)
    ratio = b ** (p - 2.0) * math.expm1(p * L) / math.expm1(2.0 * L) if L > 0.0 else 0.5 * p * a ** (p - 2.0)
    return 4.0 * math.pi / (gamma_fn(p) * math.sin(math.pi * hurst)) * ratio


def reference_half_plane_modes(n):
    """(k1, k2) of the half-plane modes {k2 > 0} u {k2 = 0, k1 > 0}, k in
    (-n/2, n/2)^2, row-major in k1: the order of the draws."""
    half = n // 2
    rng_k = np.arange(-half + 1, half)
    K1, K2 = np.meshgrid(rng_k, rng_k, indexing="ij")
    sel = (K2 > 0) | ((K2 == 0) & (K1 > 0))
    return K1[sel], K2[sel]


def reference_spectral_coefficients(spec):
    """The original full-grid scatter, kept as the reference for the
    half-spectrum build: each half-plane mode and its conjugate at -k
    written into an n x n complex grid."""
    n = spec.grid_n
    amp = spectral_grid(spec)
    k1s, k2s = reference_half_plane_modes(n)
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    z = rng.standard_normal((k1s.size, 2))
    g = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
    C = np.zeros((n, n), dtype=complex)
    a = amp[k1s % n, k2s % n]
    C[k1s % n, k2s % n] = a * g
    C[(-k1s) % n, (-k2s) % n] = a * np.conj(g)
    return C


def reference_evaluate_at_points(spec, points):
    """The original point loop over the full Hermitian grid."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = spec.grid_n
    C = reference_spectral_coefficients(spec)
    k = np.fft.fftfreq(n, d=1.0 / n)
    y0 = C.sum()
    out = np.empty(pts.shape[0])
    for i, (x1, x2) in enumerate(pts):
        row = np.exp(1j * 2.0 * math.pi * k * x1)
        col = np.exp(1j * 2.0 * math.pi * k * x2)
        out[i] = (row @ C @ col - y0).real
    return out


def reference_monte_carlo(spec, a, x, reps):
    """The original Monte Carlo loop, one point evaluation per realization,
    over 16 base points; returns (ratio, ci_halfwidth)."""
    x = np.asarray(x, dtype=float)
    y = np.array([a ** spec.alpha0 * x[0], a ** (2.0 - spec.alpha0) * x[1]])
    rng = np.random.Generator(np.random.Philox(key=(spec.seed, 0x7a06)))
    k = 16
    box = np.maximum(0.0, 1.0 - np.maximum(x, y))
    taus = np.vstack([np.zeros(2), rng.uniform(0.0, 1.0, size=(k - 1, 2)) * box])
    pts = np.vstack([taus, taus + y, taus + x])
    u = np.empty(reps)
    w = np.empty(reps)
    for i in range(reps):
        vals = reference_evaluate_at_points(spec.with_seed(spec.seed + i), pts)
        base, at_y, at_x = vals[:k], vals[k:2 * k], vals[2 * k:]
        u[i] = np.mean((at_y - base) ** 2)
        w[i] = np.mean((at_x - base) ** 2)
    um, wm = u.mean(), w.mean()
    ratio = um / wm
    cov = np.cov(u, w)
    var_ratio = ratio ** 2 * (cov[0, 0] / um ** 2 + cov[1, 1] / wm ** 2
                              - 2.0 * cov[0, 1] / (um * wm)) / reps
    return ratio, 1.96 * math.sqrt(max(var_ratio, 0.0))


class TestSynthesize:
    def test_origin_is_exactly_zero(self):
        f = synthesize(FieldSpec.make(0.6, 0.4, grid_n=64, seed=5))
        assert f.values[0, 0] == 0.0

    def test_bit_identical_for_repeated_seed(self):
        spec = FieldSpec.make(0.6, 0.4, grid_n=128, seed=42)
        f1 = synthesize(spec)
        f2 = synthesize(spec)
        assert np.array_equal(f1.values, f2.values)

    def test_different_seeds_differ(self):
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=42)
        f1 = synthesize(spec)
        f2 = synthesize(spec.with_seed(43))
        assert not np.array_equal(f1.values, f2.values)

    @pytest.mark.parametrize("alpha0,hurst,n,seed", [(0.6, 0.4, 64, 11), (0.25, 0.2, 128, 3),
                                                     (1.4, 0.5, 256, 2024)])
    def test_coefficients_match_reference_scatter(self, alpha0, hurst, n, seed):
        spec = FieldSpec.make(alpha0, hurst, grid_n=n, seed=seed)
        C = spectral_coefficients(spec)
        ref = reference_spectral_coefficients(spec)
        assert np.array_equal(C == 0, ref == 0)
        assert_allclose(C, ref, rtol=1e-12, atol=0.0)

    def test_hermitian_symmetry_residue(self):
        spec = FieldSpec.make(0.6, 0.4, grid_n=128, seed=3)
        C = spectral_coefficients(spec)
        Y = np.fft.ifft2(C) * spec.grid_n ** 2
        assert np.max(np.abs(Y.imag)) < 1e-9 * np.max(np.abs(Y))

    def test_ensemble_needs_a_realization(self):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            synth.ensemble_specs(FieldSpec.make(0.6, 0.4, grid_n=64), 0)

    def test_ensemble_deterministic_and_parallel_consistent(self, monkeypatch):
        spec = FieldSpec.make(1.0, 0.5, grid_n=64, seed=9)
        monkeypatch.setattr(synth, "worker_count", lambda: 1)
        seq = synthesize_ensemble(spec, 4)
        monkeypatch.setattr(synth, "worker_count", lambda: 4)
        par = synthesize_ensemble(spec, 4)
        for a, b in zip(seq, par):
            assert np.array_equal(a.values, b.values)
        assert seq[1].spec.seed == spec.seed + 1

    def test_worker_count_env_cap(self, monkeypatch):
        from anisotex.synth import MAX_WORKERS, worker_count
        monkeypatch.setenv("ANISOTEX_THREADS", "1")
        assert worker_count() == 1
        monkeypatch.setenv("ANISOTEX_THREADS", "64")
        assert 1 <= worker_count() <= MAX_WORKERS
        monkeypatch.setenv("ANISOTEX_THREADS", "0")
        assert worker_count() == 1
        for unusable in ("not-a-number", ""):
            monkeypatch.setenv("ANISOTEX_THREADS", unusable)
            assert 1 <= worker_count() <= MAX_WORKERS
        monkeypatch.delenv("ANISOTEX_THREADS")
        assert 1 <= worker_count() <= MAX_WORKERS


_XG, _WG = np.polynomial.legendre.leggauss(10)


def gauss_panels(lo, hi):
    """10-point Gauss nodes and weights on the panels [lo, hi], flattened."""
    lo, hi = np.asarray(lo, dtype=float)[:, None], np.asarray(hi, dtype=float)[:, None]
    return (0.5 * (hi - lo) * _XG + 0.5 * (hi + lo)).ravel(), (0.5 * (hi - lo) * _WG).ravel()


def shifted_cells(k, n, periods):
    """Nodes and weights over the cells 2 pi (k + n m) + [-pi, pi], |m| <= periods,
    two panels each; the cell about 0 in 41 panels halving toward 0 (the
    cusp of |xi|^beta)."""
    c = 2 * math.pi * (k + n * np.arange(-periods, periods + 1))
    c = c[c != 0.0]
    x, w = gauss_panels(np.concatenate([c - math.pi, c]), np.concatenate([c, c + math.pi]))
    if k % n == 0:
        g = math.pi * 2.0 ** -np.arange(41.0)
        gx, gw = gauss_panels(np.append(g[1:], 0.0), g)
        x, w = np.concatenate([x, gx, -gx]), np.concatenate([w, gw, gw])
    return x, w


def shift_tails(k, n, periods):
    """The shifts |m| > periods of the cells of k, by Euler-Maclaurin in m
    from the midpoints X = L (periods + 1/2) +- 2 pi k before them:

        (1/L) int_{X-pi}^{X+pi} (xi - X + pi) f + (2 pi / L) int_{X+pi}^inf f
        + (L / 24) (f(X + pi) - f(X - pi)).

    Returns the node rule of the first term, and the points X + pi and X - pi."""
    L = 2 * math.pi * n
    X = L * (periods + 0.5) + 2 * math.pi * np.array([k, -k], dtype=float)
    x, w = gauss_panels(X - math.pi, X + math.pi)
    return x, w * (x - np.repeat(X - math.pi, _XG.size)) / L, X + math.pi, X - math.pi


def brute_force_mass(alpha0, hurst, n, k1, k2, periods=32):
    """Folded mass of cell (k1, k2), summed over the alias shifts without the
    Gamma-function identity of the build. The cells of the outer axis (the
    steeper weight, whose shifts decay fast) and their shifts |m| <= periods
    take Gauss nodes; at each node the inner sum over the other axis is
    Gauss over its shifted cells plus the per-node 1-D tails of
    ``shift_tails``, whose integral past X + pi is an incomplete beta in
    closed form. The outer tails integrate that per-node sum along
    xi = (X + pi) e^u, u in [0, 40 / decay rate]."""
    q, L = 2 * hurst + 2, 2 * math.pi * n
    lam = (alpha0, 2 - alpha0)
    a = 0 if lam[0] <= lam[1] else 1
    ka, kb = (k1, k2) if a == 0 else (k2, k1)
    ba, lb = 1 / lam[a], lam[1 - a]
    xi, wi = shifted_cells(kb, n, periods)
    ti, tw, right, left = shift_tails(kb, n, periods)

    def inner(y):  # sum over the inner cells at outer nodes y
        c = np.abs(y)[:, None] ** ba
        f = lambda x: (c + np.abs(x) ** (1 / lb)) ** -q
        past = lb * c ** (lb - q) * beta_fn(q - lb, lb) * betainc(q - lb, lb, c / (c + right ** (1 / lb)))
        return (f(xi) @ wi + f(ti) @ tw + 2 * math.pi / L * past.sum(axis=1)
                + L / 24 * (f(right) - f(left)).sum(axis=1))

    def outer(x, w):
        return sum(float(inner(x[i:i + 256]) @ w[i:i + 256]) for i in range(0, x.size, 256))

    xo, wo = shifted_cells(ka, n, periods)
    to, two, right_o, left_o = shift_tails(ka, n, periods)
    span = 40 * lam[a] / (2 * hurst)  # the outer sum decays as e^(-2H u / lam)
    u, wu = gauss_panels(np.arange(0.0, span), np.arange(1.0, span + 1))
    past = sum(2 * math.pi / L * outer(r * np.exp(u), wu * r * np.exp(u)) for r in right_o)
    return (outer(xo, wo) + outer(to, two) + past
            + L / 24 * float((inner(right_o) - inner(left_o)).sum()))


@np.errstate(over="ignore")
def per_chunk_axis_factor(lam, n, v):
    """``synth._axis_factor`` with its incomplete-gamma head and its
    Euler-Maclaurin tail computed chunk by chunk, a reference for the build
    that computes both once over the chunks' nodes (the tail once per
    period count). Each chunk sums M periods, M the largest over its nodes,
    and skips cells from its first node on. It takes the package's
    Gamma, incomplete gamma and Gauss values e^(t (-x^beta)): it checks the
    chunking, not the special functions."""
    beta, half, L = 1.0 / lam, n // 2, synth.TWO_PI * n
    g = math.gamma(1.0 + lam)
    ltau = v + beta * math.log(L)
    flat = ltau < math.log(synth._TAU_FLAT)
    bare = v + beta * math.log(math.pi) > math.log(synth._Z_SKIP)
    Q = np.zeros((v.size, half))
    Q[flat] = 2.0 * g / n
    Q[bare, 0] = 2.0 * g
    live = np.flatnonzero(~flat & ~bare)
    periods = np.array(synth._PERIODS)[
        np.searchsorted(np.log(synth._TAU_STEPS), ltau[live], side="right")]
    J0 = synth._J0
    j = np.arange(J0, (periods.max(initial=1) + 1) * n)
    x, w = synth._gauss_panel(synth.TWO_PI * (j - 0.5), synth.TWO_PI * (j + 0.5), synth._MASS_NODES)
    nxb = -x ** beta
    w, w1 = w[0], w[0] * (x[0] - synth.TWO_PI * (J0 - 0.5))
    le = beta * np.log(math.pi * (2.0 * np.arange(J0) + 1.0))
    k = np.arange(half)
    for c in range(0, live.size, synth._NODE_CHUNK):
        i, M = live[c:c + synth._NODE_CHUNK], int(periods[c:c + synth._NODE_CHUNK].max())
        lv = v[i, None]
        s = np.exp(lam * lv)
        cells = min((M + 1) * n, max(J0, int(math.exp((math.log(synth._Z_SKIP) - lv[0, 0]) / beta)
                                             / synth.TWO_PI) + 2))
        f = np.exp(np.exp(lv)[:, :, None] * nxb[:cells - J0])
        A = np.zeros((i.size, (M + 1) * n))
        A[:, J0:cells] = s * (f @ w)
        A[:, :J0] = np.diff(g * synth._gamma_inc(lam, np.exp(lv + le))[0], prepend=0.0)
        A = A.reshape(i.size, M + 1, n)
        S = A[:, :M].sum(axis=1)
        S[:, :half] += A[:, M, :half]
        P = S[:, k] + S[:, -k]
        if cells > M * n:
            row = A[:, M]
            e = synth.TWO_PI * (M * n + np.arange(n + 1) - 0.5)
            z = np.exp(np.minimum(lv + beta * np.log(e), 7.0))
            fe = np.exp(-z)
            d2 = beta * z * (beta * z - beta + 1.0) * fe / e ** 2
            right = np.pad(np.cumsum(row[:, :0:-1], axis=1)[:, ::-1], ((0, 0), (0, 1)))
            U = g * synth._gamma_inc(lam, z[:, -1:])[1] + right
            mom = np.zeros_like(row)
            mom[:, :cells - M * n] = s * (f[:, M * n - J0:] @ w1)
            tail = ((synth.TWO_PI * U + mom) / L
                    + s * (L / 24.0 * np.diff(fe, axis=1) - 7.0 * L ** 3 / 5760.0 * np.diff(d2, axis=1)))
            P += tail[:, half + k] + tail[:, half - k]
        Q[i] = P
    return Q


def mass_v_grid(alpha0, n):
    """Every v = ln t node of ``synth._quarter_mass`` at alpha0 and n."""
    lam, h = (alpha0, 2.0 - alpha0), synth._MASS_STEP
    lL = math.log(synth.TWO_PI * n)
    lo = math.floor(min(math.log(synth._TAU_FLAT) - lL / l for l in lam) / h)
    hi = math.ceil(max(math.log(synth._Z_SKIP) - math.log(math.pi) / l for l in lam) / h)
    return h * np.arange(lo, hi + 1)


def run_child(code, **env):
    """The stdout of ``code`` run in a fresh interpreter that imports this
    anisotex, with ``env`` set in its environment (None unsets a name)."""
    child = dict(os.environ)
    src = os.path.dirname(os.path.dirname(synth.__file__))
    child["PYTHONPATH"] = os.pathsep.join(filter(None, (src, child.get("PYTHONPATH"))))
    for name, value in env.items():
        if value is None:
            child.pop(name, None)
        else:
            child[name] = value
    return subprocess.run([sys.executable, "-c", code], env=child, capture_output=True,
                          text=True, check=True, timeout=120).stdout


# (0.3, 0.1) and (1.7, 0.2) are the slow-tail cases: small H, steep axis
MASS_SPECS = [(0.6, 0.4), (0.25, 0.2), (1.4, 0.5), (0.3, 0.1), (1.7, 0.2)]


class TestSpectralGrid:
    # cells checked against the reference builder ``brute_force_mass``; -1 is
    # the last index below Nyquist. (0, -1), (1, -1) and (3, 10) are where
    # the alias box build was off by 6.8%, 36% and 4.2% at n = 64; the
    # slow-tail specs take cells on the axes and off them, on the side of
    # either axis. The build agrees to 5e-9 at n = 64 and 128 and the sum is
    # converged to about 1e-9; (0, 2) at (1.4, 0.5) is the cell whose mass
    # moves most (2e-8) when cells near the origin take Gauss nodes instead
    # of incomplete gammas
    MASS_CELLS = {
        (0.6, 0.4): [(0, -1), (1, -1), (3, 10)],
        (0.25, 0.2): [(0, -1), (1, -1), (3, 10)],
        (1.4, 0.5): [(0, 2), (-1, 3)],
        (0.3, 0.1): [(0, -1), (5, 2), (-1, 0)],
        (1.7, 0.2): [(-1, 1), (-1, 0), (2, 7)],
        (1.0, 0.5): [(0, -1), (1, -1), (3, 10), (-1, -1)],
    }

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("alpha0,hurst", MASS_SPECS + [(1.0, 0.5)])
    def test_mass_matches_reference_builder(self, alpha0, hurst, n):
        mass = synth._unfold(synth._quarter_mass(alpha0, hurst, n), n)
        for k1, k2 in self.MASS_CELLS[alpha0, hurst]:
            k1, k2 = k1 % (n // 2), k2 % (n // 2)
            ref = brute_force_mass(alpha0, hurst, n, k1, k2)
            assert mass[k1, k2] == pytest.approx(ref, rel=1e-8), (k1, k2)

    # the build computes the head and the tails of the per-axis factor once
    # over all nodes, and each chunk keeps its own period count and skipped
    # cells: every factor equals the per-chunk reference bit for bit. The
    # field domain ends at alpha0 = 0.1 and 1.9 (beta = 10 on the steep axis)
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("alpha0", [a for a, _ in MASS_SPECS] + [1.0, 0.1, 1.9, 0.01, 1.99])
    def test_axis_factor_matches_per_chunk_reference(self, alpha0, n):
        if refused_below_floor(alpha0):
            return
        v = mass_v_grid(alpha0, n)
        for lam in (alpha0, 2.0 - alpha0):
            assert np.array_equal(synth._axis_factor(lam, n, v), per_chunk_axis_factor(lam, n, v))

    def test_brute_force_sum_converged(self):
        # more periods and the same cells: the reference moves by < 1e-8
        for k1, k2 in ((0, 31), (1, 31)):
            a, b = (brute_force_mass(0.25, 0.2, 64, k1, k2, periods=p) for p in (32, 64))
            assert a == pytest.approx(b, rel=1e-8)

    # at alpha0 = 0.1 and 1.9 the steep axis has beta = 10: the build
    # takes t, t^lam and t x^beta from logs, and no RuntimeWarning (an error
    # here) may escape; every cell but the origin and Nyquist holds mass
    @pytest.mark.parametrize("alpha0,hurst", MASS_SPECS + [(0.1, 0.005), (1.9, 0.005),
                                                           (0.01, 0.005), (1.99, 0.005)])
    def test_mass_exactly_even(self, alpha0, hurst):
        if refused_below_floor(alpha0):
            return
        n = 128
        mass = synth._unfold(synth._quarter_mass(alpha0, hurst, n), n)
        assert np.all(np.isfinite(mass))
        quarter = mass[:n // 2, :n // 2]  # k >= 0 below the Nyquist index
        assert quarter[0, 0] == 0.0 and np.all(quarter.ravel()[1:] > 0.0)
        neg = (-np.arange(n)) % n
        assert np.array_equal(mass, mass[neg][:, neg])

    # counts, not timings, bound the build at the floor: one product over
    # 413 v nodes at n = 4096 (mass_v_grid replicates the same range)
    def test_mass_v_grid_size_at_floor(self, monkeypatch):
        class Stop(Exception):
            pass

        sizes = []

        def axis_factor(lam, n, v):
            sizes.append(v.size)
            raise Stop

        monkeypatch.setattr(synth, "_axis_factor", axis_factor)
        with pytest.raises(Stop):
            synth._quarter_mass(0.1, 0.05, 4096)
        assert sizes == [413] == [mass_v_grid(0.1, 4096).size]

    def test_mass_cache_bounded(self):
        from anisotex.synth import _quarter_amplitudes
        cap = _quarter_amplitudes.cache_parameters()["maxsize"]
        assert cap is not None
        for i in range(cap + 3):
            _quarter_amplitudes(0.6, 0.3 + 0.01 * i, 32)
        assert _quarter_amplitudes.cache_info().currsize <= cap

    @pytest.mark.parametrize("n", [8, 64])
    def test_draw_blocks_enumerate_reference_modes(self, n):
        # the blocks, row-major one after the other, in (k1, k2), against
        # the mode order of reference_spectral_coefficients
        modes = []
        for rows, cols in synth._draw_blocks(n):
            k1 = np.where(rows < n // 2, rows, rows - n)
            k2 = np.arange(n // 2 + 1)[cols]
            modes += [(a, b) for a in k1.tolist() for b in k2.tolist()]
        k1s, k2s = reference_half_plane_modes(n)
        assert modes == list(zip(k1s.tolist(), k2s.tolist()))

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_block_draws_equal_half_spectrum(self, n, seed):
        # two realizations: the second reuses the buffer (and wraps the
        # seed from 2^64 - 1 to 0)
        spec = FieldSpec.make(0.6, 0.4, grid_n=n, seed=seed)
        specs = synth.ensemble_specs(spec, 2)
        assert specs[1].seed == (seed + 1) % 2 ** 64
        for s, zs in zip(specs, synth._block_draws(specs)):
            H = synth._half_spectrum(s)
            for z, (rows, cols) in zip(zs, synth._draw_blocks(n)):
                assert np.array_equal(z, H[rows, cols])

    def test_repeated_key_not_rebuilt(self):
        from anisotex.synth import _quarter_amplitudes
        first = _quarter_amplitudes(0.6, 0.35, 32)
        misses = _quarter_amplitudes.cache_info().misses
        assert _quarter_amplitudes(0.6, 0.35, 32) is first
        assert _quarter_amplitudes.cache_info().misses == misses
        assert not first.flags.writeable  # shared by every caller

    def test_cache_holds_quarter_amplitudes(self):
        # the cache keeps the (n/2 + 1)^2 square roots of the quarter, and
        # the full grid unfolds from it to the square roots of the masses
        from anisotex.synth import _quarter_amplitudes
        amp = _quarter_amplitudes(0.6, 0.4, 64)
        assert amp.shape == (33, 33)
        assert np.array_equal(synth._unfold(amp, 64),
                              np.sqrt(synth._unfold(synth._quarter_mass(0.6, 0.4, 64), 64)))

    # results must not depend on the BLAS thread count: at alpha0 = 0.08 and
    # n = 1024 the product has 440 v nodes, where the last bits of one
    # threaded product moved with OPENBLAS_NUM_THREADS
    def test_mass_independent_of_blas_threads(self):
        code = ("import hashlib; from anisotex import synth; "
                "print(hashlib.sha256(synth._quarter_mass(0.08, 0.04, 1024).tobytes()).hexdigest())")
        assert run_child(code, OPENBLAS_NUM_THREADS="1") == run_child(code, OPENBLAS_NUM_THREADS=None)

    # a product large enough for OpenBLAS to spread over its threads left one
    # thread spinning after it returned (120 ms of CPU in the 0.3 s below on
    # 2 cores); the tiled product runs on the calling thread. The first sleep
    # lets any spin from the child's import end
    def test_no_blas_thread_left_spinning(self):
        pytest.importorskip("resource")
        code = ("import resource, time; from anisotex import synth\n"
                "cpu = lambda: sum(resource.getrusage(resource.RUSAGE_SELF)[:2])\n"
                "time.sleep(0.5); synth._quarter_mass(0.6, 0.3999999, 256)\n"
                "c = cpu(); time.sleep(0.3); print(cpu() - c)")
        assert float(run_child(code)) < 0.03

    def test_ensemble_builds_grid_once(self):
        from anisotex.synth import _quarter_amplitudes
        _quarter_amplitudes.cache_clear()
        synthesize_ensemble(FieldSpec.make(0.8, 0.45, grid_n=64, seed=3), 6)
        info = _quarter_amplitudes.cache_info()
        assert info.misses == 1
        assert info.hits == 6

    def test_synthesis_builds_no_amplitude_grid(self, monkeypatch):
        # a realization takes square roots of the n/2 + 1 mass columns it
        # reads; the full n x n amplitude grid is built by spectral_grid alone
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=2)
        first = synthesize(spec).values
        monkeypatch.setattr(synth, "spectral_grid", lambda s: pytest.fail("amplitude grid built"))
        assert np.array_equal(synthesize(spec).values, first)
        synthesize_ensemble(spec, 3)
        evaluate_at_points(spec, [(0.1, 0.2)])
        monte_carlo_scaling_check(spec, 2.0, (0.2, 0.1), 50)

    def test_amplitude_invariants(self):
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=0)
        A = spectral_grid(spec)
        n = 64
        assert A[0, 0] == 0.0
        assert np.all(np.isfinite(A))
        assert np.all(A >= 0.0)
        # evenness A(-k) = A(k) away from the (zeroed) Nyquist row/column
        for k1 in range(-31, 32):
            for k2 in range(-31, 32):
                assert A[k1 % n, k2 % n] == pytest.approx(A[(-k1) % n, (-k2) % n], rel=1e-12)

    def test_nyquist_zeroed(self):
        spec = FieldSpec.make(1.0, 0.5, grid_n=64, seed=0)
        A = spectral_grid(spec)
        assert np.all(A[32, :] == 0.0)
        assert np.all(A[:, 32] == 0.0)


class TestEvaluateAtPoints:
    def test_rows_are_single_realizations(self):
        # row i is the realization with seed spec.seed + i mod 2^64, bit for bit
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=2 ** 64 - 2)
        pts = np.random.default_rng(4).uniform(size=(7, 2))
        vals = synth._values_at(spec, pts, 3)
        for i, seed in enumerate((2 ** 64 - 2, 2 ** 64 - 1, 0)):
            assert np.array_equal(vals[i], evaluate_at_points(spec.with_seed(seed), pts))

    @pytest.mark.parametrize("points", [[(0.1, 0.2, 0.3)], [(0.1,)], 0.5, [(math.nan, 0.2)]])
    def test_malformed_points_rejected(self, points):
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=1)
        with pytest.raises(ValueError, match="points"):
            evaluate_at_points(spec, points)

    def test_single_point_shape(self):
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=1)
        one = evaluate_at_points(spec, (0.1, 0.2))
        assert one.shape == (1,)
        assert np.array_equal(one, evaluate_at_points(spec, [(0.1, 0.2)]))

    def test_matches_lattice_values(self):
        # every lattice point of the field, the origin included
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=17)
        f = synthesize(spec)
        i1, i2 = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
        pts = np.column_stack([i1.ravel(), i2.ravel()]) / 64
        vals = evaluate_at_points(spec, pts).reshape(64, 64)
        scale = np.max(np.abs(f.values))
        assert_allclose(vals, f.values, rtol=0.0, atol=1e-12 * scale)

    def test_matches_reference_loop(self):
        spec = FieldSpec.make(1.4, 0.5, grid_n=128, seed=5)
        pts = np.random.default_rng(3).uniform(size=(40, 2))
        ref = reference_evaluate_at_points(spec, pts)
        vals = evaluate_at_points(spec, pts)
        assert_allclose(vals, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))


class TestGaussPanel:
    def test_panels_broadcast(self):
        lo, hi = np.array([0.0, 1.0, -3.0]), np.array([2.0, 1.5, 5.0])
        x, w = synth._gauss_panel(lo, hi, 7)
        assert x.shape == w.shape == (3, 7)
        for i in range(3):
            xi, wi = synth._gauss_panel(lo[i], hi[i], 7)
            assert np.array_equal(x[i], xi) and np.array_equal(w[i], wi)
            assert w[i].sum() == pytest.approx(hi[i] - lo[i], rel=1e-14)
            assert (w[i] * xi ** 5).sum() == pytest.approx((hi[i] ** 6 - lo[i] ** 6) / 6, rel=1e-12)


EPS = np.finfo(float).eps
GAMMA_X = np.concatenate([np.geomspace(1e-300, 1e3, 601), np.linspace(0.5, 10.0, 96)])


def scaled_error(got, ref, a, x):
    """|got - ref| in units of eps (1 + |a ln x - x|) ref: scipy forms
    x^a e^-x as e^(a ln x - x - ln Gamma(a)), whose rounding grows so."""
    return np.abs(got - ref) / (EPS * (1.0 + np.abs(a * np.log(x) - x)) * ref)


class TestSpecialFunctions:
    # synth computes Gamma, ln Gamma and B with math and the regularized
    # incomplete gammas itself; scipy.special is the reference. Largest
    # differences measured over these arguments, in the units of
    # scaled_error: P 11 and Q on the fraction side 20 (there scipy is the
    # one off: at a = 0.25, x = 1.25 it is 1.5e-14 from 30-digit values, the
    # package 3e-16); Q = 1 - P on the series side, 19 eps absolute. The
    # bounds below are 16, 32 and 32.
    @pytest.mark.parametrize("a", np.linspace(0.1, 1.9, 37))
    def test_gamma_inc_at_build_orders(self, a):
        # the build's lam over x = 0, 1e-300..1e3 and both sides of the
        # switch from the series (x < a + 1) to the continued fraction
        x = np.concatenate([[0.0], GAMMA_X, (a + 1.0) * (1.0 + np.array([-1e-6, -1e-15, 0.0, 1e-15, 1e-6]))])
        P, Q = synth._gamma_inc(a, x)
        assert P[0] == 0.0 and Q[0] == 1.0
        P, Q, x = P[1:], Q[1:], x[1:]
        rP, rQ = gammainc(a, x), gammaincc(a, x)
        p = rP > 0.0  # not below scipy's underflow at x near 1e-300
        assert np.all(scaled_error(P[p], rP[p], a, x[p]) <= 16.0) and np.all(P[~p] < 1e-300)
        f = (x >= a + 1.0) & (rQ > 1e-300)  # the fraction side
        assert np.all(scaled_error(Q[f], rQ[f], a, x[f]) <= 32.0)
        assert np.all(np.abs(Q - rQ)[x < a + 1.0] <= 32.0 * EPS)
        assert np.all(Q[x >= 800.0] == 0.0) and np.all(rQ[x >= 800.0] == 0.0)

    @pytest.mark.parametrize("a", np.linspace(0.1, 5.7, 57))
    def test_gamma_inc_at_oracle_point(self, a):
        # the oracle's bound on u^beta > 40 takes Q(1/beta, 40) and Q(3/beta, 40)
        P, Q = synth._gamma_inc(a, np.array([40.0]))
        assert scaled_error(Q, gammaincc(a, 40.0), a, 40.0)[0] <= 32.0
        assert abs(P[0] - gammainc(a, 40.0)) <= EPS

    @pytest.mark.parametrize("a", [0.1, 0.6, 1.0, 1.9, 5.7])
    def test_gamma_inc_values_stand_alone(self, a):
        # each value is the same bit for bit in a call of its own: the build's
        # one call and the per-chunk reference's calls agree
        x = np.concatenate([[0.0], GAMMA_X])
        P, Q = synth._gamma_inc(a, x)
        for i in range(0, x.size, 7):
            p, q = synth._gamma_inc(a, x[i:i + 1])
            assert p[0] == P[i] and q[0] == Q[i]

    @pytest.mark.parametrize("lam", np.linspace(0.1, 1.9, 19))
    def test_kernel_terms(self, lam):
        # the oracle's per-beta constants: logs within 4 eps of the size of
        # their two terms, G(0) and the bounds on u^beta > 40 within 40 eps
        beta = 1.0 / lam
        g0, taylor, asymptotic, (far1, far3) = synth._kernel_terms(beta)
        j = np.arange(1.0, synth._TAYLOR_TERMS + 2)
        k = np.arange(1.0, synth._SERIES_TERMS + 1)
        for got, one, two in ((taylor, gammaln((2.0 * j + 1.0) / beta), gammaln(2.0 * j + 1.0)),
                              (asymptotic - math.log(2.0), gammaln(k * beta + 1.0), gammaln(k + 1.0))):
            assert np.all(np.abs(got - (one - two)) <= 4.0 * EPS * (1.0 + np.abs(one) + two))
        assert g0 == pytest.approx(2.0 * gamma_fn(1.0 + lam), rel=4.0 * EPS, abs=0.0)
        assert far1 == pytest.approx(4.0 * lam * gamma_fn(lam) * gammaincc(lam, 40.0), rel=40.0 * EPS, abs=0.0)
        assert far3 == pytest.approx(lam * gamma_fn(3.0 * lam) * gammaincc(3.0 * lam, 40.0), rel=40.0 * EPS, abs=0.0)

    @pytest.mark.parametrize("alpha0", [0.1, 0.6, 1.0, 1.4, 1.9])
    def test_axis_closed_form(self, alpha0):
        # Gamma and B of the axis variogram at every axis and H of the domain
        for hurst in np.linspace(0.005, 0.99 * min(alpha0, 2.0 - alpha0), 9):
            for axis in (0, 1):
                assert synth._axis_variogram(alpha0, hurst, axis, 0.3) == pytest.approx(
                    axis_oracle(alpha0, hurst, axis, 0.3), rel=16.0 * EPS, abs=0.0)


class TestNumpyOnly:
    # the package imports numpy and the standard library alone: scipy's
    # import took most of every CLI call's start-up
    def test_import_loads_no_scipy(self):
        code = ("import sys, anisotex, anisotex.cli\n"
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
        assert run_child(code).strip() == "[]"

    def test_runs_with_scipy_blocked(self):
        # sys.modules["scipy"] = None makes every scipy import raise; the
        # oracle and the 64^2 build run at a spec nothing has built before
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from anisotex import FieldSpec, cli, spectral_grid, variogram_oracle\n"
                "assert cli.main(['selftest', '--quick']) == 0\n"
                "spec = FieldSpec.make(0.7, 0.3, grid_n=64)\n"
                "print(variogram_oracle(spec, (0.25, 0.25)) > 0.0, spectral_grid(spec).shape)\n")
        assert run_child(code).splitlines()[-1] == "True (64, 64)"


class TestVariogramOracle:
    def test_zero_at_origin(self):
        spec = FieldSpec.make(0.6, 0.4, grid_n=64)
        assert variogram_oracle(spec, (0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("alpha0,hurst", [
        (0.6, 0.4), (1.0, 0.5), (1.4, 0.5), (1.0, 0.99), (0.25, 0.2), (1.7, 0.2),
    ])
    def test_quadrature_matches_independent_closed_form(self, alpha0, hurst):
        # push the quadrature path (nonzero second coordinate) against the
        # independently derived axis formula. At alpha0 = 0.25 and 1.7 an
        # offset of 1e-9 moves the true Var itself by up to 3e-3 and 4e-5
        # (linearly in the offset), so those take 1e-15
        spec = FieldSpec.make(alpha0, hurst, grid_n=64)
        off = 1e-15 if alpha0 in (0.25, 1.7) else 1e-9
        for r in (0.25, 0.5, 1.0):
            quad = variogram_oracle(spec, (r, off))
            ref = axis_oracle(alpha0, hurst, 0, r)
            assert quad == pytest.approx(ref, rel=1e-8)
            quad2 = variogram_oracle(spec, (off, r))
            ref2 = axis_oracle(alpha0, hurst, 1, r)
            assert quad2 == pytest.approx(ref2, rel=1e-8)

    @pytest.mark.parametrize("alpha0", [0.25, 0.6, 1.0, 1.7])
    def test_kernels_match_quad(self, alpha0):
        # both kernels of the spec, through the small-y series, the Gauss
        # panels and the large-y series
        ly = np.linspace(-12.0, 12.0, 49)
        for beta in (1.0 / alpha0, 1.0 / (2.0 - alpha0)):
            D, err = synth._kernel(beta, ly)
            ref = np.array([quad_kernel(beta, v) for v in ly])
            assert_allclose(D, ref, rtol=1e-11, atol=0.0)
            assert np.all(err <= 1e-12 * D)

    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_kernel_estimate_covers_error(self, beta):
        # beta = 1: D = 2y^2/(1+y^2); beta = 2: sqrt(pi)(1 - e^(-y^2/4));
        # beta = 4 (alpha0 = 0.25): the large-y series is 0, and the Gauss
        # rule must run until G(y) is below the tolerance
        ly = np.linspace(-15.0, 15.0, 301)
        D, err = synth._kernel(beta, ly)
        y = np.exp(ly)
        if beta == 1.0:
            exact = 2.0 * y ** 2 / (1.0 + y ** 2)
        elif beta == 2.0:
            exact = -math.sqrt(math.pi) * np.expm1(-0.25 * y ** 2)
        else:
            exact = np.array([quad_kernel(beta, v) for v in ly])
            err = err + 1e-12 * exact  # the quad reference's own tolerance
        assert np.all(np.abs(D - exact) <= err)

    @pytest.mark.parametrize("beta", [1.0 / 0.6, 1.0 / 1.4, 4.0, 1.0 / 1.7, 10.0, 1.0 / 1.9, 100.0])
    def test_kernel_table_matches_gauss(self, beta):
        # the per-beta table against direct Gauss at 2000 random points of the
        # span of a fine ln y grid where neither series reaches _TOL. The table
        # covers that span; beta = 10 and 1/1.9 are the ends of the field
        # domain. Beyond it, at beta = 100 (alpha0 = 0.01), the span outruns
        # the panel budget, and the table raises rather than leave points out
        if beta == 100.0:
            assert refused_below_floor(1.0 / beta)
            with pytest.raises(RuntimeError, match="more than 63 panels"):
                synth._kernel_range.__wrapped__(beta)
            return
        lo, hi, _, _ = table = synth._kernel_range(beta)[2]
        assert np.all(lo[1:] >= hi[:-1])
        grid = np.linspace(-20.0, 60.0, 8001)
        mid = grid[np.isnan(synth._series(beta, grid)[0])]
        ly = np.random.default_rng(20).uniform(mid.min(), mid.max(), 2000)
        p = np.searchsorted(lo, ly, side="right") - 1
        assert np.all((p >= 0) & (ly <= hi[p]))
        D, err = synth._mid_kernel(beta, ly, table)
        gauss = np.concatenate([synth._gauss_kernel(beta, np.exp(ly[i:i + 24]))
                                for i in range(0, ly.size, 24)])
        assert np.all(np.abs(D - gauss) <= np.minimum(err, 1e-13 * gauss))

    def test_table_raises_when_budget_cut(self, monkeypatch):
        # beta = 10 fills 37 panels; a table is never returned partial
        monkeypatch.setattr(synth, "_CHEB_PANELS", 36)
        with pytest.raises(RuntimeError, match="more than 36 panels"):
            synth._kernel_range.__wrapped__(10.0)

    def test_table_fills_within_budget_at_floor(self, monkeypatch):
        # counts, not timings: the table of beta = 10 (alpha0 = 0.1 or 1.9)
        # takes at most _CHEB_PANELS Gauss fills of 24 points
        calls = []
        gauss_kernel = synth._gauss_kernel
        monkeypatch.setattr(synth, "_gauss_kernel", lambda beta, y: calls.append(y.size) or gauss_kernel(beta, y))
        synth._kernel_range.__wrapped__(10.0)
        assert 0 < len(calls) <= synth._CHEB_PANELS and set(calls) == {synth._CHEB_NODES}

    @pytest.mark.parametrize("beta", [2.0, 4.0, 10.0])
    def test_kernel_range_upper_end(self, beta):
        # y_hi is the first point of the ln y grid (step 1/4) from which
        # D = G(0) - G(y) is G(0) within sqrt(_TOL) G(0), judged from the
        # table where neither series reaches _TOL; direct Gauss agrees
        g0 = 2.0 * gamma_fn(1.0 + 1.0 / beta)
        ly_hi = synth._kernel_range(beta)[1]
        gap = np.abs(g0 - synth._gauss_kernel(beta, np.exp([ly_hi, ly_hi - 0.25])))
        assert gap[0] < math.sqrt(synth._TOL) * g0 < gap[1]

    def test_second_call_integrates_nothing(self, monkeypatch):
        # the first call at a new exponent builds its table; later calls read it
        spec = FieldSpec.make(0.6, 0.4, grid_n=64)
        first = variogram_oracle(spec, (0.25, 0.25))
        calls = []
        gauss_kernel = synth._gauss_kernel
        monkeypatch.setattr(synth, "_gauss_kernel", lambda beta, y: calls.append(y) or gauss_kernel(beta, y))
        assert variogram_oracle(spec, (0.25, 0.25)) == first
        variogram_oracle(spec, (2 ** 0.6 * 0.1, 2 ** 1.4 * 0.3))
        assert calls == []

    @pytest.mark.parametrize("x", [(0.1, 0.2, 0.3), (0.1,), 5, [(0.1, 0.2)], (math.nan, 0.2),
                                   (math.inf, 0.2), (1e200, 0.2), (1e-300, 1e-300), (0.2, 1e-21)])
    def test_malformed_x_rejected(self, x):
        spec = FieldSpec.make(0.6, 0.4, grid_n=64)
        with pytest.raises(ValueError, match="^x "):
            variogram_oracle(spec, x)

    @pytest.mark.parametrize("alpha0,hurst", [(0.6, 0.4), (1.9, 0.005), (1.99, 0.005)])
    def test_range_ends_finite(self, alpha0, hurst):
        # the largest and smallest coordinates the oracle takes; RuntimeWarning
        # is an error in this suite
        if refused_below_floor(alpha0):
            return
        spec = FieldSpec.make(alpha0, hurst, grid_n=64)
        for x in ((1e20, 1e-20), (1e-20, 1e-20), (-1e20, 1e20), (0.0, 1e-20)):
            value, bound = synth._variogram(spec, x)
            assert math.isfinite(value) and 0.0 < value and bound <= 1e-6 * value

    def test_quad_reference_matches_closed_forms(self):
        assert quad_variogram(1.0, 0.5, (0.3, 0.2)) == pytest.approx(
            equal_exponent_variogram(0.5, 0.3, 0.2), rel=1e-11)
        assert quad_variogram(0.6, 0.4, (0.25, 1e-15)) == pytest.approx(
            axis_oracle(0.6, 0.4, 0, 0.25), rel=1e-11)
        assert quad_variogram(0.6, 0.4, (1e-15, 0.25)) == pytest.approx(
            axis_oracle(0.6, 0.4, 1, 0.25), rel=1e-11)

    def test_scaling_identity(self):
        # v(a^E x) = a^{2H} v(x), exact for the continuum model
        spec = FieldSpec.make(0.6, 0.4, grid_n=64)
        for a in (0.5, 2.0, 4.0):
            for x in ((0.25, 0.25), (0.1, 0.3)):
                y = (a ** 0.6 * x[0], a ** 1.4 * x[1])
                lhs = variogram_oracle(spec, y)
                rhs = a ** 0.8 * variogram_oracle(spec, x)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("alpha0,hurst", [(0.3, 0.2), (1.7, 0.2), (0.25, 0.15)])
    def test_scaling_identity_extreme_anisotropy(self, alpha0, hurst):
        # small hurst puts mass far out in v; small min-eigenvalue makes one
        # kernel turn over slowly in v
        spec = FieldSpec.make(alpha0, hurst, grid_n=64)
        lam1, lam2 = alpha0, 2 - alpha0
        a = 4.0
        for x in ((0.25, 0.25), (0.1, 0.3)):
            y = (a ** lam1 * x[0], a ** lam2 * x[1])
            lhs = variogram_oracle(spec, y)
            rhs = a ** (2 * hurst) * variogram_oracle(spec, x)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("alpha0,hurst,x", [
        (0.6, 0.4, (0.25, 0.25)), (0.25, 0.15, (0.25, 0.25)), (1.7, 0.2, (0.1, 0.3)),
        (1.2, 0.15, (0.3, 0.2)), (0.8, 0.1, (0.3, 0.2)), (1.0, 0.5, (0.3, 0.2)),
        (1.0, 0.3, (0.1, 0.25)),
    ])
    def test_matches_reference_within_bound(self, alpha0, hurst, x):
        spec = FieldSpec.make(alpha0, hurst, grid_n=64)
        value, bound = synth._variogram(spec, x)
        ref = quad_variogram(alpha0, hurst, x)
        assert variogram_oracle(spec, x) == value
        assert abs(value - ref) <= bound <= 1e-6 * value
        assert value == pytest.approx(ref, rel=1e-8)

    def test_small_hurst_within_bound_of_reference(self):
        spec = FieldSpec.make(0.8, 0.1, grid_n=64)
        value, bound = synth._variogram(spec, (0.1, 0.2))
        assert abs(value - quad_variogram(0.8, 0.1, (0.1, 0.2))) <= bound <= 1e-6 * value

    @pytest.mark.parametrize("alpha0,hurst", [(0.1, 0.005), (1.9, 0.005), (1.9, 0.001),
                                              (0.01, 0.005), (1.99, 0.005), (1.99, 0.001)])
    def test_extreme_anisotropy_finite(self, alpha0, hurst):
        # one kernel turns over across hundreds of v nodes; RuntimeWarning
        # is an error in this suite, so no overflow may occur on the way
        if refused_below_floor(alpha0):
            return
        value, bound = synth._variogram(FieldSpec.make(alpha0, hurst, grid_n=64), (0.2, 0.3))
        assert math.isfinite(value) and 0.0 < bound <= 1e-6 * value

    def test_bound_small_at_criterion_3_probes(self):
        spec = FieldSpec.make(0.6, 0.4, grid_n=64)
        for a in (1.0, 0.5, 2.0, 4.0):
            for x in ((0.25, 0.25), (0.1, 0.3)):
                y = (a ** 0.6 * x[0], a ** 1.4 * x[1])
                value, bound = synth._variogram(spec, y)
                ref = quad_variogram(0.6, 0.4, y)
                assert abs(value - ref) <= bound <= 1e-6 * value
                assert value == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("a,b", [(0.3, 0.2), (0.2, 0.2), (0.2, 0.2 + 1e-9), (1e-3, 0.5)])
    @pytest.mark.parametrize("hurst", [0.3, 0.5])
    def test_equal_exponents_closed_form(self, a, b, hurst):
        # alpha0 = 1: both kernels are 2y^2/(1 + y^2), and the variogram
        # has a closed form (``equal_exponent_variogram``)
        value, bound = synth._variogram(FieldSpec.make(1.0, hurst, grid_n=64), (a, b))
        exact = equal_exponent_variogram(hurst, a, b)
        assert abs(value - exact) <= bound
        assert value == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("alpha0,hurst", [(0.6, 0.4), (1.7, 0.2)])
    def test_endpoint_stubs(self, alpha0, hurst):
        # on an axis _variogram returns the closed form with a zero bound;
        # the integral tends to it as the other coordinate vanishes
        spec = FieldSpec.make(alpha0, hurst, grid_n=64)
        for axis in (0, 1):
            exact = axis_oracle(alpha0, hurst, axis, 0.3)
            on_axis = synth._variogram(spec, (0.3, 0.0) if axis == 0 else (0.0, 0.3))
            assert on_axis[0] == pytest.approx(exact, rel=1e-13) and on_axis[1] == 0.0
            gaps = [abs(variogram_oracle(spec, (0.3, off) if axis == 0 else (off, 0.3)) - exact)
                    for off in (1e-6, 1e-9, 1e-12, 1e-15)]
            # each 1000-fold smaller offset cuts the gap 100-fold, down to rounding
            assert all(g1 <= max(1e-2 * g0, 1e-13 * exact) for g0, g1 in zip(gaps, gaps[1:]))
            assert gaps[-1] <= 1e-10 * exact

    def test_ladder_reaches_its_last_shell(self):
        # small hurst, far out in v. Pinned from quad_variogram, which reads
        # 15.6962945795 here; the polar-coordinate oracle read 15.69547
        spec = FieldSpec.make(1.2, 0.15, grid_n=64)
        assert variogram_oracle(spec, (0.1, 0.2)) == pytest.approx(15.6962945795, rel=1e-10)

    def test_isotropic_power_law(self):
        spec = FieldSpec.make(1.0, 0.5, grid_n=64)
        c = variogram_oracle(spec, (1.0, 0.0))
        assert variogram_oracle(spec, (0.5, 0.0)) == pytest.approx(c * 0.5, rel=1e-9)

    def test_brute_riemann_sanity(self):
        # truncated midpoint Riemann sum; low accuracy, but independent of
        # every quadrature choice in the library
        alpha0, hurst = 0.6, 0.4
        spec = FieldSpec.make(alpha0, hurst, grid_n=64)
        x = (0.25, 0.25)
        M, step = 3000, 0.5
        k = np.arange(-M, M + 1)
        X1, X2 = np.meshgrid(step * (k + 0.5), step * (k + 0.5), indexing="ij")
        rho = np.abs(X1) ** (1 / alpha0) + np.abs(X2) ** (1 / (2 - alpha0))
        ph = x[0] * X1 + x[1] * X2
        brute = float(np.sum(4 * np.sin(ph / 2) ** 2 * rho ** (-2 * (hurst + 1)))) * step ** 2
        quad = variogram_oracle(spec, x)
        # brute misses the tail beyond |xi| = 1500, so it must come in low
        assert brute < quad < brute * 1.12

    def test_even_in_each_coordinate(self):
        spec = FieldSpec.make(0.6, 0.4, grid_n=64)
        v = variogram_oracle(spec, (0.2, 0.3))
        assert variogram_oracle(spec, (-0.2, 0.3)) == pytest.approx(v, rel=1e-12)
        assert variogram_oracle(spec, (0.2, -0.3)) == pytest.approx(v, rel=1e-12)

    def test_expected_directional_slopes_deterministic(self):
        # no Monte Carlo: the expected structure function of the lattice
        # model is a weighted sum of the folded masses; its log-log slope
        # must match the continuum exponent hurst / lambda. Guards the
        # alias-folding numerics directly.
        for alpha0, hurst in ((0.6, 0.4), (1.0, 0.5)):
            spec = FieldSpec.make(alpha0, hurst, grid_n=256)
            mass = spectral_grid(spec) ** 2
            k = np.fft.fftfreq(256, d=1.0 / 256)
            for axis, lam in ((0, alpha0), (1, 2.0 - alpha0)):
                col = mass.sum(axis=1 - axis)
                ms = [4, 6, 8, 12, 16, 24, 32]
                t = np.array([m / 256 for m in ms])
                s = np.array([float(np.sum(col * 4 * np.sin(np.pi * k * m / 256) ** 2))
                              for m in ms])
                slope = np.polyfit(np.log(t), np.log(s), 1)[0]
                assert slope / 2 == pytest.approx(hurst / lam, abs=0.035)

    def test_lattice_variance_matches_oracle_at_small_lags(self):
        # deterministic form of the synthesis-correctness criterion: the
        # exact lattice variance (sum of folded masses times the increment
        # factor) sits within a few percent of the continuum oracle at the
        # interior probe points
        spec = FieldSpec.make(0.6, 0.4, grid_n=256)
        mass = spectral_grid(spec) ** 2
        k = np.fft.fftfreq(256, d=1.0 / 256)
        for (i, j) in ((24, 40), (32, 32), (32, 48)):
            x = (i / 256, j / 256)
            ph = 2 * np.pi * (k[:, None] * x[0] + k[None, :] * x[1])
            lattice = float(np.sum(mass * 4 * np.sin(ph / 2) ** 2))
            oracle = variogram_oracle(spec, x)
            assert lattice == pytest.approx(oracle, rel=0.05)
        # not so along the steep axis (lam = alpha0): over the fit window
        # [4/n, 1/8] the lattice, which lacks the zero-frequency cell, is
        # 3.0% low at m = 4 and 13.1% low at m = 32
        col = mass.sum(axis=1)
        for m, deficit in ((4, 0.0302), (32, 0.1309)):
            lattice = float(np.sum(col * 4 * np.sin(np.pi * k * m / 256) ** 2))
            oracle = variogram_oracle(spec, (m / 256, 0.0))
            assert (oracle - lattice) / oracle == pytest.approx(deficit, abs=2e-4)

    def test_known_infrared_deficit_at_large_lags(self):
        # documented limitation: the periodic lattice model cannot carry
        # the zero-frequency cell's mass, so the model variance at large
        # lags sits well below the continuum oracle (deterministic check,
        # no Monte Carlo). Estimation therefore never uses such lags.
        spec = FieldSpec.make(1.0, 0.5, grid_n=256)
        A = spectral_grid(spec)
        k = np.fft.fftfreq(256, d=1.0 / 256)
        x = (0.5, 0.5)
        ph = 2 * np.pi * (k[:, None] * x[0] + k[None, :] * x[1])
        lattice_var = float(np.sum(A ** 2 * 4 * np.sin(ph / 2) ** 2))
        oracle = variogram_oracle(spec, x)
        deficit = (oracle - lattice_var) / oracle
        assert 0.25 < deficit < 0.55


class TestMonteCarloScaling:
    def test_unit_scale_is_exactly_one(self):
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=1)
        res = monte_carlo_scaling_check(spec, 1.0, (0.2, 0.2), 60)
        assert res.ratio == 1.0
        assert res.ci_halfwidth == 0.0

    def test_origin_is_exactly_one(self):
        # x = 0 gives a^E x = x, with no increment to average: no 0/0
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=1)
        res = monte_carlo_scaling_check(spec, 2.0, (0.0, 0.0), 50)
        assert (res.ratio, res.ci_halfwidth) == (1.0, 0.0)

    def test_quick_ratio(self):
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=31)
        res = monte_carlo_scaling_check(spec, 2.0, (0.15, 0.1), 80)
        assert res.target == pytest.approx(2.0 ** 0.8)
        assert res.ratio == pytest.approx(res.target, rel=0.2)

    @pytest.mark.parametrize("a,x", [(2.0, (0.2, 0.1)), (4.0, (0.08, 0.03)), (0.5, (0.2, 0.2))])
    def test_matches_reference_loop(self, a, x):
        # the criterion-3 probes, at a small grid
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=901)
        res = monte_carlo_scaling_check(spec, a, x, 50)
        ratio, ci = reference_monte_carlo(spec, a, x, 50)
        assert res.ratio == pytest.approx(ratio, rel=1e-12)
        assert res.ci_halfwidth == pytest.approx(ci, rel=1e-12)

    def test_out_of_domain_point_rejected(self):
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=1)
        with pytest.raises(ValueError, match="outside"):
            monte_carlo_scaling_check(spec, 4.0, (0.5, 0.5), 60)

    def test_reps_floor(self):
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=1)
        with pytest.raises(ValueError, match="reps"):
            monte_carlo_scaling_check(spec, 2.0, (0.1, 0.1), 10)

    @pytest.mark.parametrize("a", [0.0, -1.0, math.nan])
    def test_nonpositive_scale_rejected(self, a):
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=1)
        with pytest.raises(ValueError, match="scale a must be positive"):
            monte_carlo_scaling_check(spec, a, (0.2, 0.1), 50)

    @pytest.mark.parametrize("x", [(0.2, 0.1, 0.3), (0.2,), [(0.2, 0.1)], 0.2])
    def test_malformed_x_rejected(self, x):
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=1)
        with pytest.raises(ValueError, match="x must have shape"):
            monte_carlo_scaling_check(spec, 2.0, x, 50)


class TestDistributional:
    def test_gaussianity_jarque_bera(self):
        # fixed point, 500 realizations, 1% level (seed-pinned)
        spec = FieldSpec.make(0.6, 0.4, grid_n=64, seed=7)
        vals = np.array([synthesize(spec.with_seed(7 + i)).values[32, 32] for i in range(500)])
        z = (vals - vals.mean()) / vals.std()
        stat, _ = sps.jarque_bera(z)
        assert stat < 9.21  # chi2(2) 1% critical value

    def test_stationary_increments_proxy(self):
        # Var(X(x+h) - X(x)) invariant under translating x (10% at 200 reps)
        spec = FieldSpec.make(0.6, 0.4, grid_n=128, seed=7)
        m = 8
        inc1, inc2 = [], []
        for i in range(200):
            v = synthesize(spec.with_seed(7 + i)).values
            inc1.append(v[40 + m, 40] - v[40, 40])
            inc2.append(v[70 + m, 77] - v[70, 77])
        v1 = float(np.mean(np.square(inc1)))
        v2 = float(np.mean(np.square(inc2)))
        assert v1 / v2 == pytest.approx(1.0, abs=0.10)

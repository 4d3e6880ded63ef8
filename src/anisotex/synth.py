"""FFT synthesis of operator scaling Gaussian random fields, plus an
independent frequency-domain quadrature oracle for second-order statistics.

The field is the real harmonizable model

    X(x) = Re  sum_k  c_k (e^{i <x, xi_k>} - 1),        xi_k = 2 pi k,

with Hermitian complex Gaussian coefficients c_k whose variances are the
spectral masses of the weight rho^{-2(H+1)}. Masses are *alias folded*:
each lattice mode carries the integral of the spectral density over its
frequency cell plus all copies shifted by the sampling lattice 2 pi n Z^2.
Folding makes the lattice field second-order equivalent to exact sampling
of the continuum model, so directional increment statistics follow the
continuum scaling laws down to fine lags. Without it, the steep-exponent
axis of an anisotropic weight loses its sub-grid spectral ridge and the
sampled field is measurably too smooth along that axis.

One function, ``_block_draws``, draws: one Philox stream of standard
normals per realization. ``_coefficients`` scales them by the alias-folded
amplitudes into the half plane of the (n, n/2 + 1) rfft layout: fields come
from one real ``irfft2``, point values from X(x) = 2 Re sum_half c_k
(e^{i <x, xi_k>} - 1), summed separably over per-axis phases (never a modes
x points matrix). The Monte Carlo scaling check evaluates no point: on the
torus [0,1]^2 its mean squared increments are weighted sums of the squared
draws (``_torus_variograms``). The mass product's tiles (``_quarter_mass``)
are the only code that depends on OpenBLAS's threading.

Remaining known bias: the zero-frequency cell (|xi| < pi) cannot be
represented by a periodic model, so lattice variances fall below the
continuum oracle: by far at lags beyond roughly 0.3, and along the steep
axis (lam = alpha0 < 1) already inside the fit window [4/n, 1/8]. At
(0.6, 0.4) that axis is 3.0% low at m = 4 and 13.1% at m = 32 for n = 256
(1.1% and 12.9% at m = 4 and 128 for n = 1024); the shallow one within 0.72%.
"""
from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import FieldSpec, SampledField, matrix_power

TWO_PI = 2.0 * math.pi
_INV_SQRT2 = 1.0 / math.sqrt(2.0)  # scales the draws' float64 view: numpy's complex / sqrt(2), bit for bit
MAX_WORKERS = 4  # the most threads worker_count allows

@functools.lru_cache(maxsize=None)
def _gauss(n):
    return np.polynomial.legendre.leggauss(n)


def _gauss_panel(lo, hi, n):
    """n-point Gauss-Legendre nodes and weights on the panels [lo, hi]; lo
    and hi broadcast, and panels of shape S give arrays of shape S + (n,)."""
    xg, wg = _gauss(n)
    lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
    h = 0.5 * (hi - lo)
    return h * xg + 0.5 * (hi + lo), h * wg


def worker_count():
    """Worker cap: the least of MAX_WORKERS, the CPU count and ANISOTEX_THREADS."""
    n = min(MAX_WORKERS, os.cpu_count() or 1)
    try:
        return min(n, max(1, int(os.environ["ANISOTEX_THREADS"])))
    except (KeyError, ValueError):  # unset, empty or not an integer
        return n


def _pool_map(fn, items):
    """[fn(x) for x in items], computed on a pool of worker_count() threads.

    numpy's ``errstate`` is per thread and does not reach the workers: a
    worker that needs one enters it itself.
    """
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# incomplete gamma
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps
_HALF_LN_2PI = "0.9189385332046727417803297364056176398614"
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510))  # B_2..B_16


def _lgamma1p(a):
    """ln Gamma(1 + a), a >= 0, within 2e-22 before rounding (math.lgamma is up
    to 3 eps off on (0, 1), where the value is below 0.13): Stirling's series
    to B_16 at z = 17 + a in 40-digit decimals, less ln (1 + a)...(16 + a).
    decimal is imported here, off the package's import path."""
    from decimal import Context, Decimal, localcontext
    with localcontext(Context(prec=40)):
        a = Decimal(a)
        z = a + 17
        s = (z - Decimal("0.5")) * z.ln() - z + Decimal(_HALF_LN_2PI) - math.prod(a + j for j in range(1, 17)).ln()
        return float(s + sum(Decimal(num) / (den * 2 * k * (2 * k - 1) * z ** (2 * k - 1))
                             for k, (num, den) in enumerate(_BERNOULLI, 1)))


def _gamma_inc(a, x):
    """The regularized incomplete gammas (P(a, x), Q(a, x)) at one a in (0, 6]
    and an array x >= 0, each the complement of the other (DiDonato and
    Morris, ACM TOMS 12, 1986). Each value depends on its own x alone, not
    on the others in the call.

    Below x = a + 1, or x = 3/4 for a < 1 (nearer a + 1, where Q(0.1, 1.1)
    is 0.02, the Q series below cancels), P = x^a e^-x / Gamma(a + 1) sum_n x^n / ((a+1)...(a+n)),
    the terms added to 1 in order up to the first below eps/2 at the largest
    x: later terms are smaller still and leave the sum as it is. There
    Q = 1 - P for a >= 1 (Q > 0.1), and for a < 1 DiDonato and Morris's
    small-x series Q = u - a (1 - u) sum_{n=1..20} (-x)^n / (n! (a + n)),
    u = -expm1(a ln x - ln Gamma(1 + a)) (``_lgamma1p``). Elsewhere
    Q = x^a e^-x / Gamma(a) / (b0 + a1/(b1 + a2/(b2 + ...))), b_i = x + 2i + 1 - a
    and a_i = -i (i - a), evaluated back from its term N = 90/x + 8 (it is
    exact to eps by about 86/x terms). Sorted by x, the values that take the
    step of term k lead the array, so each step works on a slice. x^a e^-x
    is the product of its two factors while e^-x is far from underflow, and
    e^(a ln x - x) beyond.
    """
    x = np.asarray(x, dtype=float)
    lead, near = np.empty(x.shape), x < 700.0  # x^a e^-x
    lead[near] = x[near] ** a * np.exp(-x[near])
    lead[~near] = np.exp(a * np.log(x[~near]) - x[~near])
    P, Q = np.empty(x.shape), np.empty(x.shape)
    low = x < (a + 1.0 if a >= 1.0 else 0.75)
    xs = x[low]
    if xs.size:
        K, term, top = 0, 1.0, float(xs.max())
        while term >= 0.5 * _EPS:
            K += 1
            term *= top / (a + K)
        t, s = np.ones(xs.shape), np.ones(xs.shape)
        for ratio in xs / (a + np.arange(1.0, K + 1.0))[:, None]:
            t *= ratio
            s += t
        P[low] = lead[low] / math.gamma(a + 1.0) * s
        Q[low] = 1.0 - P[low]
        if a < 1.0:  # at x < 3/4 the 20th term of S is below 3e-22 of S
            n = np.arange(1.0, 21.0)
            S = np.polynomial.polynomial.polyval(xs, np.r_[0.0, np.cumprod(-1.0 / n) / (a + n)])
            z = a * np.log(xs, out=np.full(xs.shape, -np.inf), where=xs > 0.0) - _lgamma1p(a)  # x = 0: Q = 1
            Q[low] = -np.expm1(z) - a * np.exp(z) * S
    order = np.argsort(x[~low])
    xf = x[~low][order]
    if xf.size:
        N = np.ceil(90.0 / xf).astype(int) + 8  # largest first
        upto = np.searchsorted(-N, -np.arange(N[0] + 1), side="right")  # upto[j]: the x with N >= j
        xa = xf - a
        h = np.full(xf.size, np.inf)  # b_N + a_(N+1) / inf is b_N
        for k in range(N[0] + 1, 0, -1):  # h = b_(k-1) + a_k / h
            hk = h[:upto[k - 1]]
            np.divide(-k * (k - a), hk, out=hk)
            hk += xa[:hk.size]
            hk += 2.0 * k - 1.0
        q = np.empty(xf.size)
        q[order] = lead[~low][order] / math.gamma(a) / h
        Q[~low], P[~low] = q, 1.0 - q
    return P, Q


# ---------------------------------------------------------------------------
# spectral masses
# ---------------------------------------------------------------------------

# Constants of the separable mass build (see _quarter_mass), each with the
# most it moves a mass when changed (measured at n = 64 and 256):
_MASS_STEP = 0.3        # trapezoid step in v = ln t: 0.4 moves masses by 5e-8, 0.15 by 1e-9
_Z_SKIP = 50.0          # cells with t x^beta > 50 at the inner edge are skipped: 30 moves 2e-10
_J0 = 16                # cells j < 16 by incomplete gammas: Gauss from j = 2 on moves 3e-8
_MASS_NODES = 6         # Gauss nodes per cell from j = _J0 on: 3 move 5e-10, 4 move 2e-13
_TAU_FLAT = 1e-8        # below tau = t L^beta, Q is taken as flat: 1e-5 moves 2e-9, 1e-10 3e-10
_TAU_STEPS = (1e-6, 1e-4, 1e-3)  # tau from which 2, 4 and 8 periods are summed per node:
_PERIODS = (1, 2, 4, 8)          # 1 throughout moves 2e-3; steps 10x higher, 2e-8
_NODE_CHUNK = 4         # nodes per batch, 0.4 MB of temporaries at n = 256: 16 raised peak RSS 5-9%
_TINY = 1e-200          # zeroed before the product: subnormal operands slow BLAS ~100x
_GEMM_TILE = 1 << 18    # multiply-adds per product tile: OpenBLAS runs a gemm this small on the calling thread


def _axis_factor(lam, n, v):
    """Q(t, k) = t^lam P(t, k) at t = e^v, 0 <= k < n/2, shape (v.size, n/2), with
    P(t, k) = sum_m int_{I_k + L m} e^(-t |xi|^beta) dxi, beta = 1/lam,
    I_k = 2 pi [k - 1/2, k + 1/2] and L = 2 pi n.

    Per node, the cells j >= 0 of the positive axis fold into k by j mod n
    and its reflection (cell 0 as its half x >= 0, twice). M periods, M from
    tau = t L^beta, are summed cell by cell: j < _J0 by regularized
    incomplete gammas, the rest by Gauss, skipping cells whose inner edge
    has t x^beta > _Z_SKIP at the batch's first node. The shifts past M
    periods take Euler-Maclaurin from the midpoints x0 = L (M + 1/2) +- 2 pi k:
    int_x0^inf g / L + L g'(x0) / 24 - 7 L^3 g'''(x0) / 5760, g(x) the
    integral over [x - pi, x + pi]. Its first term is the integral of
    U(y) = int_y^inf e^(-t x^beta) dx over the cell about x0: one upper
    incomplete gamma per node at the end of period M + 1, cell sums back to
    each right edge, and a first-moment Gauss sum. Below tau = _TAU_FLAT, Q
    is flat at 2 Gamma(1 + lam) / n; where even cell 1 is skipped, only cell
    0 is left (2 Gamma(1 + lam)). Q is bounded at both ends of t; t^lam and
    tau come from logs, and the Gauss values e^(t (-x^beta)) take -x^beta
    once per axis (finite: x < 2 pi 9 n and beta <= 10), so no power overflows.

    One ``_gamma_inc`` call gives the head of every live node and the start
    of every tail, and the tails are summed once per period count from the
    rows and first moments the chunks keep: each chunk still sums its own M
    periods (the largest over its nodes) and skips cells from its first
    node, so Q is the same bit for bit as a chunk-by-chunk build.
    """
    beta, half, L = 1.0 / lam, n // 2, TWO_PI * n
    g = math.gamma(1.0 + lam)  # t^lam int_0^inf e^(-t x^beta) dx
    ltau = v + beta * math.log(L)
    flat, bare = ltau < math.log(_TAU_FLAT), v + beta * math.log(math.pi) > math.log(_Z_SKIP)
    Q = np.zeros((v.size, half))
    Q[flat] = 2.0 * g / n
    Q[bare, 0] = 2.0 * g
    live = np.flatnonzero(~flat & ~bare)
    periods = np.array(_PERIODS)[np.searchsorted(np.log(_TAU_STEPS), ltau[live], side="right")]
    j = np.arange(_J0, (periods.max(initial=1) + 1) * n)
    x, w = _gauss_panel(TWO_PI * (j - 0.5), TWO_PI * (j + 0.5), _MASS_NODES)
    nxb = -x ** beta  # t x^beta at the Gauss nodes is t times -nxb
    w, w1 = w[0], w[0] * (x[0] - TWO_PI * (_J0 - 0.5))  # weights and first moments, as in every cell
    chunk_M = np.maximum.reduceat(periods, np.arange(0, live.size, _NODE_CHUNK))
    # per node, the right edges pi (2j + 1) of cells 0.._J0-1, then the end
    # of period M + 1 of its chunk, where its tail's U starts
    x_end = TWO_PI * ((np.repeat(chunk_M, _NODE_CHUNK)[:live.size] + 1) * n - 0.5)
    edges = np.column_stack([np.tile(math.pi * (2.0 * np.arange(_J0) + 1.0), (live.size, 1)), x_end])
    lower, upper = _gamma_inc(lam, np.exp(v[live, None] + beta * np.log(edges)))
    head = np.diff(g * lower[:, :_J0], prepend=0.0)  # cells 0.._J0-1
    ends = g * upper[:, _J0]
    k = np.arange(half)
    tails = {}  # M: the nodes, rows A[:, M], first-moment sums and U at the end of chunks with a tail
    for c in range(0, live.size, _NODE_CHUNK):
        i, M = live[c:c + _NODE_CHUNK], int(chunk_M[c // _NODE_CHUNK])
        lv = v[i, None]
        s = np.exp(lam * lv)
        cells = min((M + 1) * n, max(_J0, int(math.exp((math.log(_Z_SKIP) - lv[0, 0]) / beta) / TWO_PI) + 2))
        f = np.multiply(np.exp(lv)[:, :, None], nxb[:cells - _J0])
        np.exp(f, out=f)  # e^(-t x^beta) at the Gauss nodes
        A = np.zeros((i.size, (M + 1) * n))
        A[:, _J0:cells] = s * (f @ w)
        A[:, :_J0] = head[c:c + _NODE_CHUNK]
        A = A.reshape(i.size, M + 1, n)  # A[:, m, r] is cell m n + r
        S = A[:, :M].sum(axis=1)
        S[:, :half] += A[:, M, :half]
        Q[i] = S[:, k] + S[:, -k]
        if cells > M * n:  # not every cell past M periods is skipped
            mom = np.zeros((i.size, n))
            mom[:, :cells - M * n] = s * (f[:, M * n - _J0:] @ w1)
            tails.setdefault(M, []).append((i, A[:, M].copy(), mom, ends[c:c + _NODE_CHUNK]))
    for M, parts in tails.items():  # one batch per period count
        i, row, mom, end = (np.concatenate(p) for p in zip(*parts))
        lv = v[i, None]  # cell M n + r of row is centred on x0 for k = |r - n/2|
        e = TWO_PI * (M * n + np.arange(n + 1) - 0.5)  # its edges
        z = np.exp(lv + beta * np.log(e))  # t x^beta
        fe = np.exp(-z)
        d2 = beta * z * (beta * z - beta + 1.0) * fe / e ** 2  # f''
        right = np.pad(np.cumsum(row[:, :0:-1], axis=1)[:, ::-1], ((0, 0), (0, 1)))  # cells past each
        U = end[:, None] + right
        s = np.exp(lam * lv)
        tail = ((TWO_PI * U + mom) / L
                + s * (L / 24.0 * np.diff(fe, axis=1) - 7.0 * L ** 3 / 5760.0 * np.diff(d2, axis=1)))
        Q[i] += tail[:, half + k] + tail[:, half - k]
    return Q


def _quarter_mass(alpha0, hurst, n):
    """Alias-folded spectral masses for the power-sum weight on the quarter
    k >= 0, shape (n/2 + 1, n/2 + 1); index n/2 is the Nyquist row/column.

    Under rho^-s = Gamma(s)^-1 int t^(s-1) e^(-t rho) dt, s = 2H + 2, the
    weight is separable. With t = e^v and Q_i = t^lam_i P_i of
    ``_axis_factor`` (lam1 + lam2 = 2), the mass of cell k summed over every
    alias shift is

        mass[k1, k2] = Gamma(s)^-1 int e^(2Hv) Q1(t, k1) Q2(t, k2) dv,

    which a trapezoid rule of step _MASS_STEP turns into one product of the
    two (nodes x n/2) factors. The product is computed in tiles of at most
    _GEMM_TILE multiply-adds, which OpenBLAS runs on the calling thread (its
    gemm threshold is 65536 x 4). Run whole, it went to OpenBLAS's threads,
    which were slow to wake and then spun, taking a core from the worker
    pool. Tiles split only the output's rows and columns, so each entry sums
    over the nodes in the same order: the masses do not depend on the BLAS
    thread count, and equal the single product's bit for bit up to 256
    nodes. Below the lowest node both are flat and the sum is a geometric
    series; above the highest, every cell but the origin is 0. The mass is
    even in k1 and in k2, so only the quarter is built; ``_unfold`` indexes
    it with |k| into FFT order, exactly even. The zero mode and the Nyquist
    row and column are 0.

    Measured: within 5e-9 of the brute-force sum of the tests (2-D Gauss
    over the shifts, per-node 1-D tails) at n = 64, and of a refined build
    (half the step, twice the periods, 10 Gauss nodes) at n = 256.
    """
    lam, H2, h, half = (alpha0, 2.0 - alpha0), 2.0 * hurst, _MASS_STEP, n // 2
    lL = math.log(TWO_PI * n)
    lo = math.floor(min(math.log(_TAU_FLAT) - lL / l for l in lam) / h)
    hi = math.ceil(max(math.log(_Z_SKIP) - math.log(math.pi) / l for l in lam) / h)
    v = h * np.arange(lo, hi + 1)
    Q1, Q2 = (_axis_factor(l, n, v) for l in lam)
    Q1 *= (h / math.gamma(H2 + 2.0)) * np.exp(H2 * v)[:, None]
    Q1[Q1 < _TINY] = 0.0
    Q2[Q2 < _TINY] = 0.0
    # tiles per side, of near-equal widths: numpy sends a one-wide tile to
    # gemv, which sums in another order
    t = -(-half // math.isqrt(_GEMM_TILE // v.size))
    e = [half * i // t for i in range(t + 1)]
    mass = np.zeros((half, half))
    for r0, r1 in zip(e, e[1:]):
        for c0, c1 in zip(e, e[1:]):
            mass[r0:r1, c0:c1] += Q1[:, r0:r1].T @ Q2[:, c0:c1]
    flat = 4.0 * math.gamma(1.0 + lam[0]) * math.gamma(1.0 + lam[1]) / n ** 2  # Q1 Q2 below v[0]
    mass += flat * h / math.gamma(H2 + 2.0) * math.exp(H2 * h * (lo - 1)) / -math.expm1(-H2 * h)
    mass[0, 0] = 0.0
    return np.pad(mass, (0, 1))  # the Nyquist row and column


def _unfold(quarter, n):
    """The n x n grid in FFT order of an even quarter grid: entry k is quarter[|k|]."""
    q = np.abs(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
    return quarter[np.ix_(q, q)]


@functools.lru_cache(maxsize=4)
def _quarter_amplitudes(alpha0, hurst, n):
    """Square roots of ``_quarter_mass``: the per-mode standard deviations on
    the quarter. Kept in a bounded LRU cache (4 keys) and returned read-only,
    since every caller shares them."""
    amp = np.sqrt(_quarter_mass(alpha0, hurst, n))
    amp.flags.writeable = False
    return amp


def _amplitudes(spec: FieldSpec) -> np.ndarray:
    """The cached quarter amplitudes of a spec."""
    return _quarter_amplitudes(spec.alpha0, spec.hurst, spec.grid_n)


def spectral_grid(spec: FieldSpec) -> np.ndarray:
    """Per-mode amplitudes for the synthesis lattice xi_k = 2 pi k, n x n.

    Entry [k1, k2] (FFT index order) is the standard deviation of mode k;
    its square is the alias-folded cell mass of rho^{-2(H+1)}. The zero
    mode and the Nyquist row/column are zero.
    """
    return _unfold(_amplitudes(spec), spec.grid_n)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def _draw_blocks(n):
    """The half-plane modes {k2 > 0} u {k2 = 0, k1 > 0} in draw order, as two
    dense blocks of the (n, n/2 + 1) rfft layout, each a (rows, cols) pair:
    k1 = -n/2 + 1..0 (FFT rows n/2 + 1..n - 1, then row 0) with
    k2 = 1..n/2 - 1, then k1 = 1..n/2 - 1 with k2 = 0..n/2 - 1. The stream
    fills each block row-major, two normals per mode."""
    half = n // 2
    return ((np.r_[half + 1:n, 0], slice(1, half)),
            (np.arange(1, half), slice(0, half)))


def _half_spectrum(spec: FieldSpec) -> np.ndarray:
    """Half-plane coefficients of one realization, those of ``_coefficients``,
    placed in the (n, n/2 + 1) rfft layout, zero elsewhere (the k2 = 0
    column at k1 < 0 included)."""
    n = spec.grid_n
    H = np.zeros((n, n // 2 + 1), dtype=complex)
    for z, (rows, cols) in zip(_coefficients(spec), _draw_blocks(n)):
        H[rows, cols] = z
    return H


def spectral_coefficients(spec: FieldSpec) -> np.ndarray:
    """Hermitian complex Gaussian coefficient grid for one realization, FFT
    order: the half-plane coefficients and their conjugates at -k."""
    n = spec.grid_n
    C = np.zeros((n, n), dtype=complex)
    C[:, :n // 2 + 1] = _half_spectrum(spec)
    neg = -np.arange(n) % n
    return C + np.conj(C[np.ix_(neg, neg)])


def synthesize(spec: FieldSpec) -> SampledField:
    """Draw one field realization on the n x n grid over [0,1]^2 by one real
    ``irfft2`` of the half spectrum, its k2 = 0 column mirrored to k1 < 0.

    Deterministic given the spec (seed included); the origin sample is
    exactly zero by the spectral subtraction of the value at x = 0.
    """
    n, half = spec.grid_n, spec.grid_n // 2
    H = _half_spectrum(spec)
    H[n - half + 1:, 0] = np.conj(H[half - 1:0:-1, 0])
    X = np.fft.irfft2(H, s=(n, n), norm="forward")
    X -= X[0, 0]
    return SampledField(values=X, spec=spec)


def ensemble_specs(spec: FieldSpec, reps: int):
    """The specs of the realizations with seeds spec.seed + i, i = 0..reps-1
    (mod 2^64). Builds the shared amplitude grid first, so that pool
    workers synthesizing them only read it."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    _amplitudes(spec)
    return [spec.with_seed((spec.seed + i) % 2 ** 64) for i in range(reps)]


def synthesize_ensemble(spec: FieldSpec, reps: int):
    """Independent realizations with seeds spec.seed + i, i = 0..reps-1."""
    return _pool_map(synthesize, ensemble_specs(spec, reps))


def _block_draws(specs):
    """Yield, for each of ``specs`` (realizations of one spec, differing in
    seed only), its half-plane draws as one complex array per
    ``_draw_blocks`` block. This is the only code that draws.

    The Gaussian stream comes from a Philox generator keyed by the seed: two
    standard normals per half-plane mode, the modes in block order and each
    block row-major, even draws real parts. The draws are yielded unscaled
    (``_coefficients`` scales them). Each call holds every mode in one
    complex buffer, reused across its realizations (a yielded block is
    overwritten by the next), and the blocks are consecutive slices of it."""
    half = specs[0].grid_n // 2
    size = half * (half - 1)  # the modes of each block
    buf = np.empty(2 * size, dtype=complex)
    zs = [buf[:size].reshape(half, half - 1), buf[size:].reshape(half - 1, half)]
    for spec in specs:
        np.random.Generator(np.random.Philox(key=spec.seed)).standard_normal(out=buf.view(float))
        yield zs


def _block_views(quarter):
    """Views of an even quarter grid read at |k1| over the two ``_draw_blocks``."""
    half = quarter.shape[0] - 1
    return quarter[half - 1::-1, 1:half], quarter[1:half, :half]


def _coefficients(spec: FieldSpec):
    """One realization's half-plane coefficients per ``_draw_blocks`` block: its
    draws scaled in place by 1/sqrt(2) on their float64 view, then by the
    amplitudes (no square root per draw)."""
    zs = next(_block_draws([spec]))
    for z, a in zip(zs, _block_views(_amplitudes(spec))):
        flat = z.view(float)
        flat *= _INV_SQRT2
        z *= a
    return zs


def evaluate_at_points(spec: FieldSpec, points) -> np.ndarray:
    """Evaluate one realization at arbitrary points of [0,1]^2.

    Separable direct summation of X(x) = 2 Re sum_half c_k (e^{i <x, xi_k>} - 1)
    over the coefficients ``synthesize`` uses: lattice points reproduce its
    values, off-lattice points are exact for the lattice model. The per-axis
    phases e^{2 pi i k x} are cut into the two ``_draw_blocks``: one product
    and one column-wise dot per block. ``points`` is one point of shape (2,)
    or m points of shape (m, 2), all finite; anything else raises ValueError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != 2:
        raise ValueError(f"points must have shape (2,) or (m, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    pts, n = np.atleast_2d(pts), spec.grid_n
    e1 = np.exp(1j * TWO_PI * np.outer(np.fft.fftfreq(n, d=1.0 / n), pts[:, 0]))
    e2 = np.exp(1j * TWO_PI * np.outer(np.arange(n // 2 + 1), pts[:, 1]))
    return 2.0 * sum(np.einsum("km,km->m", e1[rows], z @ e2[cols]).real - z.sum().real
                     for z, (rows, cols) in zip(_coefficients(spec), _draw_blocks(n)))


# ---------------------------------------------------------------------------
# variogram oracle
# ---------------------------------------------------------------------------

def _cosine_moment(s: float) -> float:
    """int_0^inf (1 - cos u) u^{-1-s} du for s in (0, 2)."""
    if abs(s - 1.0) < 1e-9:
        return math.pi / 2.0
    return math.gamma(2.0 - s) * math.cos(math.pi * s / 2.0) / (s * (1.0 - s))


def _axis_radial(b, lam, hurst):
    """int_0^inf r^(-2H-1) (1 - cos(b r^lam)) dr, in closed form."""
    s = 2.0 * hurst / lam
    return b ** s * _cosine_moment(s) / lam


def _axis_variogram(alpha0, hurst, axis, r):
    """Closed-form variogram on a coordinate axis (power-sum weight): the
    polar integral with I(a, 0) = _axis_radial(a, lam, H) is a Beta integral."""
    lam = alpha0 if axis == 0 else 2.0 - alpha0
    other = 2.0 - lam
    p = lam + 2.0 * hurst
    beta_fn = math.gamma(p) * math.gamma(other) / math.gamma(p + other)  # B(p, other)
    return 8.0 * other * lam * beta_fn * _axis_radial(abs(r), lam, hurst)


_V_STEP = 0.2        # step of the trapezoid rule in v (see variogram_oracle)
_TOL = 1e-13         # a series or tail form is used where its error is below this share
_TAYLOR_TERMS = 12   # terms of the small-y series of D_beta
_SERIES_TERMS = 60   # terms of the large-y series of G_beta
_U_EXP = 40.0        # the Gauss rule covers u^beta <= 40 (e^-40 of the weight is left)
_GAUSS_NODES = 16    # per panel; a panel spans at most one period of cos(yu)
_GRADE = 20          # base panels halve 20 times in u^beta toward u = 0
_ROUND = 32.0 * np.finfo(float).eps
_CHEB_NODES = 24     # Chebyshev nodes per panel of the mid-range kernel table
_CHEB_TOL = 1e-15    # a table panel is halved while its last coefficients exceed this share
_CHEB_PANELS = 63    # panels filled per table at most (37 at beta = 10); more raise RuntimeError
_X_MAX = 1e20        # the oracle takes coordinates |x_i| = 0 or in [1/_X_MAX, _X_MAX]


def _gauss_kernel(beta, y):
    """int_0^U 4 sin^2(yu/2) e^(-u^beta) du, U = 40^(1/beta), by composite Gauss
    (no cancellation). The base panels have their edges at w = u^beta = 0,
    2^-_GRADE, ..., 1/2, then 1, 2, ..., 40: they halve toward 0 in w, where
    u^beta has its kink, and take unit steps beyond. Each is cut into
    ceil(y width / 2 pi) equal panels, all in one batch (at most 2400 panels
    for the 24 points of a table panel over the field domain)."""
    w = np.concatenate([[0.0], 2.0 ** -np.arange(_GRADE, 0.0, -1.0), np.arange(1.0, _U_EXP + 1.0)])
    e = w ** (1.0 / beta)
    width = np.diff(e)
    m = np.maximum(1, np.ceil(y[:, None] * width / TWO_PI)).astype(int).ravel()
    row = np.repeat(np.arange(y.size), m.reshape(y.size, -1).sum(axis=1))
    pan = np.repeat(np.tile(np.arange(width.size), y.size), m)
    n = np.repeat(m, m)
    lo = e[pan] + width[pan] * (np.arange(n.size) - np.repeat(np.cumsum(m) - m, m)) / n
    u, wt = _gauss_panel(lo, lo + width[pan] / n, _GAUSS_NODES)
    f = np.sin(0.5 * y[row, None] * u) ** 2 * np.exp(-u ** beta) * wt
    return np.bincount(row, 4.0 * f.sum(axis=1), minlength=y.size)


def _series(beta, ly):
    """(D_beta(e^ly), error estimate) from the two series of ``_kernel``, NaN
    where neither estimate, rounding included, is below _TOL of the value."""
    g0, taylor, asymptotic, _ = _kernel_terms(beta)
    D, err = np.full(ly.shape, np.nan), np.zeros(ly.shape)
    j = np.arange(1.0, _TAYLOR_TERMS + 2)
    lt = 2.0 * j * ly[:, None] + taylor
    i = np.flatnonzero(lt[:, -1] - lt[:, 0] <= math.log(_TOL))
    t = 2.0 / beta * np.exp(lt[i])
    val, est = t[:, :-1] @ (-1.0) ** (j[:-1] + 1.0), t[:, -1] + _ROUND * t.sum(axis=1)
    ok = est <= _TOL * val
    D[i[ok]], err[i[ok]] = val[ok], est[ok]

    i = np.flatnonzero(np.isnan(D))
    k = np.arange(1.0, _SERIES_TERMS + 1)
    ls = asymptotic - (k * beta + 1.0) * ly[i, None]
    kmin = np.argmin(ls, axis=1)
    lmin = ls[np.arange(i.size), kmin]
    if beta > 1.0:  # ln |saddle| = ln G(0) - c y^(beta/(beta-1))
        c = (1.0 - 1.0 / beta) * beta ** (-1.0 / (beta - 1.0)) * math.sin(0.5 * math.pi / max(beta - 1.0, 1.0))
        lmin = np.logaddexp(lmin, math.log(g0) - c * np.exp(np.minimum(beta / (beta - 1.0) * ly[i], 700.0)))
    t = np.exp(np.where(k <= kmin[:, None], ls, -np.inf))  # up to the smallest
    val = g0 - t @ ((-1.0) ** (k + 1.0) * np.sin(0.5 * math.pi * k * beta))
    est = np.exp(lmin) + _ROUND * (t.sum(axis=1) + g0)
    ok = est <= _TOL * val
    D[i[ok]], err[i[ok]] = val[ok], est[ok]
    return D, err


def _table(beta, a, b):
    """Piecewise Chebyshev table of D_beta on [a, b] in ln y: (lo, hi, coeffs,
    err) of its panels, in order. Each panel takes _CHEB_NODES first-kind
    nodes filled by ``_gauss_kernel`` and is halved while either of its last
    two coefficients exceeds _CHEB_TOL of its largest value; err is twice
    their sum plus the rounding of the Clenshaw sum. Panels are filled from
    the low end (where the Gauss rule is cheapest); a span that takes more
    than _CHEB_PANELS fills raises RuntimeError."""
    theta = math.pi * (np.arange(_CHEB_NODES) + 0.5) / _CHEB_NODES
    T = np.cos(np.outer(theta, np.arange(_CHEB_NODES))) * (2.0 / _CHEB_NODES)  # values -> coefficients
    T[:, 0] *= 0.5
    todo, done = [(a, b)], []
    for _ in range(_CHEB_PANELS):
        lo, hi = todo.pop()
        f = _gauss_kernel(beta, np.exp(0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(theta)))
        c = f @ T
        tail = np.abs(c[-2:])
        if tail.max() <= _CHEB_TOL * np.abs(f).max():
            done.append((lo, hi, c, 2.0 * tail.sum() + _ROUND * np.abs(c).sum()))
        else:
            todo += [(0.5 * (lo + hi), hi), (lo, 0.5 * (lo + hi))]  # the low half next
        if not todo:
            return tuple(map(np.array, zip(*done)))
    raise RuntimeError(f"the kernel table of beta = {beta:g} takes more than {_CHEB_PANELS} panels")


def _mid_kernel(beta, ly, table):
    """(D_beta(e^ly), error estimate) where the series do not reach _TOL: by one
    Clenshaw pass over the panels of ``table`` that hold ly (over the field
    domain the table spans every such ly). Each value's error adds a bound on
    u^beta > 40 and _TOL of the value to the panel's interpolation error."""
    lo, hi, coeffs, cerr = table
    p = np.searchsorted(lo, ly, side="right") - 1  # the panel that holds ly
    c = coeffs[p]
    t = (2.0 * ly - lo[p] - hi[p]) / (hi[p] - lo[p])
    b1 = b2 = 0.0
    for ck in c[:, :0:-1].T:
        b1, b2 = ck + 2.0 * t * b1 - b2, b1
    D = c[:, 0] + t * b1 - b2
    far1, far3 = _kernel_terms(beta)[3]
    return D, cerr[p] + np.minimum(far1, np.exp(ly) ** 2 * far3) + _TOL * D


def _kernel(beta, ly):
    """D_beta(y) = 2 int_0^inf (1 - cos yu) e^(-u^beta) du at y = e^ly, and an
    error estimate per value.

    Small y: (2/beta) sum_j (-1)^(j+1) Gamma((2j+1)/beta) y^2j / (2j)!. Large
    y: G(0) - G(y), G(0) = 2 Gamma(1 + 1/beta), with the series G(y) ~
    sum_k (-1)^(k+1) sin(pi k beta/2) 2 Gamma(k beta + 1)/k! y^(-k beta - 1)
    cut at its smallest term; its error is estimated by that term without the
    sine plus, for beta > 1, the size of G's saddle point, which the series
    misses (at even beta the series is 0). A series is used where its
    estimate, rounding included, is below _TOL of the value (``_series``);
    elsewhere ``_mid_kernel`` reads the per-beta table of ``_kernel_range``,
    filled by ``_gauss_kernel``, which is sized to stay below _TOL, and adds a
    bound on u^beta > 40.
    """
    D, err = _series(beta, ly)
    i = np.flatnonzero(np.isnan(D))
    if i.size:
        D[i], err[i] = _mid_kernel(beta, ly[i], _kernel_range(beta)[2])
    return D, err


@functools.lru_cache(maxsize=16)
def _kernel_terms(beta):
    """The per-beta constants of ``_series`` and ``_mid_kernel``: G(0) =
    2 Gamma(1 + 1/beta); ln Gamma((2j+1)/beta) - ln (2j)!, j = 1.._TAYLOR_TERMS + 1,
    of the small-y series; ln 2 Gamma(k beta + 1) - ln k!, k = 1.._SERIES_TERMS,
    of the large-y one; and the bounds 4/beta Gamma(1/beta, 40) and
    Gamma(3/beta, 40)/beta (times y^2) on D's part from u^beta > 40."""
    taylor = np.array([math.lgamma((2.0 * j + 1.0) / beta) - math.lgamma(2.0 * j + 1.0)
                       for j in range(1, _TAYLOR_TERMS + 2)])
    asymptotic = np.array([math.log(2.0) + math.lgamma(k * beta + 1.0) - math.lgamma(k + 1.0)
                           for k in range(1, _SERIES_TERMS + 1)])
    far = [math.gamma(a) * float(_gamma_inc(a, _U_EXP)[1]) / beta for a in (1.0 / beta, 3.0 / beta)]
    return 2.0 * math.gamma(1.0 + 1.0 / beta), taylor, asymptotic, (4.0 * far[0], far[1])


@functools.lru_cache(maxsize=16)
def _kernel_range(beta):
    """(ln y_lo, ln y_hi, table) for D_beta: below y_lo, D is y^2 Gamma(3/beta)/beta
    within _TOL and D/G(0) < _TOL; above y_hi, |G(y)| < sqrt(_TOL) G(0)
    (checked on a grid in ln y). The table (``_table``) spans the grid points
    where neither series reaches _TOL, and one grid step beyond each end."""
    g0 = _kernel_terms(beta)[0]
    lo = 0.5 * (math.log(_TOL) + min(math.log(12.0) + math.lgamma(3.0 / beta) - math.lgamma(5.0 / beta),
                                     math.log(g0 * beta) - math.lgamma(3.0 / beta)))
    ly = np.arange(-20.0, 60.0, 0.25)
    D, err = _series(beta, ly)
    i = np.flatnonzero(np.isnan(D))  # never empty for beta > 1/2
    table = _table(beta, ly[max(i[0] - 1, 0)], ly[min(i[-1] + 1, ly.size - 1)])
    D[i], err[i] = _mid_kernel(beta, ly[i], table)
    near = np.flatnonzero(np.abs(g0 - D) + err > math.sqrt(_TOL) * g0)
    return lo, ly[near[-1] + 1], table


def _variogram(spec: FieldSpec, x):
    """(Var X(x), error bound) by the separable integral of ``variogram_oracle``;
    the bound covers the v rule, both kernels and both tails (see there).
    Raises ValueError unless x is two finite coordinates in the oracle's range."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"x must have shape (2,), got {x.shape}")
    x1, x2 = abs(float(x[0])), abs(float(x[1]))
    if not all(c == 0.0 or 1.0 / _X_MAX <= c <= _X_MAX for c in (x1, x2)):
        raise ValueError(f"x = {tuple(x.tolist())} must be finite, each coordinate 0 or of "
                         f"magnitude in [{1.0 / _X_MAX:g}, {_X_MAX:g}]")
    alpha0, hurst = spec.alpha0, spec.hurst
    if x1 == 0.0 or x2 == 0.0:  # an axis or the origin: the closed form
        return _axis_variogram(alpha0, hurst, *((0, x1) if x2 == 0.0 else (1, x2))), 0.0

    lam, lx, h, H2 = (alpha0, 2.0 - alpha0), (math.log(x1), math.log(x2)), _V_STEP, 2.0 * hurst
    g0 = [2.0 * math.gamma(1.0 + l) for l in lam]
    rng = [_kernel_range(1.0 / l) for l in lam]
    k_lo = math.floor(min((lx[i] - rng[i][1]) / lam[i] for i in (0, 1)) / h)
    k_hi = math.ceil(max((lx[i] - rng[i][0]) / lam[i] for i in (0, 1)) / h)
    k = np.arange(k_lo, k_hi + 1)
    (D1, e1), (D2, e2) = (_kernel(1.0 / lam[i], lx[i] - lam[i] * h * k) for i in (0, 1))
    ev = np.exp(H2 * h * k)
    f = ev * (g0[0] * D2 + (g0[1] - D2) * D1)
    fe = ev * (g0[0] * e2 + np.abs(g0[1] - D2) * e1 + D1 * e2)
    # nodes below k_lo: G1(0) G2(0) e^(2Hv); above k_hi: the y^2 terms of D1
    # and D2. Each is c e^(r h k), summed over the nodes in closed form, in
    # full and with the signs (-1)^k
    tail = alt = 0.0
    for c, r, k0, d in ((g0[0] * g0[1], H2, k_lo - 1, -1),
                        (g0[0] * math.gamma(3.0 * lam[1]) * lam[1] * x2 ** 2, H2 - 2.0 * lam[1], k_hi + 1, 1),
                        (g0[1] * math.gamma(3.0 * lam[0]) * lam[0] * x1 ** 2, H2 - 2.0 * lam[0], k_hi + 1, 1)):
        a, q = c * math.exp(r * h * k0), math.exp(r * h * d)
        tail += a / (1.0 - q)
        alt += (-1.0) ** k0 * a / (1.0 + q)
    pref = 2.0 * h / math.gamma(H2 + 2.0)
    # |alt sum| is half the gap between the step-2h rules on the even and odd nodes
    est = abs(float(np.sum((-1.0) ** k * f)) + alt)
    return pref * (float(f.sum()) + tail), pref * (est + float(fe.sum()) + _TOL * tail)


def variogram_oracle(spec: FieldSpec, x) -> float:
    """Var X(x) for the continuum model, by one separable integral.

    The power-sum weight is separable under rho^-s = Gamma(s)^-1 int t^(s-1)
    e^(-t rho) dt, s = 2H + 2. With t = e^v and beta_i = 1/lam_i,

        Var X(x) = 2/Gamma(2H+2) int e^(2Hv) [G1(0) D2 + (G2(0) - D2) D1] dv,

    D_i = D_beta_i(|x_i| e^(-lam_i v)): one 1-D integral of the two 1-D kernels
    of ``_kernel``. v takes a trapezoid rule of step 0.2; past the nodes where
    either kernel turns over, G1(0) G2(0) e^(2Hv) below and the y^2 terms of
    the kernels above are summed over the nodes in closed form. On the axes
    the closed form is returned. ``_variogram`` also returns an error bound:
    the kernels' estimates carried through the integrand, _TOL of the tails,
    and half the gap between the step-0.4 rules on the even and odd nodes
    (the step-0.2 rule converges geometrically, far below that gap).
    Where neither series of a kernel reaches _TOL, its values come from a
    piecewise Chebyshev table in ln y, built from the Gauss rule once per
    exponent (``_kernel_range``). ``x`` must be two finite coordinates, each
    0 or of magnitude in [1e-20, 1e20]; anything else raises ValueError.
    Measured: the bound is 6e-12 to 4e-10 of the value at the criterion-3
    probes and at small H and alpha0 = 1; an independent nested scipy quad
    agrees to 1e-11, the axes and the alpha0 = 1 closed form to 1e-12, and
    the scaling identity holds to 2e-15. The first call at a new alpha0
    builds the two tables; later calls integrate nothing.
    """
    return _variogram(spec, x)[0]


# ---------------------------------------------------------------------------
# Monte Carlo scaling check
# ---------------------------------------------------------------------------

def _torus_variograms(spec: FieldSpec, lags: np.ndarray, reps: int) -> np.ndarray:
    """(reps, m) torus variograms at the (m, 2) ``lags`` of the realizations
    with seeds spec.seed + i (mod 2^64). The lattice field is periodic on
    [0,1]^2, so by Parseval the mean of (X(tau + y) - X(tau))^2 over every
    translate tau, or over the n^2 lattice points, is
    u(y) = 4 sum_half |c_k|^2 (1 - cos 2 pi k.y), whose expectation is the
    lattice variogram 2 sum_k mass_k (1 - cos 2 pi k.y). Per call, the
    weights amp^2 / 2 of |c_k|^2 = amp^2 (re^2 + im^2) / 2 are read off the
    quarter at |k1|, and 1 - cos(a + b) = 1 - cos a cos b + sin a sin b is
    split into per-axis factors; per block, a realization then costs a
    squaring pass over its draws, their pairing, a weighting and an einsum
    (no BLAS). The realizations run on the pool as worker_count() contiguous
    runs, each with its own ``_block_draws`` buffer; each row is computed
    the same way in any run."""
    n, m = spec.grid_n, lags.shape[0]
    a = TWO_PI * np.outer(lags[:, 0], np.fft.fftfreq(n, d=1.0 / n))
    b = TWO_PI * np.outer(lags[:, 1], np.arange(n // 2 + 1.0))
    rf = np.vstack([np.ones(n), -np.cos(a), np.sin(a)])  # per axis: the factors of 1, cos and sin
    cf = np.vstack([np.ones(n // 2 + 1), np.cos(b), np.sin(b)])
    weights = _block_views(0.5 * _amplitudes(spec) ** 2)
    blocks = [(w, cf[:, cols], rf[:, rows]) for (rows, cols), w in zip(_draw_blocks(n), weights)]
    specs, out = ensemble_specs(spec, reps), np.empty((reps, m))

    def run(bounds):
        i0, i1 = bounds
        buf = np.empty(blocks[0][0].size)  # a block's weighted |draw|^2
        for i, zs in enumerate(_block_draws(specs[i0:i1]), i0):
            s = 0.0
            for z, (w, c, r) in zip(zs, blocks):
                sq = z.view(float)
                np.square(sq, out=sq)
                q = np.add(sq[:, 0::2], sq[:, 1::2], out=buf.reshape(w.shape))
                q *= w
                s = s + np.einsum("ki,ki->k", np.einsum("ij,kj->ki", q, c), r)
            out[i] = 4.0 * (s[0] + s[1:m + 1] + s[m + 1:])

    runs = min(worker_count(), reps)
    e = [reps * j // runs for j in range(runs + 1)]
    _pool_map(run, zip(e, e[1:]))
    return out


@dataclass(frozen=True)
class ScalingCheckResult:
    ratio: float
    ci_halfwidth: float
    target: float


def monte_carlo_scaling_check(spec: FieldSpec, a: float, x, reps: int) -> ScalingCheckResult:
    """Estimate Var X(a^E x) / Var X(x) over independent realizations.

    Under the model the ratio targets a^{2 H}. The model has exactly
    stationary increments (true for the lattice field as well), so each
    realization's variance estimate at a lag is its squared increments
    averaged over every translate (``_torus_variograms``), which cuts the
    estimator noise without changing its target; the result is the same
    whatever the worker or BLAS thread count. Returns a 95% confidence
    half-width from the delta method on the per-realization pair statistics.
    ``reps`` must be at least 50, ``a`` positive and ``x`` of shape (2,);
    anything else raises ValueError.
    """
    if reps < 50:
        raise ValueError("reps must be >= 50")
    if not a > 0:
        raise ValueError(f"scale a must be positive, got {a}")
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"x must have shape (2,), got {x.shape}")
    y = matrix_power(spec.anisotropy, a) @ x
    for name, p in (("x", x), ("a^E x", y)):
        if not (0.0 <= p[0] <= 1.0 and 0.0 <= p[1] <= 1.0):
            raise ValueError(f"point {name} = {tuple(p)} outside [0,1]^2")
    target = a ** (2.0 * spec.hurst)
    if np.allclose(y, x):
        return ScalingCheckResult(ratio=1.0, ci_halfwidth=0.0, target=target)

    u, w = _torus_variograms(spec, np.vstack([y, x]), reps).T
    um, wm = u.mean(), w.mean()
    ratio = um / wm
    cov = np.cov(u, w)
    var_ratio = ratio ** 2 * (cov[0, 0] / um ** 2 + cov[1, 1] / wm ** 2
                              - 2.0 * cov[0, 1] / (um * wm)) / reps
    return ScalingCheckResult(ratio=float(ratio),
                              ci_halfwidth=float(1.96 * math.sqrt(max(var_ratio, 0.0))),
                              target=float(target))

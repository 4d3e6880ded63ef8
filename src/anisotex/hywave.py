"""Tensor-product wavelet analysis with independent dilations per axis.

The transform is the outer product of two 1-D orthonormal periodic
wavelet decompositions, to depth J1 along axis 0 and depth J2 along
axis 1. Its coefficients are one dict of blocks indexed by the depth
pair (j1, j2), 0 <= j1 <= J1 and 0 <= j2 <= J2, where depth 0 along an
axis stands for the approximation at full depth and depth j >= 1 for the
detail at depth j. Per-block normalized l^p statistics of the detail x
detail blocks (j1, j2 >= 1) feed a scale-ratio scan whose maximizer
estimates the anisotropy ratio of the texture.

Each filter step is a polyphase periodic filter: it reads the even and
odd samples along the axis as strided views and writes the two output
phases by strided assignment, with no gather or scatter. Every step
halves the axis, so depth J needs the grid size n divisible by 2^J.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SampledField

_SQRT2 = math.sqrt(2.0)
_S3 = math.sqrt(3.0)

FILTERS = {
    "haar": np.array([1.0, 1.0]) / _SQRT2,
    "d4": np.array([1.0 + _S3, 3.0 + _S3, 3.0 - _S3, 1.0 - _S3]) / (4.0 * _SQRT2),
}


def _qmf(h):
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return g


def _phase(arr, r, axis):
    """Strided view of the samples whose index along ``axis`` has parity r."""
    idx = [slice(None)] * arr.ndim
    idx[axis] = slice(r, None, 2)
    return arr[tuple(idx)]


def _dwt_step(arr, h, g, axis):
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


def _idwt_step(lo, hi, h, g, axis):
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


def _wavedec(arr, h, g, depth, axis):
    """[approx, d_1, ..., d_depth]: the list index is the depth, 0 the approximation."""
    pieces = [arr]
    for _ in range(depth):
        pieces[0], d = _dwt_step(pieces[0], h, g, axis)
        pieces.append(d)
    return pieces


def _waverec(pieces, h, g, axis):
    cur = pieces[0]
    for d in reversed(pieces[1:]):
        cur = _idwt_step(cur, d, h, g, axis)
    return cur


@dataclass(frozen=True, eq=False)
class HyperbolicPyramid:
    """Coefficients of the separable transform with independent dilations.

    ``blocks[(j1, j2)]`` for 0 <= j1 <= J1 and 0 <= j2 <= J2 (keys run
    with j2 outer, j1 inner). Along axis i, depth 0 is the approximation
    at full depth J_i, of length n/2^J_i, and depth j >= 1 is the detail
    at depth j, of length n/2^j. So ``blocks[(0, 0)]`` is the
    approximation, the blocks with j1, j2 >= 1 are the detail x detail
    blocks, and together all blocks form an orthonormal decomposition of
    the field.
    """

    grid_n: int
    filter: str
    levels: tuple
    blocks: dict = field(repr=False)

    # read-only views for the benchmark harness (bench/workloads.py counts
    # coefficients through them); package code reads ``blocks`` directly
    approx = property(lambda self: self.blocks[(0, 0)])
    detail = property(lambda self: {k: b for k, b in self.blocks.items() if 0 not in k})
    detail_approx = property(lambda self: {j: self.blocks[(j, 0)] for j in range(1, self.levels[0] + 1)})
    approx_detail = property(lambda self: {j: self.blocks[(0, j)] for j in range(1, self.levels[1] + 1)})


def default_levels(n: int) -> int:
    """Default decomposition depth: down to 2-coefficient block edges."""
    return max(1, int(math.log2(n)) - 1)


def hyperbolic_transform(field_or_values, filt="d4", levels=None) -> HyperbolicPyramid:
    """Full separable transform with independent dyadic depths per axis.

    Rows are decomposed to depth J2 (axis 1), then every piece is
    decomposed to depth J1 along axis 0; boundaries are periodic. A depth
    J needs n divisible by 2^J.
    """
    values = field_or_values.values if isinstance(field_or_values, SampledField) else np.asarray(field_or_values, dtype=float)
    n = values.shape[0]
    if values.shape != (n, n):
        raise ValueError(f"expected a square array, got {values.shape}")
    if filt not in FILTERS:
        raise ValueError(f"unknown filter {filt!r}; choose from {sorted(FILTERS)}")
    h = FILTERS[filt]
    g = _qmf(h)
    if levels is None:
        levels = (default_levels(n), default_levels(n))
    J1, J2 = levels
    for J in (J1, J2):
        if not 1 <= J <= int(math.log2(n)) or n % 2 ** J:
            raise ValueError(f"infeasible levels {levels} for n = {n}")

    blocks = {(j1, j2): b for j2, piece in enumerate(_wavedec(values, h, g, J2, axis=1))
              for j1, b in enumerate(_wavedec(piece, h, g, J1, axis=0))}
    return HyperbolicPyramid(grid_n=n, filter=filt, levels=(J1, J2), blocks=blocks)


def inverse_hyperbolic_transform(pyr: HyperbolicPyramid) -> np.ndarray:
    """Exact inverse (orthonormal filters reconstruct to round-off)."""
    h = FILTERS[pyr.filter]
    g = _qmf(h)
    J1, J2 = pyr.levels
    cols = [_waverec([pyr.blocks[(j1, j2)] for j1 in range(J1 + 1)], h, g, axis=0)
            for j2 in range(J2 + 1)]
    return _waverec(cols, h, g, axis=1)


def coefficient_energy(pyr: HyperbolicPyramid) -> float:
    """Sum of squares over every stored coefficient."""
    return sum(float(np.sum(b ** 2)) for b in pyr.blocks.values())


@dataclass(frozen=True)
class ScaleStats:
    """log2 of the normalized l^p statistic per detail block."""

    grid_n: int
    levels: tuple
    p: float
    log2_stat: dict  # (j1, j2) -> log2((mean |d|^p)^{1/p}); -inf for empty blocks


def scale_statistics(pyr: HyperbolicPyramid, p) -> ScaleStats:
    """Per-coefficient l^p statistic of each detail x detail block, in log2.

    All-zero blocks report -inf and are excluded from the ratio scan.
    """
    return pooled_scale_statistics([pyr], p)


def pooled_scale_statistics(pyramids, p) -> ScaleStats:
    """Ensemble statistic: per-block p-th moments pooled across pyramids.

    A moment that overflows float64, or underflows to 0 on a block that is
    not all zero, raises ValueError naming p.
    """
    if not pyramids:
        raise ValueError("need at least one pyramid")
    ref = pyramids[0]
    for pyr in pyramids[1:]:
        if (pyr.grid_n, pyr.levels, pyr.filter) != (ref.grid_n, ref.levels, ref.filter):
            raise ValueError("pyramids do not share grid, levels, and filter")
    if not (p == math.inf or p >= 1):
        raise ValueError(f"order p must be >= 1 or inf, got {p}")
    out = {}
    for key in ref.blocks:
        if 0 in key:
            continue
        with np.errstate(over="ignore", under="ignore"):
            if p == math.inf:
                moment = max(float(np.max(np.abs(pyr.blocks[key]))) for pyr in pyramids)
            else:
                moment = np.mean([np.mean(np.abs(pyr.blocks[key]) ** p) for pyr in pyramids])
        if moment == math.inf or (moment == 0.0 and
                                  any(np.any(pyr.blocks[key]) for pyr in pyramids)):
            what = "overflows float64" if moment else "underflows to 0 on nonzero coefficients"
            raise ValueError(f"order p={p}: the moment of block {key} {what}")
        v = moment if p == math.inf else moment ** (1.0 / p)
        out[key] = math.log2(v) if v > 0 else -math.inf
    return ScaleStats(grid_n=ref.grid_n, levels=ref.levels, p=float(p), log2_stat=out)


@dataclass(frozen=True)
class RatioScan:
    ratios: tuple
    decay_rates: tuple        # regression slope per unit anisotropic scale
    best_ratio: float
    slope_at_best: float

    @property
    def implied_alpha0(self) -> float:
        return 2.0 * self.best_ratio / (1.0 + self.best_ratio)


RATIO_RANGE = (0.15, 6.5)
_RATIO_POINTS_PER_SIDE = 10
RAY_BAND = 0.5
FREQ_ANCHOR = math.log2(2.0 * math.pi)


def default_ratio_grid():
    """Log-spaced ratios on [0.154, 6.5], closed under inversion.

    The grid step (factor ~1.21) matches the intrinsic resolution of the
    block-lattice ray regression; a finer grid would only produce
    neighbor-snapping without extra information.
    """
    k = np.arange(-_RATIO_POINTS_PER_SIDE, _RATIO_POINTS_PER_SIDE + 1)
    return tuple(float(v) for v in RATIO_RANGE[1] ** (k / _RATIO_POINTS_PER_SIDE))


def ratio_maximize(stats: ScaleStats, ratios=None, band=RAY_BAND) -> RatioScan:
    """Scan scale ratios; the decay-rate maximizer estimates the anisotropy.

    A ratio r corresponds to the analysis pair (alpha, 2 - alpha) with
    alpha = 2 r / (1 + r). Each block is assigned the anisotropic scale
    coordinate max((u1 + c)/alpha, (u2 + c)/(2 - alpha)), where
    u_i = log2(n) - j_i are frequency octaves and c = log2(2 pi) anchors
    the rays at the fundamental frequency of the unit square. Blocks
    within ``band`` of the ray (triangular weights in ray distance) feed
    a weighted log-log regression of the statistic against the scale
    coordinate; the per-ratio slope is steepest-negative away from the
    texture's own ratio, so the maximizing ratio is the estimate.
    Coarsest-level blocks are excluded (periodization bias); rays with
    fewer than 3 usable blocks are skipped.
    """
    if ratios is None:
        ratios = default_ratio_grid()
    L = math.log2(stats.grid_n)
    J1, J2 = stats.levels
    entries = [(L - j1, L - j2, s) for (j1, j2), s in stats.log2_stat.items()
               if math.isfinite(s) and j1 != J1 and j2 != J2]
    rs, slopes = [], []
    for r in ratios:
        alpha = 2.0 * r / (1.0 + r)
        xs, ys, ws = [], [], []
        for u1, u2, s in entries:
            t1 = (u1 + FREQ_ANCHOR) / alpha
            t2 = (u2 + FREQ_ANCHOR) / (2.0 - alpha)
            w = 1.0 - abs(t1 - t2) / (2.0 * band)
            if w > 0.0:
                xs.append(max(t1, t2))
                ys.append(s)
                ws.append(w)
        if len(xs) < 3:
            continue
        xs = np.asarray(xs)
        ys = np.asarray(ys)
        ws = np.asarray(ws)
        xb = float(np.sum(ws * xs) / ws.sum())
        den = float(np.sum(ws * (xs - xb) ** 2))
        if den <= 1e-12:
            continue
        yb = float(np.sum(ws * ys) / ws.sum())
        slope = float(np.sum(ws * (xs - xb) * (ys - yb)) / den)
        rs.append(float(r))
        slopes.append(slope)
    if not rs:
        raise ValueError("no usable rays: every candidate ratio had fewer than 3 blocks")
    best_i = int(np.argmax(slopes))
    return RatioScan(ratios=tuple(rs), decay_rates=tuple(slopes),
                     best_ratio=rs[best_i], slope_at_best=slopes[best_i])

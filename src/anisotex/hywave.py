"""Tensor-product wavelet analysis with independent dilations per axis.

The transform is the outer product of two 1-D orthonormal periodic
wavelet decompositions, to depth J1 along axis 0 and depth J2 along
axis 1. Its coefficients are one dict of blocks indexed by the depth
pair (j1, j2), 0 <= j1 <= J1 and 0 <= j2 <= J2, where depth 0 along an
axis stands for the approximation at full depth and depth j >= 1 for the
detail at depth j. ``pooled_scale_statistics``, the one block statistic,
reduces the detail x detail blocks (j1, j2 >= 1) of one or more pyramids
to a normalized l^p statistic per block, and the scale-ratio scan
``ratio_maximize`` reads it: its maximizer estimates the anisotropy ratio
of the texture.

Each periodic filter step runs over strips of about 2^15 output samples,
so that its buffers stay in cache. A strip's even and odd input samples
are copied to two flat buffers, every filter tap is one flat slice of a
buffer, and the products are summed in the order of the whole-array
formula, so no coefficient depends on the strip size. Every step halves
the axis, so depth J needs the grid size n divisible by 2^J.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SampledField, _check_moment, _line_fit, _moment, check_order

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


# elements per band in one strip of a filter step (256 KB), so that a
# strip's buffers stay in L2; 2^15 was the fastest from 2^12 to 2^17
_STRIP = 2 ** 15


def _fill(x, src, s0, s1, Q, axis, step, r=0):
    """Copy to x the samples r + step i along axis of strip s0:s1 (rows on axis 1; i, padded by Q, on axis 0)."""
    if axis:
        part = src[s0:s1, r::step]
        return np.copyto(x[:part.size].reshape(part.shape), part)
    rows = step * np.arange(s0 - Q, s1 + Q) + r
    np.take(src, rows, axis=0, mode="wrap", out=x[:len(rows) * src.shape[1]].reshape(len(rows), -1))


def _taps(d, n, L, W, Q, axis):
    """(output, input) flat slices that read a filled strip advanced by d samples mod L, for |d| <= L."""
    if axis == 0:
        return [(slice(0, n), slice((Q + d) * W, (Q + d) * W + n))]
    a, b = max(d, 0), max(-d, 0)
    wrapped = range(L - d, L) if d > 0 else range(-d)
    return [(slice(b, n - a), slice(a, n - b))] + [(slice(k, n, L), slice((k + d) % L, n, L)) for k in wrapped]


def _dwt_step(arr, h, g, axis):
    # lo[k] = sum_m h[m] arr[(2k + m) mod N] in tap order, likewise hi with g
    arr = np.ascontiguousarray(arr)  # np.take would copy a strided source whole per strip
    shape = tuple(s // 2 if i == axis else s for i, s in enumerate(arr.shape))
    L, W, Q = shape[axis], shape[1], (len(h) - 1) // 2
    lo, hi = np.empty(shape), np.empty(shape)
    rows = max(1, _STRIP // W)
    buf = np.empty((3, (rows + 2 * Q) * W))
    for s0 in range(0, shape[0], rows):
        s1 = min(s0 + rows, shape[0])
        n = (s1 - s0) * W
        for r in (0, 1):
            _fill(buf[1 + r], arr, s0, s1, Q, axis, 2, r)
        for m in range(len(h)):
            for band, f in ((lo[s0:s1].reshape(-1), h), (hi[s0:s1].reshape(-1), g)):
                dst = band if m == 0 else buf[0, :n]
                for o, i in _taps(m // 2, n, L, W, Q, axis):
                    np.multiply(f[m], buf[1 + m % 2, i], out=dst[o])
                if m:
                    band += dst
    return lo, hi


def _idwt_step(lo, hi, h, g, axis):
    # out[2k + r] = sum over m = r, r + 2, ... of h[m] lo[k - m // 2] + g[m] hi[k - m // 2]
    lo, hi = np.ascontiguousarray(lo), np.ascontiguousarray(hi)  # as in _dwt_step
    out = np.empty(tuple(s * 2 if i == axis else s for i, s in enumerate(lo.shape)))
    L, W, Q = lo.shape[axis], lo.shape[1], (len(h) - 1) // 2
    rows = max(1, _STRIP // W)
    buf = np.empty((5, (rows + 2 * Q) * W))
    for s0 in range(0, lo.shape[0], rows):
        s1 = min(s0 + rows, lo.shape[0])
        n = (s1 - s0) * W
        acc, t, u = buf[:3, :n]
        _fill(buf[3], lo, s0, s1, Q, axis, 1)
        _fill(buf[4], hi, s0, s1, Q, axis, 1)
        for r in (0, 1):
            for m in range(r, len(h), 2):
                a = acc if m == r else t
                for o, i in _taps(-(m // 2), n, L, W, Q, axis):
                    np.multiply(h[m], buf[3, i], out=a[o])
                    np.multiply(g[m], buf[4, i], out=u[o])
                a += u
                if m != r:
                    acc += a
            phase = out[2 * s0 + r:2 * s1:2] if axis == 0 else out[s0:s1, r::2]
            np.copyto(phase, acc.reshape(phase.shape))
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
    """log2 of the normalized l^p statistic per detail block; ValueError unless
    ``grid_n`` is a power of two >= 2, each level lies in 1..log2(grid_n),
    ``check_order`` accepts p and every block (j1, j2) has 1 <= j_i <= levels_i."""

    grid_n: int
    levels: tuple
    p: float
    log2_stat: dict  # (j1, j2) -> log2((mean |d|^p)^{1/p}); -inf for empty blocks

    def __post_init__(self):
        n = self.grid_n
        if not (isinstance(n, (int, np.integer)) and n >= 2 and n & (n - 1) == 0):
            raise ValueError(f"grid_n must be a power of two >= 2, got {n!r}")
        top = int(n).bit_length() - 1  # log2(grid_n)
        if not (len(self.levels) == 2 and all(isinstance(J, (int, np.integer)) and 1 <= J <= top
                                              for J in self.levels)):
            raise ValueError(f"levels must be two integers in 1..{top} = log2(grid_n), got {self.levels!r}")
        check_order(self.p)
        outside = sorted(k for k in self.log2_stat if not all(1 <= j <= J for j, J in zip(k, self.levels)))
        if outside:
            raise ValueError(f"blocks {outside} lie outside levels {self.levels}")


def _block_moments(pyr: HyperbolicPyramid, p) -> dict:
    """{(j1, j2): (mean |d|^p, or max |d| for p = inf; whether the block has a
    nonzero coefficient)} over one pyramid's detail x detail blocks. Enters
    its own errstate, so it may run on a pool worker."""
    out = {}
    for key, b in pyr.blocks.items():
        if 0 in key:
            continue
        m = _moment(b, p, np.empty_like(b))
        out[key] = (m, m != 0.0 or bool(np.any(b)))
    return out


def _pool_moments(shapes, per, p) -> ScaleStats:
    """``pooled_scale_statistics`` from the pyramids' (grid_n, levels, filter)
    ``shapes`` and their ``_block_moments`` ``per``, in pyramid order."""
    if not per:
        raise ValueError("need at least one pyramid")
    if len(set(shapes)) > 1:
        raise ValueError("pyramids do not share grid, levels, and filter")
    p, out = float(p), {}
    for key in per[0]:
        pairs = [m[key] for m in per]
        ms = [m for m, _ in pairs]
        with np.errstate(over="ignore", under="ignore"):
            moment = max(ms) if p == math.inf else np.mean(ms)
        _check_moment(moment, p, lambda: any(nz for _, nz in pairs), f"the moment of block {key}")
        v = moment if p == math.inf else moment ** (1.0 / p)
        out[key] = math.log2(v) if v > 0 else -math.inf
    grid_n, levels, _ = shapes[0]
    return ScaleStats(grid_n=grid_n, levels=levels, p=p, log2_stat=out)


def pooled_scale_statistics(pyramids, p) -> ScaleStats:
    """The hyperbolic block statistic of one or more pyramids: per detail x
    detail block, the p-th moments pooled in pyramid order (their mean, max
    for p = inf) as log2 of an l^p norm per coefficient; -inf for an
    all-zero block. ValueError for an order ``check_order`` refuses, no
    pyramid, pyramids that differ in grid, levels or filter, or a pooled
    moment that leaves the float64 range (naming p)."""
    check_order(p)
    return _pool_moments([(pyr.grid_n, pyr.levels, pyr.filter) for pyr in pyramids],
                         [_block_moments(pyr, p) for pyr in pyramids], p)


@dataclass(frozen=True)
class RatioScan:
    """Decay rate (regression slope per unit anisotropic scale) per scale
    ratio, each a tuple of floats; ValueError unless there is one finite rate
    per ratio, and at least one ratio. ``slope_at_best`` is the largest rate
    and ``best_ratio`` its ratio, the first on ties."""

    ratios: tuple
    decay_rates: tuple

    def __post_init__(self):
        for name in ("ratios", "decay_rates"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if not (self.decay_rates and all(map(math.isfinite, self.decay_rates))
                and len(self.ratios) == len(self.decay_rates)):
            raise ValueError("ratio scan needs one finite decay_rate per ratio")

    @property
    def slope_at_best(self) -> float:
        return max(self.decay_rates)

    @property
    def best_ratio(self) -> float:
        return self.ratios[self.decay_rates.index(self.slope_at_best)]

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


def ratio_maximize(stats: ScaleStats) -> RatioScan:
    """Scan scale ratios; the decay-rate maximizer estimates the anisotropy.

    A ratio r corresponds to the analysis pair (alpha, 2 - alpha) with
    alpha = 2 r / (1 + r). Each block is assigned the anisotropic scale
    coordinate max((u1 + c)/alpha, (u2 + c)/(2 - alpha)), where
    u_i = log2(n) - j_i are frequency octaves and c = log2(2 pi) anchors
    the rays at the fundamental frequency of the unit square. Blocks
    within RAY_BAND of the ray (triangular weights in ray distance) feed
    a weighted log-log regression of the statistic against the scale
    coordinate; the per-ratio slope is steepest-negative away from the
    texture's own ratio, so the maximizing ratio is the estimate.
    Coarsest-level blocks are excluded (periodization bias); rays with
    fewer than 3 usable blocks are skipped. A ray whose blocks all share
    one scale coordinate has no slope, and the scan raises ValueError.
    """
    L = math.log2(stats.grid_n)
    J1, J2 = stats.levels
    u1, u2, s = np.array([(L - j1, L - j2, v) for (j1, j2), v in stats.log2_stat.items()
                          if math.isfinite(v) and j1 != J1 and j2 != J2]).reshape(-1, 3).T
    rs, slopes = [], []
    for r in default_ratio_grid():
        alpha = 2.0 * r / (1.0 + r)
        t1 = (u1 + FREQ_ANCHOR) / alpha
        t2 = (u2 + FREQ_ANCHOR) / (2.0 - alpha)
        w = 1.0 - np.abs(t1 - t2) / (2.0 * RAY_BAND)
        on = w > 0.0
        if np.count_nonzero(on) < 3:
            continue
        rs.append(r)
        slopes.append(_line_fit(np.maximum(t1, t2)[on], s[on], w[on])[0])  # the slope
    if not rs:
        raise ValueError("no usable rays: every candidate ratio had fewer than 3 blocks")
    return RatioScan(rs, slopes)

"""Directional increment statistics and anisotropic critical exponents.

The estimator chain is: structure functions (p-th order increment means
along lattice directions) -> log-log slopes -> directional exponents h_i
-> critical exponent min(lambda_1 h_1, lambda_2 h_2) for an analyzing
anisotropy with eigenvalues lambda_i -> scan over the diagonal analysis
family diag(alpha, 2 - alpha). For a field with anisotropy
diag(alpha0, 2 - alpha0) and index H the scan traces the tent curve
H min(alpha/alpha0, (2-alpha)/(2-alpha0)), peaking at (alpha0, H).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Anisotropy, SampledField, _check_moment, _line_fit, _moment, check_order
from .synth import _pool_map

INTERIOR_MARGIN = 8        # statistics use points at least n/8 from each edge
MAX_LATTICE_COMPONENT = 8  # directions snap to integer vectors (u, v), |u|,|v| <= 8


class DegenerateDirectionError(ValueError):
    """The field is constant along the requested direction."""


def snap_direction(direction):
    """Snap a unit vector to the nearest coprime lattice direction (u, v).

    Components are bounded by 8; among angle ties the shortest vector
    wins. The sign is canonicalized (u > 0, or u = 0 and v > 0). Each
    direction is searched once: the result is kept in a bounded LRU cache
    keyed by the two float components, after the checks, so a direction
    that is not two finite components, not both zero, raises on every call.
    """
    d = np.asarray(direction, dtype=float)
    if d.shape != (2,):
        raise ValueError(f"direction must have two components, got shape {d.shape}")
    if not (math.isfinite(d[0]) and math.isfinite(d[1])):
        raise ValueError(f"direction ({d[0]}, {d[1]}) must have finite components")
    if math.hypot(d[0], d[1]) == 0:
        raise ValueError("direction must be nonzero")
    return _snap_search(float(d[0]), float(d[1]))


@functools.lru_cache(maxsize=256)
def _snap_search(x, y):
    """The lattice search of ``snap_direction`` for a finite nonzero (x, y)."""
    nrm = math.hypot(x, y)
    d = (x / nrm, y / nrm)
    best = None
    for u in range(-MAX_LATTICE_COMPONENT, MAX_LATTICE_COMPONENT + 1):
        for v in range(-MAX_LATTICE_COMPONENT, MAX_LATTICE_COMPONENT + 1):
            if math.gcd(abs(u), abs(v)) != 1:  # gcd(0, 0) = 0 skips the zero vector
                continue
            ln = math.hypot(u, v)
            cos = abs(u * d[0] + v * d[1]) / ln
            key = (-cos, ln)
            if best is None or key < best[0]:
                best = (key, (u, v))
    u, v = best[1]
    if u < 0 or (u == 0 and v < 0):
        u, v = -u, -v
    return (u, v)


def default_lags(n: int):
    """Log-spaced lattice lags m/n, m in {2^j, 3*2^(j-1)} up to n/4."""
    ms = set()
    m = 1
    while m <= n // 4:
        ms.add(m)
        if m % 2 == 0 and 3 * m // 2 <= n // 4:
            ms.add(3 * m // 2)
        m *= 2
    return [m / n for m in sorted(ms)]


def _direction_lags(n: int, step_len: float):
    """Default lags along a lattice step of length step_len: default_lags(n)
    scaled by the step, up to 1/4."""
    return [t * step_len for t in default_lags(n) if t * step_len <= 0.25 + 1e-12]


def _fit_lags(n: int, step_len: float):
    """The default lags along a step of length step_len that the default fit
    window keeps."""
    lags = _direction_lags(n, step_len)
    return [t for t, k in zip(lags, _default_fit_mask(lags, n)) if k]


@dataclass(frozen=True)
class StructureFunction:
    """Table of p-th order increment statistics along one direction;
    ValueError unless the step is a nonzero integer pair, ``check_order``
    accepts p, and there is one value per lag, each lag finite and > 0."""

    lattice_step: tuple       # integer step (u, v)
    p: float
    lags: tuple               # lag lengths t, exact lattice multiples
    values: tuple             # S(t), mean |increment|^p (max for p = inf)
    grid_n: int               # samples per axis of the field measured

    def __post_init__(self):
        u, v = self.lattice_step
        if not (all(isinstance(c, (int, np.integer)) for c in (u, v)) and (u, v) != (0, 0)):
            raise ValueError(f"direction {u},{v} is not a nonzero integer step")
        check_order(self.p)
        if not (len(self.lags) == len(self.values) and all(0 < t < math.inf for t in self.lags)):
            raise ValueError("structure function needs one value per lag, each lag finite and > 0")

    @property
    def direction(self) -> tuple:
        """Unit vector of the snapped direction."""
        u, v = self.lattice_step
        nrm = math.hypot(u, v)
        return (u / nrm, v / nrm)


def structure_function(field: SampledField, direction, p, lags=None) -> StructureFunction:
    """Average p-th power increments along a snapped lattice direction.

    Increments f(x + m (u,v)/n) - f(x) are averaged over every x whose
    endpoints both lie in the interior (margin n/8 per side); for
    p = inf the maximum replaces the mean. Lags are rounded to exact
    lattice multiples of the step vector; the default is every default
    lag up to 1/4. Each increment is written into one scratch buffer,
    sized for the largest window, and raised to the p-th power in place.
    A moment that overflows float64, or underflows to 0 on increments
    that are not all zero, raises ValueError naming p.
    """
    check_order(p)
    n = field.grid_n
    u, v = snap_direction(direction)
    step_len = math.hypot(u, v)
    if lags is None:
        lags = _direction_lags(n, step_len)
    ms = []
    for t in lags:
        if not 0.0 < t <= 0.25 + 1e-12:
            raise ValueError(f"lag {t} outside (0, 1/4]")
        m = max(1, round(t * n / step_len))
        if m not in ms:
            ms.append(m)
    ms.sort()

    vals = field.values
    margin = n // INTERIOR_MARGIN
    windows = []  # (m, view of the far endpoints, view of the near endpoints)
    for m in ms:
        du, dv = m * u, m * v
        i0 = margin + max(0, -du)
        i1 = (n - margin) - max(0, du)
        j0 = margin + max(0, -dv)
        j1 = (n - margin) - max(0, dv)
        if i1 > i0 and j1 > j0:
            windows.append((m, vals[i0 + du:i1 + du, j0 + dv:j1 + dv], vals[i0:i1, j0:j1]))
    if not windows:
        raise ValueError("no valid lags for this grid and direction")
    buf = np.empty(max(a.size for _, a, _ in windows))
    out_t, out_s = [], []
    for m, a, b in windows:
        inc = buf[:a.size].reshape(a.shape)
        with np.errstate(over="ignore"):  # an overflowed increment is inf, and so is its moment
            np.subtract(a, b, out=inc)
        s = _moment(inc, p, inc)
        t = m * step_len / n
        _check_moment(s, p, lambda: np.any(a != b), f"the moment at lag {t:.6g}")
        out_t.append(t)
        out_s.append(s)
    return StructureFunction(lattice_step=(u, v), p=float(p), lags=tuple(out_t),
                             values=tuple(out_s), grid_n=n)


def average_structure_functions(sfs) -> StructureFunction:
    """Ensemble mean of matching structure-function tables."""
    first = sfs[0]
    for sf in sfs[1:]:
        if sf.lags != first.lags or sf.p != first.p or sf.lattice_step != first.lattice_step:
            raise ValueError("structure functions do not share lags, order, and direction")
    vals = np.mean([sf.values for sf in sfs], axis=0)
    return StructureFunction(lattice_step=first.lattice_step, p=first.p, lags=first.lags,
                             values=tuple(float(v) for v in vals), grid_n=first.grid_n)


@dataclass(frozen=True)
class DirectionalExponent:
    h: float
    stderr: float
    fit_range: tuple


def _default_fit_mask(lags, grid_n):
    """Drop the two finest and two coarsest lags, then clip to [4/n, 1/8]."""
    t = np.asarray(lags)
    keep = np.ones(t.size, dtype=bool)
    if t.size > 4:
        keep[:2] = False
        keep[-2:] = False
    keep &= (t >= 4.0 / grid_n - 1e-12) & (t <= 0.125 + 1e-12)
    return keep


MIN_FIT_LAGS = 4


def min_fit_grid() -> int:
    """Smallest power-of-two grid (>= 64) whose axis structure functions keep
    MIN_FIT_LAGS default lags inside the default fit window."""
    n = 64
    while len(_fit_lags(n, 1.0)) < MIN_FIT_LAGS:
        n *= 2
    return n


def directional_exponent(sf: StructureFunction, fit_range=None) -> DirectionalExponent:
    """Log-log slope of a structure function; h = slope / p (slope for p = inf).

    Ordinary least squares over the default fit window (two lags dropped
    at each end, clipped to [4/n, 1/8]) or an explicit (t_min, t_max).
    A zero value inside the window means the field is constant along the
    direction and raises DegenerateDirectionError.
    """
    t = np.asarray(sf.lags)
    s = np.asarray(sf.values)
    if np.all(s == 0.0):
        raise DegenerateDirectionError(
            "structure function vanishes identically (constant direction)"
        )
    if fit_range is not None:
        keep = (t >= fit_range[0] - 1e-12) & (t <= fit_range[1] + 1e-12)
    else:
        keep = _default_fit_mask(t, sf.grid_n)
    t, s = t[keep], s[keep]
    if t.size < MIN_FIT_LAGS:
        raise ValueError(f"need at least {MIN_FIT_LAGS} lags in the fit range, have {t.size}")
    if np.any(s <= 0.0):
        raise DegenerateDirectionError(
            "structure function vanishes in the fit range (constant direction)"
        )
    slope, sxx, rss = _line_fit(np.log(t), np.log(s))
    q = 1.0 if sf.p == math.inf else sf.p  # the slope is h itself for p = inf
    return DirectionalExponent(h=slope / q, stderr=math.sqrt(rss / (t.size - 2) / sxx) / q,
                               fit_range=(float(t[0]), float(t[-1])))


def critical_exponent(field: SampledField, D: Anisotropy, p) -> float:
    """Empirical local critical exponent for analysis anisotropy D.

    Measures the directional exponent h_i along each eigenvector of D
    (snapped to the lattice) and returns min(lambda_1 h_1, lambda_2 h_2).
    """
    hs = _exponents(field, D.eigenvectors, p)
    return float(min(lam * h for lam, h in zip(D.eigenvalues, hs)))


def _exponents(field: SampledField, directions, p):
    """Directional exponent h along each direction, in order.

    Only the default lags that the default fit window keeps are computed,
    and the fit runs over exactly those, so h equals the default fit of
    the full table.
    """
    hs = []
    for d in directions:
        u, v = snap_direction(d)
        sf = structure_function(field, (u, v), p, lags=_fit_lags(field.grid_n, math.hypot(u, v)))
        hs.append(directional_exponent(sf, fit_range=(sf.lags[0], sf.lags[-1])).h)
    return hs


def tent_prediction(alpha: float, alpha0: float, hurst: float) -> float:
    """Predicted critical exponent hurst * min(alpha/alpha0, (2-alpha)/(2-alpha0)).

    The curve increases strictly on (0, alpha0], decreases strictly on
    [alpha0, 2), and peaks at exactly (alpha0, hurst).
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if not 0.0 < alpha0 < 2.0:
        raise ValueError(f"alpha0 must lie in (0, 2), got {alpha0}")
    return hurst * min(alpha / alpha0, (2.0 - alpha) / (2.0 - alpha0))


@dataclass(frozen=True)
class ExponentScan:
    """Mean critical exponent and stderr per analysis alpha, as float tuples;
    ValueError unless each of at least one alpha has one finite exponent and
    one stderr. ``peak`` is the largest exponent and ``argmax_alpha`` the
    first alpha within 1e-9 of it (ties break toward the smallest alpha)."""

    alphas: tuple
    exponents: tuple
    stderrs: tuple

    def __post_init__(self):
        for name in ("alphas", "exponents", "stderrs"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if not (self.exponents and all(map(math.isfinite, self.exponents))
                and len(self.alphas) == len(self.exponents) == len(self.stderrs)):
            raise ValueError("scan needs one finite exponent_mean and one exponent_stderr per alpha")

    @property
    def peak(self) -> float:
        return max(self.exponents)

    @property
    def argmax_alpha(self) -> float:
        return next(a for a, m in zip(self.alphas, self.exponents) if m >= self.peak - 1e-9)


ALPHA_SCAN_RANGE = (0.2, 1.8)


_AXES = ((1.0, 0.0), (0.0, 1.0))


def axis_exponents(field: SampledField, p) -> tuple:
    """The directional exponents (h1, h2) of one field along the two axes,
    fitted over the default window: one realization's share of a scan."""
    return tuple(_exponents(field, _AXES, p))


def _scan_alphas(alpha_grid):
    """The analysis alphas as floats, each inside ALPHA_SCAN_RANGE."""
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("empty alpha grid")
    lo, hi = ALPHA_SCAN_RANGE
    for a in alphas:
        if not lo - 1e-12 <= a <= hi + 1e-12:
            raise ValueError(f"alpha {a} outside the resolvable scan range [{lo}, {hi}]")
    return alphas


def scan_exponents(exponents, alpha_grid) -> ExponentScan:
    """The anisotropy scan of per-realization axis exponents.

    ``exponents`` holds one ``axis_exponents`` pair (h1, h2) per
    realization. The diagonal analysis family has the axes as
    eigendirections for every alpha, so each realization's critical
    exponent is min(alpha h1, (2-alpha) h2); the scan averages these in
    realization order.
    """
    alphas = _scan_alphas(alpha_grid)
    hs = np.array(exponents)  # (reps, 2)
    if hs.ndim != 2 or hs.shape[0] == 0:
        raise ValueError("need at least one field")
    al = np.asarray(alphas)
    per = np.minimum(al[None, :] * hs[:, [0]], (2.0 - al)[None, :] * hs[:, [1]])
    mean = per.mean(axis=0)
    if len(hs) > 1:
        stderr = per.std(axis=0, ddof=1) / math.sqrt(len(hs))
    else:
        stderr = np.zeros_like(mean)
    return ExponentScan(alphas, mean, stderr)


def scan_anisotropy(fields, alpha_grid, p) -> ExponentScan:
    """Average critical exponents over realizations per analysis alpha.

    All fields must share a generative spec (seeds may differ). The
    per-field ``axis_exponents`` are measured once and folded by
    ``scan_exponents``; this equals calling ``critical_exponent`` per
    (field, alpha) and averaging. Only the lags the default fit window
    keeps (m = 4..n/8 along the axes) are computed, and the exponents equal
    the default fit of the full tables exactly. An order p whose moments
    leave the float64 range raises ValueError naming p (from
    ``structure_function``). Per-field work runs on a worker pool (capped
    by ANISOTEX_THREADS) and is folded in field order, so results do not
    depend on scheduling. ``ensemble.reduce_fields`` computes the same scan
    without holding the ensemble.
    """
    if not fields:
        raise ValueError("need at least one field")
    ref = fields[0].spec.with_seed(0)
    if any(f.spec.with_seed(0) != ref for f in fields[1:]):
        raise ValueError("fields do not share a generative spec")
    alphas = _scan_alphas(alpha_grid)
    return scan_exponents(_pool_map(lambda f: axis_exponents(f, p), fields), alphas)

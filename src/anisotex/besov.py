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

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Anisotropy, SampledField

INTERIOR_MARGIN = 8        # statistics use points at least n/8 from each edge
MAX_LATTICE_COMPONENT = 8  # directions snap to integer vectors (u, v), |u|,|v| <= 8


class DegenerateDirectionError(ValueError):
    """The field is constant along the requested direction."""


def snap_direction(direction):
    """Snap a unit vector to the nearest coprime lattice direction (u, v).

    Components are bounded by 8; among angle ties the shortest vector
    wins. The sign is canonicalized (u > 0, or u = 0 and v > 0).
    """
    d = np.asarray(direction, dtype=float)
    if not (math.isfinite(d[0]) and math.isfinite(d[1])):
        raise ValueError(f"direction ({d[0]}, {d[1]}) must have finite components")
    nrm = math.hypot(d[0], d[1])
    if nrm == 0:
        raise ValueError("direction must be nonzero")
    d = d / nrm
    best = None
    for u in range(-MAX_LATTICE_COMPONENT, MAX_LATTICE_COMPONENT + 1):
        for v in range(-MAX_LATTICE_COMPONENT, MAX_LATTICE_COMPONENT + 1):
            if u == 0 and v == 0:
                continue
            if math.gcd(abs(u), abs(v)) != 1:
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
    """Table of p-th order increment statistics along one direction."""

    direction: tuple          # unit vector of the snapped direction
    lattice_step: tuple       # integer step (u, v)
    p: float
    lags: tuple               # lag lengths t, exact lattice multiples
    values: tuple             # S(t), mean |increment|^p (max for p = inf)
    grid_n: int = 0


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
    if not (p == math.inf or p >= 1):
        raise ValueError(f"order p must be >= 1 or inf, got {p}")
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
    with np.errstate(over="ignore", under="ignore"):
        for m, a, b in windows:
            inc = buf[:a.size].reshape(a.shape)
            np.subtract(a, b, out=inc)
            if p == math.inf:
                s = float(np.max(np.abs(inc, out=inc)))
            else:
                if p != 2:  # x**2 is an exact square; numpy's pow is not sign-symmetric
                    np.abs(inc, out=inc)
                inc **= p
                s = float(np.mean(inc))
            t = m * step_len / n
            if s == math.inf or (s == 0.0 and np.any(a != b)):
                what = "overflows float64" if s else "underflows to 0 on nonzero increments"
                raise ValueError(f"order p={p}: the moment at lag {t:.6g} {what}")
            out_t.append(t)
            out_s.append(s)
    return StructureFunction(direction=(u / step_len, v / step_len), lattice_step=(u, v),
                             p=float(p), lags=tuple(out_t), values=tuple(out_s),
                             grid_n=n)


def average_structure_functions(sfs) -> StructureFunction:
    """Ensemble mean of matching structure-function tables."""
    first = sfs[0]
    for sf in sfs[1:]:
        if sf.lags != first.lags or sf.p != first.p or sf.lattice_step != first.lattice_step:
            raise ValueError("structure functions do not share lags, order, and direction")
    vals = np.mean([sf.values for sf in sfs], axis=0)
    return StructureFunction(direction=first.direction, lattice_step=first.lattice_step,
                             p=first.p, lags=first.lags, values=tuple(float(v) for v in vals),
                             grid_n=first.grid_n)


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
        if not sf.grid_n:
            raise ValueError("structure function lacks grid_n; pass fit_range explicitly")
        keep = _default_fit_mask(t, sf.grid_n)
    t, s = t[keep], s[keep]
    if t.size < MIN_FIT_LAGS:
        raise ValueError(f"need at least {MIN_FIT_LAGS} lags in the fit range, have {t.size}")
    if np.any(s <= 0.0):
        raise DegenerateDirectionError(
            "structure function vanishes in the fit range (constant direction)"
        )
    lx, ly = np.log(t), np.log(s)
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope = coef[0]
    dof = t.size - 2
    if dof > 0 and res.size:
        sigma2 = float(res[0]) / dof
        se = math.sqrt(sigma2 / float(np.sum((lx - lx.mean()) ** 2)))
    else:
        se = 0.0
    p = sf.p
    h = slope if p == math.inf else slope / p
    se_h = se if p == math.inf else se / p
    return DirectionalExponent(h=float(h), stderr=float(se_h),
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
    alphas: tuple
    exponents: tuple
    stderrs: tuple
    argmax_alpha: float
    peak: float


ALPHA_SCAN_RANGE = (0.2, 1.8)


_AXES = ((1.0, 0.0), (0.0, 1.0))


def scan_anisotropy(fields, alpha_grid, p, workers=None) -> ExponentScan:
    """Average critical exponents over realizations per analysis alpha.

    All fields must share a generative spec (seeds may differ). For the
    diagonal analysis family the eigendirections are the axes for every
    alpha, so the per-field directional exponents are measured once and
    recombined as min(alpha h1, (2-alpha) h2); this equals calling
    ``critical_exponent`` per (field, alpha) and averaging. Only the lags
    the default fit window keeps (m = 4..n/8 along the axes) are computed,
    and the exponents equal the default fit of the full tables exactly.
    An order p whose moments leave the float64 range raises ValueError
    naming p (from ``structure_function``). Per-field
    work runs on a worker pool (capped by ANISOTEX_THREADS) and is merged
    by an order-independent mean, so results do not depend on scheduling.
    Ties in the argmax break toward the smallest alpha (tolerance 1e-9).
    """
    if not fields:
        raise ValueError("need at least one field")
    ref = fields[0].spec
    for f in fields[1:]:
        s = f.spec
        if (s.anisotropy, s.hurst, s.rho, s.grid_n) != (ref.anisotropy, ref.hurst, ref.rho, ref.grid_n):
            raise ValueError("fields do not share a generative spec")
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("empty alpha grid")
    lo, hi = ALPHA_SCAN_RANGE
    for a in alphas:
        if not lo - 1e-12 <= a <= hi + 1e-12:
            raise ValueError(f"alpha {a} outside the resolvable scan range [{lo}, {hi}]")

    from .synth import worker_count
    w = worker_count() if workers is None else max(1, workers)
    if w > 1 and len(fields) > 1:
        with ThreadPoolExecutor(max_workers=w) as pool:
            hs = np.array(list(pool.map(lambda f: _exponents(f, _AXES, p), fields)))
    else:
        hs = np.array([_exponents(f, _AXES, p) for f in fields])  # (reps, 2)
    al = np.asarray(alphas)
    per = np.minimum(al[None, :] * hs[:, [0]], (2.0 - al)[None, :] * hs[:, [1]])
    mean = per.mean(axis=0)
    if len(fields) > 1:
        stderr = per.std(axis=0, ddof=1) / math.sqrt(len(fields))
    else:
        stderr = np.zeros_like(mean)
    peak = float(mean.max())
    argmax = float(al[np.nonzero(mean >= peak - 1e-9)[0][0]])
    return ExponentScan(alphas=tuple(alphas), exponents=tuple(float(v) for v in mean),
                        stderrs=tuple(float(v) for v in stderr),
                        argmax_alpha=argmax, peak=peak)

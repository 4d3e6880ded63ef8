"""Homogeneous frequency weights and their admissibility checks.

A weight rho is positive, continuous away from the origin, and scales as
rho(a^{E^T} xi) = a rho(xi) for the anisotropy E it is tagged with. The
weights are the power sums

    rho(xi1, xi2) = |xi1|^(1/alpha0) + |xi2|^(1/(2-alpha0)),

homogeneous for E = diag(alpha0, 2-alpha0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Anisotropy, _line_fit
from .synth import _gauss_panel


@dataclass(frozen=True)
class HomogeneousFunction:
    """A power-sum weight: its anisotropy tag and its alpha0."""

    anisotropy: Anisotropy
    alpha0: float

    def __call__(self, xi):
        return evaluate(self, xi)


def rho_power_sum(alpha0: float) -> HomogeneousFunction:
    """The power-sum weight |xi1|^(1/alpha0) + |xi2|^(1/(2-alpha0)).

    Tagged with the diagonal anisotropy diag(alpha0, 2-alpha0) for which
    it is exactly homogeneous.
    """
    if not 0.0 < alpha0 < 2.0:
        raise ValueError(f"alpha0 must lie in (0, 2), got {alpha0}")
    return HomogeneousFunction(Anisotropy.diagonal(alpha0), float(alpha0))


def evaluate(rho: HomogeneousFunction, xi):
    """Pointwise value of rho; exactly 0 at the origin.

    ``xi`` is a 2-vector or a pair of equal-shape arrays (xi1, xi2).
    """
    alpha0 = rho.alpha0
    xi1, xi2 = xi
    out = (np.abs(np.asarray(xi1, dtype=float)) ** (1.0 / alpha0)
           + np.abs(np.asarray(xi2, dtype=float)) ** (1.0 / (2.0 - alpha0)))
    if np.ndim(out) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class HomogeneityReport:
    max_relative_error: float
    trials: int


def check_homogeneity(rho: HomogeneousFunction, trials: int, seed: int = 0) -> HomogeneityReport:
    """Probe |rho(a^{E^T} xi) - a rho(xi)| / (a rho(xi)) over random (a, xi).

    Scales ``a`` are log-uniform in [0.01, 100], directions uniform on the
    unit circle. The anisotropy used is the function's own tag, so a
    mis-tagged function reports a large error.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=trials)
    a = np.exp(rng.uniform(math.log(0.01), math.log(100.0), size=trials))
    xi = np.vstack([np.cos(theta), np.sin(theta)])
    # (P D P^-1)^T xi = P^-T D P^T xi with D = diag(a^lambda), all trials at once
    E = rho.anisotropy
    P = np.column_stack([E.e1, E.e2])
    scale = a[None, :] ** np.array([[E.lambda1], [E.lambda2]])
    lhs = evaluate(rho, np.linalg.inv(P).T @ (scale * (P.T @ xi)))
    ref = a * evaluate(rho, xi)
    worst = np.max(np.abs(lhs - ref) / ref)
    return HomogeneityReport(max_relative_error=float(worst), trials=trials)


@dataclass(frozen=True)
class IntegrabilityReport:
    finite: bool
    estimate: float
    inner_ratio: float
    outer_ratio: float


def _shell_integral(rho, hurst, lo, hi):
    """Integral of min(1,|xi|^2) rho^{-2(H+1)} over the anisotropic shell
    {xi = r^{E^T}(cos t, sin t), lo <= r < hi}, by 16 x 96 Gauss nodes.

    Cartesian box shells cannot work here: the integrand concentrates on
    ridges along the axes whose width shrinks like a power of the shell
    radius, far below any fixed quadrature resolution. In the warped
    polar coordinates of the tag anisotropy the same mass is spread
    smoothly over the angle, and consecutive dyadic shell sums become
    geometric: ratio 2^{-(2 min(lambda) - 2H)} at the origin end, 2^{-2H}
    at the outer end.
    """
    E = rho.anisotropy
    if not E.is_diagonal():
        raise ValueError("integrability check requires a diagonally tagged function")
    lam1 = E.axis_eigenvalue(0)
    lam2 = E.axis_eigenvalue(1)
    q = -2.0 * (hurst + 1.0)
    r, wr = _gauss_panel(lo, hi, 16)
    theta, wt = _gauss_panel(0.0, 2.0 * math.pi, 96)  # full circle
    ct, st = np.cos(theta), np.sin(theta)
    X = r[:, None] ** lam1 * ct
    Y = r[:, None] ** lam2 * st
    jac = (r ** (lam1 + lam2 - 1.0))[:, None] * np.abs(lam1 * ct ** 2 + lam2 * st ** 2)[None, :]
    vals = evaluate(rho, (X, Y)) ** q
    vals *= np.minimum(1.0, X * X + Y * Y)
    return float(((wr[:, None] * wt[None, :]) * jac * vals).sum())


def _limit_ratio(sums):
    """Asymptotic ratio of consecutive shell sums from the last five,
    via a log-linear fit (geometric-decay extrapolation)."""
    tail = np.asarray(sums[-5:], dtype=float)
    if np.any(tail <= 0) or not np.all(np.isfinite(tail)):
        return math.inf
    slope, _, _ = _line_fit(np.arange(tail.size), np.log(tail))
    return math.exp(slope)


RATIO_TOL = 0.995

_J_INNER = -48
_J_OUTER = 13  # outer box edge 2^14 > 1e4


def check_integrability(rho: HomogeneousFunction, hurst: float) -> IntegrabilityReport:
    """Decide whether int (1 ^ |xi|^2) rho(xi)^{-2(H+1)} dxi is finite.

    Dyadic shells in the anisotropic radial coordinate are integrated
    from 2^-48 out past 1e4; the integral is declared finite when the
    shell sums decay geometrically at both ends (extrapolated ratio
    below 0.995 from a log-linear fit of the last five shells), and the
    estimate adds both geometric tails. For the power-sum family this
    reproduces finiteness iff hurst < min(alpha0, 2 - alpha0), up to a
    boundary resolution of about 0.01 in hurst.
    """
    if not hurst > 0:
        raise ValueError(f"hurst must be positive, got {hurst}")
    inner = [_shell_integral(rho, hurst, 2.0 ** j, 2.0 ** (j + 1)) for j in range(_J_INNER, 0)]
    outer = [_shell_integral(rho, hurst, 2.0 ** j, 2.0 ** (j + 1)) for j in range(_J_OUTER + 1)]
    r_in = _limit_ratio(inner[::-1])  # ratios going inward
    r_out = _limit_ratio(outer)
    finite = bool(r_in < RATIO_TOL and r_out < RATIO_TOL)
    total = float(sum(inner) + sum(outer))
    if finite:
        total += inner[0] * r_in / (1.0 - r_in)
        total += outer[-1] * r_out / (1.0 - r_out)
    else:
        total = math.inf
    return IntegrabilityReport(finite=finite, estimate=total,
                               inner_ratio=r_in, outer_ratio=r_out)

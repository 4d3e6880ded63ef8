"""Shared domain types and the elementary anisotropic linear algebra.

An anisotropy is a 2x2 diagonalizable matrix with positive eigenvalues,
normalized to trace 2. Both the anisotropy of a simulated field and the
anisotropy of an analyzing space are represented by the same type, stored
in eigendecomposed form (eigenvalues plus unit eigenvectors) so that
matrix powers a^D are exact and unambiguous.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

TRACE_TOL = 1e-12
NORM_TOL = 1e-12
INDEP_TOL = 1e-9
ALPHA0_FLOOR = 0.1  # FieldSpec takes alpha0 in [ALPHA0_FLOOR, 2 - ALPHA0_FLOOR]


class AnisotropyError(ValueError):
    """Raised when an anisotropy violates its invariants.

    Carries the full list of violations in ``self.violations``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid anisotropy: " + "; ".join(self.violations))


@dataclass(frozen=True)
class Anisotropy:
    """Trace-2 diagonalizable anisotropy, stored by eigenpairs.

    The constructor raises AnisotropyError listing every violated invariant
    (trace 2, positive eigenvalues, unit eigenvectors not collinear); NaN and
    infinities violate each one they enter. Eigenpairs are stored as floats
    in canonical order ``lambda1 <= lambda2``, the eigenvectors explicitly
    (never recomputed from a matrix) so that sign and ordering are stable.
    """

    lambda1: float
    lambda2: float
    e1: tuple = (1.0, 0.0)
    e2: tuple = (0.0, 1.0)

    def __post_init__(self):
        l1, l2 = float(self.lambda1), float(self.lambda2)
        e1, e2 = tuple(map(float, self.e1)), tuple(map(float, self.e2))
        out = []
        if not abs(l1 + l2 - 2.0) <= TRACE_TOL:
            out.append(f"trace = {l1 + l2} != 2")
        for name, lam in (("lambda1", l1), ("lambda2", l2)):
            if not lam > 0:
                out.append(f"eigenvalue {name} = {lam} not positive")
        for name, (x, y) in (("e1", e1), ("e2", e2)):
            if not abs(math.hypot(x, y) - 1.0) <= NORM_TOL:
                out.append(f"{name} has norm {math.hypot(x, y)} != 1")
        det = e1[0] * e2[1] - e1[1] * e2[0]
        if not abs(det) > INDEP_TOL:
            out.append(f"eigenvectors nearly collinear, |det| = {abs(det)}")
        if out:
            raise AnisotropyError(out)
        (l1, e1), (l2, e2) = sorted([(l1, e1), (l2, e2)], key=lambda pair: pair[0])
        for name, value in (("lambda1", l1), ("lambda2", l2), ("e1", e1), ("e2", e2)):
            object.__setattr__(self, name, value)

    @property
    def eigenvalues(self):
        return (self.lambda1, self.lambda2)

    @property
    def eigenvectors(self):
        return (np.asarray(self.e1), np.asarray(self.e2))

    @classmethod
    def diagonal(cls, alpha: float) -> "Anisotropy":
        """diag(alpha, 2 - alpha) with axis eigenvectors."""
        return cls(alpha, 2.0 - alpha)


def check_order(p):
    """Return the moment order p if it is >= 1 or inf; raise ValueError otherwise."""
    if not (p == np.inf or p >= 1):
        raise ValueError(f"order p must be >= 1 or inf, got {p}")
    return p


def _moment(x, p, out):
    """mean |x|^p, or max |x| for p = inf; |x|^p (|x|) is left in ``out``, of
    x's shape and possibly x itself. Only p = 2 skips the abs: numpy's SIMD
    pow is not sign-symmetric for other even p. Overflow and underflow are
    silent (a pool worker may call it); ``_check_moment`` judges the result."""
    with np.errstate(over="ignore", under="ignore"):
        if p == 2:
            np.copyto(out, x)
        else:
            np.abs(x, out=out)
        if p == np.inf:
            return float(np.max(out))
        out **= p
        return float(np.mean(out))


def _check_moment(m, p, nonzero, what):
    """Raise ValueError naming p and ``what`` when the moment m overflowed
    float64, or underflowed to 0 though ``nonzero()`` says its data are not."""
    if m == np.inf:
        raise ValueError(f"order p={p}: {what} overflows float64")
    if m == 0.0 and nonzero():
        raise ValueError(f"order p={p}: {what} underflows to 0 on nonzero data")


def _line_fit(x, y, w=None):
    """Weighted least-squares line through (x, y): (slope, Sxx, RSS), with
    Sxx = sum w (x - xbar)^2 and RSS the weighted residual sum of squares.
    Unit weights by default. The slope is nan when Sxx = 0, with no warning.
    """
    w = np.ones_like(x) if w is None else w
    sw = w.sum()
    xb = float(np.sum(w * x) / sw)
    sxx = float(np.sum(w * (x - xb) ** 2))
    yb = float(np.sum(w * y) / sw)
    slope = float(np.sum(w * (x - xb) * (y - yb)) / sxx) if sxx > 0.0 else math.nan
    rss = float(np.sum(w * (y - yb - slope * (x - xb)) ** 2))
    return slope, sxx, rss


def matrix_power(D: Anisotropy, a: float) -> np.ndarray:
    """a^D = exp(D log a), computed exactly through the eigendecomposition.

    Parameters
    ----------
    D : Anisotropy
    a : positive real

    Returns
    -------
    2x2 ndarray equal to P diag(a^lambda1, a^lambda2) P^-1.
    """
    if not a > 0:
        raise ValueError(f"matrix power base must be positive, got {a}")
    P = np.column_stack([D.e1, D.e2])
    return P @ np.diag([a ** D.lambda1, a ** D.lambda2]) @ np.linalg.inv(P)


@dataclass(frozen=True)
class FieldSpec:
    """Complete generative description of an operator scaling field.

    ``alpha0`` fixes the field anisotropy diag(alpha0, 2 - alpha0),
    ``hurst`` is the self-similarity index, ``grid_n`` the sample count per
    axis on [0,1]^2, and ``seed`` the 64-bit generator seed. The weight
    ``rho`` is a class constant: the power sum homogeneous for the anisotropy.

    alpha0 must lie in [ALPHA0_FLOOR, 2 - ALPHA0_FLOOR] = [0.1, 1.9] (NaN and
    infinities are refused): the mass build and the variogram oracle cost
    more without bound toward 0 and 2 (at 0.01 the oracle's kernel table
    outruns its panel budget). The estimators resolve alpha0 in [0.2, 1.8].
    """

    rho: ClassVar[str] = "power_sum"
    alpha0: float
    hurst: float
    grid_n: int = 256
    seed: int = 0

    def __post_init__(self):
        alpha0 = self.alpha0
        if not ALPHA0_FLOOR <= alpha0 <= 2.0 - ALPHA0_FLOOR:
            raise ValueError(f"alpha0 = {alpha0} is beyond the floor: min(alpha0, 2 - alpha0) must be "
                             f">= {ALPHA0_FLOOR:g} (alpha0 in [{ALPHA0_FLOOR:g}, {2.0 - ALPHA0_FLOOR:g}])")
        l1, l2 = sorted((alpha0, 2.0 - alpha0))
        if not 0.0 < self.hurst < l1:
            raise ValueError(
                f"hurst must lie in (0, min({l1:g}, {l2:g})) = (0, {l1:g}), "
                f"got {self.hurst}"
            )
        n = self.grid_n
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError(f"grid_n must be a power of two >= 64, got {n}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")

    @property
    def anisotropy(self) -> Anisotropy:
        """The field anisotropy diag(alpha0, 2 - alpha0)."""
        return Anisotropy.diagonal(self.alpha0)

    def with_seed(self, seed: int) -> "FieldSpec":
        return replace(self, seed=seed)

    @classmethod
    def make(cls, alpha0, hurst, grid_n=256, seed=0) -> "FieldSpec":
        """Convenience constructor: alpha0 is stored as a float."""
        return cls(float(alpha0), hurst, grid_n, seed)


@dataclass(frozen=True, eq=False)
class SampledField:
    """An n x n realization sampled at x = (i/n, j/n) on [0,1]^2."""

    values: np.ndarray = field(repr=False)
    spec: FieldSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        n = self.spec.grid_n
        if v.shape != (n, n):
            raise ValueError(f"values shape {v.shape} does not match grid_n {n}")
        if v[0, 0] != 0.0:
            raise ValueError(f"values[0,0] must be exactly 0, got {v[0, 0]}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def grid_n(self) -> int:
        return self.spec.grid_n

"""The anisotropic scaling law, checked two independent ways.

The model satisfies X(a^E x) = a^H X(x) in distribution, so variances
obey Var X(a^E x) = a^{2H} Var X(x). We verify the identity once with
the deterministic quadrature oracle (continuum model) and once by Monte
Carlo over synthesized realizations (lattice model).
"""
import numpy as np

from anisotex import FieldSpec, matrix_power, monte_carlo_scaling_check, variogram_oracle

spec = FieldSpec.make(0.6, 0.4, grid_n=256, seed=901)
E0 = spec.anisotropy
print(f"model: alpha0={spec.alpha0}, hurst={spec.hurst}; target ratio a^(2H)\n")

print("quadrature identity  v(a^E x) / (a^{2H} v(x)) :")
for a in (0.5, 2.0, 4.0):
    M = matrix_power(E0, a)
    for x in ((0.25, 0.25), (0.1, 0.3)):
        y = M @ np.asarray(x)
        lhs = variogram_oracle(spec, y)
        rhs = a ** (2 * spec.hurst) * variogram_oracle(spec, x)
        print(f"  a={a:<4} x={x}:  {lhs / rhs:.8f}")

print("\nMonte Carlo (200 realizations, squared increments averaged over every translate of the torus):")
for a, x in ((2.0, (0.15, 0.1)), (4.0, (0.08, 0.03)), (0.5, (0.2, 0.2))):
    res = monte_carlo_scaling_check(spec, a, x, 200)
    print(f"  a={a:<4} x={x}: ratio={res.ratio:.4f}  target={res.target:.4f} "
          f" (95% ci +- {res.ci_halfwidth:.4f})")

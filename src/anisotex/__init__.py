"""anisotex: simulation and estimation of 2-D anisotropic self-similar textures.

Synthesizes operator scaling Gaussian random fields from their spectral
representation and measures their anisotropic critical exponents; the
exponent, scanned over analysis anisotropies, peaks at the field's own
anisotropy with peak value equal to the self-similarity index.
"""

from .besov import (
    DegenerateDirectionError,
    DirectionalExponent,
    ExponentScan,
    StructureFunction,
    average_structure_functions,
    axis_exponents,
    critical_exponent,
    default_lags,
    directional_exponent,
    scan_anisotropy,
    scan_exponents,
    snap_direction,
    structure_function,
    tent_prediction,
)
from .core import (
    Anisotropy,
    AnisotropyError,
    FieldSpec,
    SampledField,
    matrix_power,
)
from .ensemble import EnsembleReduction, reduce_fields, reduce_synthesis
from .homog import (
    HomogeneityReport,
    HomogeneousFunction,
    IntegrabilityReport,
    check_homogeneity,
    check_integrability,
    evaluate,
    rho_power_sum,
)
from .hywave import (
    FILTERS,
    HyperbolicPyramid,
    RatioScan,
    ScaleStats,
    coefficient_energy,
    hyperbolic_transform,
    inverse_hyperbolic_transform,
    pooled_scale_statistics,
    ratio_maximize,
)
from .synth import (
    ScalingCheckResult,
    evaluate_at_points,
    monte_carlo_scaling_check,
    spectral_coefficients,
    spectral_grid,
    synthesize,
    synthesize_ensemble,
    variogram_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "Anisotropy", "AnisotropyError", "FieldSpec", "SampledField", "matrix_power",
    "HomogeneousFunction", "HomogeneityReport", "IntegrabilityReport",
    "check_homogeneity", "check_integrability", "evaluate",
    "rho_power_sum",
    "ScalingCheckResult", "spectral_grid",
    "spectral_coefficients", "synthesize", "synthesize_ensemble",
    "evaluate_at_points", "variogram_oracle", "monte_carlo_scaling_check",
    "StructureFunction", "DirectionalExponent", "ExponentScan",
    "DegenerateDirectionError", "structure_function", "directional_exponent",
    "average_structure_functions", "critical_exponent", "tent_prediction",
    "scan_anisotropy", "snap_direction", "default_lags",
    "axis_exponents", "scan_exponents",
    "FILTERS", "HyperbolicPyramid", "ScaleStats", "RatioScan",
    "hyperbolic_transform", "inverse_hyperbolic_transform",
    "coefficient_energy", "pooled_scale_statistics", "ratio_maximize",
    "EnsembleReduction", "reduce_fields", "reduce_synthesis",
]

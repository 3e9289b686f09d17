"""Quasi-arithmetic integral means on finite discrete measure spaces.

The package evaluates both partially mixed mean operators for a pair of
generators, reports their commutation residual, reduces the question to
scalar functional-equation diagnostics, and searches constructively for
simple functions witnessing non-commutation.
"""

from .errors import DomainError, RangeError
from .generators import (
    AffineGenerator,
    CodomainKind,
    ExpGenerator,
    Generator,
    IdentityGenerator,
    Interval,
    LogGenerator,
    MeanSetting,
    PowerGenerator,
    ScaledGenerator,
    affine,
    generator_from_json,
    is_affine_equivalent,
    is_proportional,
    scale,
    validate_for_setting,
)
from .means import (
    SimpleFunctionMatrix,
    commutation_residual,
    lhs_mixed_mean,
    mixed_means,
    qam,
    rhs_mixed_mean,
    scale_invariance_residual,
)
from .measure_space import DiscreteMeasureSpace, ProductGrid
from .phi_reduction import (
    BlockScenario,
    LinearFit,
    additivity_residual,
    beta_homogeneity_residual,
    big_phi,
    block_scenario_residual,
    default_fit_grid,
    jensen_affinity_residual,
    linear_form_fit,
    phi_equation_residual,
    phi_eval,
    phi_inverse_eval,
    phi_monotone_check,
    phi_origin_limit,
    proportionality_extract,
    run_diagnostics,
    scaled_cauchy_residual,
)
from .residuals import DEFAULT_ZERO_TOL, ResidualReport
from .suites import SuiteResult, run_finite_measure_suite, run_probability_suite
from .witness_search import (
    GridSpec,
    Spacing,
    Witness,
    block_witness_search,
    full_witness_search,
    refine_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AffineGenerator",
    "BlockScenario",
    "CodomainKind",
    "DEFAULT_ZERO_TOL",
    "DiscreteMeasureSpace",
    "DomainError",
    "ExpGenerator",
    "Generator",
    "GridSpec",
    "IdentityGenerator",
    "Interval",
    "LinearFit",
    "LogGenerator",
    "MeanSetting",
    "PowerGenerator",
    "ProductGrid",
    "RangeError",
    "ResidualReport",
    "ScaledGenerator",
    "SimpleFunctionMatrix",
    "Spacing",
    "SuiteResult",
    "Witness",
    "additivity_residual",
    "affine",
    "beta_homogeneity_residual",
    "big_phi",
    "block_scenario_residual",
    "block_witness_search",
    "commutation_residual",
    "default_fit_grid",
    "full_witness_search",
    "generator_from_json",
    "is_affine_equivalent",
    "is_proportional",
    "jensen_affinity_residual",
    "lhs_mixed_mean",
    "linear_form_fit",
    "mixed_means",
    "phi_equation_residual",
    "phi_eval",
    "phi_inverse_eval",
    "phi_monotone_check",
    "phi_origin_limit",
    "proportionality_extract",
    "qam",
    "refine_witness",
    "rhs_mixed_mean",
    "run_diagnostics",
    "run_finite_measure_suite",
    "run_probability_suite",
    "scale",
    "scale_invariance_residual",
    "scaled_cauchy_residual",
    "validate_for_setting",
]

"""hankellab: a numerical laboratory for Hankel operators, skewed
truncations, and bilinear Hilbert transforms on the circle.

The package works with finite trigonometric polynomials represented by
exact coefficient windows, so every algebraic identity can be checked
coefficientwise; quadrature and norm computations are layered on top with
explicit refinement and error reporting.
"""

from .errors import (CostGuardError, DegreeOverflowError, GridSizeError,
                     HankelLabError, NonAnalyticError, ParameterError,
                     SectionSizeError, UndefinedRatioError)
from .trigpoly import (Grid, TrigPoly, analytic_part, analytic_partial_sum,
                       block_index, coeff_distance, coeffs_from_grid,
                       conjugate_op, dirichlet_kernel, eval_grid, flip, inner,
                       lp_block, lp_decompose, lp_window_weight, multiply,
                       partial_sum, random_poly, stretch, tail_projection,
                       top_block_index, translate)
from .spaces import (HardyNorm, LipschitzNorm, hardy_norm, lipschitz_norm,
                     lipschitz_norm_diff, modulated_norm_ratio, random_symbol,
                     reduce_symbol, reduction_index, sup_norm)
from .hankel import (MatrixSection, TruncationSpec, beta_minus_one_identity_check,
                     beta_zero_identity_check, column_truncation_apply,
                     hankel_apply, matrix_section, multilinear_apply,
                     multilinear_truncated_apply, section_weights,
                     truncated_apply)
from .bilinear import (BHTParams, bht_fourier, bht_mu_fourier,
                       link_identity_check, pv_quadrature, real_line_bht,
                       translation_covariance_check)
from .opnorm import (NormEstimate, lebesgue_constant, ratio_search_qp,
                     section_norm_2_2, sn_extremal_lower_bound)
from .serialize import load_poly, poly_from_triples, poly_to_triples, save_poly
from .experiments import (EXPERIMENT_NAMES, ExperimentConfig,
                          ExperimentReport, default_config, run_experiment)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "HankelLabError", "DegreeOverflowError", "GridSizeError",
    "NonAnalyticError", "ParameterError", "SectionSizeError",
    "CostGuardError", "UndefinedRatioError",
    # trig polynomials
    "TrigPoly", "Grid", "eval_grid", "coeffs_from_grid", "multiply",
    "analytic_part", "flip", "conjugate_op", "partial_sum",
    "analytic_partial_sum", "tail_projection", "dirichlet_kernel",
    "translate", "stretch", "lp_window_weight", "lp_block", "lp_decompose",
    "block_index", "top_block_index", "inner", "coeff_distance",
    "random_poly",
    # spaces
    "HardyNorm", "LipschitzNorm", "sup_norm", "hardy_norm", "lipschitz_norm",
    "lipschitz_norm_diff", "random_symbol", "reduction_index",
    "reduce_symbol", "modulated_norm_ratio",
    # hankel
    "TruncationSpec", "MatrixSection", "hankel_apply", "multilinear_apply",
    "truncated_apply", "multilinear_truncated_apply",
    "column_truncation_apply", "beta_zero_identity_check",
    "beta_minus_one_identity_check", "matrix_section", "section_weights",
    # bilinear
    "BHTParams", "bht_fourier", "bht_mu_fourier", "pv_quadrature",
    "link_identity_check", "translation_covariance_check", "real_line_bht",
    # operator norms
    "NormEstimate", "section_norm_2_2", "ratio_search_qp",
    "lebesgue_constant", "sn_extremal_lower_bound",
    # serialization
    "poly_to_triples", "poly_from_triples", "save_poly", "load_poly",
    # experiments
    "ExperimentConfig", "ExperimentReport", "EXPERIMENT_NAMES",
    "default_config", "run_experiment",
]

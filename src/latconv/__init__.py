"""Convolution powers of finitely supported complex functions on Z^d.

Classification of unit-modulus symbol points, anisotropic attractors,
Legendre-Fenchel decay profiles, and verification suites for decay,
local-limit, pointwise-bound and stability behavior.
"""

from .errors import (DimensionMismatchError, NotNormalizedError,
                     ResourceLimitError, ZeroFunctionError)
from .lattice import (LatticeFunction, convolve, delta, norm_l1, norm_linf,
                      power, power_torus, read_function, tensor, translate,
                      write_function)
from .symbol import (OmegaSet, SymbolView, check_von_neumann, find_omega,
                     locate_sup, normalize)
from .expansion import (Classification, SpectralAnalysis, TaylorSeries,
                        analyze, classify, gamma_taylor)
from .homogeneous import (HomogeneousPolynomial, contraction_check,
                          from_quadratic_form, is_exponent, p_fitted,
                          trace_invariance_check)
from .attractor import AttractorGrid, attractor_eval, attractor_grid, llt_approx
from .legendre import (ConjugateEvaluator, conjugate_bounds_check,
                       conjugate_compare, weighted_norm)
from .verify import (BoundReport, WalkProfile, derivative_bound_fit,
                     gaussian_bound_fit, llt_error, llt_error_ladder,
                     power_near_drifts, space_diff, space_diff_multi,
                     stability_report, subexp_bound_fit, sup_decay_report,
                     support_periodicity_check, theta, theta_cosine, time_diff,
                     walk_profile)
from . import examples

__version__ = "0.1.0"

__all__ = [
    "LatticeFunction", "convolve", "power", "power_torus", "tensor", "translate",
    "delta", "norm_l1", "norm_linf", "read_function", "write_function",
    "SymbolView", "OmegaSet", "normalize", "find_omega", "locate_sup",
    "check_von_neumann",
    "TaylorSeries", "Classification", "SpectralAnalysis",
    "gamma_taylor", "classify", "analyze",
    "HomogeneousPolynomial", "from_quadratic_form", "is_exponent",
    "trace_invariance_check", "contraction_check", "p_fitted",
    "AttractorGrid", "attractor_eval", "attractor_grid", "llt_approx",
    "ConjugateEvaluator", "conjugate_compare",
    "conjugate_bounds_check", "weighted_norm",
    "BoundReport", "WalkProfile", "sup_decay_report", "llt_error",
    "llt_error_ladder", "power_near_drifts", "gaussian_bound_fit",
    "subexp_bound_fit", "stability_report", "space_diff", "space_diff_multi",
    "time_diff",
    "derivative_bound_fit", "walk_profile", "theta", "theta_cosine",
    "support_periodicity_check",
    "examples",
    "DimensionMismatchError", "ResourceLimitError", "NotNormalizedError",
    "ZeroFunctionError",
]

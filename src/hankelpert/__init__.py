"""High-precision Hankel determinants of perturbed Jacobi-type weights.

The package computes ln det of Hankel moment matrices for weights
(1-x)^alpha (1+x)^beta h(x) on [-1, 1] along independent routes -- a
Gamma/Barnes-G closed form for the bare weight, a direct arbitrary-precision
factorization and a modified-moment recurrence for the perturbed one, exact
rational minors for integer data -- and assembles the large-n asymptotic
prediction with its explicit constant, read from the Chebyshev data of ln h,
so every number can be cross-validated against an independently computed
twin.

Modules: ``specfun`` (log-Gamma/Barnes-G), ``jacobi`` (bare-weight closed
forms), ``quadrature`` (Gauss rules, Chebyshev expansions), ``hankel``
(determinant routes), ``fluid`` (continuum density and band), ``linstat``
(asymptotic assembly), ``dsl`` (perturbation expressions), ``cli``.
"""

__version__ = "0.1.0"

from .errors import (DomainError, EvalDomainError, HankelpertError,
                     ParseError, PositivityError, PrecisionError,
                     ResolutionError, RootFindError)
from .precision import BigReal, Precision, ensure_finite, exact_fraction, to_mpf
from .specfun import log_barnes_g, log_gamma
from .jacobi import (JacobiParams, jacobi_alpha_n_exact,
                     jacobi_asym_constant, jacobi_beta_n_exact,
                     jacobi_log_hn, jacobi_logdet_asym, jacobi_logdet_exact,
                     jacobi_moment, jacobi_moment_exact, jacobi_recurrence_table)
from .quadrature import (ChebExpansion, QuadratureRule, cheb_expand,
                         cheb_expand_auto, gauss_jacobi_rule)
from .hankel import (HankelResult, MomentSequence, auto_digits,
                     auto_precision, cross_validation_tol,
                     hankel_logdet_ldl, hankel_logdet_leading,
                     hankel_logdet_recurrence, heine_average_small_n, modified_chebyshev,
                     perturbed_moment_sequence, pure_moment_sequence,
                     rational_hankel_minors)
from .fluid import (EquilibriumDensity, SupportInterval, band_kernel,
                    equilibrium_density, fluid_recurrence,
                    support_endpoints, support_endpoints_shifted)
from .linstat import (AsymptoticPrediction, LinStatTerms, assemble_prediction,
                      cheb_log_expand, linstat_terms, mean_term,
                      pv_double_integral)
from .dsl import (PerturbationFn, h_const, h_exp_cheb2, h_exp_linear, h_one,
                  h_one_plus_square, parse_h, to_source, validate_positive)

__all__ = [
    "__version__",
    # errors
    "HankelpertError", "DomainError", "PrecisionError",
    "RootFindError", "ResolutionError", "ParseError", "EvalDomainError",
    "PositivityError",
    # precision
    "BigReal", "Precision", "to_mpf", "exact_fraction", "ensure_finite",
    # special functions
    "log_gamma", "log_barnes_g",
    # bare weight
    "JacobiParams", "jacobi_alpha_n_exact", "jacobi_beta_n_exact",
    "jacobi_recurrence_table",
    "jacobi_moment", "jacobi_moment_exact", "jacobi_log_hn",
    "jacobi_logdet_exact", "jacobi_logdet_asym", "jacobi_asym_constant",
    # quadrature and expansions
    "QuadratureRule", "gauss_jacobi_rule", "ChebExpansion", "cheb_expand",
    "cheb_expand_auto",
    # determinant routes
    "MomentSequence", "HankelResult", "auto_digits", "auto_precision",
    "cross_validation_tol", "pure_moment_sequence",
    "perturbed_moment_sequence", "hankel_logdet_ldl", "hankel_logdet_leading",
    "hankel_logdet_recurrence", "rational_hankel_minors",
    "modified_chebyshev", "heine_average_small_n",
    # continuum approximation
    "SupportInterval", "support_endpoints", "support_endpoints_shifted",
    "equilibrium_density", "EquilibriumDensity",
    "fluid_recurrence", "band_kernel",
    # asymptotic assembly
    "cheb_log_expand", "pv_double_integral",
    "mean_term", "LinStatTerms", "linstat_terms", "AsymptoticPrediction",
    "assemble_prediction",
    # perturbation expressions
    "PerturbationFn", "parse_h", "to_source",
    "validate_positive", "h_one", "h_const", "h_exp_linear", "h_exp_cheb2",
    "h_one_plus_square",
]

"""High-precision Hankel determinants of perturbed Jacobi-type weights.

The package computes ln det of Hankel moment matrices for weights
(1-x)^alpha (1+x)^beta h(x) on [-1, 1] along independent routes -- a
Gamma/Barnes-G closed form for the bare weight, a direct arbitrary-precision
factorization and a modified-moment recurrence for the perturbed one, exact
rational minors for integer data -- and assembles the large-n asymptotic
prediction with its explicit constant, read from the Chebyshev data of ln h,
so every number can be cross-validated against an independently computed
twin.

Modules: ``errors``, ``precision`` (working precision, exact conversions,
guard digits and bits), ``specfun`` (log-Gamma/Barnes-G), ``jacobi``
(bare-weight closed forms), ``hankel`` (determinant routes), ``quadrature``
(Gauss rules, Chebyshev expansions), ``dsl`` (perturbation expressions),
``linstat`` (asymptotic assembly), ``fluid`` (continuum density and band),
``cli``. Importing the package loads none of them: each name of ``__all__``
loads its defining module on first access, and ``hankel`` loads ``dsl`` and
``quadrature`` only when a perturbed weight is integrated.
"""
import importlib

__version__ = "0.1.0"

#: The names each module exports, in the order ``__all__`` lists them.
_EXPORTS = {
    "errors": ("HankelpertError", "DomainError", "PrecisionError", "RootFindError",
               "ResolutionError", "ParseError", "EvalDomainError", "PositivityError"),
    "precision": ("BigReal", "Precision", "to_mpf", "exact_fraction", "ensure_finite"),
    "specfun": ("log_gamma", "log_barnes_g"),
    "jacobi": ("JacobiParams", "jacobi_alpha_n_exact", "jacobi_beta_n_exact",
               "jacobi_recurrence_table", "jacobi_moment", "jacobi_moment_exact",
               "jacobi_log_hn", "jacobi_logdet_exact", "jacobi_logdet_asym",
               "jacobi_asym_constant"),
    "quadrature": ("QuadratureRule", "gauss_jacobi_rule", "ChebExpansion", "cheb_expand",
                   "cheb_expand_auto"),
    "hankel": ("MomentSequence", "HankelResult", "auto_digits", "auto_precision",
               "cross_validation_tol", "pure_moment_sequence", "perturbed_moment_sequence",
               "hankel_logdet_ldl", "hankel_logdet_leading", "hankel_logdet_recurrence",
               "rational_hankel_minors", "modified_chebyshev", "heine_average_small_n"),
    "fluid": ("SupportInterval", "support_endpoints", "support_endpoints_shifted",
              "equilibrium_density", "EquilibriumDensity", "fluid_recurrence", "band_kernel"),
    "linstat": ("cheb_log_expand", "pv_double_integral", "linstat_terms",
                "AsymptoticPrediction", "assemble_prediction"),
    "dsl": ("PerturbationFn", "parse_h", "to_source", "validate_positive", "h_one",
            "h_const", "h_exp_linear", "h_exp_cheb2", "h_one_plus_square"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    """An exported name, read from its defining module on first access (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})

"""Large-n asymptotics of the perturbed determinant via linear statistics.

A multiplicative perturbation h changes the log-determinant by the cumulant
expansion of the linear statistic sum_j ln h(x_j) over the n-point ensemble:
its mean contributes at orders n and 1, its variance contributes half of
itself at order 1, and higher cumulants vanish as n grows. With the
Chebyshev data c_k of ln h(cos t) = c_0/2 + sum c_k cos(k t), and
s = alpha + beta:

    mean          -> (n + s/2) c_0/2 - (alpha/2) ln h(1) - (beta/2) ln h(-1)
    variance / 2  ->  (1/8) sum_{k>=1} k c_k^2

so the full prediction for ln D_n(h) splits into

    log_leading   = -n(n+s) ln 2 + ((alpha^2+beta^2)/2 - 1/4) ln n + n ln 2pi
    log_mean      =  n c_0/2
    boundary_part = (s/2) c_0/2
    edge_part     = -(alpha/2) ln h(1) - (beta/2) ln h(-1)
    pv_part       = (1/8) sum_{k>=1} k c_k^2
    pure_constant = the h-independent constant of the bare weight.

log_leading and pure_constant are the bare weight's own asymptotic, from ``jacobi``.

The variance half, ``pv_part``, equals the principal-value double integral

    (1/4 pi^2) PV int int  ln h(x) (d/dy ln h(y)) sqrt(1-y^2)
                           / (sqrt(1-x^2) (x - y))  dy dx,

evaluated here as the coefficient sum above. edge_part vanishes when
h(+-1) = 1 and cancels between symmetric data; dropping it leaves an O(1)
error in the constant whenever an exponent and the matching boundary value
of ln h are both nonzero.

These are the terms of the asymptotic of Deift, Its and Krasovsky (Ann. of
Math. 174 (2011) 1243) for the weight (1-x)^alpha (1+x)^beta e^V(x) on
[-1, 1] with V = ln h. Writing V(cos t) = V_0 + 2 sum_{k>=1} V_k cos(k t),
so V_0 = c_0/2 and V_k = c_k/2, their mean (n + s/2) V_0, variance half
(1/2) sum k V_k^2 and edge terms -(alpha/2) V(1) - (beta/2) V(-1) are
``AsymptoticPrediction.mean`` = log_mean + boundary_part, pv_part and
edge_part. Their theorem holds for every alpha, beta > -1, the domain
``JacobiParams`` enforces.
"""
from __future__ import annotations

from typing import NamedTuple

import mpmath
from mpmath import mpf

from .dsl import positive_sample
from .errors import DomainError
from .jacobi import JacobiParams, jacobi_asym_constant, jacobi_log_leading
from .precision import BigReal, Precision, ensure_finite
from .quadrature import ChebExpansion, cheb_expand_auto


def cheb_log_expand(h, p: Precision) -> ChebExpansion:
    """Chebyshev expansion of x -> ln h(x), at the degree ``cheb_expand_auto`` measures.

    Every sample of h passes :func:`dsl.positive_sample`, so a nonpositive
    value aborts the expansion rather than poisoning it with complex logarithms.
    """
    return cheb_expand_auto(lambda x: mpmath.log(positive_sample(h, x)), p)


def pv_double_integral(ce: ChebExpansion) -> BigReal:
    """The double principal-value functional of ln h, i.e. half its fluctuation variance.

    The closed sum (1/8) sum_{k>=1} k c_k^2 over the Chebyshev data of ``ce``.
    """
    return ensure_finite(
        mpmath.fsum(k * c * c for k, c in enumerate(ce.coeffs) if k >= 1) / 8,
        "pv part")


class AsymptoticPrediction(NamedTuple):
    """Additive decomposition of the predicted ln D_n for a perturbed weight.

    The fields are the parts in the order a report prints them. ``mean`` is
    the large-n mean (n + s/2) c_0/2 of sum_j ln h(x_j), log_mean +
    boundary_part, and edge_part its correction from h(+-1); ``total``
    re-assembles the prediction; ``log_constant`` collects the n-independent
    part (everything except log_leading and log_mean).
    """

    log_leading: object
    log_mean: object
    pv_part: object
    boundary_part: object
    edge_part: object
    pure_constant_part: object

    @property
    def mean(self) -> BigReal:
        return self.log_mean + self.boundary_part

    @property
    def log_constant(self) -> BigReal:
        return (self.pv_part + self.boundary_part + self.edge_part
                + self.pure_constant_part)

    @property
    def total(self) -> BigReal:
        return self.log_leading + self.log_mean + self.log_constant


def assemble_prediction(n: int, jp: JacobiParams, h, p: Precision,
                        expansion: ChebExpansion = None) -> AsymptoticPrediction:
    """Predicted ln D_n for the perturbed weight, split into named parts.

    Parts, with m = c_0/2 the mean of ln h against the arcsine density:

        log_leading   = -n(n+s) ln 2 + ((alpha^2+beta^2)/2 - 1/4) ln n + n ln 2pi
        log_mean      = n m
        boundary_part = (s/2) m
        edge_part     = -(alpha/2) ln h(1) - (beta/2) ln h(-1)
        pv_part       = (1/8) sum k c_k^2
        pure_constant = h-independent constant of the bare weight

    The boundary values h(+-1) are taken from h directly, not from the
    expansion, so edge_part carries no truncation error. Residual error of
    ``total`` against the computed ln D_n is O(1/n) in general and O(1/n^2)
    for symmetric data (alpha = beta with even h).

    ``expansion`` is the Chebyshev expansion of ln h, which does not depend
    on n; a sweep builds it once and passes it to every size. Without it the
    expansion is built here at ``p`` with the automatic degree.
    """
    if n < 1:
        raise DomainError(f"size must be >= 1, got {n}")
    with p.workdps():
        a, b = jp.ab_mpf()
        s = a + b
        ce = expansion if expansion is not None else cheb_log_expand(h, p)
        m = ce.coeffs[0] / 2
        log_leading = jacobi_log_leading(n, jp)
        log_mean = n * m
        boundary = s / 2 * m
        h_right, h_left = positive_sample(h, mpf(1)), positive_sample(h, mpf(-1))
        edge = -(a / 2) * mpmath.log(h_right) - (b / 2) * mpmath.log(h_left)
        pv = pv_double_integral(ce)
        pure = jacobi_asym_constant(jp, p)
        for name, v in (("leading", log_leading), ("mean", log_mean),
                        ("boundary", boundary), ("edge", edge), ("pv", pv),
                        ("constant", pure)):
            ensure_finite(v, f"{name} part")
    return AsymptoticPrediction(log_leading, log_mean, pv, boundary, edge, pure)


def linstat_terms(h, n: int, jp: JacobiParams, p: Precision) -> AsymptoticPrediction:
    """:func:`assemble_prediction`, under the name the acceptance gate reads ``mean`` by."""
    return assemble_prediction(n, jp, h, p)

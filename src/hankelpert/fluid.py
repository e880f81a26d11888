"""Continuum (electrostatic) approximation for the eigenvalue density.

For large matrix size n the zeros of the degree-n orthogonal polynomial, or
equivalently the eigenvalues of the associated ensemble, condense onto a band
[a_n, b_n] inside (-1, 1) with an equilibrium density sigma. Both are
determined by the external potential

    v(x) = -ln w(x),   v'(x) = alpha/(1-x) - beta/(1+x),

through the conditions that sigma integrate to n over the band and that the
field vanish there. For the weight (1-x)^alpha (1+x)^beta these conditions
close in elementary form:

    a_n, b_n  =  (beta^2 - alpha^2 -/+ 4 sqrt(n (n+alpha) (n+beta) (n+s)))
                 / (2n+s)^2,                               s = alpha + beta,

    sigma(x)  =  (n + s/2) sqrt((b_n - x)(x - a_n)) / (pi (1 - x^2)).

The same endpoints reproduce the recurrence coefficients to leading order:
the band center (a+b)/2 approximates alpha_n and the squared quarter-width
((b-a)/4)^2 approximates beta_n; ``fluid_recurrence`` returns this pair in
closed form.

A variant endpoint formula with denominator (2n+s+2)^2 is exposed as
``support_endpoints_shifted``; it deviates from the field conditions by
O(1/n) but tracks the finite-n zero distribution slightly differently and is
kept for comparison.
"""
from __future__ import annotations

from typing import NamedTuple

import mpmath
from mpmath import mpf

from .errors import DomainError
from .precision import BigReal, Precision, checked_namedtuple, to_mpf
from .jacobi import JacobiParams


class SupportInterval(checked_namedtuple("SupportInterval", [
        ("a_n", object), ("b_n", object), ("n", int), ("jp", JacobiParams)])):
    """Band [a_n, b_n] carrying the continuum density for size n.

    Always -1 <= a_n < b_n <= 1; an endpoint sits exactly at +/-1 only when
    the corresponding exponent vanishes.
    """

    __slots__ = ()

    def __new__(cls, a_n, b_n, n: int, jp: JacobiParams):
        if not (-1 <= a_n < b_n <= 1):
            raise DomainError(f"invalid band [{mpmath.nstr(a_n, 8)}, {mpmath.nstr(b_n, 8)}]")
        return super().__new__(cls, a_n, b_n, n, jp)

    @property
    def center(self) -> BigReal:
        return (self.a_n + self.b_n) / 2

    @property
    def halfwidth(self) -> BigReal:
        return (self.b_n - self.a_n) / 2


def _band_exponents(n: int, jp: JacobiParams) -> tuple:
    """(alpha, beta, alpha + beta) as mpf; DomainError unless n >= 1 and n + alpha + beta > 0."""
    if n < 1:
        raise DomainError(f"size must be >= 1, got {n}")
    if n + jp.alpha + jp.beta <= 0:
        # the root's factor n + s would make the band empty or complex
        raise DomainError(f"the band needs n + alpha + beta > 0, got n = {n}, "
                          f"alpha + beta = {jp.alpha + jp.beta}")
    a, b = jp.ab_mpf()
    return a, b, a + b


def _endpoints_with_denominator(n: int, jp: JacobiParams, bump: int):
    a, b, s = _band_exponents(n, jp)
    root = 4 * mpmath.sqrt(n * (n + a) * (n + b) * (n + s))
    den = (2 * n + s + bump) ** 2
    lo = (b * b - a * a - root) / den
    hi = (b * b - a * a + root) / den
    return lo, hi


def support_endpoints(n: int, jp: JacobiParams) -> SupportInterval:
    """Band endpoints satisfying the field conditions exactly.

    b_n = 1 exactly when alpha = 0 and a_n = -1 exactly when beta = 0; the
    exponents are exact and the closed form lands within an ulp of those
    values, so they are snapped.
    """
    lo, hi = _endpoints_with_denominator(n, jp, 0)
    if jp.alpha == 0:
        hi = mpf(1)
    if jp.beta == 0:
        lo = mpf(-1)
    return SupportInterval(lo, hi, n, jp)


def support_endpoints_shifted(n: int, jp: JacobiParams) -> SupportInterval:
    """Variant endpoints with denominator (2n+s+2)^2.

    These do not satisfy the field conditions exactly (the residual is
    O(1/n)); they arise from attaching the band to size n+1 data and are
    exposed for cross-checking scaling behaviour.
    """
    lo, hi = _endpoints_with_denominator(n, jp, 2)
    return SupportInterval(lo, hi, n, jp)


def equilibrium_density(x, si: SupportInterval) -> BigReal:
    """Continuum density sigma(x) on the band.

    sigma(x) = (n + s/2) sqrt((b-x)(x-a)) / (pi (1-x^2)); its integral over
    [a_n, b_n] is n + min(alpha, 0) + min(beta, 0), exactly n for
    alpha, beta >= 0. At a band end inside (-1, 1) it is zero; at an end
    equal to +-1, where that exponent is zero, 1 -/+ x cancels one factor
    of the root and sigma grows like 1/sqrt(1 - x^2), so it is ``mpmath.inf``.
    """
    x = to_mpf(x)
    if not si.a_n <= x <= si.b_n:
        raise DomainError(
            f"density supported on [{mpmath.nstr(si.a_n, 8)}, {mpmath.nstr(si.b_n, 8)}], "
            f"got {mpmath.nstr(x, 8)}")
    if x == si.a_n or x == si.b_n:
        return mpmath.inf if abs(x) == 1 else mpf(0)
    a, b = si.jp.ab_mpf()
    s = a + b
    return ((si.n + s / 2) * mpmath.sqrt((si.b_n - x) * (x - si.a_n))
            / (mpmath.pi * (1 - x * x)))


def band_kernel(si: SupportInterval, t) -> tuple:
    """Point x = center + halfwidth sin(t) and (b-x)(x-a)/(1-x^2) without cancellation.

    Rewrites 1 -/+ x as (1 -/+ endpoint) + halfwidth (1 -/+ sin t), sums of
    nonnegative terms, so the ratio stays evaluable when quadrature nodes
    land on an endpoint that coincides with +-1 (exponent zero); there the
    vanishing factors cancel exactly.
    """
    r = si.halfwidth
    st = mpmath.sin(t)
    up = r * (1 - st)
    dn = r * (1 + st)
    x = si.center + r * st
    right = mpf(1) if si.b_n == 1 else up / ((1 - si.b_n) + up)
    left = mpf(1) if si.a_n == -1 else dn / ((1 + si.a_n) + dn)
    return x, right * left


def band_integral(si: SupportInterval) -> BigReal:
    """int sigma(x) dx over the band, at the current working precision.

    The substitution x = center + halfwidth * sin(t) removes the square-root
    endpoint singularities of the integrand's derivative.
    """
    a, b = si.jp.ab_mpf()
    s = a + b

    def g(t):
        _, kernel = band_kernel(si, t)
        return (si.n + s / 2) * kernel / mpmath.pi

    return mpmath.quad(g, [-mpmath.pi / 2, mpmath.pi / 2])


class EquilibriumDensity(NamedTuple):
    """Callable wrapper around ``equilibrium_density`` for a fixed band."""

    si: SupportInterval

    def __call__(self, x) -> BigReal:
        return equilibrium_density(x, self.si)

    def mass(self, p: Precision) -> BigReal:
        """Integral of the density over its band (equals the size n)."""
        with p.workdps():
            return band_integral(self.si)


def fluid_recurrence(n: int, jp: JacobiParams):
    """Continuum estimates (band center, squared quarter-width) for the recurrence pair.

    Closed forms with the exact-field endpoints:

        center        = (beta^2 - alpha^2) / (2n+s)^2
        quarter-width = 4 n (n+alpha) (n+beta) (n+s) / (2n+s)^4

    At alpha = beta = 0 these are 0 and 1/4 for every n. They approach the
    true alpha_n, beta_n with O(1/n) relative error.

    Against alpha_n = (beta^2 - alpha^2) / ((2n+s)(2n+s+2)) the center's
    deviation is exactly

        center - alpha_n = 2 (beta^2 - alpha^2) / ((2n+s)^2 (2n+s+2))

    so that

        n^3 (center - alpha_n) = (beta^2 - alpha^2)/4 * (1 - (3s+2)/(2n) + O(n^-2)).
    """
    a, b, s = _band_exponents(n, jp)
    den = (2 * n + s) ** 2
    alpha_tilde = (b * b - a * a) / den
    beta_tilde = 4 * n * (n + a) * (n + b) * (n + s) / (den * den)
    return alpha_tilde, beta_tilde

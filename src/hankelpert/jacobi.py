"""Exact closed-form quantities for the unperturbed weight (1-x)^alpha (1+x)^beta.

Everything here rests on classical orthogonal-polynomial identities for the
weight w(x) = (1-x)^alpha (1+x)^beta on [-1, 1] with alpha, beta > -1:

* moments        mu_k = integral of x^k w(x) dx, by a three-term recurrence,
* recurrence     x P_n = P_{n+1} + alpha_n P_n + beta_n P_{n-1}  (monic P_n),
* structure      (1-x^2) P_n' as a combination of P_n, x P_n and P_{n-1},
* square norms   h_n = integral of P_n(x)^2 w(x) dx = mu_0 beta_1 ... beta_n,
* determinants   D_n = det(mu_{j+k})_{j,k<n} = prod_{j<n} h_j,

plus the closed form of ln D_n in Barnes-G functions and its large-n
asymptotic. Determinants underflow like 2^(-n^2), so every
product of Gammas is assembled in log space; exponentiation happens only at
the API boundary.

The exponents are exact rationals (``JacobiParams`` refuses any other
value), so the recurrence coefficients and the moment ratios mu_k/mu_0 (and,
for nonnegative integer parameters, the moments) are exact ``Fraction``
values, rounded once where a working-precision value is asked for; they are
also the bit-exact ground truth of the tests. The closed forms pass their
Gamma and Barnes-G arguments to ``specfun`` as exact Fractions, so only
their elementary terms are rounded here. An irrational exponent is passed
as a decimal string carrying the digits it needs.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from .errors import DomainError
from .precision import (GUARD_DIGITS, BigReal, Precision, checked_namedtuple,
                        ensure_finite, exact_fraction, to_mpf)
from .specfun import log_barnes_g, log_gamma


class JacobiParams(checked_namedtuple("JacobiParams", [("alpha", Fraction), ("beta", Fraction)])):
    """Weight exponents alpha, beta > -1, held as exact ``Fraction`` values.

    Ints, Fractions, floats and decimal or ratio strings all have an exact
    rational value (:func:`exact_fraction`); anything else, an mpf included,
    raises DomainError naming the parameter. Every route, the large-n
    asymptotic included, takes this whole domain.
    """

    __slots__ = ()

    def __new__(cls, alpha, beta):
        exact = []
        for name, raw in (("alpha", alpha), ("beta", beta)):
            q = exact_fraction(raw)
            if q is None:
                raise DomainError(f"{name} must be a rational number (a decimal string "
                                  f"for an irrational value), got {raw!r}")
            if not q > -1:
                raise DomainError(f"{name} must exceed -1 for integrable moments, got {q}")
            exact.append(q)
        return super().__new__(cls, *exact)

    @property
    def is_nonneg_integer(self) -> bool:
        return (self.alpha.denominator == 1 and self.alpha >= 0
                and self.beta.denominator == 1 and self.beta >= 0)

    def ab_mpf(self) -> tuple[BigReal, BigReal]:
        """(alpha, beta) as mpf at the current working precision."""
        return to_mpf(self.alpha), to_mpf(self.beta)


def _over_common_denominator(jp: JacobiParams) -> tuple:
    """(A, B, d) with alpha = A/d and beta = B/d, d the common denominator."""
    a, b = jp.alpha, jp.beta
    d = math.lcm(a.denominator, b.denominator)
    return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d


def jacobi_alpha_n_exact(n: int, jp: JacobiParams) -> Fraction:
    """Exact diagonal recurrence coefficient alpha_n, from one integer ratio."""
    A, B, d = _over_common_denominator(jp)
    if n == 0:
        # the generic formula is 0/0 at n=0 when alpha+beta=0; the
        # Gram-Schmidt value mu_1/mu_0 = (beta-alpha)/(alpha+beta+2)
        # extends it continuously and agrees with the formula otherwise
        return Fraction(B - A, A + B + 2 * d)
    # (b^2 - a^2) / ((2n+s)(2n+s+2)), times d^2 / d^2
    m = 2 * n * d + A + B
    return Fraction((B - A) * (B + A), m * (m + 2 * d))


def jacobi_beta_n_exact(n: int, jp: JacobiParams) -> Fraction:
    """Exact off-diagonal recurrence coefficient beta_n (n >= 1), always positive,
    from one integer ratio."""
    if n < 1:
        raise DomainError(f"beta_n is defined for n >= 1, got {n}")
    A, B, d = _over_common_denominator(jp)
    S = A + B
    if n == 1:
        # at n=1 the factors (n+s) and (2n+s-1) coincide; cancelling them
        # keeps beta_1 finite at s=-1 (both exponents -1/2)
        return Fraction(4 * d * (d + A) * (d + B), (S + 2 * d) ** 2 * (S + 3 * d))
    # 4n(n+a)(n+b)(n+s) / ((2n+s)^2 (2n+s+1)(2n+s-1)), times d^4 / d^4
    m = 2 * n * d + S
    return Fraction(4 * n * d * (n * d + A) * (n * d + B) * (n * d + S),
                    m * m * (m + d) * (m - d))


def jacobi_structure_exact(m: int, jp: JacobiParams) -> tuple:
    """Exact (B, C) of the structure relation (m >= 1)

        (1 - x^2) Q'_m = (B - m x) Q_m + C Q_{m-1},   Q_k = 2^k P_k.

    The left side vanishes at x = +-1, so (B -+ m) r_+- + C = 0 with
    r_+- = Q_m(+-1) / Q_{m-1}(+-1), which for m >= 2 is
    +-4 (m + alpha or beta)(m + s) / ((2m+s)(2m+s-1)).
    """
    a, b = jp.alpha, jp.beta
    s = a + b
    if m == 1:
        # the generic ratio is 0/0 at m=1 when s=-1; Q_1 = 2(x - alpha_0)
        a0 = jacobi_alpha_n_exact(0, jp)
        r_plus, r_minus = 2 * (1 - a0), -2 * (1 + a0)
    else:
        k = 4 * (m + s) / ((2 * m + s) * (2 * m + s - 1))
        r_plus, r_minus = k * (m + a), -k * (m + b)
    B = m * (r_plus + r_minus) / (r_plus - r_minus)
    return B, (m - B) * r_plus


def jacobi_recurrence_table(count: int, jp: JacobiParams) -> tuple:
    """Exact lists (alpha_0..alpha_{count-1}, [0, beta_1..beta_{count-1}]) of Fractions.

    The leading zero aligns beta_k with alpha_k, so the monic recurrence
    P_{k+1} = (x - alpha_k) P_k - beta_k P_{k-1} reads both at index k. Each
    kernel rounds the entries once, at its own working precision.
    """
    alphas = [jacobi_alpha_n_exact(k, jp) for k in range(count)]
    betas = [Fraction(0)] + [jacobi_beta_n_exact(k, jp) for k in range(1, count)]
    return alphas, betas


def recurrence_frexp(alphas, betas, x) -> list:
    """[(m_k, e_k)] for k = 0..len(alphas), P_k(x) = m_k 2^e_k with 1/2 <= |m_k| < 1 (a zero
    is (0.0, -inf)): the monic recurrence of an exact table run in floats at a real or
    complex x. Each step divides both running values by the power of two that brings the
    newest into [1/2, 1), exact in binary, so nothing over- or underflows and each m_k is
    that of a float run without exponent limits."""
    sizes, exponent, previous, value = [(0.5, 1)], 1, 0.0, 0.5
    for a, b in zip(alphas, betas):
        previous, value = value, (x - float(a)) * value - float(b) * previous
        shift = math.frexp(abs(value))[1]
        scale, exponent = math.ldexp(1.0, -shift), exponent + shift
        previous, value = previous * scale, value * scale
        sizes.append((value, exponent) if value else (0.0, -math.inf))
    return sizes


def jacobi_moment_ratio_terms(count: int, jp: JacobiParams):
    """(N_k, D_k) with mu_k/mu_0 = N_k / D_k for k < count, unreduced integers.

    The ratios obey (a+b+k+2) mu_{k+1} = (b-a) mu_k + k mu_{k-1}, which
    integrates d/dx[(1-x)^(a+1) (1+x)^(b+1) x^k] over [-1, 1]; both of its
    solutions decay like powers of k, so the forward run is stable. With
    a = A/q and b = B/q, D_k = prod_{j<k} c_j, c_j = A + B + (j+2) q, and

        N_{k+1} = (B-A) N_k + k q c_{k-1} N_{k-1},

    so the run takes no gcd.
    """
    A, B, q = _over_common_denominator(jp)
    previous, numerator, denominator = 0, 1, 1
    for k in range(count):
        yield numerator, denominator
        c = A + B + (k + 2) * q
        previous, numerator = numerator, (B - A) * numerator + k * q * (c - q) * previous
        denominator *= c


def jacobi_moment_ratios(count: int, jp: JacobiParams) -> list:
    """mu_k/mu_0 for k < count as exact Fractions, each reduced once
    (:func:`jacobi_moment_ratio_terms`)."""
    return [Fraction(*terms) for terms in jacobi_moment_ratio_terms(count, jp)]


def jacobi_moment_exact(k: int, jp: JacobiParams) -> Fraction:
    """Exact rational moment mu_k for nonnegative integer parameters: mu_0 times mu_k/mu_0."""
    if k < 0:
        raise DomainError(f"moment order must be nonnegative, got {k}")
    if not jp.is_nonneg_integer:
        raise DomainError("exact moments require nonnegative integer parameters")
    a = int(jp.alpha)
    b = int(jp.beta)
    # a! b! / (a+b+1)! = 1 / ((a+b+1) C(a+b, a))
    mass = Fraction(2 ** (a + b + 1), (a + b + 1) * math.comb(a + b, a))
    return mass * jacobi_moment_ratios(k + 1, jp)[k]


def jacobi_moment(k: int, jp: JacobiParams, p: Precision) -> BigReal:
    """Moment mu_k of the weight: mu_0 = h_0 from its Gamma form, times mu_k/mu_0."""
    if k < 0:
        raise DomainError(f"moment order must be nonnegative, got {k}")
    with p.workdps():
        ratio = to_mpf(jacobi_moment_ratios(k + 1, jp)[k])
        return ensure_finite(mpmath.exp(jacobi_log_hn(0, jp, p)) * ratio, f"mu_{k}")


def jacobi_log_hn(n: int, jp: JacobiParams, p: Precision) -> BigReal:
    """ln h_n, h_n the square norm of the degree-n monic orthogonal polynomial.

    h_n = mu_0 beta_1 ... beta_n (Gautschi, *Orthogonal Polynomials*, 2004, sec. 1.3),
    mu_0 = h_0 = 2^(s+1) Gamma(a+1) Gamma(b+1) / Gamma(s+2), s = a + b. Written with
    Gamma(s+2), mu_0 stays finite at s = -1, where a form pairing Gamma(s+1) with
    1/(s+1) is 0/0. The exact beta_j of :func:`jacobi_beta_n_exact` are multiplied on
    integers and rounded by one division, so ln Gamma is read only at a+1, b+1 and s+2.
    """
    if n < 0:
        raise DomainError(f"norm index must be nonnegative, got {n}")
    a, b = jp.alpha, jp.beta
    s = a + b
    betas = [jacobi_beta_n_exact(j, jp) for j in range(1, n + 1)]
    numerator = math.prod(q.numerator for q in betas)
    denominator = math.prod(q.denominator for q in betas)
    with p.workdps():
        inner = Precision(mp.dps)
        value = (to_mpf(s + 1) * mpmath.log(2) + log_gamma(a + 1, inner)
                 + log_gamma(b + 1, inner) - log_gamma(s + 2, inner)
                 + mpmath.log(mpf(numerator) / mpf(denominator)))
        return ensure_finite(value, f"ln h_{n}")


def jacobi_log_leading(n: int, jp: JacobiParams) -> BigReal:
    """-n(n+s) ln 2 + ((a^2+b^2)/2 - 1/4) ln n + n ln 2pi, the n-dependent part of the
    large-n asymptotic of ln D_n, at the current working precision."""
    a, b = jp.ab_mpf()
    return (-n * (n + (a + b)) * mpmath.log(2)
            + ((a * a + b * b) / 2 - mpf(1) / 4) * mpmath.log(n)
            + n * mpmath.log(2 * mpmath.pi))


def jacobi_logdet_exact(n: int, jp: JacobiParams, p: Precision) -> BigReal:
    """ln D_n of the unperturbed weight from its Barnes-G closed form.

    The product D_n = prod_{j<n} h_j of the Gamma forms

    h_j = 2^(2j+s+1) j! Gamma(j+a+1) Gamma(j+b+1) Gamma(j+s+1)
          / ((2j+s+1) Gamma(2j+s+1)^2),   s = a + b,

    whose (2j+s+1) Gamma(2j+s+1)^2 is Gamma(2j+s+1) Gamma(2j+s+2), telescopes by
    G(z+1) = Gamma(z) G(z) (the two G(s+1) cancel) into

    ln D_n = n(n+s) ln 2 + ln G(n+1) + ln G(n+a+1) + ln G(n+b+1) + ln G(n+s+1)
             - ln G(2n+s+1) - ln G(a+1) - ln G(b+1),

    whose arguments are exact Fractions, positive for n >= 1 and a, b > -1,
    rounded only inside the special-function kernel.
    """
    if n < 1:
        raise DomainError(f"determinant order must be >= 1, got {n}")
    a, b = jp.alpha, jp.beta
    s = a + b
    with p.workdps(2 * GUARD_DIGITS):
        inner = Precision(mp.dps)
        lG = lambda z: log_barnes_g(z, inner)
        value = (to_mpf(n * (n + s)) * mpmath.log(2)
                 + lG(n + 1) + lG(n + a + 1) + lG(n + b + 1) + lG(n + s + 1)
                 - lG(2 * n + s + 1) - lG(a + 1) - lG(b + 1))
        return ensure_finite(value, f"ln D_{n}")


def jacobi_asym_constant(jp: JacobiParams, p: Precision) -> BigReal:
    """The n-independent constant of the large-n determinant asymptotic (log form),

    2 ln G(1/2) + ln(pi)/2 + (s/2) ln 2pi - (s^2/2) ln 2 - ln G(a+1) - ln G(b+1),

    what remains of :func:`jacobi_logdet_exact` minus :func:`jacobi_log_leading`
    as n grows, by the large-argument expansion of its ln G terms (DLMF
    5.17.5); G(1/2) carries the zeta'(-1) of that expansion (DLMF 5.17).
    It is computed at p.decimal_digits + 16 digits whatever the caller's
    working precision.
    """
    a, b = jp.alpha, jp.beta
    s = a + b
    with p.workdps(2 * GUARD_DIGITS):
        inner = Precision(mp.dps)
        value = (2 * log_barnes_g(Fraction(1, 2), inner) + mpmath.log(mp.pi) / 2
                 + to_mpf(s / 2) * mpmath.log(2 * mp.pi) - to_mpf(s * s / 2) * mpmath.log(2)
                 - log_barnes_g(a + 1, inner) - log_barnes_g(b + 1, inner))
        return ensure_finite(value, "asymptotic constant")


def jacobi_logdet_asym(n: int, jp: JacobiParams, p: Precision) -> BigReal:
    """Large-n asymptotic of ln D_n for the unperturbed weight.

    ln D_n ~ :func:`jacobi_log_leading` + :func:`jacobi_asym_constant`,
    with an O(1/n) error, for every alpha, beta > -1: the large-argument
    expansion of each Barnes G term of :func:`jacobi_logdet_exact` holds at
    any fixed shift. Deift, Its and Krasovsky (Ann. of Math. 174 (2011)
    1243) state the same asymptotic on this domain.
    """
    if n < 1:
        raise DomainError(f"determinant order must be >= 1, got {n}")
    with p.workdps(2 * GUARD_DIGITS):
        value = jacobi_log_leading(n, jp) + jacobi_asym_constant(jp, p)
        return ensure_finite(value, f"asymptotic ln D_{n}")

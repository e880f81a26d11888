"""The Gamma form of the Jacobi square norms, an oracle independent of the beta product."""
import mpmath

from hankelpert.precision import to_mpf


def log_hn_by_gamma(n, jp):
    """ln h_n from its Gamma form at the current mpmath precision: for n >= 1
    2^(2n+s+1) n! Gamma(n+a+1) Gamma(n+b+1) Gamma(n+s+1) / ((2n+s+1) Gamma(2n+s+1)^2),
    and mu_0 = 2^(s+1) Gamma(a+1) Gamma(b+1) / Gamma(s+2) at n = 0."""
    a, b = to_mpf(jp.alpha), to_mpf(jp.beta)
    s = a + b
    lg = mpmath.loggamma
    if n == 0:
        return (s + 1) * mpmath.log(2) + lg(a + 1) + lg(b + 1) - lg(s + 2)
    return ((2 * n + s + 1) * mpmath.log(2) + lg(n + 1) + lg(n + a + 1) + lg(n + b + 1)
            + lg(n + s + 1) - mpmath.log(2 * n + s + 1) - 2 * lg(2 * n + s + 1))

"""Log-Gamma and log-Barnes-G.

The Barnes G-function is the entire function satisfying

    G(z+1) = Gamma(z) * G(z),    G(1) = 1.

ln Gamma is mpmath's ``loggamma``. ln G is a log-space kernel: one ln Gamma
call lifts the argument to where the large-argument Bernoulli series
converges, and the series constant zeta'(-1) is fixed by the exact integer
G(N+1) = prod_{j<N} j!. Both wrappers honour the precision contract
(8 guard digits) and check every result finite. They are the single point
through which the rest of the package touches these special functions, so
the difference-equation and doubling invariants in the test suite certify
every downstream consumer.
"""
from __future__ import annotations

import functools
import math

import mpmath
from mpmath import mp, mpf

from .errors import DomainError
from .precision import BigReal, Precision, ensure_finite, to_mpf


def log_gamma(z, p: Precision) -> BigReal:
    """ln Gamma(z) for real z > 0."""
    with p.workdps():
        zv = to_mpf(z)
        if not zv > 0:
            raise DomainError(f"log_gamma requires z > 0, got {zv}")
        return ensure_finite(mpmath.loggamma(zv), "log_gamma")


def log_barnes_g(z, p: Precision) -> BigReal:
    """ln G(z) for real z > 0, G the Barnes G-function.

    Lifts z by k = max(0, ceil(N - z)) steps, N = dps/2 + 5, through
    sum_{i<k} ln Gamma(z+i) = k ln Gamma(z) + ln prod_{i<k} (z)_i, and sums
    the series of ln G(w+1) at w = z + k - 1. The series and the lift cancel
    to about log10(w^2 ln w) digits, which the kernel adds as guard digits.
    """
    with p.workdps():
        zv = to_mpf(z)
        if not zv > 0:
            raise DomainError(f"log_barnes_g requires z > 0, got {zv}")
        e = mpmath.mag(max(zv, mp.dps))  # w^2 ln w < 2^(2e) e
        with mpmath.extradps(int((2 * e + e.bit_length()) * math.log10(2)) + 1):
            n = mp.dps // 2 + 5
            k = max(0, int(mpmath.ceil(n - zv)))
            poch = prod = mpf(1)
            for i in range(1, k):
                poch *= zv + (i - 1)
                prod *= poch
            lift = k * mpmath.loggamma(zv) + mpmath.log(prod) if k else 0
            value = _series(zv + (k - 1), n) + _zeta_prime_minus_one(mp.prec, n) - lift
        return ensure_finite(+value, "log_barnes_g")


def _series(w, n: int) -> BigReal:
    """ln G(w+1) - zeta'(-1) for w >= n - 1 (DLMF 5.17.5), the Bernoulli tail in fixed point."""
    w2 = w * w
    value = w * mpmath.log(2 * mp.pi) / 2 + (w2 / 2 - mpf(1) / 12) * mpmath.log(w) - 3 * w2 / 4
    bits = mp.prec
    # the tail in powers of ((n-1)/w)^2 <= 1: truncating a power costs its term one unit
    v = int(mpmath.ldexp((n - 1) ** 2 / w2, bits))
    tail, power = 0, v
    for c in _tail_coefficients(bits, n):
        tail += (c * power) >> bits
        power = (power * v) >> bits
    return value + mpmath.ldexp(tail, -bits)


@functools.cache
def _tail_coefficients(bits: int, n: int) -> tuple:
    """The series terms B_{2k+2} / (4k(k+1) w^2k) at w = n - 1, scaled by 2^bits, down to 2^-bits.

    They fall to about e^(-2 pi w) near k = pi w before they grow, and
    e^(-2 pi (n-1)) < 10^-dps for n = dps/2 + 5, so the loop always breaks.
    """
    with mp.workprec(bits):
        coeffs = []
        for k in range(1, 4 * n):
            term = mpmath.bernoulli(2 * k + 2) / (4 * k * (k + 1) * mpf(n - 1) ** (2 * k))
            if abs(term) < mp.eps:
                break
            coeffs.append(int(mpmath.ldexp(term, bits)))
        return tuple(coeffs)


@functools.cache
def _zeta_prime_minus_one(prec: int, n: int) -> BigReal:
    """zeta'(-1) = 1/12 - ln A at ``prec`` bits, fixed by G(n+1) = prod_{j<n} j!."""
    with mp.workprec(prec):
        return mpmath.log(math.prod(math.factorial(j) for j in range(n))) - _series(mpf(n), n)

"""Log-Gamma and log-Barnes-G from one Stirling-type kernel.

The Barnes G-function is the entire function satisfying

    G(z+1) = Gamma(z) * G(z),    G(1) = 1.

Both functions take z exactly, as a Fraction (an mpf is one, man 2^exp),
lift it by k = max(0, ceil(N - z)) Pochhammer steps to the exact lift point
x = z + k >= N, N = dps/2 + 4, where their large-argument series converge,
and sum the series there:

    ln Gamma(z) = S_Gamma(x) - ln (z)_k,
    ln G(z)     = S_G(x) + zeta'(-1) - (k+1) S_Gamma(x) + ln prod_{j<k} (z+j)^(j+1),

S_Gamma and S_G the Stirling series of DLMF 5.11.1 and 5.17.5.

The series coefficients are Bernoulli numbers from exact integer tangent
numbers, B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) (Brent and Harvey, "Fast
computation of Bernoulli, tangent and secant numbers", 2013), built once per
process and shared by every precision; a precision's fixed-point
coefficients take one integer division each. The constant zeta'(-1) of the
ln G series is fixed by the exact integer G(N+1) = prod_{j<N} j!. Both
wrappers honour the precision contract (8 guard digits) and check every
result finite; near the zeros of ln Gamma and ln G at 1 and 2 the error is
absolute, a few units of 10^-(dps + 8). They are the single point through
which the rest of the package touches these special functions, so the
difference-equation and doubling invariants in the test suite certify
every downstream consumer.

Below N, x depends only on z mod 1. Each argument's lift (:func:`_lifted`)
and each lift point's series (:func:`_series_gamma`, :func:`_series_g`, whose
memo zeta'(-1) reads at N) are memoized per kernel precision, so arguments
equal mod 1 share one sum of each series, and z is rounded only in the kernel.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import to_rational

from .errors import DomainError, PrecisionError
from .precision import BigReal, Precision, ensure_finite, exact_fraction, running_product, to_mpf


def log_gamma(z, p: Precision) -> BigReal:
    """ln Gamma(z) for real z > 0."""
    with p.workdps():
        q = _positive(z, "log_gamma")
        with _kernel_precision(q):
            n = _lift_point()
            x, k, poch, _ = _lifted(q, mp.prec, n)
            value = _series_gamma(x, mp.prec, n)[1] - (mpmath.log(poch) if k else 0)
        return ensure_finite(+value, "log_gamma")


def log_barnes_g(z, p: Precision) -> BigReal:
    """ln G(z) for real z > 0, G the Barnes G-function.

    G(x+1) = G(z) prod_{j<=k} Gamma(z+j) and Gamma(z+j) = Gamma(x) / (z+j)_(k-j)
    give the module's formula, whose two series share x and ln x.
    """
    with p.workdps():
        q = _positive(z, "log_barnes_g")
        with _kernel_precision(q):
            n = _lift_point()
            x, k, _, powers = _lifted(q, mp.prec, n)
            value = (_series_g(x, mp.prec, n) + _zeta_prime_minus_one(mp.prec, n)
                     - (k + 1) * _series_gamma(x, mp.prec, n)[1]
                     + (mpmath.log(powers) if k else 0))
        return ensure_finite(+value, "log_barnes_g")


def _positive(z, name: str) -> Fraction:
    """z as an exact Fraction, an mpf being one (man 2^exp); DomainError unless z > 0."""
    finite_mpf = isinstance(z, mpf) and mpmath.isfinite(z)
    q = Fraction(*to_rational(z._mpf_)) if finite_mpf else exact_fraction(z)
    if q is None or not q > 0:
        raise DomainError(f"{name} requires z > 0, got {z}")
    return q


def _kernel_precision(z: Fraction):
    """Guard digits for the kernel's cancellation at the current precision.

    The series and the lift are of size up to x^2 ln x, x the series
    argument, and cancel to the result; x^2 ln x < 2^(2e) e for e the bit
    length of max(floor(z), dps), so about log10 of that many digits keep
    the caller's guard digits intact.
    """
    e = max(math.floor(z), mp.dps).bit_length()
    return mpmath.extradps(int((2 * e + e.bit_length()) * math.log10(2)) + 1)


def _lift_point() -> int:
    """N = dps/2 + 4: both series reach 2^-prec at x >= N, their terms near e^(-2 pi x)."""
    return mp.dps // 2 + 4


@functools.lru_cache(maxsize=64)
def _lifted(z: Fraction, prec: int, n: int) -> tuple:
    """(x, k, (z)_k, prod_{j<k} (z+j)^(j+1)) for the exact x = z + k, k = max(0, ceil(n - z)),
    at ``prec`` = mp.prec bits; memoized (the 64 most recent). An exact row lifts n+1, n+a+1,
    n+b+1, n+s+1, 2n+s+1, a+1 and b+1 for ln G, 1/2 for the constant and s+2 for mu_0.

    The factors z + j, j = k-1, ..., 0, have the running products
    (z+j)(z+j+1)...(z+k-1), the last of which is (z)_k, and the product of
    those is the second product. Both run on integers: z = a/d with
    d = d' 2^t and d' odd, so each factor is the integer a + j d times 2^-t,
    and :func:`running_product` cuts both to prec + 8 bits. Each product is
    then divided once by its power of d', which is 1 for an mpf z.
    """
    k = max(0, math.ceil(n - z))
    a, d = z.numerator, z.denominator
    t = (d & -d).bit_length() - 1
    poch, powers = running_product(((a + j * d, -t) for j in reversed(range(k))), prec + 8)
    return z + k, k, mpf(poch) / (d >> t) ** k, mpf(powers) / (d >> t) ** (k * (k + 1) // 2)


@functools.lru_cache(maxsize=64)
def _series_gamma(x: Fraction, prec: int, n: int) -> tuple:
    """(ln x, ln Gamma(x)) for exact x >= n at ``prec`` = mp.prec bits (DLMF 5.11.1), the
    Bernoulli sum in fixed point; memoized (the 64 most recent) per lift point."""
    x = to_mpf(x)
    log_x = mpmath.log(x)
    u = int(mpmath.ldexp(n / x, prec))
    tail = _power_sum(_gamma_coefficients(prec, n), u, (u * u) >> prec, prec)
    return log_x, (x - mpf(0.5)) * log_x - x + _half_log_2pi(prec) + mpmath.ldexp(tail, -prec)


@functools.lru_cache(maxsize=64)
def _series_g(x: Fraction, prec: int, n: int) -> BigReal:
    """ln G(x+1) - zeta'(-1) for exact x >= n at ``prec`` = mp.prec bits (DLMF 5.17.5),
    the Bernoulli sum in fixed point; memoized as :func:`_series_gamma`, whose ln x it reads."""
    log_x = _series_gamma(x, prec, n)[0]
    x = to_mpf(x)
    x2 = x * x
    value = x * _half_log_2pi(prec) + (x2 / 2 - mpf(1) / 12) * log_x - 3 * x2 / 4
    v = int(mpmath.ldexp(n * n / x2, prec))
    return value + mpmath.ldexp(_power_sum(_tail_coefficients(prec, n), v, v, prec), -prec)


@functools.cache
def _half_log_2pi(prec: int) -> BigReal:
    """ln(2 pi) / 2 at ``prec`` bits."""
    with mp.workprec(prec):
        return mpmath.log(2 * mp.pi) / 2


def _power_sum(coeffs: tuple, first: int, step: int, bits: int) -> int:
    """sum_j coeffs[j] first step^j, factors scaled by 2^bits; each truncation costs one unit."""
    total, power = 0, first
    for c in coeffs:
        total += (c * power) >> bits
        power = (power * step) >> bits
    return total


@functools.cache
def _gamma_coefficients(bits: int, n: int) -> tuple:
    """The terms B_2k / (2k(2k-1) x^(2k-1)) at x = n, scaled by 2^bits, down to 2^-bits."""
    return _coefficients(bits, n, lambda k, power: (k, 2 * k * (2 * k - 1) * power * n))


@functools.cache
def _tail_coefficients(bits: int, n: int) -> tuple:
    """The terms B_(2k+2) / (4k(k+1) x^2k) at x = n, scaled by 2^bits, down to 2^-bits."""
    return _coefficients(bits, n, lambda k, power: (k + 1, 4 * k * (k + 1) * power * n * n))


def _coefficients(bits: int, n: int, term) -> tuple:
    """The scaled series terms B_2m / d for k = 1, 2, ..., (m, d) = term(k, n^(2k-2)).

    The terms fall to about e^(-2 pi n) near k = pi n before they grow, and
    e^(-2 pi n) < 2^-prec at the lift point n, so the loop ends on size
    (below 2^(1-bits)); it is capped at 4n terms all the same.
    """
    coeffs, power = [], 1
    for k in range(1, 4 * n):
        c = _scaled_bernoulli(*term(k, power), bits)
        if abs(c) < 2:
            return tuple(coeffs)
        coeffs.append(c)
        power *= n * n
    raise PrecisionError(f"Bernoulli series at x = {n} did not reach 2^-{bits} in {k} terms")


def _scaled_bernoulli(m: int, divisor: int, bits: int) -> int:
    """B_2m / divisor times 2^bits, truncated toward zero, by one integer division."""
    magnitude = (2 * m * _tangent_number(m) << bits) // (divisor * ((1 << 2 * m) - 1) << 2 * m)
    return magnitude if m % 2 else -magnitude


# T_1, T_2, ... with tan x = sum_k T_k x^(2k-1) / (2k-1)!, and the last one's
# value after each pass of Brent and Harvey's in-place recurrence
_TANGENT: list = []
_PASSES: list = []


def _tangent_number(k: int) -> int:
    """T_k, from a table shared by every precision and extended one index at a time.

    Brent and Harvey set T_j = (j-1)! and then, in passes i = 2, 3, ..., update
    T_j = (j-i) T_(j-1) + (j-i+2) T_j for j >= i in increasing j; pass j leaves
    T_j final. Index j needs only index j-1's value after each pass, so the
    table grows by O(j) small multiples per index and is never rebuilt.
    """
    while len(_TANGENT) < k:
        j = len(_TANGENT) + 1
        value = (j - 1) * _PASSES[0] if _PASSES else 1
        row = [value]
        # passes i = 2 .. j-1, then pass j, where T_(j-1) has weight j - i = 0
        for weight, previous in zip(range(j - 2, 0, -1), _PASSES[1:]):
            value = weight * previous + (weight + 2) * value
            row.append(value)
        if j > 1:
            row.append(2 * value)
        _PASSES[:] = row
        _TANGENT.append(row[-1])
    return _TANGENT[k - 1]


@functools.cache
def _zeta_prime_minus_one(prec: int, n: int) -> BigReal:
    """zeta'(-1) = 1/12 - ln A at ``prec`` bits, fixed by G(n+1) = prod_{j<n} j!."""
    with mp.workprec(prec):
        log_g = mpmath.log(math.prod(math.factorial(j) for j in range(n)))
        return log_g - _series_g(n, prec, n)

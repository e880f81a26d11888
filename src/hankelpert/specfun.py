"""Log-Gamma and log-Barnes-G from one Stirling-type kernel.

The Barnes G-function is the entire function satisfying

    G(z+1) = Gamma(z) * G(z),    G(1) = 1.

Both functions lift z by k = max(0, ceil(N - z)) Pochhammer steps to
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

The lift, ln x and both series of one argument at one kernel precision are
memoized together (:func:`_lifted`), so ln Gamma(z) after ln G(z), or either
one again, costs at most one log.
"""
from __future__ import annotations

import functools
import math

import mpmath
from mpmath import mp, mpf

from .errors import DomainError, PrecisionError
from .precision import BigReal, Precision, ensure_finite, running_product, to_mpf


def log_gamma(z, p: Precision) -> BigReal:
    """ln Gamma(z) for real z > 0."""
    with p.workdps():
        zv = _positive(z, "log_gamma")
        with _kernel_precision(zv):
            point = _lifted(zv, mp.prec, _lift_point())
            value = point.series_gamma - (mpmath.log(point.poch) if point.k else 0)
        return ensure_finite(+value, "log_gamma")


def log_barnes_g(z, p: Precision) -> BigReal:
    """ln G(z) for real z > 0, G the Barnes G-function.

    G(x+1) = G(z) prod_{j<=k} Gamma(z+j) and Gamma(z+j) = Gamma(x) / (z+j)_(k-j)
    give the module's formula, whose two series share x and ln x.
    """
    with p.workdps():
        zv = _positive(z, "log_barnes_g")
        with _kernel_precision(zv):
            n = _lift_point()
            point = _lifted(zv, mp.prec, n)
            value = (point.series_g + _zeta_prime_minus_one(mp.prec, n)
                     - (point.k + 1) * point.series_gamma
                     + (mpmath.log(point.powers) if point.k else 0))
        return ensure_finite(+value, "log_barnes_g")


def _positive(z, name: str) -> BigReal:
    zv = to_mpf(z)
    if not zv > 0:
        raise DomainError(f"{name} requires z > 0, got {zv}")
    return zv


def _kernel_precision(z):
    """Guard digits for the kernel's cancellation at the current precision.

    The series and the lift are of size up to x^2 ln x, x the series
    argument, and cancel to the result; x^2 ln x < 2^(2e) e for
    e = mag(max(z, dps)), so about log10 of that many digits keep the
    caller's guard digits intact.
    """
    e = mpmath.mag(max(z, mp.dps))
    return mpmath.extradps(int((2 * e + e.bit_length()) * math.log10(2)) + 1)


def _lift_point() -> int:
    """N = dps/2 + 4: both series reach 2^-prec at x >= N, their terms near e^(-2 pi x)."""
    return mp.dps // 2 + 4


def _lift(z, n: int) -> tuple:
    """(x, k, (z)_k, prod_{j<k} (z+j)^(j+1)) for x = z + k, k = max(0, ceil(n - z)).

    The factors z + j, j = k-1, ..., 0, have the running products
    (z+j)(z+j+1)...(z+k-1), the last of which is (z)_k, and the product of
    those is the second product. Both run on integers: z = m 2^e exactly, so
    each factor is the integer m + j 2^-e times 2^e, and
    :func:`running_product` cuts both to prec + 8 bits.
    """
    k = max(0, int(mpmath.ceil(n - z)))
    _, man, exp, _ = z._mpf_
    base, step, scale = man << max(0, exp), 1 << max(0, -exp), min(0, exp)
    poch, powers = running_product(
        ((base + j * step, scale) for j in reversed(range(k))), mp.prec + 8)
    return z + k, k, mpf(poch), mpf(powers)


class _Lifted:
    """One argument's lift, ln x and series at the precision it was made at.

    Both functions read S_Gamma; S_G, which only ln G reads, is summed on first use.
    """

    def __init__(self, z, n: int):
        self.n = n
        self.x, self.k, self.poch, self.powers = _lift(z, n)
        self.log_x = mpmath.log(self.x)
        self.series_gamma = _series_gamma(self.x, self.log_x, n)

    @functools.cached_property
    def series_g(self) -> BigReal:
        return _series_g(self.x, self.log_x, self.n)


@functools.lru_cache(maxsize=64)
def _lifted(z, prec: int, n: int) -> _Lifted:
    """The kernel's work at z, for the caller's ``prec`` = mp.prec and lift point n.

    Memoized (the 64 most recent) so that ln Gamma and ln G at one argument
    and precision lift and sum once: an exact row asks for both at a+1, b+1
    and s+2 (the closed form's head and mu_0) and at n+(s+1)/2. A memoized
    value is the one a fresh call computes, bit for bit.
    """
    return _Lifted(z, n)


def _series_gamma(x, log_x, n: int) -> BigReal:
    """ln Gamma(x) for x >= n (DLMF 5.11.1), the Bernoulli sum in fixed point."""
    bits = mp.prec
    u = int(mpmath.ldexp(n / x, bits))
    tail = _power_sum(_gamma_coefficients(bits, n), u, (u * u) >> bits, bits)
    return (x - mpf(0.5)) * log_x - x + _half_log_2pi(bits) + mpmath.ldexp(tail, -bits)


def _series_g(x, log_x, n: int) -> BigReal:
    """ln G(x+1) - zeta'(-1) for x >= n (DLMF 5.17.5), the Bernoulli sum in fixed point."""
    x2 = x * x
    bits = mp.prec
    value = x * _half_log_2pi(bits) + (x2 / 2 - mpf(1) / 12) * log_x - 3 * x2 / 4
    v = int(mpmath.ldexp(n * n / x2, bits))
    return value + mpmath.ldexp(_power_sum(_tail_coefficients(bits, n), v, v, bits), -bits)


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
        return log_g - _series_g(mpf(n), mpmath.log(n), n)

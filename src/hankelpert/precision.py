"""Working-precision plumbing: the precision contract and exact conversions.

Arbitrary-precision reals are ``mpmath.mpf`` values (aliased ``BigReal``).
Every operation that accepts a :class:`Precision` computes internally with
guard digits and returns a value whose relative error stays far below the
contract bound ``10**(8 - decimal_digits)``, i.e. callers may lose up to
eight digits to downstream arithmetic and still meet their own targets.
"""
from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath import mp, mpf

from .errors import DomainError, PrecisionError

BigReal = mpmath.mpf

#: Guard digits added on top of the requested precision inside every operation.
GUARD_DIGITS = 8
#: Fixed-point guard bits on top of the working precision, read by the integer
#: kernels of ``quadrature`` and ``hankel``: in the Gauss rule plus 5 per bit
#: of the rule order (3 for the rounding count, 2 for 1 - x^2 near +-1) and
#: the bits by which |Q_k| falls below 1 at x = +-1 and the mean, in the perturbed moment pass
#: plus 1 per bit of the rule order and the same small-value bits, in the
#: modified Chebyshev kernel plus 3 per coefficient pair, in the Chebyshev
#: transform below the largest sample. The Gauss rule, the moment pass and the
#: modified Chebyshev kernel (its 2 count - 1 moments and basis entries) take
#: each exact input, int, Fraction or mpf, at that width F by one floor
#: division, :func:`to_fixed`, within one unit of 2^-F.
KERNEL_GUARD_BITS = 16


def checked_namedtuple(name: str, fields: list) -> type:
    """``NamedTuple(name, fields)`` whose ``_make``, and so ``_replace``, calls the
    subclass constructor: a copy passes the same ``__new__`` checks as a new value."""
    base = NamedTuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class Precision(checked_namedtuple("Precision", [("decimal_digits", int)])):
    """Requested working precision, in decimal digits (at least 32)."""

    __slots__ = ()

    def __new__(cls, decimal_digits: int):
        if not isinstance(decimal_digits, numbers.Integral):
            raise DomainError("decimal_digits must be an integer")
        if decimal_digits < 32:
            raise DomainError(f"decimal_digits must be >= 32, got {decimal_digits}")
        return super().__new__(cls, decimal_digits)

    def workdps(self, extra: int = GUARD_DIGITS):
        """Context manager setting mpmath working precision with guard digits."""
        return mp.workdps(self.decimal_digits + extra)


def to_mpf(value) -> BigReal:
    """Convert ``value`` to mpf at the current working precision.

    An mpf is returned unchanged. Values with an exact rational form
    (:func:`exact_fraction`) are converted by one division of numerator by
    denominator, so no decimal-representation error sneaks in; anything else,
    text such as 'inf' and a non-finite float included, raises DomainError.
    """
    if isinstance(value, mpf):
        return value
    q = exact_fraction(value)
    if q is not None:
        return mpf(q.numerator) / mpf(q.denominator)
    raise DomainError(f"cannot convert {type(value).__name__} to mpf")


def to_fixed(value, bits: int) -> int:
    """floor(value 2^bits) of an int, Fraction or finite mpf by one floor division: an
    mpf is the exact rational man 2^exp, so each kind is rounded once, down."""
    if isinstance(value, mpf):
        sign, man, exp, _ = ensure_finite(value, "fixed-point input")._mpf_
        value, bits = -man if sign else man, bits + exp
    num, den = value.numerator, value.denominator
    return (num << bits) // den if bits >= 0 else num // (den << -bits)


def exact_fraction(value) -> Fraction | None:
    """Exact rational form of ``value``, or None when there is none.

    Ints, Fractions, finite floats (binary rationals) and decimal/ratio
    strings all have one; an infinite or NaN float has none, and mpf values
    are deliberately not treated as exact because they normally arrive as
    rounded computation results. Text with ``_`` has none: ``Fraction``
    reads '1_0' as 10 from Python 3.11 but refuses it on 3.10, and the
    ``--h`` grammar refuses it too.

    Text that writes more digits, counted with the size of its decimal
    exponent, than ``sys.get_int_max_str_digits()`` allows raises
    DomainError before any Fraction is built: that count bounds the digits
    of the exact value, and ``Fraction('1e10000000')`` alone takes seconds.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, float):
        return Fraction(value) if math.isfinite(value) else None
    if isinstance(value, str):
        if "_" in value:
            return None
        mantissa, _, exponent = value.lower().partition("e")
        power = exponent.strip().lstrip("+-").lstrip("0")
        size = sum(ch.isdecimal() for ch in mantissa)
        if power.isdecimal():
            size += int(power) if len(power) < 10 else 10 ** 10
        limit = sys.get_int_max_str_digits()
        if limit and size > limit:
            shown = value if len(value) <= 24 else value[:20] + "..."
            raise DomainError(f"number {shown!r} needs more than {limit} digits, "
                              "Python's limit for integer text")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            return None
    return None


def running_product(factors, bits: int) -> tuple:
    """(P_k, P_1 P_2 ... P_k), P_i = f_1 ... f_i the running products of the
    positive ``factors`` f_i = man 2^exp, given and returned as (man, exp).

    Both products are cut to their leading ``bits`` integer bits after every
    step, rounding down. One cut multiplies a value by a factor in
    (1 - 2^(1-bits), 1], so P_k is at most N = k cuts, and the product of
    the running products N = k(k+1)/2 + k cuts, below its exact value: low
    by less than N 2^(1-bits), relative.
    """
    def cut(man, exp):
        drop = max(0, man.bit_length() - bits)
        return man >> drop, exp + drop

    run = total = (1, 0)
    for man, exp in factors:
        run = cut(run[0] * man, run[1] + exp)
        total = cut(total[0] * run[0], total[1] + run[1])
    return run, total


def ensure_finite(value: BigReal, what: str = "result") -> BigReal:
    """Raise PrecisionError if ``value`` is NaN or infinite; otherwise return it."""
    if not mpmath.isfinite(value):
        raise PrecisionError(f"{what} is not finite: {value}")
    return value

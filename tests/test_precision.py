"""The shared running product of ``precision``, its cuts and its error bound,
the fixed-point conversion, the size rule for number text, and the values
with no exact form."""
import random
import sys
from fractions import Fraction

import mpmath
import pytest

from hankelpert.errors import DomainError, PrecisionError
from hankelpert.jacobi import JacobiParams
from hankelpert.precision import exact_fraction, running_product, to_fixed, to_mpf


def _below_by_under(got, exact, bits, cuts) -> bool:
    """got <= exact and (exact - got) 2^(bits-1) < cuts * exact, on the
    integer mantissas of the two (man, exp) values brought to one exponent."""
    (man, exp), (exact_man, exact_exp) = got, exact
    low = min(exp, exact_exp)
    man, exact_man = man << (exp - low), exact_man << (exact_exp - low)
    return man <= exact_man and (exact_man - man) << (bits - 1) < cuts * exact_man


@pytest.mark.parametrize("bits", [8, 24, 61, 200])
def test_running_product_stays_below_its_bound(bits):
    """Against exact (man, exp) products, for k = 1..64 factors of mixed sizes:
    every mantissa keeps at most ``bits`` bits, and each product is at most
    the exact one and low by under N 2^(1-bits), relative, with N = k cuts
    for the running product and k(k+1)/2 + k for the product of the running
    products."""
    rng = random.Random(bits)
    for k in range(1, 65):
        factors = [(rng.randrange(1, 2 ** rng.randint(1, 3 * bits)), rng.randint(-300, 300))
                   for _ in range(k)]
        run, total = running_product(factors, bits)
        exact_run = exact_total = (1, 0)
        for man, exp in factors:
            exact_run = (exact_run[0] * man, exact_run[1] + exp)
            exact_total = (exact_total[0] * exact_run[0], exact_total[1] + exact_run[1])
        for got, exact, cuts in ((run, exact_run, k),
                                 (total, exact_total, k * (k + 1) // 2 + k)):
            assert 0 < got[0].bit_length() <= bits
            assert _below_by_under(got, exact, bits, cuts), f"k = {k}"


def test_running_product_of_nothing_is_one():
    assert running_product([], 53) == ((1, 0), (1, 0))


def test_number_text_up_to_the_int_digit_limit_is_exact():
    limit = sys.get_int_max_str_digits()
    assert exact_fraction(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert exact_fraction(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    assert exact_fraction("9" * limit) == 10 ** limit - 1
    assert exact_fraction(" 2.5E-3 ") == Fraction(1, 400)


@pytest.mark.parametrize("text", [
    lambda limit: f"1e{limit}", lambda limit: f"1e-{limit}", lambda limit: "9" * (limit + 1),
    lambda limit: "0." + "0" * limit, lambda limit: "1e" + "9" * limit,
    lambda limit: "1/" + "3" * limit],
    ids=["huge", "tiny", "long-integer", "long-decimal", "long-exponent", "long-ratio"])
def test_number_text_past_the_int_digit_limit_is_refused(text):
    """Its digits plus its exponent's size exceed the limit: refused before
    ``Fraction`` is built, which takes seconds for 1e10000000."""
    limit = sys.get_int_max_str_digits()
    with pytest.raises(DomainError, match=f"needs more than {limit} digits"):
        exact_fraction(text(limit))


def test_text_without_an_exact_rational_value_is_refused():
    """'inf' has no exact rational form, and ``to_mpf`` reads text only through one."""
    with pytest.raises(DomainError, match="cannot convert str to mpf"):
        to_mpf("inf")


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_nonfinite_float_has_no_exact_value(value):
    """A float that is no binary rational has no exact form: ``to_mpf`` and
    ``JacobiParams`` refuse it with DomainError, the latter naming the parameter."""
    assert exact_fraction(value) is None
    with pytest.raises(DomainError, match="cannot convert float to mpf"):
        to_mpf(value)
    with pytest.raises(DomainError, match="^beta must be a rational number"):
        JacobiParams(0, value)


@pytest.mark.parametrize("value, bits, want", [
    (5, 0, 5), (-5, -1, -3), (5, -1, 2), (-1, -3, -1), (3, 2, 12),
    (Fraction(7, 3), 0, 2), (Fraction(-7, 3), 0, -3), (Fraction(-7, 3), 2, -10),
    (Fraction(-1, 3), -2, -1), (Fraction(1, 3), -2, 0),
    (mpmath.mpf(-2.75), 0, -3), (mpmath.mpf(-2.75), 1, -6), (mpmath.mpf(2.75), 1, 5),
    (mpmath.mpf(-2.75), -1, -2), (mpmath.mpf(-0.5), -4, -1), (mpmath.mpf(0), 9, 0),
])
def test_to_fixed_floors(value, bits, want):
    """floor(value 2^bits), not truncation toward zero: negative values round
    down, for negative ``bits`` too, on int, Fraction and mpf input."""
    assert to_fixed(value, bits) == want


def test_to_fixed_reads_an_mpf_exactly():
    """An mpf of 400 bits is the rational man 2^exp, floored at any width
    whatever the working precision: mpmath's floor of the exact ldexp agrees."""
    with mpmath.workprec(400):
        value = -mpmath.mpf(1) / 3
    for bits in (-3, 0, 17, 300, 500):
        with mpmath.workprec(1000):
            want = int(mpmath.floor(mpmath.ldexp(value, bits)))
        assert to_fixed(value, bits) == want


def test_to_fixed_refuses_a_nonfinite_mpf():
    for bad in (mpmath.inf, -mpmath.inf, mpmath.nan):
        with pytest.raises(PrecisionError, match="fixed-point input is not finite"):
            to_fixed(bad, 8)

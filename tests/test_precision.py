"""The shared running product of ``precision``: its cuts and its error bound."""
import random
from fractions import Fraction

import pytest

from hankelpert.precision import running_product


def _value(man_exp) -> Fraction:
    man, exp = man_exp
    return man * Fraction(2) ** exp


@pytest.mark.parametrize("bits", [8, 24, 61, 200])
def test_running_product_stays_below_its_bound(bits):
    """Against exact Fraction products, for k = 1..64 factors of mixed sizes:
    every mantissa keeps at most ``bits`` bits, and each product is at most
    the exact one and low by under (1 + 2^(1-bits))^N - 1, relative, with
    N = k cuts for the running product and k(k+1)/2 + k for the product of
    the running products."""
    rng = random.Random(bits)
    eps = Fraction(1, 2 ** (bits - 1))
    for k in range(1, 65):
        factors = [(rng.randrange(1, 2 ** rng.randint(1, 3 * bits)), rng.randint(-300, 300))
                   for _ in range(k)]
        run, total = running_product(factors, bits)
        exact_run, exact_total = Fraction(1), Fraction(1)
        for f in factors:
            exact_run *= _value(f)
            exact_total *= exact_run
        for got, exact, cuts in ((run, exact_run, k),
                                 (total, exact_total, k * (k + 1) // 2 + k)):
            assert 0 < got[0].bit_length() <= bits
            assert _value(got) <= exact
            assert (exact - _value(got)) / exact < (1 + eps) ** cuts - 1, f"k = {k}"


def test_running_product_of_nothing_is_one():
    assert running_product([], 53) == ((1, 0), (1, 0))

"""Log-Gamma and log-Barnes-G."""
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from hankelpert.errors import DomainError
from hankelpert.precision import GUARD_DIGITS, Precision
from hankelpert import specfun
from hankelpert.specfun import log_barnes_g, log_gamma

P64 = Precision(64)
P80 = Precision(80)

def test_log_gamma_anchor_values():
    # Gamma(1) = Gamma(2) = 1, Gamma(1/2) = sqrt(pi)
    assert float(abs(log_gamma(1, P64))) < 1e-60
    assert float(abs(log_gamma(2, P64))) < 1e-60
    with mpmath.workdps(70):
        want = mpmath.log(mpmath.pi) / 2
        assert float(abs(log_gamma(Fraction(1, 2), P64) - want)) < 1e-58


def test_log_gamma_duplication():
    """ln Gamma(2z) = (2z-1) ln 2 - ln(pi)/2 + ln Gamma(z) + ln Gamma(z + 1/2)."""
    with mpmath.workdps(80):
        ln2 = mpmath.log(2)
        lnpi = mpmath.log(mpmath.pi)
        for zs in ("0.25", "1.75", "7.5", "19.25"):
            z = mpmath.mpf(zs)
            lhs = log_gamma(2 * z, P64)
            rhs = ((2 * z - 1) * ln2 - lnpi / 2
                   + log_gamma(z, P64) + log_gamma(z + mpmath.mpf(1) / 2, P64))
            assert float(abs(lhs - rhs)) < 1e-55, f"z = {zs}"


def test_barnes_g_small_integers():
    # G(1)=G(2)=G(3)=1, G(4)=1!2!=2, G(5)=1!2!3!=12
    for z, want in ((1, 1), (2, 1), (3, 1), (4, 2), (5, 12)):
        with mpmath.workdps(70):
            assert float(abs(log_barnes_g(z, P64) - mpmath.log(want))) < 1e-58


def test_barnes_g_difference_equation():
    """G(z+1) = Gamma(z) G(z) in log form, on a grid covering (0, 30]."""
    with mpmath.workdps(80):
        for i in range(100):
            z = Fraction(3 * i + 1, 10)
            lhs = log_barnes_g(z + 1, P64)
            rhs = log_gamma(z, P64) + log_barnes_g(z, P64)
            assert float(abs(lhs - rhs)) < 1e-55, f"z = {z}"


def test_barnes_g_recurrence_ladder():
    """Unfolding G(z+20) down to G(z) pins the non-integer branch at z = 0.25."""
    with mpmath.workdps(90):
        z = mpmath.mpf("0.25")
        acc = log_barnes_g(z, P80)
        for j in range(20):
            acc += log_gamma(z + j, P80)
        assert float(abs(acc - log_barnes_g(z + 20, P80))) < 1e-70


@pytest.mark.parametrize("digits", (40, 200))
def test_memoized_values_are_bit_identical_to_cold_values(digits):
    """ln Gamma and ln G read from the memo, after the other function or after
    themselves, in either order and with entries of the neighbouring precisions
    present (one of which shares the lift point), equal a cold call's value bit
    for bit."""
    p, others = Precision(digits), (Precision(digits - 1), Precision(digits + 1))
    zs = (Fraction(1, 3), Fraction(5, 2), Fraction(229, 4), 300)
    funcs = (log_gamma, log_barnes_g)

    memos = (specfun._lifted, specfun._series_gamma, specfun._series_g)

    def cold(f, z):
        for memo in memos:
            memo.cache_clear()
        return f(z, p)._mpf_

    want = {(f, z): cold(f, z) for f in funcs for z in zs}
    for order in (funcs, funcs[::-1]):
        for memo in memos:
            memo.cache_clear()
        for z in zs:
            for f in order:
                for other in others:
                    f(z, other)
                assert f(z, p)._mpf_ == want[f, z], (f.__name__, z)
                assert f(z, p)._mpf_ == want[f, z], (f.__name__, z)


ORACLE_Z = (Fraction(1, 100), Fraction(1, 3), Fraction(1, 2), Fraction(7, 6), Fraction(5, 3),
            Fraction(5, 2), Fraction(37, 3), Fraction(101, 2), Fraction(1001, 3))


@pytest.mark.parametrize("digits", (32, 111, 320))
def test_barnes_g_against_independent_references(digits):
    """The kernel against mpmath's barnesg at digits + 60 (lifted by Gamma steps, constant
    from Glaisher's A), G(1/2) = 2^(1/24) e^(1/8) pi^(-1/4) A^(-3/2) and
    G(101) = prod_{k<100} k!. The bound is 10^6 below the contract bound 10^(8 - digits):
    the kernel's own guard digits keep the result within 100 units of its working
    precision, digits + GUARD_DIGITS, and dropping them fails here. ORACLE_Z is passed
    both as mpf and as exact Fractions, whose lift divides by powers of 3."""
    p = Precision(digits)
    bound = mpmath.mpf(10) ** (2 - digits - GUARD_DIGITS)
    with mpmath.workdps(digits + 60):
        args = [mpmath.mpf(z.numerator) / z.denominator for z in ORACLE_Z]
        args.append(mpmath.sqrt(2) * mpmath.e)  # irrational, lifted across a non-integer range
        cases = [(z, mpmath.log(mpmath.barnesg(z))) for z in args]
        cases += [(q, want) for q, (_, want) in zip(ORACLE_Z, cases)]
        cases.append((Fraction(1, 2), mpmath.log(2) / 24 + mpmath.mpf(1) / 8
                      - mpmath.log(mpmath.pi) / 4 - 3 * mpmath.log(mpmath.glaisher) / 2))
        cases.append((101, mpmath.log(math.prod(math.factorial(k) for k in range(100)))))
        for z, want in cases:
            got = log_barnes_g(z, p)
            assert abs(got - want) <= bound * abs(want), f"z = {z}"


def _bernoulli_from_tangent(m):
    """B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) from the kernel's tangent numbers."""
    return Fraction((-1) ** (m - 1) * 2 * m * specfun._tangent_number(m), 4 ** m * (4 ** m - 1))


def test_tangent_bernoulli_numbers_match_bernfrac(monkeypatch):
    """Every B_2m that a 600-digit ln Gamma and ln G evaluation reads equals mpmath's
    exact bernfrac, and each scaled coefficient is B_2m / divisor * 2^bits truncated."""
    for cached in (specfun._gamma_coefficients, specfun._tail_coefficients,
                   specfun._zeta_prime_minus_one):
        cached.cache_clear()
    read = []
    scaled = specfun._scaled_bernoulli

    def recording(m, divisor, bits):
        read.append((m, divisor, bits))
        return scaled(m, divisor, bits)

    monkeypatch.setattr(specfun, "_scaled_bernoulli", recording)
    p = Precision(600)
    log_gamma(Fraction(1, 3), p)
    log_barnes_g(Fraction(1, 3), p)
    largest = max(m for m, _, _ in read)
    assert largest > 300
    for m in range(1, largest + 1):
        assert _bernoulli_from_tangent(m) == Fraction(*mpmath.bernfrac(2 * m)), m
    for m, divisor, bits in read[::17]:
        exact = _bernoulli_from_tangent(m) * 2 ** bits / divisor
        assert scaled(m, divisor, bits) == math.trunc(exact), (m, bits)


@pytest.mark.parametrize("digits", (32, 111, 320, 600))
def test_log_gamma_against_mpmath_loggamma(digits):
    """The kernel against mpmath's loggamma at digits + 60, within the bound of the Barnes G
    reference test; relative, or absolute where |ln Gamma| < 1 (it vanishes at 1 and 2).
    ORACLE_Z is passed both as mpf and as exact Fractions."""
    p = Precision(digits)
    bound = mpmath.mpf(10) ** (2 - digits - GUARD_DIGITS)
    with mpmath.workdps(digits + 60):
        args = [mpmath.mpf(z.numerator) / z.denominator for z in ORACLE_Z]
        args.append(mpmath.sqrt(2) * mpmath.e)
        args += [1, 2, 3, 10, 101, 1000]
        cases = [(z, mpmath.loggamma(z)) for z in args]
        cases += [(q, want) for q, (_, want) in zip(ORACLE_Z, cases)]
        for z, want in cases:
            got = log_gamma(z, p)
            assert abs(got - want) <= bound * max(abs(want), 1), f"z = {z}"


def test_import_builds_no_table():
    """Importing the CLI builds no tangent-number, coefficient or constant table:
    each is built by the first evaluation that needs it."""
    probe = ("import hankelpert.cli\n"
             "from hankelpert import specfun\n"
             "print(len(specfun._TANGENT), *(f.cache_info().currsize for f in (\n"
             "    specfun._gamma_coefficients, specfun._tail_coefficients,\n"
             "    specfun._zeta_prime_minus_one, specfun._half_log_2pi)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    # src first, then whatever the caller's PYTHONPATH holds (mpmath, say)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0"] * 5


def test_rejects_nonpositive_arguments():
    with pytest.raises(DomainError):
        log_gamma(0, P64)
    with pytest.raises(DomainError):
        log_gamma(-3, P64)
    with pytest.raises(DomainError):
        log_barnes_g(Fraction(-1, 2), P64)

"""Moments, recurrence coefficients, norms, and determinant closed forms."""
import math
from fractions import Fraction

import mpmath
import pytest

import hankelpert.cli as cli
import hankelpert.jacobi as jacobi
from hankelpert.errors import DomainError
from hankelpert.fluid import SupportInterval
from hankelpert.hankel import MomentSequence
from hankelpert.jacobi import (JacobiParams, jacobi_alpha_n_exact,
                               jacobi_asym_constant, jacobi_beta_n_exact, jacobi_log_hn,
                               jacobi_logdet_asym, jacobi_logdet_exact,
                               jacobi_moment, jacobi_moment_exact, jacobi_moment_ratios,
                               jacobi_recurrence_table, jacobi_structure_exact,
                               recurrence_frexp)
from hankelpert.precision import Precision, to_mpf
from hankelpert.specfun import log_barnes_g, log_gamma

from gamma_oracle import log_hn_by_gamma

P64 = Precision(64)
HALF = Fraction(1, 2)


def _ratios_by_fractions(count, jp):
    """mu_k/mu_0 by the moment recurrence on Fractions, one reduced division a step."""
    a, b = jp.alpha, jp.beta
    ratios = [Fraction(1), (b - a) / (a + b + 2)]
    for k in range(1, count - 1):
        ratios.append(((b - a) * ratios[k] + k * ratios[k - 1]) / (a + b + k + 2))
    return ratios[:count]


@pytest.mark.parametrize("alpha, beta", [(0, 0), ("1/2", 0), ("1/3", 2), ("-2/3", "1/2"),
                                         ("-9/10", 3), (60, 0)])
def test_moment_ratios_match_plain_fraction_recurrence(alpha, beta):
    """The integer recurrence over a common denominator gives the Fractions the plain
    recurrence gives, at every count up to 200."""
    jp = JacobiParams(alpha, beta)
    want = _ratios_by_fractions(200, jp)
    for count in (0, 1, 2, 3, 199, 200):
        assert jacobi_moment_ratios(count, jp) == want[:count], count


def test_params_normalize_to_fractions():
    jp = JacobiParams("1/2", 0.25)
    assert jp.alpha == HALF and isinstance(jp.alpha, Fraction)
    assert jp.beta == Fraction(1, 4)
    assert not jp.is_nonneg_integer
    assert JacobiParams(2, 0).is_nonneg_integer


def test_params_reject_nonintegrable():
    with pytest.raises(DomainError):
        JacobiParams(-1, 0)
    with pytest.raises(DomainError):
        JacobiParams(0, "-3/2")


@pytest.mark.parametrize("copy", [
    lambda: Precision(40)._replace(decimal_digits=6),
    lambda: JacobiParams._make(["-3", 0]),
    lambda: JacobiParams(1, 2)._replace(beta="-3/2"),
    lambda: MomentSequence((mpmath.mpf(2),), "pure")._replace(mu=(mpmath.mpf(0),)),
    lambda: SupportInterval(-HALF, HALF, 4, JacobiParams(0, 0))._replace(b_n=-1),
], ids=["Precision", "JacobiParams._make", "JacobiParams", "MomentSequence",
        "SupportInterval"])
def test_copies_pass_the_constructor_checks(copy):
    """_make and _replace, which calls it, build through the checking constructor."""
    with pytest.raises(DomainError):
        copy()


def test_copies_normalize_like_the_constructor():
    jp = JacobiParams._make(["1/2", 0.25])
    assert jp == JacobiParams(HALF, Fraction(1, 4))
    assert isinstance(jp.alpha, Fraction) and isinstance(jp.beta, Fraction)
    assert JacobiParams(1, 2)._replace(beta="1/3").beta == Fraction(1, 3)
    assert Precision(40)._replace(decimal_digits=50) == Precision(50)


def test_legendre_moments():
    jp = JacobiParams(0, 0)
    assert jacobi_moment_exact(0, jp) == 2
    assert jacobi_moment_exact(1, jp) == 0
    assert jacobi_moment_exact(2, jp) == Fraction(2, 3)
    assert jacobi_moment_exact(7, jp) == 0
    assert jacobi_moment_exact(8, jp) == Fraction(2, 9)


def test_moments_match_direct_quadrature():
    """jacobi_moment against a plain numerical integral oracle."""
    with mpmath.workdps(50):
        for a_s, b_s in (("0", "0"), ("1/2", "0"), ("1", "2"), ("3/2", "1/2")):
            jp = JacobiParams(a_s, b_s)
            a, b = jp.ab_mpf()
            for k in (0, 1, 2, 5, 12):
                want = mpmath.quad(
                    lambda x: x**k * (1 - x)**a * (1 + x)**b, [-1, 0, 1])
                got = jacobi_moment(k, jp, P64)
                assert float(abs(got - want)) < 1e-40, f"({a_s},{b_s}) k={k}"


def monomial_moments(a, b, count):
    """Exact mu_k for integer a, b: expand (1-x)^a (1+x)^b into monomials c_j x^j
    and integrate termwise, the integral of x^j over [-1, 1] being 2/(j+1) for
    even j and 0 for odd j. Shares no code with the moment recurrence."""
    coeffs = [0] * (a + b + 1)
    for i in range(a + 1):
        for j in range(b + 1):
            coeffs[i + j] += (-1) ** i * math.comb(a, i) * math.comb(b, j)
    return [sum(Fraction(2 * c, j + k + 1) for j, c in enumerate(coeffs) if (j + k) % 2 == 0)
            for k in range(count)]


def test_moment_routes_agree_for_integer_params():
    with mpmath.workdps(70):
        for pair in ((0, 0), (1, 1), (2, 0), (1, 2), (3, 5)):
            jp = JacobiParams(*pair)
            for k, want in enumerate(monomial_moments(*pair, 200)):
                assert jacobi_moment_exact(k, jp) == want, f"{pair} k={k}"
            for k in range(0, 25):
                exact = jacobi_moment_exact(k, jp)
                got = jacobi_moment(k, jp, P64)
                assert float(abs(got - mpmath.mpf(exact.numerator) / exact.denominator)) < 1e-55


def test_moment_exact_requires_integer_params():
    with pytest.raises(DomainError):
        jacobi_moment_exact(0, JacobiParams(HALF, 0))


def test_recurrence_against_rational_gram_schmidt():
    """Coefficients from the closed form equal those ground out of exact moments.

    The comparison runs the classical moment recursion (modified-Chebyshev with
    zero auxiliary coefficients) in Fraction arithmetic, on the generic loop kept
    as the fixed-point kernel's oracle, so agreement is exact.
    """
    from test_hankel import generic_modified_chebyshev

    for pair in ((0, 0), (1, 1), (1, 2), (2, 0)):
        jp = JacobiParams(*pair)
        count = 8
        mu = tuple(jacobi_moment_exact(k, jp) for k in range(2 * count))
        zero = (Fraction(0),) * (2 * count)
        alphas, betas = generic_modified_chebyshev(mu, zero, zero, count)
        assert betas[0] == mu[0]
        for k in range(count):
            assert alphas[k] == jacobi_alpha_n_exact(k, jp), f"{pair} alpha_{k}"
        for k in range(1, count):
            assert betas[k] == jacobi_beta_n_exact(k, jp), f"{pair} beta_{k}"


def _poly(*terms):
    """Sum of c x^shift q(x) over the (c, shift, q), q a Fraction coefficient list."""
    out = [Fraction(0)] * max(shift + len(q) for _, shift, q in terms)
    for c, shift, q in terms:
        for i, v in enumerate(q):
            out[i + shift] += c * v
    return out


@pytest.mark.parametrize("pair", [(0, 0), (1, 0), (0, 3), (2, 5), ("-1/2", "-1/2"),
                                  ("-3/4", "-1/4")])
def test_structure_relation_against_exact_derivatives(pair):
    """(1 - x^2) Q'_m = (B - m x) Q_m + C Q_{m-1} coefficient by coefficient, m <= 8.

    Q_k = 2^k P_k from the exact recurrence. The last two pairs put
    alpha + beta at -1, where the generic Q_m(+-1)/Q_{m-1}(+-1) is 0/0 at m = 1.
    """
    jp = JacobiParams(*pair)
    qs = [[Fraction(0)], [Fraction(1)]]
    for k in range(8):
        beta_k = jacobi_beta_n_exact(k, jp) if k else 0
        qs.append(_poly((2, 1, qs[-1]), (-2 * jacobi_alpha_n_exact(k, jp), 0, qs[-1]),
                        (-4 * beta_k, 0, qs[-2])))
    for m in range(1, 9):
        q, qm1 = qs[m + 1], qs[m]
        dq = [i * c for i, c in enumerate(q)][1:]
        B, C = jacobi_structure_exact(m, jp)
        assert _poly((1, 0, dq), (-1, 2, dq)) == _poly((B, 0, q), (-m, 1, q), (C, 0, qm1)), \
            f"{pair} m={m}"


def test_exponents_without_exact_value_are_refused(capsys):
    """Exponents are exact rationals; an irrational one arrives as a decimal string."""
    with pytest.raises(DomainError, match="alpha"):
        JacobiParams(mpmath.sqrt(2), 0)
    with pytest.raises(DomainError, match="beta"):
        JacobiParams(0, "pi")
    assert cli.main(["exact", "--n", "10", "--alpha", "0.70710678118654752440"]) == 0
    capsys.readouterr()


def test_legendre_recurrence_values():
    jp = JacobiParams(0, 0)
    assert jacobi_alpha_n_exact(5, jp) == 0
    # beta_n = n^2/(4n^2-1)
    for n in (1, 2, 3, 10):
        assert jacobi_beta_n_exact(n, jp) == Fraction(n * n, 4 * n * n - 1)


def test_recurrence_coeffs_shape():
    """The one table holds the exact Fractions of the per-index formulas."""
    jp = JacobiParams(1, HALF)
    alphas, betas = jacobi_recurrence_table(6, jp)
    assert alphas == [jacobi_alpha_n_exact(k, jp) for k in range(6)]
    assert betas == [0] + [jacobi_beta_n_exact(k, jp) for k in range(1, 6)]
    assert all(type(v) is Fraction for v in alphas + betas)
    assert all(b > 0 for b in betas[1:])


def test_recurrence_frexp_has_no_exponent_limit():
    """At (10^4, 0) the zeros crowd to x = -1, where Q_k = 2^k P_k falls to 2^-1663
    by k = 400, far below the smallest float, so a plain float run of the recurrence
    underflows to 0. The screen's log2 |Q_k| = k + e_k + log2 |m_k| must match the same
    recurrence run in mpmath, which has no exponent limit, to 1e-9 for every k."""
    alphas, betas = jacobi_recurrence_table(400, JacobiParams(10 ** 4, 0))
    sizes = recurrence_frexp(alphas, betas, -1.0)
    assert len(sizes) == 401
    with mpmath.workdps(40):
        previous, q, want = 0, mpmath.mpf(1), [0]
        for a, b in zip(alphas, betas):
            previous, q = q, (-2 - 2 * to_mpf(a)) * q - 4 * to_mpf(b) * previous
            want.append(mpmath.log(abs(q), 2))
    assert want[-1] < -1662
    for k, ((m, e), log2_q) in enumerate(zip(sizes, want)):
        assert abs(k + e + math.log2(abs(m)) - log2_q) < 1e-9, k


def test_norm_links_to_beta_product():
    """h_n = h_0 * prod_{k<=n} beta_k, as `jacobi_log_hn` takes it, is the Gamma form of
    h_n to 10^-(digits + 4) relative, from n = 0 to n = 799, at 40 and 111 digits."""
    for alpha, beta in [("-1/2", "-1/2"), ("-999/1000", "-999/1000"), ("1/3", 2), (60, 0),
                        (10 ** 4, 10 ** 4)]:
        jp = JacobiParams(alpha, beta)
        for digits in (40, 111):
            for n in (0, 1, 2, 7, 61, 123, 799):
                got = jacobi_log_hn(n, jp, Precision(digits))
                with mpmath.workdps(2 * digits):
                    want = log_hn_by_gamma(n, jp)
                    assert abs(got - want) <= mpmath.mpf(10) ** -(digits + 4) * abs(want), \
                        (alpha, beta, digits, n)


def test_norm_reads_log_gamma_only_at_mu_0_arguments(monkeypatch):
    """Every h_n is mu_0 times exact betas: ln Gamma is read at a + 1, b + 1 and s + 2,
    for n = 61 as for n = 0."""
    calls = []

    def counted(z, p):
        calls.append(z)
        return log_gamma(z, p)

    monkeypatch.setattr(jacobi, "log_gamma", counted)
    jp = JacobiParams("1/3", 2)
    for n in (0, 61):
        calls.clear()
        jacobi_log_hn(n, jp, P64)
        assert calls == [Fraction(4, 3), 3, Fraction(13, 3)], n


def test_logdet_hand_values():
    with mpmath.workdps(70):
        # D_1 = mu_0: 2 for the flat weight, 4/3 for (1,1)
        assert float(abs(jacobi_logdet_exact(1, JacobiParams(0, 0), P64)
                         - mpmath.log(2))) < 1e-60
        assert float(abs(jacobi_logdet_exact(1, JacobiParams(1, 1), P64)
                         - mpmath.log(mpmath.mpf(4) / 3))) < 1e-60
        # D_2 = mu_0 mu_2 - mu_1^2 = 4/3 for the flat weight
        assert float(abs(jacobi_logdet_exact(2, JacobiParams(0, 0), P64)
                         - mpmath.log(mpmath.mpf(4) / 3))) < 1e-60


def test_logdet_equals_norm_product():
    """The Barnes-G closed form equals sum of ln h_j up to n = 50."""
    with mpmath.workdps(80):
        # the last three pairs have alpha + beta < -1; at (-0.999, -0.999) and n = 1
        # the closed form's smallest argument n + s + 1 is 0.002
        for a_s, b_s in (("0", "0"), ("1/2", "3/2"), ("2", "1/4"),
                         ("-2/3", "-3/4"), ("-9/10", "-9/10"), ("-0.999", "-0.999")):
            jp = JacobiParams(a_s, b_s)
            acc = mpmath.mpf(0)
            for j in range(50):
                acc += jacobi_log_hn(j, jp, P64)
                got = jacobi_logdet_exact(j + 1, jp, P64)
                assert float(abs(acc - got)) < 1e-52, f"({a_s},{b_s}) n={j + 1}"


def test_hn_is_positive_and_shrinks():
    with mpmath.workdps(64):
        jp = JacobiParams(1, 0)
        vals = [mpmath.exp(jacobi_log_hn(n, jp, P64)) for n in range(10)]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_flat_weight_asym_reduces_to_barnes_ratio():
    """For zero exponents: ln D_n ~ n ln pi - n(n-1) ln 2 - ln(n)/4 + 2 ln G(1/2) + ln Gamma(1/2)."""
    jp = JacobiParams(0, 0)
    n = 7
    with mpmath.workdps(70):
        want = (n * mpmath.log(mpmath.pi) - n * (n - 1) * mpmath.log(2)
                - mpmath.log(n) / 4
                + 2 * log_barnes_g(HALF, P64) + log_gamma(HALF, P64))
        got = jacobi_logdet_asym(n, jp, P64)
        assert float(abs(got - want)) < 1e-55


def test_asym_constant_at_flat_weight():
    with mpmath.workdps(70):
        want = 2 * log_barnes_g(HALF, P64) + log_gamma(HALF, P64)
        assert float(abs(jacobi_asym_constant(JacobiParams(0, 0), P64) - want)) < 1e-58


def test_asym_closes_on_exact_value():
    # (-9/10, -9/10): below -1/2 the gap falls as 1/n too, n gap -> -0.505
    for jp in (JacobiParams(HALF, 0), JacobiParams("-9/10", "-9/10")):
        with mpmath.workdps(70):
            gaps = []
            for n in (25, 50, 100):
                gaps.append(abs(jacobi_logdet_exact(n, jp, P64)
                                - jacobi_logdet_asym(n, jp, P64)))
            assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
            assert float(gaps[-1]) < 1e-2


def test_logdet_requires_positive_size():
    with pytest.raises(DomainError):
        jacobi_logdet_exact(0, JacobiParams(0, 0), P64)


def test_chebyshev_corner_is_finite_and_correct():
    # alpha = beta = -1/2 puts both exponent sums at the edge where the raw
    # beta_1 and closed-form expressions are 0/0; the continued values must
    # match the arcsine-weight ground truth h_0 = pi, beta_1 = 1/2,
    # ln D_n = n ln pi - (n-1)^2 ln 2
    jp = JacobiParams("-1/2", "-1/2")
    assert jacobi_beta_n_exact(1, jp) == HALF
    assert jacobi_beta_n_exact(2, jp) == Fraction(1, 4)
    with mpmath.workdps(70):
        assert to_mpf(jacobi_beta_n_exact(1, jp)) == mpmath.mpf("0.5")
        assert abs(jacobi_log_hn(0, jp, P64) - mpmath.log(mpmath.pi)) < 1e-60
        for n in (1, 2, 3, 8):
            want = n * mpmath.log(mpmath.pi) - (n - 1) ** 2 * mpmath.log(2)
            assert abs(jacobi_logdet_exact(n, jp, P64) - want) < 1e-60
        # asym constant must agree with what logdet_exact leaves over
        gap = abs(jacobi_logdet_exact(200, jp, P64)
                  - jacobi_logdet_asym(200, jp, P64))
        assert float(gap) < 1e-4


def test_beta_1_cancelled_form_matches_generic_formula():
    # away from the 0/0 point the special-cased beta_1 must equal the
    # uncancelled expression
    for ab in ((0, 0), (HALF, 1), (2, Fraction(3, 2)), ("1/3", "-1/4")):
        jp = JacobiParams(*ab)
        a, b = jp.alpha, jp.beta
        s = a + b
        generic = (4 * (1 + a) * (1 + b) * (1 + s)
                   / ((2 + s) ** 2 * (3 + s) * (1 + s)))
        assert jacobi_beta_n_exact(1, jp) == generic

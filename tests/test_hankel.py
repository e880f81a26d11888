"""Determinant routes: triangular factorization, moment-map recurrence, exact
rational minors, and the small-n ensemble-average identity."""
import math
from fractions import Fraction

import mpmath
import pytest

from hankelpert.dsl import h_exp_cheb2, h_exp_linear, parse_h
from hankelpert.errors import DomainError, PositivityError, PrecisionError
from hankelpert.hankel import (MomentSequence, _conditioning_guard, _pivot_decay, auto_digits,
                               auto_precision, cross_validation_tol, hankel_logdet_ldl,
                               hankel_logdet_leading, hankel_logdet_recurrence,
                               heine_average_small_n, modified_chebyshev,
                               perturbed_moment_sequence, pure_moment_sequence,
                               rational_hankel_minors)
from hankelpert.jacobi import JacobiParams, jacobi_logdet_exact, jacobi_recurrence_table
from hankelpert.precision import Precision, to_mpf
from hankelpert.quadrature import gauss_jacobi_rule

P40 = Precision(40)
P64 = Precision(64)
LEG = JacobiParams(0, 0)


def exp_moments(count, p):
    """Moments of e^x dx on [-1,1]: I_k = (e - (-1)^k/e) - k I_{k-1}.

    Integration by parts; independent of any quadrature in the package.
    """
    with p.workdps(10):
        e = mpmath.e
        out = [e - 1 / e]
        for k in range(1, count):
            out.append((e - (-1) ** k / e) - k * out[-1])
        return tuple(out)


def exp_cheb2_moments(count, t, p):
    """Moments of e^{t(2x^2-1)} dx on [-1,1] by termwise series integration."""
    with p.workdps(10):
        t = mpmath.mpf(t)
        out = []
        for k in range(count):
            if k % 2:
                out.append(mpmath.mpf(0))
                continue
            acc = mpmath.mpf(0)
            term_scale = mpmath.exp(-t)
            m = 0
            coef = mpmath.mpf(1)
            while True:
                term = coef * 2 / (k + 2 * m + 1)
                acc += term
                if abs(term) < mpmath.mpf(10) ** (-p.decimal_digits - 15) and m > 4:
                    break
                m += 1
                coef = coef * 2 * t / m
            out.append(term_scale * acc)
        return tuple(out)


def test_trivial_sizes_by_hand():
    with mpmath.workdps(70):
        ms = MomentSequence((mpmath.mpf(2), mpmath.mpf(0), mpmath.mpf(2) / 3), "pure")
        r1 = hankel_logdet_ldl(ms, 1, P64)
        assert float(abs(r1.log_det - mpmath.log(2))) < 1e-60
        r2 = hankel_logdet_ldl(ms, 2, P64)
        assert float(abs(r2.log_det - mpmath.log(mpmath.mpf(4) / 3))) < 1e-60


def test_ldl_matches_closed_form():
    with mpmath.workdps(80):
        for a_s, b_s in (("0", "0"), ("1/2", "3/2")):
            jp = JacobiParams(a_s, b_s)
            ms = pure_moment_sequence(jp, 10, P64)
            got = hankel_logdet_ldl(ms, 10, P64)
            want = jacobi_logdet_exact(10, jp, P64)
            assert float(abs(got.log_det - want)) < 1e-52, f"({a_s},{b_s})"


def test_recurrence_route_on_unperturbed_moments():
    """With h = 1 the moment map must reproduce the classical coefficients."""
    with mpmath.workdps(80):
        jp = JacobiParams(1, Fraction(1, 2))
        ms = perturbed_moment_sequence(jp, parse_h("1"), 10, P64)
        got = hankel_logdet_recurrence(ms, 10, jp, P64)
        want = jacobi_logdet_exact(10, jp, P64)
        assert float(abs(got.log_det - want)) < 1e-52


def test_cross_method_agreement_exponential():
    n = 8
    p = auto_precision(n)
    with p.workdps():
        ms = perturbed_moment_sequence(LEG, h_exp_linear(1), n, p)
        a = hankel_logdet_ldl(ms, n, p)
        b = hankel_logdet_recurrence(ms, n, LEG, p)
        tol = cross_validation_tol(n, p)
        assert abs(a.log_det - b.log_det) < tol


def test_cross_method_agreement_even_polynomial():
    n = 12
    p = auto_precision(n)
    jp = JacobiParams(1, 0)
    with p.workdps():
        ms = perturbed_moment_sequence(jp, parse_h("1 + x^2/2"), n, p)
        a = hankel_logdet_ldl(ms, n, p)
        b = hankel_logdet_recurrence(ms, n, jp, p)
        assert abs(a.log_det - b.log_det) < cross_validation_tol(n, p)


def test_quadrature_moments_match_integration_by_parts():
    n = 8
    with mpmath.workdps(80):
        ms = perturbed_moment_sequence(LEG, h_exp_linear(1), n, P64)
        oracle = exp_moments(2 * n - 1, P64)
        for k, (got, want) in enumerate(zip(ms.mu, oracle)):
            rel = abs(got - want) / max(1, abs(want))
            assert float(rel) < 1e-50, f"k={k}"


def test_quadrature_moments_match_series_oracle():
    n = 6
    with mpmath.workdps(80):
        ms = perturbed_moment_sequence(LEG, h_exp_cheb2(1), n, P64)
        oracle = exp_cheb2_moments(2 * n - 1, 1, P64)
        for k, (got, want) in enumerate(zip(ms.mu, oracle)):
            assert float(abs(got - want)) < 1e-48, f"k={k}"


def test_ldl_on_oracle_moments_agrees_with_quadrature_route():
    n = 8
    with mpmath.workdps(80):
        via_quad = hankel_logdet_ldl(
            perturbed_moment_sequence(LEG, h_exp_linear(1), n, P64), n, P64)
        via_parts = hankel_logdet_ldl(
            MomentSequence(exp_moments(2 * n - 1, P64), "exp-parts"), n, P64)
        assert float(abs(via_quad.log_det - via_parts.log_det)) < 1e-48


def test_ldl_against_dense_determinant():
    """The ldl route against mpmath's LU determinant of the same Hankel matrix,
    which shares no code with the Chebyshev algorithm behind the pivots."""
    with mpmath.workdps(120):
        for n in (2, 5, 10):
            mu = exp_moments(2 * n - 1, Precision(120))
            H = mpmath.matrix([[mu[j + k] for k in range(n)] for j in range(n)])
            got = hankel_logdet_ldl(MomentSequence(mu, "exp-parts"), n, P64)
            assert float(abs(got.log_det - mpmath.log(mpmath.det(H)))) < 1e-48, f"n={n}"


def test_scaling_the_moments_moves_beta_0_alone():
    """Every moment times (1 + 1e-40) leaves beta_1..beta_{n-1} as they were and
    moves ln D_n by n 1e-40: an error in mu_0 costs n times itself, so one mu_0
    at the closed form's precision serves the ldl route and the norm product."""
    jp, n = JacobiParams("1/2", 0), 30
    p = auto_precision(n)
    ms = pure_moment_sequence(jp, n, p)
    with p.workdps(_conditioning_guard(n, jp)):
        factor = 1 + mpmath.mpf(10) ** -40
        scaled = ms._replace(mu=tuple(mu * factor for mu in ms.mu))
    base, moved = hankel_logdet_ldl(ms, n, p), hankel_logdet_ldl(scaled, n, p)
    with p.workdps():
        tol = mpmath.mpf(10) ** -p.decimal_digits
        assert abs(moved.betas[0] / base.betas[0] - factor) < tol
        for j in range(1, n):
            assert abs(moved.betas[j] / base.betas[j] - 1) < tol, j
        assert abs(moved.log_det - base.log_det - n * mpmath.log(factor)) < tol


def test_precision_policy_values():
    assert auto_digits(1) == 64
    assert auto_digits(10) == 64
    assert auto_digits(40) == 88
    assert auto_digits(100) == 172
    assert auto_precision(40).decimal_digits == 88


def test_pivot_growth_past_1e100_is_rescaled():
    """At (0, 0) with n = 1300 the monic P_1299 reaches 10^106 at x = i. The float
    screen divides its running values by a power of two after every step, so growth
    passes 10^100 without a rounded rescale. Every alpha_k is 0 there, so
    P_k(i) = i^k q_k with q_{k+1} = q_k + beta_k q_{k-1}, q_0 = q_1 = 1, whose
    exact log10 q_1299 the growth must match."""
    n = 1300
    _, betas = jacobi_recurrence_table(n - 1, LEG)
    previous, q = Fraction(1), Fraction(1)
    for b in betas[1:]:
        previous, q = q, q + b * previous
    want = math.log10(q.numerator) - math.log10(q.denominator)
    _, growth = _pivot_decay(n, LEG)
    assert 106 < want < 107
    assert abs(growth - want) < 1e-12 * want


def test_degraded_moments_are_detected_not_masked():
    """Moments accurate to only 16 digits cannot support n = 40: the
    factorization must refuse rather than return noise."""
    with mpmath.workdps(70):
        ms = pure_moment_sequence(LEG, 40, P64)
        rounded = tuple(mpmath.mpf(mpmath.nstr(mu, 16)) if mu != 0 else mu
                        for mu in ms.mu)
    degraded = MomentSequence(rounded, "degraded")
    with pytest.raises(PrecisionError, match="pivot 25") as err:
        hankel_logdet_ldl(degraded, 40, P64)
    # the 25 coefficients before the breakdown still give D_1..D_25
    assert len(err.value.leading) == 25
    for n in (1, 12, 25):
        got = hankel_logdet_leading(err.value.leading, n, P64).log_det
        assert abs(got - hankel_logdet_ldl(degraded, n, P64).log_det) < mpmath.mpf(10) ** -64


@pytest.mark.parametrize("n", [1, 2, 60, 300])
def test_log_det_from_betas_matches_sum_of_logs(n):
    """One log of the truncated pivot product equals sum_j (n-j) ln beta_j,
    the per-coefficient form it replaced, evaluated at twice the digits, to
    a unit in the last working digit (taking the log of the unnormalised
    mantissa misses by 15 to 30 units at n <= 3)."""
    work = P64.decimal_digits + _conditioning_guard(n)
    for beta0 in [1 + mpmath.mpf(k) / 7 for k in range(12)] + [mpmath.mpf(10) ** 300]:
        with mpmath.workdps(work):
            # pivots decaying like 4^-j, and one tiny beta
            betas = [+beta0, *(mpmath.mpf(1) / 4 + mpmath.mpf(1) / (j + 3) ** 2
                               for j in range(1, n))]
            if n > 2:
                betas[2] = mpmath.mpf(10) ** -200
        with mpmath.workdps(2 * work):
            want = mpmath.fsum((n - j) * mpmath.log(b) for j, b in enumerate(betas))
        got = hankel_logdet_leading(betas, n, P64).log_det
        assert abs(got - want) < mpmath.mpf(10) ** -work * max(1, abs(want)), \
            f"beta_0 = {mpmath.nstr(beta0, 5)}: off by {mpmath.nstr(got - want, 3)}"


def test_log_det_from_betas_refuses_nonpositive_beta():
    for bad in (0, -1, mpmath.nan):
        with pytest.raises(PrecisionError, match="nonpositive"):
            hankel_logdet_leading([mpmath.mpf(2), mpmath.mpf(bad)], 2, P64)


def test_log_det_from_betas_refuses_a_short_list():
    with pytest.raises(DomainError) as err:
        hankel_logdet_leading([mpmath.mpf(2)], 3, P64)
    assert str(err.value) == "ln det (size 3) needs 3 recurrence coefficients, got 1"


def generic_modified_chebyshev(nu, aux_alpha, aux_beta, count):
    """The generic loop the fixed-point kernel replaced, kept as its oracle:
    Fractions (with Fraction auxiliaries) run exactly, mpf at the working
    precision. It reads 2 count moments and returns (alphas, betas), count
    of each, raising PrecisionError on a zero denominator at step k with
    beta_0..beta_{k-1}; :func:`modified_chebyshev` reads 2 count - 1 and
    returns the betas alone, stopping after the first beta_k <= 0."""
    zero = nu[0] * 0
    sig_prev = [zero] * (2 * count)
    sig = list(nu)
    alphas = [aux_alpha[0] + nu[1] / nu[0]]
    betas = [nu[0]]
    for k in range(1, count):
        fresh = [zero] * (2 * count)
        for l in range(k, 2 * count - k):
            fresh[l] = (sig[l + 1] - (alphas[k - 1] - aux_alpha[l]) * sig[l]
                        - betas[k - 1] * sig_prev[l] + aux_beta[l] * sig[l - 1])
        if fresh[k] == 0 or sig[k - 1] == 0:
            raise PrecisionError(f"moment map breakdown at step {k}: zero denominator", betas)
        alphas.append(aux_alpha[k] + fresh[k + 1] / fresh[k] - sig[k] / sig[k - 1])
        betas.append(fresh[k] / sig[k - 1])
        sig_prev, sig = sig, fresh
    return alphas, betas


def test_moment_map_breakdown_raises():
    """The kernel stops at the first zero beta_k, k = len(leading): the one-point
    measure 2 delta_0 at k = 1, the two-point (delta_{-1/2} + delta_{1/2})/2 at
    k = 2, exactly; its oracle raises at that step with the same leading betas."""
    zero = (Fraction(0),) * 6
    for values, leading in (((2, 0, 0, 0, 0, 0), (2,)),
                            ((1, 0, Fraction(1, 4), 0, Fraction(1, 16), 0), (1, Fraction(1, 4)))):
        nu = tuple(Fraction(v) for v in values)
        assert modified_chebyshev(nu, zero, zero, 3) == [*leading, 0]
        with pytest.raises(PrecisionError, match=f"step {len(leading)}") as err:
            generic_modified_chebyshev(nu, zero, zero, 3)
        assert err.value.leading == leading


def test_kernel_reads_two_count_minus_one_moments():
    """2 count - 1 moments and basis entries are enough, and one fewer is refused."""
    nu = tuple(Fraction(2, k + 1 + k % 2) for k in range(5))  # moments of 1 + x
    zero = (0,) * 5
    assert len(modified_chebyshev(nu, zero, zero, 3)) == 3
    with pytest.raises(DomainError, match="need 5 modified moments, got 4"):
        modified_chebyshev(nu[:4], zero, zero, 3)


@pytest.mark.parametrize("a, b, n", [("1/3", "2", 30), ("1/2", "0", 30), ("60", "0", 20)])
def test_exact_basis_enters_the_kernel_once_rounded(a, b, n):
    """The exact Fraction basis table and that table rounded to mpf at four times
    the working bits give bit-identical betas: each entry is floored to the
    kernel's width once, not rounded to the working precision first."""
    jp, p = JacobiParams(a, b), auto_precision(n)
    nu = perturbed_moment_sequence(jp, parse_h("exp(x)"), n, p).modified
    with p.workdps(_conditioning_guard(n, jp)):
        table = jacobi_recurrence_table(2 * n - 1, jp)
        with mpmath.workprec(4 * mpmath.mp.prec):
            rounded = [[to_mpf(v) for v in column] for column in table]
        exact = modified_chebyshev(nu, *table, n)
        assert len(exact) == n
        assert modified_chebyshev(nu, *rounded, n) == exact


@pytest.mark.parametrize("a, b, source, n", [
    ("1/2", "0", None, 62),
    ("5", "-1/2", None, 60),
    ("-1/2", "-1/2", None, 62),
    ("1/3", "2", "exp(x)", 30),
    ("1/2", "0", "exp(x)", 100),
    ("60", "0", "exp(x)", 40),
    ("100", "3", "cosh(2*x)", 40),
])
def test_fixed_point_kernel_matches_generic_loop(a, b, source, n):
    """The kernel's betas within 10^(3 - working digits), relative, of the generic
    loop run on the same inputs at three times the working precision: the raw
    moments of the ldl route (source None) or the modified moments of w h. At
    exponents 60 and 100 the modified moments fall some 150 orders below nu_0,
    which only the kernel's per-column scale keeps at full precision. The oracle
    reads a 2n-th moment only to form alpha_{n-1}, so a zero stands in for it."""
    jp, p = JacobiParams(a, b), auto_precision(n)
    with p.workdps(_conditioning_guard(n)):
        if source is None:
            nu = [*pure_moment_sequence(jp, n, p).mu, mpmath.mpf(0)]
            aux_a = aux_b = [mpmath.mpf(0)] * (2 * n)
        else:
            nu = [*perturbed_moment_sequence(jp, parse_h(source), n, p).modified, mpmath.mpf(0)]
            aux_a, aux_b = jacobi_recurrence_table(2 * n, jp)
        betas = modified_chebyshev(nu, aux_a, aux_b, n)
        dps = mpmath.mp.dps
    with mpmath.workdps(3 * dps):
        _, oracle = generic_modified_chebyshev(nu, aux_a, aux_b, n)
        assert len(betas) == n
        assert max(abs(u / v - 1) for u, v in zip(betas, oracle)) < mpmath.mpf(10) ** (3 - dps)


def test_indefinite_moments_raise_on_both_routes():
    with mpmath.workdps(70):
        # nu_k against monic Legendre P_0..P_3 = 1, x, x^2 - 1/3, x^3 - 3x/5
        modified = (mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(-4) / 3, mpmath.mpf(0))
        bad = MomentSequence(tuple(mpmath.mpf(v) for v in (1, 0, -1, 0, 1)), "bad",
                             modified, LEG)
    with pytest.raises(PrecisionError):
        hankel_logdet_ldl(bad, 2, P64)
    with pytest.raises(PrecisionError, match="beta_1"):
        hankel_logdet_recurrence(bad, 2, LEG, P64)


def test_recurrence_route_reads_only_modified_moments():
    """Raw moments alone, or modified moments against another basis, are refused."""
    with mpmath.workdps(70):
        ms = perturbed_moment_sequence(LEG, parse_h("1"), 4, P64)
        raw_only = MomentSequence(ms.mu, "raw")
        other_basis = MomentSequence(ms.mu, ms.source, ms.modified, JacobiParams(1, 0))
    with pytest.raises(DomainError, match="modified moments"):
        hankel_logdet_recurrence(raw_only, 4, LEG, P64)
    with pytest.raises(DomainError, match="modified moments"):
        hankel_logdet_recurrence(other_basis, 4, LEG, P64)


@pytest.mark.parametrize("route", [
    lambda ms, n: hankel_logdet_ldl(ms, n, P64),
    lambda ms, n: hankel_logdet_recurrence(ms, n, LEG, P64),
], ids=["ldl", "recurrence"])
def test_routes_check_the_size_before_the_moments(route):
    """Each route refuses n = 0 and a sequence too short for n, with or without
    modified moments: the size checks run before the recurrence route's basis check."""
    with mpmath.workdps(70):
        ms = perturbed_moment_sequence(LEG, parse_h("1"), 4, P64)
    for seq in (ms, MomentSequence(ms.mu, "raw")):
        with pytest.raises(DomainError, match=r"^size must be >= 1, got 0$"):
            route(seq, 0)
        with pytest.raises(DomainError, match=r"^moment sequence covers size 4, need 5$"):
            route(seq, 5)


def test_rational_minors_flat_weight():
    minors = rational_hankel_minors(LEG, 6)
    assert minors[0] == 2
    assert minors[1] == Fraction(4, 3)
    assert all(m > 0 for m in minors)
    with mpmath.workdps(80):
        got = mpmath.log(mpmath.mpf(minors[5].numerator) / minors[5].denominator)
        assert float(abs(got - jacobi_logdet_exact(6, LEG, P64))) < 1e-55


def test_rational_route_with_polynomial_perturbation():
    """Exact fraction-free determinant against the floating LDL route."""
    n = 8
    jp = JacobiParams(1, 2)
    h_coeffs = (Fraction(1), Fraction(0), Fraction(1, 2))
    with mpmath.workdps(80):
        det = rational_hankel_minors(jp, n, h_coeffs)[-1]
        exact = mpmath.log(mpmath.mpf(det.numerator) / det.denominator)
        ms = perturbed_moment_sequence(jp, parse_h("1 + x^2/2"), n, P64)
        ldl = hankel_logdet_ldl(ms, n, P64)
        assert float(abs(exact - ldl.log_det)) < 1e-48


def test_heine_average_trivial_perturbation():
    for n in (1, 2, 3):
        got = heine_average_small_n(n, JacobiParams(Fraction(1, 2), 0),
                                    parse_h("1"), P40)
        assert float(abs(got - 1)) < 1e-30, f"n={n}"


def test_heine_average_n1_closed_form():
    # <h> at n=1 is mu_0[w h]/mu_0[w]; for e^x on the flat weight: sinh(1)
    with mpmath.workdps(50):
        got = heine_average_small_n(1, LEG, h_exp_linear(1), P40)
        assert float(abs(got - mpmath.sinh(1))) < 1e-30


def test_heine_average_equals_determinant_ratio():
    with mpmath.workdps(60):
        for n in (2, 3):
            oracle = MomentSequence(exp_moments(2 * n - 1, P64), "exp-parts")
            num = hankel_logdet_ldl(oracle, n, P64).log_det
            den = jacobi_logdet_exact(n, LEG, P64)
            ratio = mpmath.exp(num - den)
            avg = heine_average_small_n(n, LEG, h_exp_linear(1), P40)
            assert float(abs(ratio - avg)) < 1e-25, f"n={n}"


def mpf_moment_pass(jp, h, n, p, m):
    """The per-node mpf loop the fixed-point pass replaced: mu_0..mu_{2n-2} and
    nu_0..nu_{2n-1}, each node's w h times x^k and times the monic recurrence."""
    with p.workdps(_conditioning_guard(n)):
        rule = gauss_jacobi_rule(m, jp, Precision(mpmath.mp.dps))
        count = 2 * n - 1
        ca, cb = jacobi_recurrence_table(count, jp)
        mus = [mpmath.mpf(0)] * count
        nus = [mpmath.mpf(0)] * (count + 1)
        for x, w in zip(rule.nodes, rule.weights):
            wh = w * h(x)
            xp = wh
            for k in range(count):
                mus[k] += xp
                xp *= x
            pkm1, pk = mpmath.mpf(0), mpmath.mpf(1)
            nus[0] += wh
            for k in range(count):
                pkm1, pk = pk, (x - ca[k]) * pk - cb[k] * pkm1
                nus[k + 1] += wh * pk
        return mus, nus


@pytest.mark.parametrize("a, b, source, n", [
    ("5", "-1/2", "exp(x)", 20),
    ("9/2", "7", "cosh(x)", 20),
    ("1/2", "1/2", "1/(1.05+x)", 20),
    ("1/3", "2", "cosh(3*x)", 60),
])
def test_fixed_point_moment_pass_matches_mpf_loop(a, b, source, n):
    """Raw moments and 2^k nu_k within a few working units of mu_0 of the mpf loop,
    nu_0..nu_{2n-2} only: no route reads nu_{2n-1}."""
    jp, h, p = JacobiParams(a, b), parse_h(source), auto_precision(n)
    ms = perturbed_moment_sequence(jp, h, n, p)
    mus, nus = mpf_moment_pass(jp, h, n, p, n + 32)
    assert len(ms.mu) == len(ms.modified) == 2 * n - 1
    with p.workdps(_conditioning_guard(n)):
        tol = ms.mu[0] * mpmath.mpf(10) ** (3 - mpmath.mp.dps)
        assert max(abs(u - v) for u, v in zip(ms.mu, mus)) < tol
        assert max(abs(mpmath.ldexp(u - v, k))
                   for k, (u, v) in enumerate(zip(ms.modified, nus))) < tol


def test_moment_pass_and_ensemble_average_refuse_nonpositive_h():
    """Both read h only through the positivity rule: h(x) = x + 1/2 fails at a node."""
    h = parse_h("x + 1/2")
    with pytest.raises(PositivityError) as err:
        perturbed_moment_sequence(LEG, h, 4, P64)
    assert err.value.value <= 0 and err.value.witness < -0.5
    with pytest.raises(PositivityError):
        heine_average_small_n(2, LEG, h, P40)


def test_moment_sequence_validation():
    with pytest.raises(DomainError):
        MomentSequence((mpmath.mpf(-1), mpmath.mpf(0), mpmath.mpf(1)), "bad")
    ms = MomentSequence((mpmath.mpf(2), mpmath.mpf(0), mpmath.mpf(1)), "ok")
    assert ms.max_order() == 2
    with pytest.raises(DomainError):
        hankel_logdet_ldl(ms, 3, P64)


def test_size_and_order_guards():
    with pytest.raises(DomainError):
        perturbed_moment_sequence(LEG, parse_h("1"), 10, P64, m=5)
    with pytest.raises(DomainError):
        heine_average_small_n(4, LEG, parse_h("1"), P40)

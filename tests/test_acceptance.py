"""Release gate: eight binding checks, one test per check, tolerances pinned.

Each test prints one pass/fail line under pytest -v. The checks exercise the
package end to end: closed forms against direct factorization, exact rational
ground truth, large-n limits with their constants, the small-n ensemble
identity, continuum recurrence estimates, density normalization, and a
randomized cross-validation sweep.
"""
import random
from fractions import Fraction

import mpmath

from hankelpert.dsl import (h_const, h_exp_cheb2, h_exp_linear, h_one,
                            h_one_plus_square)
from hankelpert.fluid import EquilibriumDensity, fluid_recurrence, support_endpoints
from hankelpert.hankel import (auto_precision, cross_validation_tol,
                               hankel_logdet_ldl, hankel_logdet_recurrence,
                               perturbed_moment_sequence, pure_moment_sequence,
                               rational_hankel_minors)
from hankelpert.jacobi import (JacobiParams, jacobi_alpha_n_exact,
                               jacobi_beta_n_exact, jacobi_log_hn,
                               jacobi_logdet_asym, jacobi_logdet_exact,
                               jacobi_moment)
from hankelpert.linstat import assemble_prediction, linstat_terms
from hankelpert.precision import Precision
from hankelpert.quadrature import cheb_expand, gauss_jacobi_rule
from hankelpert.specfun import log_barnes_g, log_gamma

P40 = Precision(40)
P64 = Precision(64)
LEG = JacobiParams(0, 0)
REL_64 = 1e-56  # 10^(8 - digits) at the standard 64 digits


def rel_close(a, b, rel):
    gap = abs(a - b)
    scale = max(1, abs(a), abs(b))
    return float(gap) <= rel * float(scale)


def test_criterion_1_three_route_identity():
    """Closed form, norm product, and LDL agree to 10^-56 relative, n <= 15."""
    grid = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))
    with mpmath.workdps(80):
        for a in grid:
            for b in grid:
                jp = JacobiParams(a, b)
                ms = pure_moment_sequence(jp, 15, P64)
                norm_acc = mpmath.mpf(0)
                for n in range(1, 16):
                    norm_acc += jacobi_log_hn(n - 1, jp, P64)
                    closed = jacobi_logdet_exact(n, jp, P64)
                    ldl = hankel_logdet_ldl(ms, n, P64).log_det
                    label = f"({a},{b}) n={n}"
                    assert rel_close(closed, norm_acc, REL_64), f"{label} closed/norm"
                    assert rel_close(closed, ldl, REL_64), f"{label} closed/ldl"
                    assert rel_close(norm_acc, ldl, REL_64), f"{label} norm/ldl"


def test_criterion_2_rational_ground_truth():
    """Fraction-free determinants match the Gamma/Barnes-G closed form for
    integer exponents up to n = 12, to 10^-56 relative in log terms."""
    with mpmath.workdps(90):
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                jp = JacobiParams(a, b)
                minors = rational_hankel_minors(jp, 12)
                for n, d in enumerate(minors, start=1):
                    assert d > 0, f"({a},{b}) n={n}: nonpositive determinant"
                    ln_rat = (mpmath.log(mpmath.mpf(d.numerator))
                              - mpmath.log(mpmath.mpf(d.denominator)))
                    ln_closed = jacobi_logdet_exact(n, jp, P64)
                    assert rel_close(ln_rat, ln_closed, REL_64), f"({a},{b}) n={n}"


def test_criterion_3_pure_weight_asymptotics():
    """The large-n formula closes on the exact value monotonically over
    n in {25,50,100,200}; flat-weight gap < 1e-2 at n = 200; the n-th root
    growth constant matches 2^{-(n-1)} pi to 5%."""
    with mpmath.workdps(80):
        for a_s, b_s in (("0", "0"), ("1/2", "0"), ("1", "1/2"), ("3/2", "3/2")):
            jp = JacobiParams(a_s, b_s)
            gaps = []
            for n in (25, 50, 100, 200):
                gaps.append(abs(jacobi_logdet_exact(n, jp, P64)
                                - jacobi_logdet_asym(n, jp, P64)))
            assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:])), \
                f"({a_s},{b_s}): gaps {[float(g) for g in gaps]} not decreasing"
            if (a_s, b_s) == ("0", "0"):
                assert float(gaps[-1]) < 1e-2, f"flat-weight gap {float(gaps[-1])}"

        n = 200
        ln_d = jacobi_logdet_exact(n, LEG, P64)
        growth = mpmath.exp(ln_d / n + (n - 1) * mpmath.log(2) - mpmath.log(mpmath.pi))
        assert abs(float(growth) - 1) <= 0.05, f"growth-constant ratio {float(growth)}"


def test_criterion_4_ensemble_average_identity():
    """Determinant ratios equal the n-fold quadrature averages to 1e-20 at
    40 digits, for n <= 3, both exponent choices in {0, 1/2}, both h families."""
    from hankelpert.hankel import heine_average_small_n

    with mpmath.workdps(50):
        for a in (Fraction(0), Fraction(1, 2)):
            for b in (Fraction(0), Fraction(1, 2)):
                jp = JacobiParams(a, b)
                for h in (h_exp_linear(1), h_one_plus_square(Fraction(1, 2))):
                    for n in (1, 2, 3):
                        ms = perturbed_moment_sequence(jp, h, n, P40)
                        ratio = mpmath.exp(hankel_logdet_ldl(ms, n, P40).log_det
                                           - jacobi_logdet_exact(n, jp, P40))
                        avg = heine_average_small_n(n, jp, h, P40)
                        gap = abs(ratio - avg)
                        assert float(gap) < 1e-20, \
                            f"({a},{b}) n={n} h={h.source}: gap {float(gap)}"


def test_criterion_5_perturbed_asymptotics():
    """Headline check: the prediction error for the perturbed determinant
    shrinks over n in {10,20,40}, and the measured constant of the
    log-statistic converges to the closed-form value t^2/8 per unit
    coefficient: 1/8 for e^x, 1/4 for the even family, within 1e-2 at n=40."""
    for h, limit in ((h_exp_linear(1), 0.125), (h_exp_cheb2(1), 0.25)):
        devs = []
        est_40 = None
        for n in (10, 20, 40):
            p = auto_precision(n)
            with p.workdps():
                ms = perturbed_moment_sequence(LEG, h, n, p)
                ld = hankel_logdet_ldl(ms, n, p).log_det
                pred = assemble_prediction(n, LEG, h, p)
                devs.append(abs(float(ld - pred.total)))
                if n == 40:
                    ratio = ld - jacobi_logdet_exact(n, LEG, p)
                    mean = linstat_terms(h, n, LEG, p).mean
                    est_40 = float(ratio - mean)
        assert devs[2] < devs[1] < devs[0], f"h={h.source}: |d_n| = {devs}"
        assert abs(est_40 - limit) < 1e-2, \
            f"h={h.source}: measured constant {est_40} vs {limit}"


def test_criterion_6_continuum_recurrence_expansions():
    """Continuum estimates of the recurrence coefficients at n = 100.

    Three sub-checks: the beta deviation of the flat weight, the band-edge
    gaps, and the alpha deviation. The alpha deviation closes on its limit
    with a known first-order term, n^3 (alpha_tilde - alpha_n) =
    (beta^2-alpha^2)/4 * (1 - (3s+2)/(2n) + O(n^-2)) with s = alpha+beta,
    so (b) divides that term out and holds the rest to the n^-3 limit.
    """
    with mpmath.workdps(60):
        n = 100
        # (a) flat weight: n^2 (beta_tilde - beta_n) -> -1/16 within 1%
        _, bt = fluid_recurrence(n, LEG)
        bn = jacobi_beta_n_exact(n, LEG)
        dev_b = n * n * (bt - mpmath.mpf(bn.numerator) / bn.denominator)
        rel_b = abs(float(dev_b / (mpmath.mpf(-1) / 16) - 1))
        assert rel_b <= 0.01, f"beta deviation off by {rel_b:.4%}"

        # (c) exponents (1,2): band-edge gaps match their quadratic laws to 5%
        si = support_endpoints(n, JacobiParams(1, 2))
        rel_a_edge = abs(float(n * n * (1 + si.a_n) / 2) - 1)
        rel_b_edge = abs(float(n * n * (1 - si.b_n) * 2) - 1)
        assert rel_a_edge <= 0.05, f"lower-edge gap off by {rel_a_edge:.4%}"
        assert rel_b_edge <= 0.05, f"upper-edge gap off by {rel_b_edge:.4%}"

        # (b) exponents (1,0): n^3 (alpha_tilde - alpha_n) / (1 - (3s+2)/(2n))
        # -> -1/4 within 2%
        jp = JacobiParams(1, 0)
        at, _ = fluid_recurrence(n, jp)
        an = jacobi_alpha_n_exact(n, jp)
        dev_a = n**3 * (at - mpmath.mpf(an.numerator) / an.denominator)
        first = 1 - (3 * (jp.alpha + jp.beta) + 2) / Fraction(2 * n)
        dev_c = dev_a / (mpmath.mpf(first.numerator) / first.denominator)
        rel_raw = abs(float(dev_a / (mpmath.mpf(-1) / 4) - 1))
        rel_a = abs(float(dev_c / (mpmath.mpf(-1) / 4) - 1))
        assert rel_a <= 0.02, (
            "continuum alpha deviation at n=100, exponents (1,0): "
            f"n^3*(alpha_tilde - alpha_n) = {float(dev_a):.10f} sits "
            f"{rel_raw:.5%} from the limit -1/4; divided by its first-order "
            f"term 1 - (3s+2)/(2n) = {first} it is {float(dev_c):.10f}, "
            f"{rel_a:.5%} from -1/4, outside the required 2% band.")


def test_criterion_7_density_normalization():
    """The continuum density integrates to n within 1e-10 relative."""
    jp = JacobiParams(Fraction(1, 2), 1)
    for n in (1, 5, 20):
        mass = EquilibriumDensity(support_endpoints(n, jp)).mass(P64)
        rel = abs(float(mass / n - 1))
        assert rel <= 1e-10, f"n={n}: mass off by {rel}"


def test_criterion_8_property_suite():
    """Bundled structural properties: quadrature exactness, interpolation
    round-trip, the Barnes-G difference equation, and twenty seeded random
    cross-validations of the two perturbed determinant routes."""
    # quadrature exactness through degree 2m-1
    with mpmath.workdps(80):
        jp = JacobiParams(Fraction(1, 2), 0)
        for m in (5, 10, 20):
            rule = gauss_jacobi_rule(m, jp, P64)
            for k in range(2 * m):
                got = mpmath.fsum(w * x**k for x, w in zip(rule.nodes, rule.weights))
                want = jacobi_moment(k, jp, P64)
                assert float(abs(got - want)) < 1e-52 * max(1, abs(float(want))), \
                    f"m={m} k={k}"

    # interpolation round-trip at 3M points
    with mpmath.workdps(80):
        f = lambda x: mpmath.exp(x) / (2 + x)
        M = 64
        ce = cheb_expand(f, M, P64)
        budget = 10 * float(ce.tail_bound) + 1e-55
        step = mpmath.mpf(2) / (3 * M + 1)
        for i in range(3 * M):
            x = -1 + step * (i + mpmath.mpf(1) / 2)
            assert float(abs(ce(x) - f(x))) < budget

    # difference equation of the log Barnes-G function
    with mpmath.workdps(80):
        for i in range(20):
            z = Fraction(2 * i + 1, 4)
            gap = abs(log_barnes_g(z + 1, P64) - log_gamma(z, P64) - log_barnes_g(z, P64))
            assert float(gap) < 1e-55, f"z={z}"

    # twenty seeded random cross-validations, n <= 20
    rng = random.Random(20260817)
    exponents = [Fraction(k, 2) for k in range(-1, 6)]

    def random_h():
        kind = rng.randrange(5)
        if kind == 0:
            return h_one()
        if kind == 1:
            return h_const(Fraction(rng.randrange(1, 8), rng.randrange(1, 4)))
        if kind == 2:
            return h_exp_linear(Fraction(rng.randrange(-4, 5), 4))
        if kind == 3:
            return h_exp_cheb2(Fraction(rng.randrange(-3, 4), 4))
        return h_one_plus_square(Fraction(rng.randrange(-3, 7), 4))

    for case in range(20):
        jp = JacobiParams(rng.choice(exponents), rng.choice(exponents))
        h = random_h()
        n = rng.randrange(2, 21)
        p = auto_precision(n)
        with p.workdps():
            ms = perturbed_moment_sequence(jp, h, n, p)
            a = hankel_logdet_ldl(ms, n, p).log_det
            b = hankel_logdet_recurrence(ms, n, jp, p).log_det
            tol = cross_validation_tol(n, p)
            assert abs(a - b) < tol, \
                f"case {case}: ({jp.alpha},{jp.beta}) n={n} h={h.source}: " \
                f"|{float(a)} - {float(b)}| >= {float(tol)}"

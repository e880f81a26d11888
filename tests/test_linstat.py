"""Principal-value machinery and the assembled large-n prediction."""
from fractions import Fraction

import mpmath

from hankelpert.dsl import h_const, h_exp_cheb2, h_exp_linear, parse_h
from hankelpert.hankel import (auto_precision, hankel_logdet_ldl,
                               perturbed_moment_sequence)
from hankelpert.jacobi import JacobiParams, jacobi_logdet_asym, jacobi_logdet_exact
from hankelpert.linstat import (assemble_prediction, cheb_log_expand,
                                linstat_terms, pv_double_integral)
from hankelpert.precision import Precision

P64 = Precision(64)
LEG = JacobiParams(0, 0)


def test_pv_closed_values_for_builtin_families():
    """Exact values, from factored perturbations for the last two.

    1 + x^2/2 = (1 + r^2 + 2r cos 2t) / (8r) with x = cos t, r = 5 - 2 sqrt 6,
    so c_2k = 2 (-1)^(k+1) r^k / k and the PV part is -ln(1 - r^2). For c > 1,
    c - x = (1 + rho^2 - 2 rho cos t) / (2 rho) with rho = c - sqrt(c^2 - 1),
    so 1/(c - x) has c_k = 2 rho^k / k and the PV part is -ln(1 - rho^2) / 2.
    """
    with mpmath.workdps(70):
        ce = cheb_log_expand(h_exp_linear(1), P64)
        assert float(abs(pv_double_integral(ce) - mpmath.mpf(1) / 8)) < 1e-50
        ce = cheb_log_expand(h_exp_cheb2(1), P64)
        assert float(abs(pv_double_integral(ce) - mpmath.mpf(1) / 4)) < 1e-50
        assert float(abs(pv_double_integral(cheb_log_expand(parse_h("1"), P64)))) < 1e-60
        r = 5 - 2 * mpmath.sqrt(6)
        ce = cheb_log_expand(parse_h("1 + x^2/2"), P64)
        assert float(abs(pv_double_integral(ce) + mpmath.log(1 - r * r))) < 1e-52
        for c in ("2", "1.05"):
            rho = mpmath.mpf(c) - mpmath.sqrt(mpmath.mpf(c) ** 2 - 1)
            ce = cheb_log_expand(parse_h(f"1/({c} - x)"), P64)
            assert float(abs(pv_double_integral(ce) + mpmath.log(1 - rho * rho) / 2)) < 1e-52, c


def test_pv_is_nonnegative():
    with mpmath.workdps(64):
        for h in (h_exp_linear(Fraction(-3, 2)), parse_h("1 + x^2/2"),
                  parse_h("cosh(x)")):
            assert pv_double_integral(cheb_log_expand(h, P64)) >= 0


def test_mean_term_odd_perturbation_vanishes():
    with mpmath.workdps(64):
        pred = assemble_prediction(10, LEG, h_exp_linear(1), P64)
        assert float(abs(pred.mean)) < 1e-55


def test_mean_term_constant_perturbation():
    with mpmath.workdps(64):
        jp = JacobiParams(1, 0)
        pred = assemble_prediction(10, jp, h_const(Fraction(3, 2)), P64)
        want = (10 + mpmath.mpf(1) / 2) * mpmath.log(mpmath.mpf(3) / 2)
        assert float(abs(pred.mean - want)) < 1e-50


def test_linstat_terms_is_the_assembled_prediction():
    """The gate's name reads the same record, and its mean is the sum of the
    order-n and boundary parts, to the last bit."""
    with mpmath.workdps(64):
        jp = JacobiParams(Fraction(1, 2), 2)
        h = parse_h("1 + x^2/2")
        pred = assemble_prediction(12, jp, h, P64)
        assert linstat_terms(h, 12, jp, P64) == pred
        assert pred.mean == pred.log_mean + pred.boundary_part


def test_scaling_covariance():
    """c*h shifts the mean by (n+s/2) ln c and leaves the variance alone."""
    with mpmath.workdps(64):
        jp = JacobiParams(1, 1)
        h1, h2 = parse_h("exp(x)"), parse_h("2*exp(x)")
        t1 = linstat_terms(h1, 12, jp, P64)
        t2 = linstat_terms(h2, 12, jp, P64)
        want = 13 * mpmath.log(2)
        assert float(abs((t2.mean - t1.mean) - want)) < 1e-50
        # the variance is twice the PV functional
        v1 = pv_double_integral(cheb_log_expand(h1, P64))
        v2 = pv_double_integral(cheb_log_expand(h2, P64))
        assert float(abs(v2 - v1)) < 1e-50
        assert v1 >= 0


def test_trivial_perturbation_reduces_to_pure_asymptotic():
    with mpmath.workdps(70):
        jp = JacobiParams(Fraction(1, 2), Fraction(1, 2))
        pred = assemble_prediction(9, jp, parse_h("1"), P64)
        for part in (pred.log_mean, pred.pv_part, pred.boundary_part, pred.edge_part):
            assert float(abs(part)) < 1e-55
        assert float(abs(pred.total - jacobi_logdet_asym(9, jp, P64))) < 1e-55


def test_prediction_edge_part_value():
    with mpmath.workdps(64):
        pred = assemble_prediction(20, JacobiParams(Fraction(1, 2), 0),
                                   parse_h("1 + x^2/2"), P64)
        want = -mpmath.mpf(1) / 4 * mpmath.log(mpmath.mpf(3) / 2)
        assert float(abs(pred.edge_part - want)) < 1e-50
        assert float(abs(pred.log_constant
                         - (pred.pv_part + pred.boundary_part + pred.edge_part
                            + pred.pure_constant_part))) < 1e-55


def test_measured_ratio_respects_jensen_bound():
    """ln(D_n ratio) >= mean of the statistic; pins the sign of the PV part."""
    n = 12
    p = auto_precision(n)
    with p.workdps():
        ms = perturbed_moment_sequence(LEG, h_exp_linear(1), n, p)
        ratio = hankel_logdet_ldl(ms, n, p).log_det - jacobi_logdet_exact(n, LEG, p)
        mean = linstat_terms(h_exp_linear(1), n, LEG, p).mean
        assert float(ratio - mean) > -1e-10
        # and the excess sits near the nonnegative PV constant
        assert 0 < float(ratio - mean) < 0.2


def test_prediction_gap_shrinks():
    jp = JacobiParams(Fraction(1, 2), 0)
    h = parse_h("1 + x^2/2")
    gaps = []
    for n in (8, 16, 32):
        p = auto_precision(n)
        with p.workdps():
            ms = perturbed_moment_sequence(jp, h, n, p)
            ld = hankel_logdet_ldl(ms, n, p).log_det
            gaps.append(abs(float(ld - assemble_prediction(n, jp, h, p).total)))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 0.01
    for g1, g2 in zip(gaps, gaps[1:]):
        assert 1.6 < g1 / g2 < 2.4  # first-order decay

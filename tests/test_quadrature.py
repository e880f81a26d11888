"""Gauss rules for the weight (1-x)^a (1+x)^b and Chebyshev interpolation."""
from fractions import Fraction

import mpmath
import pytest

from hankelpert.errors import DomainError, ResolutionError
from hankelpert.jacobi import JacobiParams, jacobi_moment
from hankelpert.precision import Precision
from hankelpert.quadrature import (cheb_expand, cheb_expand_auto,
                                   gauss_jacobi_rule, perturbed_moment)

P64 = Precision(64)
LEG = JacobiParams(0, 0)


def test_one_point_rule_is_midpoint():
    rule = gauss_jacobi_rule(1, LEG, P64)
    assert len(rule.nodes) == 1
    assert float(abs(rule.nodes[0])) < 1e-60
    assert float(abs(rule.weights[0] - 2)) < 1e-60


def test_two_point_rule_values():
    rule = gauss_jacobi_rule(2, LEG, P64)
    with mpmath.workdps(70):
        node = 1 / mpmath.sqrt(3)
        assert float(abs(rule.nodes[0] + node)) < 1e-60
        assert float(abs(rule.nodes[1] - node)) < 1e-60
    assert float(abs(rule.weights[0] - 1)) < 1e-60
    assert float(abs(rule.weights[1] - 1)) < 1e-60


def test_polynomial_exactness():
    """An m-point rule integrates x^k exactly for k <= 2m-1."""
    with mpmath.workdps(80):
        for a_s, b_s in (("0", "0"), ("1/2", "0"), ("1", "2"), ("-9/10", "5"),
                         ("-2/3", "1/2")):
            jp = JacobiParams(a_s, b_s)
            for m in (5, 10, 20):
                rule = gauss_jacobi_rule(m, jp, P64)
                for k in range(2 * m):
                    got = mpmath.fsum(w * x**k
                                      for x, w in zip(rule.nodes, rule.weights))
                    want = jacobi_moment(k, jp, P64)
                    scale = max(1.0, abs(float(want)))
                    assert float(abs(got - want)) < 1e-52 * scale, \
                        f"({a_s},{b_s}) m={m} k={k}"


def test_exactness_fails_just_past_the_guarantee():
    # degree 2m is the first power a Gauss rule genuinely misses
    with mpmath.workdps(80):
        m = 5
        rule = gauss_jacobi_rule(m, LEG, P64)
        got = mpmath.fsum(w * x**(2 * m) for x, w in zip(rule.nodes, rule.weights))
        want = jacobi_moment(2 * m, LEG, P64)
        assert float(abs(got - want)) > 1e-8


def test_nodes_ordered_inside_interval():
    for jp in (LEG, JacobiParams("3/2", "1/4")):
        rule = gauss_jacobi_rule(14, jp, P64)
        assert all(-1 < x < 1 for x in rule.nodes)
        assert all(x < y for x, y in zip(rule.nodes, rule.nodes[1:]))
        assert all(w > 0 for w in rule.weights)


def test_symmetric_weight_gives_symmetric_rule():
    with mpmath.workdps(70):
        rule = gauss_jacobi_rule(9, JacobiParams("1/2", "1/2"), P64)
        m = len(rule.nodes)
        for i in range(m):
            assert float(abs(rule.nodes[i] + rule.nodes[m - 1 - i])) < 1e-55
            assert float(abs(rule.weights[i] - rule.weights[m - 1 - i])) < 1e-55


def test_weights_sum_to_total_mass():
    with mpmath.workdps(70):
        for a_s, b_s in (("0", "0"), ("1", "1/2"), ("2", "2")):
            jp = JacobiParams(a_s, b_s)
            rule = gauss_jacobi_rule(12, jp, P64)
            total = mpmath.fsum(rule.weights)
            assert float(abs(total - jacobi_moment(0, jp, P64))) < 1e-55


def test_integrate_helper():
    rule = gauss_jacobi_rule(10, LEG, P64)
    with mpmath.workdps(70):
        got = rule.integrate(lambda x: x * x)
        assert float(abs(got - mpmath.mpf(2) / 3)) < 1e-55


def test_perturbed_moment_against_closed_integral():
    """k=0 exponential perturbation: integral of e^{tx} over [-1,1] is 2 sinh(t)/t."""
    with mpmath.workdps(70):
        for t_s in ("1", "0.3"):
            t = mpmath.mpf(t_s)
            got = perturbed_moment(0, LEG, lambda x, t=t: mpmath.exp(t * x), 40, P64)
            want = 2 * mpmath.sinh(t) / t
            assert float(abs(got - want)) < 1e-55, f"t={t_s}"


def test_perturbed_moment_trivial_cases():
    with mpmath.workdps(70):
        # h = 1 reduces to the plain moment
        got = perturbed_moment(4, JacobiParams(1, 0), lambda x: mpmath.mpf(1), 30, P64)
        assert float(abs(got - jacobi_moment(4, JacobiParams(1, 0), P64))) < 1e-55
        # odd integrand vanishes
        got = perturbed_moment(1, LEG, lambda x: 1 + x * x, 30, P64)
        assert float(abs(got)) < 1e-55


def test_cheb_expand_monomials():
    with mpmath.workdps(70):
        ce = cheb_expand(lambda x: x, 16, P64)
        assert float(abs(ce.coeffs[1] - 1)) < 1e-58
        assert all(float(abs(c)) < 1e-58 for i, c in enumerate(ce.coeffs) if i != 1)

        ce = cheb_expand(lambda x: 2 * x * x - 1, 16, P64)
        assert float(abs(ce.coeffs[2] - 1)) < 1e-58
        assert all(float(abs(c)) < 1e-58 for i, c in enumerate(ce.coeffs) if i != 2)

        ce = cheb_expand(lambda x: mpmath.mpf("0.3") * x, 16, P64)
        assert float(abs(ce.coeffs[1] - mpmath.mpf("0.3"))) < 1e-58


def test_cheb_round_trip():
    """Reconstruction error stays within a small multiple of the tail bound."""
    with mpmath.workdps(70):
        f = lambda x: mpmath.exp(x) / (2 + x)
        ce = cheb_expand(f, 64, P64)
        rng = mpmath.mpf("0.618033")
        pts = [-1 + ((i * rng) % 2) for i in range(48)]
        bound = 10 * float(ce.tail_bound) + 1e-55
        for x in pts:
            assert float(abs(ce(x) - f(x))) < bound


def test_cheb_tail_bound_invariant():
    with mpmath.workdps(70):
        ce = cheb_expand(lambda x: mpmath.cosh(x), 32, P64)
        assert ce.tail_bound >= abs(ce.coeffs[-1])
        assert ce.tail_bound >= abs(ce.coeffs[-2])


def test_cheb_auto_reaches_spectral_tail():
    ce = cheb_expand_auto(lambda x: mpmath.exp(x), P64)
    assert ce.degree >= 32
    assert float(ce.tail_bound) < 1e-32
    # geometric decay visible across the kept coefficients
    assert abs(ce.coeffs[20]) < abs(ce.coeffs[4]) * 1e-10


def test_cheb_auto_rejects_nonanalytic_function():
    with pytest.raises(ResolutionError):
        cheb_expand_auto(lambda x: abs(x), Precision(40), limit=512)


def test_rule_rejects_bad_order():
    with pytest.raises(DomainError):
        gauss_jacobi_rule(0, LEG, P64)

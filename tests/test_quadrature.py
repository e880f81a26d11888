"""Gauss rules for the weight (1-x)^a (1+x)^b and Chebyshev interpolation."""
import mpmath
import pytest

from hankelpert import quadrature
from hankelpert.errors import DomainError, ResolutionError, RootFindError
from hankelpert.hankel import _conditioning_guard
from hankelpert.jacobi import (JacobiParams, jacobi_alpha_n_exact, jacobi_beta_n_exact,
                              jacobi_log_hn, jacobi_moment, jacobi_moment_ratios,
                              jacobi_recurrence_table)
from hankelpert.precision import GUARD_DIGITS, Precision, to_mpf
from hankelpert.quadrature import (cheb_expand, cheb_expand_auto,
                                   gauss_jacobi_rule)

P64 = Precision(64)
LEG = JacobiParams(0, 0)


def _integrate(rule, f):
    """Sum of w_i f(x_i) over the rule at the current working precision."""
    return mpmath.fsum(w * f(x) for x, w in zip(rule.nodes, rule.weights))


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


@pytest.mark.parametrize("a_s, b_s", [("-1/2", "-1/2"), ("-3/4", "-1/4")])
def test_low_order_rules_at_exponent_sum_minus_one(a_s, b_s):
    """Orders 1 and 2 where alpha + beta = -1, at which the structure relation's
    generic Q_1(+-1)/Q_0(+-1) is 0/0.

    Order 1 is the node alpha_0 with weight mu_0. Order 2 has the roots of
    P_2 = (x - alpha_1)(x - alpha_0) - beta_1 with the weights that integrate
    1 and x exactly.
    """
    jp = JacobiParams(a_s, b_s)
    with mpmath.workdps(70):
        a0, a1, b1 = (to_mpf(v) for v in (jacobi_alpha_n_exact(0, jp),
                                          jacobi_alpha_n_exact(1, jp),
                                          jacobi_beta_n_exact(1, jp)))
        mu0 = jacobi_moment(0, jp, P64)
        root = mpmath.sqrt(((a0 - a1) / 2) ** 2 + b1)
        x1, x2 = (a0 + a1) / 2 - root, (a0 + a1) / 2 + root
        w1 = mu0 * (a0 - x2) / (x1 - x2)
        for m, nodes, weights in ((1, [a0], [mu0]), (2, [x1, x2], [w1, mu0 - w1])):
            rule = gauss_jacobi_rule(m, jp, P64)
            for got, want in zip(rule.nodes + rule.weights, nodes + weights):
                assert abs(got - want) < 1e-62, f"m={m}"
        if a_s == b_s:
            # Gauss-Chebyshev: node 0 with weight pi, then weights pi/2
            assert gauss_jacobi_rule(1, jp, P64).nodes == (0,)
            for m in (1, 2):
                assert all(abs(w - mpmath.pi / m) < 1e-62
                           for w in gauss_jacobi_rule(m, jp, P64).weights)


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


def test_perturbed_moment_against_closed_integral():
    """k=0 exponential perturbation: integral of e^{tx} over [-1,1] is 2 sinh(t)/t."""
    rule = gauss_jacobi_rule(40, LEG, P64)
    with mpmath.workdps(70):
        for t_s in ("1", "0.3"):
            t = mpmath.mpf(t_s)
            got = _integrate(rule, lambda x, t=t: mpmath.exp(t * x))
            want = 2 * mpmath.sinh(t) / t
            assert float(abs(got - want)) < 1e-55, f"t={t_s}"


def test_perturbed_moment_trivial_cases():
    with mpmath.workdps(70):
        # h = 1 reduces to the plain moment
        got = _integrate(gauss_jacobi_rule(30, JacobiParams(1, 0), P64), lambda x: x ** 4)
        assert float(abs(got - jacobi_moment(4, JacobiParams(1, 0), P64))) < 1e-55
        # odd integrand vanishes
        got = _integrate(gauss_jacobi_rule(30, LEG, P64), lambda x: x * (1 + x * x))
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


def _cheb_expand_by_cosine_sum(f, M, p):
    """Oracle: c_k = (2/M) sum''_{j=0..M} f(x_j) cos(pi j k / M) summed directly, O(M^2)."""
    with p.workdps(2 * GUARD_DIGITS):
        cos_table = [mpmath.cos(mpmath.pi * i / M) for i in range(2 * M)]
        fx = [f(cos_table[j]) for j in range(M + 1)]
        fx[0] = fx[0] / 2
        fx[M] = fx[M] / 2
        return [2 * mpmath.fsum(fx[j] * cos_table[(j * k) % (2 * M)] for j in range(M + 1)) / M
                for k in range(M + 1)]


@pytest.mark.parametrize("M", [64, 1024])
def test_cheb_expand_matches_cosine_sum(M):
    """The radix-2 FFT transform against the direct sum, at a small and a large degree."""
    f = lambda x: mpmath.log(1 / (mpmath.mpf("1.02") - x))
    got = cheb_expand(f, M, P64).coeffs
    want = _cheb_expand_by_cosine_sum(f, M, P64)
    assert len(got) == M + 1
    worst = max(abs(g - w) for g, w in zip(got, want))
    assert worst < mpmath.mpf(10) ** -(P64.decimal_digits + 8), mpmath.nstr(worst, 3)


@pytest.mark.parametrize("M", [100, 97])
def test_cheb_expand_refuses_degree_not_power_of_two(M):
    with pytest.raises(DomainError, match="power of two"):
        cheb_expand(mpmath.exp, M, P64)


def test_cheb_auto_evaluates_each_node_once():
    """Doublings reuse the nodes they share: one evaluation per node of the final degree."""
    calls = []

    def f(x):
        calls.append(x)
        return mpmath.log(1 / (mpmath.mpf("1.02") - x))

    ce = cheb_expand_auto(f, P64)
    assert ce.degree > 64
    assert len(calls) == len(set(calls)) == ce.degree + 1


def test_cheb_auto_rejects_nonanalytic_function(monkeypatch):
    monkeypatch.setattr(quadrature, "CHEB_DEGREE_LIMIT", 512)
    with pytest.raises(ResolutionError, match="by degree 512"):
        cheb_expand_auto(lambda x: abs(x), Precision(40))


def test_rule_rejects_bad_order():
    with pytest.raises(DomainError):
        gauss_jacobi_rule(0, LEG, P64)


def _newton_oracle(m, jp, p, seeds):
    """Order-m rule by plain mpf Newton on the monic recurrence, from float ``seeds``.

    Each node must converge inside the midpoints between neighbouring seeds;
    the weights use h_{m-1} / (P_{m-1}(x) P'_m(x)).
    """
    with p.workdps(2 * GUARD_DIGITS):
        ca, cb = jacobi_recurrence_table(m, jp)

        def monic(x):
            pkm1, pk, dkm1, dk = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
            for a, b in zip(ca, cb):
                pkm1, pk, dkm1, dk = pk, (x - a) * pk - b * pkm1, dk, pk + (x - a) * dk - b * dkm1
            return pk, dk, pkm1

        seeds = [mpmath.mpf(s) for s in seeds]
        edges = [-1] + [(s + t) / 2 for s, t in zip(seeds, seeds[1:])] + [1]
        tol = mpmath.mpf(10) ** (4 - mpmath.mp.dps)
        nodes = []
        for i, x in enumerate(seeds):
            for _ in range(60):
                pm, dpm, _ = monic(x)
                step = pm / dpm
                x -= step
                assert edges[i] < x < edges[i + 1], f"oracle node {i} left its bracket"
                if abs(step) <= tol:
                    pm, dpm, _ = monic(x)
                    x -= pm / dpm
                    break
            else:
                raise AssertionError(f"oracle node {i} did not converge")
            nodes.append(x)
        h_last = mpmath.exp(jacobi_log_hn(m - 1, jp, Precision(mpmath.mp.dps)))
        weights = []
        for x in nodes:
            _, dpm, pm1 = monic(x)
            weights.append(h_last / (pm1 * dpm))
        return nodes, weights


@pytest.mark.parametrize("m, digits", [(5, 64), (42, 64), (62, 103)])
@pytest.mark.parametrize("a_s, b_s", [("1/3", "2"), ("-9/10", "5"), ("-1/2", "-1/2"),
                                      ("100", "-99/100")])
def test_fixed_point_kernel_matches_mpf_newton(m, digits, a_s, b_s):
    """The integer kernel's nodes and weights agree with plain mpf Newton to working precision."""
    jp, p = JacobiParams(a_s, b_s), Precision(digits)
    rule = gauss_jacobi_rule(m, jp, p)
    assert len(rule.nodes) == m
    assert all(-1 < x < y < 1 for x, y in zip(rule.nodes, rule.nodes[1:]))
    nodes, weights = _newton_oracle(m, jp, p, [float(x) for x in rule.nodes])
    # both run at digits + 16 working digits; the weights lose a few more to
    # the division by Q_{m-1} Q'_m
    for i in range(m):
        assert abs(rule.nodes[i] - nodes[i]) < mpmath.mpf(10) ** -(digits + 12), f"node {i}"
        assert abs(rule.weights[i] / weights[i] - 1) < mpmath.mpf(10) ** -(digits + 8), \
            f"weight {i}"


@pytest.mark.parametrize("a_s, b_s", [("1/3", "2"), ("100", "-99/100")])
def test_scaled_recurrence_is_within_one_unit_of_the_exact_entries(a_s, b_s):
    """Each 2 alpha_k and 4 beta_k of the order-62 rule at 103 digits enters at F bits
    within one unit of its exact value times 2^F, checked in Fractions."""
    m, jp = 62, JacobiParams(a_s, b_s)
    ca, cb = jacobi_recurrence_table(m, jp)
    with Precision(103).workdps(2 * GUARD_DIGITS):
        bits, two_alpha, four_beta = quadrature.scaled_recurrence(ca, cb, 5 * m.bit_length())
    for k, (a, b) in enumerate(zip(ca, cb)):
        assert abs(two_alpha[k] - 2 * a * 2 ** bits) <= 1, f"2 alpha_{k}"
        assert abs(four_beta[k] - 4 * b * 2 ** bits) <= 1, f"4 beta_{k}"


def _kernel_calls(monkeypatch, m, jp, p) -> int:
    """Calls of ``_eval_fixed`` while the order-m rule is built afresh."""
    calls = 0
    original = quadrature._eval_fixed

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(quadrature, "_eval_fixed", counted)
    gauss_jacobi_rule.cache_clear()
    assert len(gauss_jacobi_rule(m, jp, p).nodes) == m
    return calls


@pytest.mark.parametrize("a_s, b_s", [("1/3", "2"), ("-9/10", "5"), ("-1/2", "-1/2"),
                                      ("100", "-99/100")])
def test_rule_takes_three_kernel_evaluations_per_node(monkeypatch, a_s, b_s):
    """Work guard, by count: from float seeds the order-62 rule at 74 digits
    takes at most 3m fixed-point evaluations, two Halley steps and one that
    accepts the node and serves its weight. ``compare --n 10:30:10`` builds
    its order-62 rule at 103 digits (74 plus the conditioning guard of size
    30), past this guard: there a few nodes take a fourth (187-189 calls)."""
    assert _kernel_calls(monkeypatch, 62, JacobiParams(a_s, b_s), Precision(74)) <= 3 * 62


@pytest.mark.parametrize("m, digits", [(124, 64), (120, 64), (124, 32)])
def test_rule_stays_exact_where_halley_needs_its_bracket(monkeypatch, m, digits):
    """At exponents (100, 60) |Q_m| is about 2^-58 near the weight's peak,
    x = -0.32 to -0.08. Screened at x = +-1 alone, the fixed point kept no bits
    for it, the Halley steps of a few nodes there stalled at the rounding level
    of Q_m short of the one-unit test, and the bracket settled each once a
    measured sign change was 2^-(prec-16) wide (370 evaluations at m = 120 and
    64 digits). Screened also at the weight's mean, alpha_0 = -0.25, the width
    carries those bits, no node stalls, and the rule takes at most 3m
    evaluations and integrates every monomial through degree 2m-1 to within
    10^2 units of its working precision."""
    jp, p = JacobiParams(100, 60), Precision(digits)
    assert _kernel_calls(monkeypatch, m, jp, p) <= 3 * m
    rule = gauss_jacobi_rule(m, jp, p)
    with p.workdps(2 * GUARD_DIGITS):
        mu0 = jacobi_moment(0, jp, Precision(mpmath.mp.dps))
        terms, worst = list(rule.weights), 0
        for ratio in jacobi_moment_ratios(2 * m, jp):
            worst = max(worst, abs(mpmath.fsum(terms) / (mu0 * to_mpf(ratio)) - 1))
            terms = [t * x for t, x in zip(terms, rule.nodes)]
        assert worst < mpmath.mpf(10) ** (2 - mpmath.mp.dps)


@pytest.mark.parametrize("a_s, b_s", [("1/3", "2"), ("2/3", "1/3"), ("1/2", "0"),
                                      ("-1/2", "3/2"), ("-1/2", "-1/2"), ("-9/10", "5"),
                                      ("100", "-99/100")])
def test_compare_sweep_rule_takes_at_most_3m_plus_4_kernel_evaluations(monkeypatch, a_s, b_s):
    """Work guard for the rule ``compare --n 10:30:10`` builds: order 62 at
    103 digits (74 plus the conditioning guard of size 30). The float seeds
    leave a few nodes a fourth evaluation there (186-189 calls), so the bound
    is 3m + 4."""
    p = Precision(74 + _conditioning_guard(30))
    assert _kernel_calls(monkeypatch, 62, JacobiParams(a_s, b_s), p) <= 3 * 62 + 4


def test_rule_takes_three_kernel_evaluations_near_a_large_exponent(monkeypatch):
    """At exponents (60, 0) the nodes crowd the far endpoint, where Halley's
    error constant is largest; the order-40 rule still takes at most 3m
    evaluations."""
    assert _kernel_calls(monkeypatch, 40, JacobiParams(60, 0), Precision(74)) <= 3 * 40


@pytest.mark.parametrize("a_s, b_s", [("1/2", "0"), ("100", "60"), ("-9/10", "3"),
                                      ("100", "-99/100"), ("-1/2", "-1/2")])
def test_seeds_are_the_jacobi_matrix_eigenvalues(monkeypatch, a_s, b_s):
    """The float seeds, the Jacobi matrix's eigenvalues by shifted QL,
    increase strictly and lie within 1e-14 of the rule's nodes, from one
    node to orders where the nodes crowd the endpoints."""
    seeds = []
    seed_nodes = quadrature._seed_nodes

    def kept(*args):
        seeds.append(seed_nodes(*args))
        return seeds[-1]

    monkeypatch.setattr(quadrature, "_seed_nodes", kept)
    gauss_jacobi_rule.cache_clear()
    for m in (1, 2, 62, 248):
        nodes = gauss_jacobi_rule(m, JacobiParams(a_s, b_s), Precision(32)).nodes
        assert len(seeds[-1]) == m
        assert all(x < y for x, y in zip(seeds[-1], seeds[-1][1:])), m
        assert max(abs(s - x) for s, x in zip(seeds[-1], nodes)) < 1e-14, m


def test_rule_raises_on_a_bracket_that_holds_no_root(monkeypatch):
    """A seed moved next to its right neighbour leaves its bracket, the
    midpoints between neighbouring seeds, without a sign change of Q_m:
    the rule names that node rather than returning a wrong one."""
    seed_nodes = quadrature._seed_nodes

    def crowded(*args, **kwargs):
        seeds = seed_nodes(*args, **kwargs)
        seeds[10] = seeds[11] - 1e-9
        return seeds

    monkeypatch.setattr(quadrature, "_seed_nodes", crowded)
    gauss_jacobi_rule.cache_clear()
    with pytest.raises(RootFindError, match="node 10 of order-40 rule"):
        gauss_jacobi_rule(40, JacobiParams("1/3", "2"), P64)


@pytest.mark.parametrize("digits", [40, 111])
def test_lobatto_table_within_one_ulp(digits):
    """Each node cos(pi t / M), and each twiddle sine sin(pi t / M), t < M,
    that the transform reads from the node table as cos_t[|M/2 - t|], is
    within one unit of its last place of mpmath's cospi and sinpi, which take
    the angle exactly (cos(pi * t / M) rounds pi first, so near its zeros it
    is off by many of its own units)."""
    quadrature._quarter.cache_clear()
    with mpmath.workdps(digits):
        for M in (1, 2, 4, 64, 256):
            cos_t = quadrature.lobatto_cos(M)
            assert len(cos_t) == M + 1
            pairs = [(cos_t[t], mpmath.cospi(mpmath.mpf(t) / M)) for t in range(M + 1)]
            if M >= 2:
                pairs += [(cos_t[abs(M // 2 - t)], mpmath.sinpi(mpmath.mpf(t) / M))
                          for t in range(M)]
            for i, (got, want) in enumerate(pairs):
                ulp = mpmath.ldexp(1, mpmath.mag(want) - mpmath.mp.prec) if want else 0
                assert abs(got - want) <= ulp, (M, i)


def test_coarser_lobatto_table_is_a_stride_of_a_finer_one():
    """Built alone or after a finer one, the degree-M table is every
    (256/M)-th entry of the degree-256 table."""
    with mpmath.workdps(72):
        quadrature._quarter.cache_clear()
        fine = quadrature.lobatto_cos(256)
        for M in (1, 2, 4, 64, 128):
            stride = 256 // M
            assert quadrature.lobatto_cos(M) == fine[::stride]
            quadrature._quarter.cache_clear()
            assert quadrature.lobatto_cos(M) == fine[::stride]


@pytest.mark.parametrize("m, a_s, b_s", [(208, "1/3", "2"), (150, "0", "-1/2"),
                                         (150, "100", "-99/100")])
def test_high_order_rule_is_exact(m, a_s, b_s):
    """A rule of order 150 or more integrates every x^k, k <= 2m-1, exactly."""
    jp = JacobiParams(a_s, b_s)
    rule = gauss_jacobi_rule(m, jp, P64)
    with mpmath.workdps(80):
        mu0 = jacobi_moment(0, jp, P64)
        sums = [mpmath.mpf(0)] * (2 * m)
        for x, w in zip(rule.nodes, rule.weights):
            xk = w
            for k in range(2 * m):
                sums[k] += xk
                xk *= x
        for k, ratio in enumerate(jacobi_moment_ratios(2 * m, jp)):
            assert abs(sums[k] - mu0 * to_mpf(ratio)) < 1e-52 * mu0, f"k={k}"
